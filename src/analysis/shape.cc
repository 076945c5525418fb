#include "src/analysis/shape.h"

#include <cstdint>
#include <limits>

#include "src/graph/csr.h"

namespace rgae {

namespace {

[[noreturn]] void Fail(const char* op, const std::string& detail) {
  throw TapeError(std::string("Tape::") + op + ": " + detail);
}

}  // namespace

std::string Shape::ToString() const {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

Shape InferMatMul(const Shape& a, const Shape& b) {
  if (a.cols != b.rows) {
    Fail("MatMul", "inner dimensions disagree: " + a.ToString() + " * " +
                       b.ToString());
  }
  return {a.rows, b.cols};
}

Shape InferSpmm(const Shape& s, const Shape& x) {
  if (s.cols != x.rows) {
    Fail("Spmm", "sparse operand is " + s.ToString() +
                     " but dense operand is " + x.ToString());
  }
  return {s.rows, x.cols};
}

Shape InferElementwise(const char* op, const Shape& a, const Shape& b) {
  if (a != b) {
    Fail(op, "operand shapes disagree: " + a.ToString() + " vs " +
                 b.ToString());
  }
  return a;
}

Shape InferAddRowBroadcast(const Shape& a, const Shape& bias) {
  if (bias.rows != 1 || bias.cols != a.cols) {
    Fail("AddRowBroadcast", "bias must be 1x" + std::to_string(a.cols) +
                                " for input " + a.ToString() + ", got " +
                                bias.ToString());
  }
  return a;
}

Shape InferGatherRows(const Shape& a, const std::vector<int>& rows) {
  CheckRowSubset("GatherRows", rows, a.rows);
  return {static_cast<int>(rows.size()), a.cols};
}

Shape InferInnerProductBce(const Shape& z, const Shape& target) {
  if (target.rows != z.rows || target.cols != z.rows) {
    Fail("InnerProductBceLoss",
         "target must be " + std::to_string(z.rows) + "x" +
             std::to_string(z.rows) + " for embeddings " + z.ToString() +
             ", got " + target.ToString());
  }
  const int64_t pairs = static_cast<int64_t>(z.rows) * (z.rows + 1) / 2;
  if (pairs > std::numeric_limits<int>::max()) {
    Fail("InnerProductBceLoss",
         std::to_string(z.rows) + " nodes need a packed sigma cache of " +
             std::to_string(pairs) + " entries, more than an int can index");
  }
  return {1, 1};
}

void CheckSymmetricPositives(const char* op, const CsrMatrix& target) {
  const std::vector<int>& row_ptr = target.row_ptr();
  const std::vector<int>& col_idx = target.col_idx();
  const std::vector<double>& values = target.values();
  // Every upper positive (i, j > i) must find its mirror (j, i) in row j.
  // Rows are visited in ascending i, so each row's mirrors are met in
  // ascending column order and one forward cursor per row finds them all
  // in O(nnz). Equal upper and lower counts then leave no lower positive
  // without an upper mirror.
  std::vector<int> cursor(row_ptr.begin(), row_ptr.end() - 1);
  int64_t upper = 0;
  int64_t lower = 0;
  bool symmetric = true;
  for (int i = 0; i < target.rows() && symmetric; ++i) {
    for (int k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const int j = col_idx[k];
      if (values[k] == 0.0 || j == i) continue;
      if (j < i) {
        ++lower;
        continue;
      }
      ++upper;
      int& m = cursor[j];
      while (m < row_ptr[j + 1] && col_idx[m] < i) ++m;
      if (m == row_ptr[j + 1] || col_idx[m] != i || values[m] == 0.0) {
        symmetric = false;
        break;
      }
    }
  }
  if (symmetric && upper == lower) return;
  // Name the first positive without a positive mirror.
  for (int i = 0; i < target.rows(); ++i) {
    for (int k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const int j = col_idx[k];
      if (values[k] != 0.0 && target.At(j, i) == 0.0) {
        Fail(op, "target positives must be symmetric: (" + std::to_string(i) +
                     ", " + std::to_string(j) + ") is positive but (" +
                     std::to_string(j) + ", " + std::to_string(i) +
                     ") is not");
      }
    }
  }
}

Shape InferGaussianKl(const Shape& mu, const Shape& logvar) {
  if (mu != logvar) {
    Fail("GaussianKlLoss", "mu is " + mu.ToString() + " but logvar is " +
                               logvar.ToString());
  }
  return {1, 1};
}

Shape InferKMeans(const Shape& z, const Shape& centers,
                  const std::vector<int>& assign,
                  const std::vector<int>& rows) {
  if (centers.cols != z.cols) {
    Fail("KMeansLoss", "centers are " + centers.ToString() +
                           " but embeddings are " + z.ToString());
  }
  if (static_cast<int>(assign.size()) != z.rows) {
    Fail("KMeansLoss",
         "expected one assignment per embedding row (" +
             std::to_string(z.rows) + "), got " +
             std::to_string(assign.size()));
  }
  for (int a : assign) {
    if (a < 0 || a >= centers.rows) {
      Fail("KMeansLoss", "assignment " + std::to_string(a) +
                             " out of range [0, " +
                             std::to_string(centers.rows) + ")");
    }
  }
  CheckRowSubset("KMeansLoss", rows, z.rows);
  return {1, 1};
}

Shape InferDecKl(const Shape& z, const Shape& centers, const Shape& target_q,
                 const std::vector<int>& rows) {
  if (centers.cols != z.cols) {
    Fail("DecKlLoss", "centers are " + centers.ToString() +
                          " but embeddings are " + z.ToString());
  }
  if (target_q.rows != z.rows || target_q.cols != centers.rows) {
    Fail("DecKlLoss", "target Q must be " + std::to_string(z.rows) + "x" +
                          std::to_string(centers.rows) + ", got " +
                          target_q.ToString());
  }
  CheckRowSubset("DecKlLoss", rows, z.rows);
  return {1, 1};
}

Shape InferGmmMixture(const char* op, const Shape& z, const Shape& means,
                      const Shape& logvars, const Shape& pi_logits,
                      const std::vector<int>& rows) {
  if (means.cols != z.cols) {
    Fail(op, "means are " + means.ToString() + " but embeddings are " +
                 z.ToString());
  }
  if (logvars != means) {
    Fail(op, "logvars are " + logvars.ToString() + " but means are " +
                 means.ToString());
  }
  if (pi_logits.rows != 1 || pi_logits.cols != means.rows) {
    Fail(op, "mixture logits must be 1x" + std::to_string(means.rows) +
                 ", got " + pi_logits.ToString());
  }
  CheckRowSubset(op, rows, z.rows);
  return {1, 1};
}

Shape InferGmmKl(const Shape& z, const Shape& means, const Shape& logvars,
                 const Shape& pi_logits, const Shape& target_q,
                 const std::vector<int>& rows) {
  InferGmmMixture("GmmKlLoss", z, means, logvars, pi_logits, rows);
  if (target_q.rows != z.rows || target_q.cols != means.rows) {
    Fail("GmmKlLoss", "target Q must be " + std::to_string(z.rows) + "x" +
                          std::to_string(means.rows) + ", got " +
                          target_q.ToString());
  }
  return {1, 1};
}

Shape InferBceWithLogits(const Shape& logits, const Shape& targets) {
  if (targets != logits) {
    Fail("BceWithLogits", "targets are " + targets.ToString() +
                              " but logits are " + logits.ToString());
  }
  return {1, 1};
}

Shape InferAddScalars(const Shape& a, const Shape& b) {
  if (!a.scalar() || !b.scalar()) {
    Fail("AddScalars", "both operands must be 1x1, got " + a.ToString() +
                           " and " + b.ToString());
  }
  return {1, 1};
}

void CheckRowSubset(const char* op, const std::vector<int>& rows,
                    int num_rows) {
  for (int r : rows) {
    if (r < 0 || r >= num_rows) {
      Fail(op, "row index " + std::to_string(r) + " out of range [0, " +
                   std::to_string(num_rows) + ")");
    }
  }
}

}  // namespace rgae
