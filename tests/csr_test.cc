#include "src/graph/csr.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/tensor/random.h"

namespace rgae {
namespace {

CsrMatrix PathGraph3() {
  // 0 - 1 - 2.
  return CsrMatrix::FromTriplets(
      3, 3, {{0, 1, 1.0}, {1, 0, 1.0}, {1, 2, 1.0}, {2, 1, 1.0}});
}

TEST(CsrTest, FromTripletsBasic) {
  const CsrMatrix m = PathGraph3();
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 4);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 0.0);
  EXPECT_TRUE(m.Contains(1, 2));
  EXPECT_FALSE(m.Contains(2, 0));
}

TEST(CsrTest, DuplicateTripletsAreSummed) {
  const CsrMatrix m = CsrMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.5}, {1, 1, 1.0}});
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 3.5);
}

TEST(CsrTest, EmptyMatrix) {
  const CsrMatrix m = CsrMatrix::FromTriplets(3, 3, {});
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.0);
  EXPECT_EQ(m.RowNnz(0), 0);
}

TEST(CsrTest, Identity) {
  const CsrMatrix id = CsrMatrix::Identity(4);
  EXPECT_EQ(id.nnz(), 4);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(id.At(i, i), 1.0);
}

TEST(CsrTest, RowCols) {
  const CsrMatrix m = PathGraph3();
  const std::vector<int> cols = m.RowCols(1);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], 0);
  EXPECT_EQ(cols[1], 2);
}

TEST(CsrTest, MultiplyMatchesDense) {
  const CsrMatrix m = PathGraph3();
  Matrix x(3, 2, {1, 2, 3, 4, 5, 6});
  const Matrix sparse_result = m.Multiply(x);
  const Matrix dense_result = MatMul(m.ToDense(), x);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_DOUBLE_EQ(sparse_result(r, c), dense_result(r, c));
    }
  }
}

TEST(CsrTest, MultiplyTransposedMatchesDense) {
  const CsrMatrix m = CsrMatrix::FromTriplets(
      2, 3, {{0, 0, 2.0}, {0, 2, 1.0}, {1, 1, 3.0}});
  Matrix x(2, 2, {1, 2, 3, 4});
  const Matrix got = m.MultiplyTransposed(x);
  const Matrix expected = MatMul(m.ToDense().Transposed(), x);
  ASSERT_EQ(got.rows(), 3);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 2; ++c) EXPECT_DOUBLE_EQ(got(r, c), expected(r, c));
  }
}

TEST(CsrTest, RowSums) {
  const CsrMatrix m = PathGraph3();
  const std::vector<double> sums = m.RowSums();
  EXPECT_DOUBLE_EQ(sums[0], 1.0);
  EXPECT_DOUBLE_EQ(sums[1], 2.0);
  EXPECT_DOUBLE_EQ(sums[2], 1.0);
}

TEST(CsrTest, AddSelfLoops) {
  const CsrMatrix m = PathGraph3().AddSelfLoops();
  EXPECT_EQ(m.nnz(), 7);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(m.At(i, i), 1.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 1.0);
}

TEST(CsrTest, SymmetricNormalization) {
  const CsrMatrix norm = PathGraph3().AddSelfLoops().SymmetricallyNormalized();
  // Node degrees (with self loops): d0 = 2, d1 = 3, d2 = 2.
  EXPECT_NEAR(norm.At(0, 0), 1.0 / 2.0, 1e-12);
  EXPECT_NEAR(norm.At(0, 1), 1.0 / std::sqrt(6.0), 1e-12);
  EXPECT_NEAR(norm.At(1, 1), 1.0 / 3.0, 1e-12);
  // Symmetry.
  EXPECT_NEAR(norm.At(1, 0), norm.At(0, 1), 1e-12);
}

TEST(CsrTest, NormalizationSkipsZeroRows) {
  const CsrMatrix m =
      CsrMatrix::FromTriplets(3, 3, {{0, 1, 1.0}, {1, 0, 1.0}});
  const CsrMatrix norm = m.SymmetricallyNormalized();
  EXPECT_EQ(norm.RowNnz(2), 0);
  EXPECT_NEAR(norm.At(0, 1), 1.0, 1e-12);
}

TEST(CsrTest, ToTripletsRoundTrip) {
  const CsrMatrix m = PathGraph3();
  const CsrMatrix rebuilt =
      CsrMatrix::FromTriplets(m.rows(), m.cols(), m.ToTriplets());
  EXPECT_TRUE(m == rebuilt);
}

TEST(CsrTest, FromDenseKeepsExactlyTheNonZerosRowMajor) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Row 1 holds only zeros of both signs; row 2 holds no zero at all.
  const Matrix dense(4, 4, {0.0, 2.5, -0.0, -1.0,   //
                            0.0, -0.0, 0.0, 0.0,    //
                            3.0, nan, -inf, inf,    //
                            -0.0, 0.0, 0.0, 4.0});
  const CsrMatrix m = CsrMatrix::FromDense(dense);
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.row_ptr(), (std::vector<int>{0, 2, 2, 6, 7}));
  EXPECT_EQ(m.col_idx(), (std::vector<int>{1, 3, 0, 1, 2, 3, 3}));
  const std::vector<double>& v = m.values();
  ASSERT_EQ(v.size(), 7u);
  EXPECT_EQ(v[0], 2.5);
  EXPECT_EQ(v[1], -1.0);
  EXPECT_EQ(v[2], 3.0);
  EXPECT_TRUE(std::isnan(v[3]));
  EXPECT_EQ(v[4], -inf);
  EXPECT_EQ(v[5], inf);
  EXPECT_EQ(v[6], 4.0);
  EXPECT_EQ(m.RowNnz(1), 0);
}

TEST(CsrTest, FromDenseOfZeroAndEmptyMatrices) {
  const CsrMatrix zeros = CsrMatrix::FromDense(Matrix(3, 5));
  EXPECT_EQ(zeros.rows(), 3);
  EXPECT_EQ(zeros.cols(), 5);
  EXPECT_EQ(zeros.nnz(), 0);
  EXPECT_EQ(zeros.row_ptr(), (std::vector<int>{0, 0, 0, 0}));
  const CsrMatrix empty = CsrMatrix::FromDense(Matrix());
  EXPECT_EQ(empty.rows(), 0);
  EXPECT_EQ(empty.nnz(), 0);
  EXPECT_EQ(empty.row_ptr(), (std::vector<int>{0}));
}

TEST(CsrTest, FromDenseRoundTripsThroughToDense) {
  // Holds whenever the input has no -0.0, which FromDense drops.
  Matrix dense(5, 7);
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 7; ++c) {
      if ((r * 7 + c) % 3 != 0 && r != 2) dense(r, c) = 0.25 * (r - c);
    }
  }
  const CsrMatrix m = CsrMatrix::FromDense(dense);
  // FromTriplets sorts, so equality also checks columns ascend per row.
  EXPECT_TRUE(m == CsrMatrix::FromTriplets(5, 7, m.ToTriplets()));
  const Matrix back = m.ToDense();
  ASSERT_EQ(back.rows(), 5);
  ASSERT_EQ(back.cols(), 7);
  for (size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(back.data()[i], dense.data()[i]) << "flat index " << i;
  }
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Same shape, row_ptr and col_idx, and the same value bits.
void ExpectSameCsr(const CsrMatrix& got, const CsrMatrix& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.col_idx(), want.col_idx());
  ASSERT_EQ(got.values().size(), want.values().size());
  for (size_t i = 0; i < want.values().size(); ++i) {
    EXPECT_EQ(Bits(got.values()[i]), Bits(want.values()[i]))
        << "value " << i;
  }
}

/// `m` + I through FromTriplets, as AddSelfLoops once built it.
CsrMatrix SelfLoopsByTriplets(const CsrMatrix& m) {
  std::vector<Triplet> t = m.ToTriplets();
  for (int i = 0; i < m.rows(); ++i) t.push_back({i, i, 1.0});
  return CsrMatrix::FromTriplets(m.rows(), m.cols(), std::move(t));
}

TEST(CsrTest, AddSelfLoopsMatchesTripletPath) {
  // Stored diagonals of every kind: ordinary, -1.0 (the sum is an explicit
  // 0.0), an explicit 0.0, -0.0, ±inf and NaN; rows with no entry at all;
  // rows whose entries all lie left or right of the diagonal.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double special[] = {2.5, -1.0, 0.0, -0.0, inf, -inf, nan};
  Rng rng(17);
  for (const int n : {0, 1, 2, 7, 40}) {
    for (const double density : {0.0, 0.1, 0.5, 1.0}) {
      std::vector<Triplet> t;
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
          if (!rng.Bernoulli(density)) continue;
          const double v = r == c ? special[rng.UniformInt(7)]
                                  : rng.Gaussian(0.0, 1.0);
          t.push_back({r, c, v});
        }
      }
      const CsrMatrix m = CsrMatrix::FromTriplets(n, n, std::move(t));
      SCOPED_TRACE("n " + std::to_string(n) + ", density " +
                   std::to_string(density));
      ExpectSameCsr(m.AddSelfLoops(), SelfLoopsByTriplets(m));
    }
  }
}

TEST(CsrTest, FromSortedRowsTakesTheLayout) {
  const CsrMatrix m = CsrMatrix::FromSortedRows(
      3, 4, {0, 2, 2, 3}, {0, 3, 1}, {1.5, -2.0, 4.0});
  ExpectSameCsr(m, CsrMatrix::FromTriplets(
                       3, 4, {{0, 0, 1.5}, {0, 3, -2.0}, {2, 1, 4.0}}));
  const CsrMatrix empty = CsrMatrix::FromSortedRows(0, 0, {0}, {}, {});
  EXPECT_EQ(empty.rows(), 0);
  EXPECT_EQ(empty.nnz(), 0);
}

TEST(CsrTest, Equality) {
  const CsrMatrix a = PathGraph3();
  const CsrMatrix b = PathGraph3();
  EXPECT_TRUE(a == b);
  const CsrMatrix c = CsrMatrix::FromTriplets(3, 3, {{0, 1, 1.0}});
  EXPECT_FALSE(a == c);
}

// Property sweep: normalized filter rows of Ã have spectral-friendly
// values: every entry in (0, 1] and Ã symmetric.
class NormalizationPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NormalizationPropertyTest, EntriesBoundedAndSymmetric) {
  const int n = GetParam();
  std::vector<Triplet> t;
  for (int i = 0; i < n; ++i) {
    const int j = (i * 7 + 3) % n;
    if (i != j) {
      t.push_back({i, j, 1.0});
      t.push_back({j, i, 1.0});
    }
  }
  const CsrMatrix norm = CsrMatrix::FromTriplets(n, n, std::move(t))
                             .AddSelfLoops()
                             .SymmetricallyNormalized();
  for (const Triplet& e : norm.ToTriplets()) {
    EXPECT_GT(e.value, 0.0);
    EXPECT_LE(e.value, 1.0);
    EXPECT_NEAR(norm.At(e.col, e.row), e.value, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, NormalizationPropertyTest,
                         ::testing::Values(2, 5, 16, 33, 64));

}  // namespace
}  // namespace rgae
