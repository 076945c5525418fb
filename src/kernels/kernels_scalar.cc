// Scalar reference tier, plus the eight plain ops that have no vector tier
// (Sum, SumSquares, Dot, BceSweep, SoftplusSigmoidSweep, Relu, ReluGrad,
// TopTwo). Every loop here except the decoder's SoftplusSigmoidSweep and
// the branch-free Relu pair is the pre-dispatch implementation moved
// verbatim from matrix.cc / csr.cc / assignments.cc / optimizer.cc /
// autograd.cc / operators.cc / gmm.cc / kmeans.cc: same zero-skips, same
// accumulation chains and the same loop order, except that GmmMStep walks
// the rows outermost. Golden-number tests pin these bits (DESIGN.md §9),
// so the AVX2 tier must reproduce them and behaviour changes never land
// here.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/kernels/kernels.h"

namespace rgae {
namespace kernels {
namespace scalar {

void MatMulRow(const double* a_row, const double* b, double* out_row, int k,
               int n) {
  for (int kk = 0; kk < k; ++kk) {
    const double aik = a_row[kk];
    if (aik == 0.0) continue;
    const double* b_row = b + static_cast<size_t>(kk) * n;
    for (int j = 0; j < n; ++j) out_row[j] += aik * b_row[j];
  }
}

void MatMul(const double* a, const double* b, double* out, int m, int k,
            int n) {
  // i-k-j order: streams through b and out rows for cache friendliness.
  for (int i = 0; i < m; ++i) {
    MatMulRow(a + static_cast<size_t>(i) * k, b,
              out + static_cast<size_t>(i) * n, k, n);
  }
}

void MatMulTransA(const double* a, const double* b, double* out, int k, int m,
                  int n) {
  for (int kk = 0; kk < k; ++kk) {
    const double* a_row = a + static_cast<size_t>(kk) * m;
    const double* b_row = b + static_cast<size_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const double aki = a_row[i];
      if (aki == 0.0) continue;
      double* out_row = out + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) out_row[j] += aki * b_row[j];
    }
  }
}

void MatMulTransB(const double* a, const double* b, double* out, int m, int k,
                  int n) {
  for (int i = 0; i < m; ++i) {
    const double* a_row = a + static_cast<size_t>(i) * k;
    double* out_row = out + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const double* b_row = b + static_cast<size_t>(j) * k;
      double s = 0.0;
      for (int kk = 0; kk < k; ++kk) s += a_row[kk] * b_row[kk];
      out_row[j] = s;
    }
  }
}

void SpmmRow(const int* cols, const double* vals, int count, const double* x,
             int x_cols, double* out_row) {
  for (int k = 0; k < count; ++k) {
    const double v = vals[k];
    const double* x_row = x + static_cast<size_t>(cols[k]) * x_cols;
    for (int c = 0; c < x_cols; ++c) out_row[c] += v * x_row[c];
  }
}

void Spmm(const int* row_ptr, const int* col_idx, const double* vals,
          int rows, const double* x, int x_cols, double* out) {
  for (int r = 0; r < rows; ++r) {
    SpmmRow(col_idx + row_ptr[r], vals + row_ptr[r],
            row_ptr[r + 1] - row_ptr[r], x, x_cols,
            out + static_cast<size_t>(r) * x_cols);
  }
}

void SpmmScatter(const int* row_ptr, const int* col_idx, const double* vals,
                 int rows, const double* x, int x_cols, double* out) {
  for (int r = 0; r < rows; ++r) {
    const double* x_row = x + static_cast<size_t>(r) * x_cols;
    for (int k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const double v = vals[k];
      double* out_row = out + static_cast<size_t>(col_idx[k]) * x_cols;
      for (int c = 0; c < x_cols; ++c) out_row[c] += v * x_row[c];
    }
  }
}

void StudentT(const double* z, int n, int d, const double* centers, int k,
              double* p) {
  for (int i = 0; i < n; ++i) {
    const double* z_row = z + static_cast<size_t>(i) * d;
    double* p_row = p + static_cast<size_t>(i) * k;
    double sum = 0.0;
    for (int j = 0; j < k; ++j) {
      const double* c_row = centers + static_cast<size_t>(j) * d;
      double dist = 0.0;
      for (int c = 0; c < d; ++c) {
        const double diff = z_row[c] - c_row[c];
        dist += diff * diff;
      }
      const double u = 1.0 / (1.0 + dist);
      p_row[j] = u;
      sum += u;
    }
    for (int j = 0; j < k; ++j) p_row[j] /= sum;
  }
}

void Gaussian(const double* z, int n, int d, const double* centers,
              const double* variances, int k, double* p) {
  for (int i = 0; i < n; ++i) {
    const double* z_row = z + static_cast<size_t>(i) * d;
    double* p_row = p + static_cast<size_t>(i) * k;
    double row_max = -1e300;
    // p_row doubles as logit scratch until the exp pass below.
    for (int j = 0; j < k; ++j) {
      const double* c_row = centers + static_cast<size_t>(j) * d;
      const double* v_row = variances + static_cast<size_t>(j) * d;
      double s = 0.0;
      for (int c = 0; c < d; ++c) {
        const double diff = z_row[c] - c_row[c];
        s += diff * diff / std::max(v_row[c], 1e-6);
      }
      p_row[j] = -0.5 * s;
      row_max = std::max(row_max, p_row[j]);
    }
    double sum = 0.0;
    for (int j = 0; j < k; ++j) {
      p_row[j] = std::exp(p_row[j] - row_max);
      sum += p_row[j];
    }
    for (int j = 0; j < k; ++j) p_row[j] /= sum;
  }
}

void AdamStep(double* value, const double* grad, double* m1, double* m2,
              int64_t n, double beta1, double beta2, double lr, double eps,
              double bc1, double bc2) {
  for (int64_t i = 0; i < n; ++i) {
    m1[i] = beta1 * m1[i] + (1.0 - beta1) * grad[i];
    m2[i] = beta2 * m2[i] + (1.0 - beta2) * grad[i] * grad[i];
    const double mhat = m1[i] / bc1;
    const double vhat = m2[i] / bc2;
    value[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

void GmmLogJoint(const double* x, int n, int d, const double* means,
                 const double* variances, const double* log_norm, int k,
                 double* lj) {
  for (int i = 0; i < n; ++i) {
    const double* x_row = x + static_cast<size_t>(i) * d;
    double* lj_row = lj + static_cast<size_t>(i) * k;
    for (int c = 0; c < k; ++c) {
      const double* m_row = means + static_cast<size_t>(c) * d;
      const double* v_row = variances + static_cast<size_t>(c) * d;
      double s = log_norm[c];
      for (int j = 0; j < d; ++j) {
        const double diff = x_row[j] - m_row[j];
        s -= 0.5 * diff * diff / std::max(v_row[j], kGmmVarianceFloor);
      }
      lj_row[c] = s;
    }
  }
}

void GmmMStep(const double* x, int n, int d, const double* resp, int k,
              double min_variance, double* nk, double* means,
              double* variances) {
  // One pass over the rows into the k·d mean sums, then one into the
  // variance sums: each accumulator still sees its rows in ascending
  // order, as the per-(c, j) loops over i did.
  const size_t kd = static_cast<size_t>(k) * d;
  std::fill(nk, nk + k, 0.0);
  std::fill(means, means + kd, 0.0);
  for (int i = 0; i < n; ++i) {
    const double* x_row = x + static_cast<size_t>(i) * d;
    const double* r_row = resp + static_cast<size_t>(i) * k;
    for (int c = 0; c < k; ++c) {
      const double r = r_row[c];
      nk[c] += r;
      double* m_row = means + static_cast<size_t>(c) * d;
      for (int j = 0; j < d; ++j) m_row[j] += r * x_row[j];
    }
  }
  for (int c = 0; c < k; ++c) {
    nk[c] = std::max(nk[c], 1e-10);
    double* m_row = means + static_cast<size_t>(c) * d;
    for (int j = 0; j < d; ++j) m_row[j] /= nk[c];
  }
  std::fill(variances, variances + kd, 0.0);
  for (int i = 0; i < n; ++i) {
    const double* x_row = x + static_cast<size_t>(i) * d;
    const double* r_row = resp + static_cast<size_t>(i) * k;
    for (int c = 0; c < k; ++c) {
      const double r = r_row[c];
      const double* m_row = means + static_cast<size_t>(c) * d;
      double* v_row = variances + static_cast<size_t>(c) * d;
      for (int j = 0; j < d; ++j) {
        const double diff = x_row[j] - m_row[j];
        v_row[j] += r * diff * diff;
      }
    }
  }
  for (int c = 0; c < k; ++c) {
    double* v_row = variances + static_cast<size_t>(c) * d;
    for (int j = 0; j < d; ++j) {
      v_row[j] = std::max(min_variance, v_row[j] / nk[c]);
    }
  }
}

void NearestCenter(const double* x, int n, int d, const double* centers,
                   int k, int* assign, double* best) {
  for (int i = 0; i < n; ++i) {
    const double* x_row = x + static_cast<size_t>(i) * d;
    double best_dist = std::numeric_limits<double>::max();
    int best_c = 0;
    for (int c = 0; c < k; ++c) {
      const double* c_row = centers + static_cast<size_t>(c) * d;
      double dist = 0.0;
      for (int j = 0; j < d; ++j) {
        const double diff = x_row[j] - c_row[j];
        dist += diff * diff;
      }
      if (dist < best_dist) {
        best_dist = dist;
        best_c = c;
      }
    }
    assign[i] = best_c;
    if (best != nullptr) best[i] = best_dist;
  }
}

}  // namespace scalar

double Sum(const double* p, int64_t n) {
  double s = 0.0;
  for (int64_t i = 0; i < n; ++i) s += p[i];
  return s;
}

double SumSquares(const double* p, int64_t n) {
  double s = 0.0;
  for (int64_t i = 0; i < n; ++i) s += p[i] * p[i];
  return s;
}

double Dot(const double* a, const double* b, int64_t n) {
  double s = 0.0;
  for (int64_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

double BceSweep(const double* s, int64_t n) {
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    // Numerically stable softplus: log(1 + exp(x)).
    loss += std::log1p(std::exp(-std::abs(s[i]))) + std::max(s[i], 0.0);
  }
  return loss;
}

double SoftplusSigmoidSweep(const double* s, int count, double* sigma) {
  double m = 0.0;  // Π(1 + e) - 1 over the logits so far.
  double linear = 0.0;
  for (int i = 0; i < count; ++i) {
    const double e = std::exp(-std::abs(s[i]));
    sigma[i] = (s[i] >= 0.0 ? 1.0 : e) / (1.0 + e);
    m = m + (e + m * e);
    // Σ max(s, 0) without a branch on the sign, which flips between
    // neighbouring logits about half the time: a negative s is cleared by
    // its own sign bit. For s = -0.0 or -inf this adds +0.0 where max gave
    // -0.0 or 0.0; linear starts at +0.0 and never becomes -0.0, so the
    // sum keeps its bits.
    const int64_t bits = std::bit_cast<int64_t>(s[i]);
    linear += std::bit_cast<double>(bits & ~(bits >> 63));
  }
  return std::log1p(m) + linear;
}

void Relu(double* p, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    // std::max(x, 0.0)'s bits, -0.0 and NaN included, from a mask rather
    // than a branch: x is kept unless x < 0.
    const uint64_t keep = -static_cast<uint64_t>(!(p[i] < 0.0));
    p[i] = std::bit_cast<double>(std::bit_cast<uint64_t>(p[i]) & keep);
  }
}

void ReluGrad(const double* value, const double* g, double* ga, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    // Selects ga + g where value > 0 and ga's own bits elsewhere, as the
    // branch `if (value > 0.0) ga += g` does.
    const uint64_t take = -static_cast<uint64_t>(value[i] > 0.0);
    const uint64_t sum = std::bit_cast<uint64_t>(ga[i] + g[i]);
    const uint64_t kept = std::bit_cast<uint64_t>(ga[i]);
    ga[i] = std::bit_cast<double>((sum & take) | (kept & ~take));
  }
}

void TopTwo(const double* p, int n, int k, double* lambda1, double* lambda2) {
  for (int i = 0; i < n; ++i) {
    const double* row = p + static_cast<size_t>(i) * k;
    double l1 = -std::numeric_limits<double>::max();
    double l2 = -std::numeric_limits<double>::max();
    for (int j = 0; j < k; ++j) {
      const double v = row[j];
      if (v > l1) {
        l2 = l1;
        l1 = v;
      } else if (v > l2) {
        l2 = v;
      }
    }
    lambda1[i] = l1;
    lambda2[i] = l2;
  }
}

}  // namespace kernels
}  // namespace rgae
