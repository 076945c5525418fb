// Kernel-vs-scalar equivalence suite (DESIGN.md §9).
//
// Every dispatched op is checked against the scalar reference tier across
// a shape corpus that includes odd/tail sizes (non-multiple-of-vector-width
// rows and columns), empty matrices, and single-row inputs, under every
// ISA this machine supports. Every cross-tier comparison is bit-exact
// (EXPECT_EQ, tolerance 0): the matmul family, SpMM family, soft
// assignments, Adam, the GMM log joints and M-step, the nearest-center
// search and the fused decoder's sigma, gradient and loss. The
// fused decoder is also checked against the unfused composition it
// replaced: gradient bit-identical, loss within 1e-13 relative (a
// different summation order, not a different tier). Its per-segment sweep,
// SoftplusSigmoidSweep, is checked on its own against a long-double
// per-logit reference and, bit for bit, against the branching loop it
// replaced. SpMM over CsrMatrix::FromDense(X) is checked against the
// zero-skipping dense matmuls it replaced in the encoder: bit-identical.
// Those checks, MatMul and MatMulTransB compare bit patterns, so ±0 and
// NaN outputs count too.
//
// Same-ISA determinism is tolerance 0 for every op: repeated calls on the
// same inputs must produce the same bits, and the fused decoder's with 1,
// 2 or all pool workers.

#include "src/kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/csr.h"
#include "src/kernels/aligned.h"
#include "src/kernels/dispatch.h"
#include "src/kernels/parallel.h"
#include "src/tensor/autograd.h"
#include "src/tensor/matrix.h"
#include "src/tensor/random.h"

namespace rgae {
namespace {

using kernels::AlignedVector;
using kernels::Isa;

/// Restores the selected ISA on scope exit so a failing test cannot leak
/// its override into the rest of the binary.
class IsaGuard {
 public:
  IsaGuard() : saved_(kernels::SelectedIsa()) {}
  ~IsaGuard() { kernels::SetIsaForTesting(saved_); }

 private:
  Isa saved_;
};

/// Gaussian buffer with a fraction of exact zeros (exercises the aik==0
/// skip paths, which must be taken identically by every tier).
AlignedVector RandomBuffer(size_t n, Rng& rng, double zero_fraction = 0.0) {
  AlignedVector out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = rng.Bernoulli(zero_fraction) ? 0.0 : rng.Gaussian();
  }
  return out;
}

void ExpectBitEqual(const AlignedVector& got, const AlignedVector& want,
                    const char* what, Isa isa) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i])
        << what << " diverged from scalar at flat index " << i << " under "
        << kernels::IsaName(isa);
  }
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Bit-pattern equality over `n` doubles, so a sign-of-zero or NaN-payload
/// difference counts as a mismatch and two equal NaNs as a match.
void ExpectSameBits(const double* got, const double* want, size_t n,
                    const char* what, Isa isa) {
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(Bits(got[i]), Bits(want[i]))
        << what << " at flat index " << i << ": " << got[i] << " vs "
        << want[i] << " under " << kernels::IsaName(isa);
  }
}

// Odd/tail shapes on purpose: 1 exercises the single-row path, 0 the empty
// path, 13/17/33 the non-multiple-of-vector-width tails, 8/16/32 the clean
// vector paths.
struct MatShape {
  int m, k, n;
};
const MatShape kMatShapes[] = {
    {0, 0, 0}, {0, 4, 4},  {4, 0, 4},   {6, 5, 0},    {1, 1, 1},
    {1, 3, 5}, {2, 7, 9},  {3, 8, 8},   {5, 13, 17},  {4, 16, 32},
    {7, 33, 6}, {9, 5, 13}, {16, 16, 16}, {11, 24, 19},
};

TEST(KernelDispatchTest, SupportedIsasStartsWithScalar) {
  const std::vector<Isa> isas = kernels::SupportedIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), Isa::kScalar);
  for (size_t i = 1; i < isas.size(); ++i) {
    EXPECT_LT(kernels::IsaLevel(isas[i - 1]), kernels::IsaLevel(isas[i]));
  }
}

TEST(KernelDispatchTest, IsaNamesRoundTrip) {
  for (Isa isa : {Isa::kScalar, Isa::kAvx2}) {
    Isa parsed = Isa::kScalar;
    EXPECT_TRUE(kernels::IsaFromName(kernels::IsaName(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  Isa ignored;
  EXPECT_FALSE(kernels::IsaFromName("avx512", &ignored));
  EXPECT_FALSE(kernels::IsaFromName("sse9", &ignored));
  EXPECT_FALSE(kernels::IsaFromName("", &ignored));
}

TEST(KernelDispatchTest, SetIsaForTestingClampsToSupported) {
  IsaGuard guard;
  kernels::SetIsaForTesting(Isa::kAvx2);
  EXPECT_EQ(kernels::SelectedIsa(), kernels::BestSupportedIsa());
  kernels::SetIsaForTesting(Isa::kScalar);
  EXPECT_EQ(kernels::SelectedIsa(), Isa::kScalar);
}

TEST(KernelAlignmentTest, MatrixStorageIs64ByteAligned) {
  for (int rows : {1, 3, 10, 33}) {
    Matrix m(rows, 7);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) %
                  kernels::kBufferAlignment,
              0u)
        << "Matrix(" << rows << ",7)";
  }
}

TEST(KernelAlignmentTest, AlignedBufferBytesRoundsUpToWholeLines) {
  EXPECT_EQ(kernels::AlignedBufferBytes(0), 0u);
  EXPECT_EQ(kernels::AlignedBufferBytes(1), 64u);
  EXPECT_EQ(kernels::AlignedBufferBytes(8), 64u);
  EXPECT_EQ(kernels::AlignedBufferBytes(9), 128u);
  EXPECT_EQ(kernels::AlignedBufferBytes(200), 1600u);  // 10x20 stays exact.
}

TEST(KernelEquivalenceTest, MatMulBitIdenticalAcrossIsas) {
  // Compared as bit patterns. Beyond kMatShapes: the decoder backward's
  // C·Z tile (64×64 by 64×16); a shape with m % 4 == 0 and an n % 8 tail;
  // and that shape again with ±inf and NaN in rows of b that only zero
  // columns of a reach, which the aik == 0.0 skip must hide, and an
  // all-(−0.0) row of a.
  IsaGuard guard;
  Rng rng(1234);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    MatShape s;
    bool special;
  };
  std::vector<Case> cases;
  for (const MatShape& s : kMatShapes) cases.push_back({s, false});
  cases.push_back({{64, 64, 16}, false});
  cases.push_back({{12, 9, 19}, false});
  cases.push_back({{12, 9, 19}, true});
  for (const auto& [s, special] : cases) {
    AlignedVector a = RandomBuffer(static_cast<size_t>(s.m) * s.k, rng, 0.3);
    AlignedVector b = RandomBuffer(static_cast<size_t>(s.k) * s.n, rng);
    if (special) {
      // Columns 2 and 6 of a are zero (+0.0 and -0.0), so rows 2 and 6 of
      // b never reach an output; row 5 of a is all -0.0.
      for (int i = 0; i < s.m; ++i) {
        a[static_cast<size_t>(i) * s.k + 2] = 0.0;
        a[static_cast<size_t>(i) * s.k + 6] = -0.0;
      }
      std::fill_n(a.begin() + 5 * s.k, s.k, -0.0);
      for (int j = 0; j < s.n; ++j) {
        b[2 * static_cast<size_t>(s.n) + j] = j % 3 == 0 ? nan : inf;
        b[6 * static_cast<size_t>(s.n) + j] = j % 2 == 0 ? -inf : nan;
      }
    }
    const size_t outs = static_cast<size_t>(s.m) * s.n;
    AlignedVector want(outs, 0.0);
    kernels::scalar::MatMul(a.data(), b.data(), want.data(), s.m, s.k, s.n);
    if (special) {
      ASSERT_TRUE(std::all_of(want.begin(), want.end(),
                              [](double v) { return std::isfinite(v); }));
    }
    SCOPED_TRACE(::testing::Message() << s.m << "x" << s.k << " by " << s.k
                                      << "x" << s.n);
    for (Isa isa : kernels::SupportedIsas()) {
      kernels::SetIsaForTesting(isa);
      AlignedVector got(outs, 0.0);
      kernels::MatMul(a.data(), b.data(), got.data(), s.m, s.k, s.n);
      ExpectSameBits(got.data(), want.data(), outs, "MatMul", isa);
      // Same-ISA determinism: a second call reproduces the same bits.
      AlignedVector again(outs, 0.0);
      kernels::MatMul(a.data(), b.data(), again.data(), s.m, s.k, s.n);
      ExpectSameBits(again.data(), got.data(), outs, "MatMul(repeat)", isa);
    }
  }
}

TEST(KernelEquivalenceTest, MatMulRowMatchesFullMatMulRows) {
  IsaGuard guard;
  Rng rng(99);
  for (const MatShape& s : kMatShapes) {
    if (s.m == 0) continue;
    const AlignedVector a =
        RandomBuffer(static_cast<size_t>(s.m) * s.k, rng, 0.3);
    const AlignedVector b = RandomBuffer(static_cast<size_t>(s.k) * s.n, rng);
    for (Isa isa : kernels::SupportedIsas()) {
      kernels::SetIsaForTesting(isa);
      AlignedVector full(static_cast<size_t>(s.m) * s.n, 0.0);
      kernels::MatMul(a.data(), b.data(), full.data(), s.m, s.k, s.n);
      // The serve incremental path depends on row-for-row bit equality.
      for (int i = 0; i < s.m; ++i) {
        AlignedVector row(static_cast<size_t>(s.n), 0.0);
        kernels::MatMulRow(a.data() + static_cast<size_t>(i) * s.k, b.data(),
                           row.data(), s.k, s.n);
        for (int j = 0; j < s.n; ++j) {
          ASSERT_EQ(row[static_cast<size_t>(j)],
                    full[static_cast<size_t>(i) * s.n + j])
              << "row " << i << " col " << j << " under "
              << kernels::IsaName(isa);
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, MatMulTransABitIdenticalAcrossIsas) {
  IsaGuard guard;
  Rng rng(77);
  for (const MatShape& s : kMatShapes) {
    // a stored (k, m), b stored (k, n).
    const AlignedVector a =
        RandomBuffer(static_cast<size_t>(s.k) * s.m, rng, 0.3);
    const AlignedVector b = RandomBuffer(static_cast<size_t>(s.k) * s.n, rng);
    AlignedVector want(static_cast<size_t>(s.m) * s.n, 0.0);
    kernels::scalar::MatMulTransA(a.data(), b.data(), want.data(), s.k, s.m,
                                  s.n);
    for (Isa isa : kernels::SupportedIsas()) {
      kernels::SetIsaForTesting(isa);
      AlignedVector got(static_cast<size_t>(s.m) * s.n, 0.0);
      kernels::MatMulTransA(a.data(), b.data(), got.data(), s.k, s.m, s.n);
      ExpectBitEqual(got, want, "MatMulTransA", isa);
    }
  }
}

TEST(KernelEquivalenceTest, MatMulTransBBitIdenticalAcrossIsas) {
  // Compared as bit patterns. Beyond kMatShapes: the decoder's S tile
  // (64×16 by 64×16); a shape past two 4×4 blocks whose m, k and n are all
  // ≢ 0 mod 4; and that shape again with an all-(−0.0) row of a and sparse
  // ±inf entries in both operands, so some outputs are ±inf or NaN.
  IsaGuard guard;
  Rng rng(55);
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    MatShape s;
    bool special;
  };
  std::vector<Case> cases;
  for (const MatShape& s : kMatShapes) cases.push_back({s, false});
  cases.push_back({{64, 16, 64}, false});
  cases.push_back({{9, 18, 11}, false});
  cases.push_back({{9, 18, 11}, true});
  for (const auto& [s, special] : cases) {
    // a stored (m, k), b stored (n, k); out overwritten, no pre-zero needed,
    // but poison it to catch stale reads.
    AlignedVector a = RandomBuffer(static_cast<size_t>(s.m) * s.k, rng);
    AlignedVector b = RandomBuffer(static_cast<size_t>(s.n) * s.k, rng);
    if (special) {
      const int k = s.k;
      auto at = [k](AlignedVector& m, int row, int col) -> double& {
        return m[static_cast<size_t>(row) * k + col];
      };
      std::fill_n(&at(a, 2, 0), k, -0.0);
      at(a, 5, 3) = inf;
      at(a, 8, 17) = -inf;
      at(b, 1, 2) = -inf;
      at(b, 6, 0) = inf;
      at(b, 10, 17) = inf;
    }
    const size_t outs = static_cast<size_t>(s.m) * s.n;
    AlignedVector want(outs, -7.0);
    kernels::scalar::MatMulTransB(a.data(), b.data(), want.data(), s.m, s.k,
                                  s.n);
    if (special) {
      ASSERT_TRUE(std::any_of(want.begin(), want.end(),
                              [](double v) { return std::isnan(v); }));
      ASSERT_TRUE(std::any_of(want.begin(), want.end(),
                              [](double v) { return std::isinf(v); }));
    }
    for (Isa isa : kernels::SupportedIsas()) {
      kernels::SetIsaForTesting(isa);
      AlignedVector got(outs, -7.0);
      kernels::MatMulTransB(a.data(), b.data(), got.data(), s.m, s.k, s.n);
      SCOPED_TRACE(::testing::Message() << s.m << "x" << s.k << " by " << s.n
                                        << "x" << s.k);
      ExpectSameBits(got.data(), want.data(), outs, "MatMulTransB", isa);
    }
  }
}

/// Random CSR with some empty rows; returns it along with the dense x.
CsrMatrix RandomCsr(int rows, int cols, Rng& rng) {
  std::vector<Triplet> t;
  for (int r = 0; r < rows; ++r) {
    if (rng.Bernoulli(0.2)) continue;  // Empty row.
    const int nnz = 1 + rng.UniformInt(cols);
    for (int e = 0; e < nnz; ++e) {
      t.push_back({r, rng.UniformInt(cols), rng.Gaussian()});
    }
  }
  return CsrMatrix::FromTriplets(rows, cols, std::move(t));
}

TEST(KernelEquivalenceTest, SpmmBitIdenticalAcrossIsas) {
  IsaGuard guard;
  Rng rng(314);
  for (const int rows : {1, 3, 9}) {
    for (const int x_cols : {1, 5, 8, 16, 17, 33}) {
      const int mid = 7;
      const CsrMatrix s = RandomCsr(rows, mid, rng);
      const AlignedVector x =
          RandomBuffer(static_cast<size_t>(mid) * x_cols, rng);
      AlignedVector want(static_cast<size_t>(rows) * x_cols, 0.0);
      kernels::scalar::Spmm(s.row_ptr().data(), s.col_idx().data(),
                            s.values().data(), rows, x.data(), x_cols,
                            want.data());
      for (Isa isa : kernels::SupportedIsas()) {
        kernels::SetIsaForTesting(isa);
        AlignedVector got(static_cast<size_t>(rows) * x_cols, 0.0);
        kernels::Spmm(s.row_ptr().data(), s.col_idx().data(),
                      s.values().data(), rows, x.data(), x_cols, got.data());
        ExpectBitEqual(got, want, "Spmm", isa);
        // Row form must match the full op row for row (serve contract).
        for (int r = 0; r < rows; ++r) {
          AlignedVector row(static_cast<size_t>(x_cols), 0.0);
          kernels::SpmmRow(s.col_idx().data() + s.row_ptr()[r],
                           s.values().data() + s.row_ptr()[r],
                           s.row_ptr()[r + 1] - s.row_ptr()[r], x.data(),
                           x_cols, row.data());
          for (int c = 0; c < x_cols; ++c) {
            ASSERT_EQ(row[static_cast<size_t>(c)],
                      got[static_cast<size_t>(r) * x_cols + c])
                << "SpmmRow row " << r << " col " << c << " under "
                << kernels::IsaName(isa);
          }
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, SpmmScatterBitIdenticalAcrossIsas) {
  IsaGuard guard;
  Rng rng(2718);
  for (const int x_cols : {1, 5, 8, 17}) {
    const int rows = 9, cols = 6;
    const CsrMatrix s = RandomCsr(rows, cols, rng);
    const AlignedVector x =
        RandomBuffer(static_cast<size_t>(rows) * x_cols, rng);
    AlignedVector want(static_cast<size_t>(cols) * x_cols, 0.0);
    kernels::scalar::SpmmScatter(s.row_ptr().data(), s.col_idx().data(),
                                 s.values().data(), rows, x.data(), x_cols,
                                 want.data());
    for (Isa isa : kernels::SupportedIsas()) {
      kernels::SetIsaForTesting(isa);
      AlignedVector got(static_cast<size_t>(cols) * x_cols, 0.0);
      kernels::SpmmScatter(s.row_ptr().data(), s.col_idx().data(),
                           s.values().data(), rows, x.data(), x_cols,
                           got.data());
      ExpectBitEqual(got, want, "SpmmScatter", isa);
    }
  }
}

void ExpectSameBits(const Matrix& got, const Matrix& want, const char* what,
                    Isa isa) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  ExpectSameBits(got.data(), want.data(), got.size(), what, isa);
}

TEST(KernelEquivalenceTest, SpmmOverFromDenseMatchesZeroSkippingMatMul) {
  // The encoder's X·W₀ runs as Spmm over CsrMatrix::FromDense(X) and its
  // gradient Xᵀ·G as SpmmScatter; both must keep the bits of the dense
  // MatMul / MatMulTransA they replaced, under every tier.
  IsaGuard guard;
  Rng rng(4242);
  const double inf = std::numeric_limits<double>::infinity();
  const int rows = 11, feats = 19, dense_row = 1, zero_col = 5;
  Matrix x(rows, feats);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < feats; ++c) {
      if (r == dense_row) {
        x(r, c) = 0.5 + rng.Uniform();  // Fully dense row.
      } else if (r == 0 || c == zero_col || rng.Bernoulli(0.5)) {
        x(r, c) = rng.Bernoulli(0.5) ? -0.0 : 0.0;  // Row 0 stays empty.
      } else {
        x(r, c) = rng.Gaussian();
      }
    }
  }
  const CsrMatrix s = CsrMatrix::FromDense(x);
  ASSERT_EQ(s.RowNnz(0), 0);
  ASSERT_EQ(s.RowNnz(dense_row), feats);
  // Widths 32 and 13 cover the 8-wide vector bodies and the scalar tails.
  for (const int h : {32, 13}) {
    Matrix w = GaussianMatrix(feats, h, 1.0, rng);
    Matrix g = GaussianMatrix(rows, h, 1.0, rng);
    // Infs that only a missing zero-skip would turn into NaN: W's row
    // `zero_col` meets X's zeros in every row but the dense one, and G's
    // row 0 meets only X's empty row.
    w(zero_col, 0) = inf;
    w(zero_col, h - 1) = -inf;
    g(0, 2) = inf;
    for (Isa isa : kernels::SupportedIsas()) {
      kernels::SetIsaForTesting(isa);
      ExpectSameBits(s.Multiply(w), MatMul(x, w), "Spmm vs MatMul", isa);
      ExpectSameBits(s.MultiplyTransposed(g), MatMulTransA(x, g),
                     "SpmmScatter vs MatMulTransA", isa);
    }
  }
}

TEST(KernelEquivalenceTest, StudentTBitIdenticalAcrossIsas) {
  IsaGuard guard;
  Rng rng(7);
  for (const int n : {1, 5}) {
    for (const int d : {1, 3, 16}) {
      for (const int k : {2, 3, 4, 7, 9}) {
        const AlignedVector z =
            RandomBuffer(static_cast<size_t>(n) * d, rng);
        const AlignedVector centers =
            RandomBuffer(static_cast<size_t>(k) * d, rng);
        AlignedVector want(static_cast<size_t>(n) * k, 0.0);
        kernels::scalar::StudentT(z.data(), n, d, centers.data(), k,
                                  want.data());
        for (Isa isa : kernels::SupportedIsas()) {
          kernels::SetIsaForTesting(isa);
          AlignedVector got(static_cast<size_t>(n) * k, 0.0);
          kernels::StudentT(z.data(), n, d, centers.data(), k, got.data());
          ExpectBitEqual(got, want, "StudentT", isa);
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, GaussianBitIdenticalAcrossIsas) {
  // Compared as bit patterns. The NaN case puts a NaN variance in
  // component 0, in the AVX2 tier's first four-wide block when k >= 4: the
  // floor must keep it, as std::max(var, 1e-6) does, so the row is NaN on
  // both tiers.
  IsaGuard guard;
  Rng rng(8);
  for (const int n : {1, 5}) {
    for (const int d : {1, 3, 16}) {
      for (const int k : {2, 3, 4, 7, 9}) {
        for (const bool nan_variance : {false, true}) {
          const AlignedVector z =
              RandomBuffer(static_cast<size_t>(n) * d, rng);
          const AlignedVector centers =
              RandomBuffer(static_cast<size_t>(k) * d, rng);
          AlignedVector variances(static_cast<size_t>(k) * d);
          for (double& v : variances) {
            // Include sub-epsilon variances: the 1e-6 clamp must bit-match.
            v = rng.Bernoulli(0.2) ? 1e-9 : 0.1 + rng.Uniform();
          }
          if (nan_variance) {
            variances[0] = std::numeric_limits<double>::quiet_NaN();
          }
          AlignedVector want(static_cast<size_t>(n) * k, 0.0);
          kernels::scalar::Gaussian(z.data(), n, d, centers.data(),
                                    variances.data(), k, want.data());
          for (Isa isa : kernels::SupportedIsas()) {
            kernels::SetIsaForTesting(isa);
            AlignedVector got(static_cast<size_t>(n) * k, 0.0);
            kernels::Gaussian(z.data(), n, d, centers.data(),
                              variances.data(), k, got.data());
            ExpectSameBits(got.data(), want.data(), want.size(), "Gaussian",
                           isa);
          }
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, AdamStepBitIdenticalAcrossIsas) {
  IsaGuard guard;
  Rng rng(9);
  for (const int64_t n : {1, 7, 8, 23, 64, 129}) {
    const AlignedVector value0 = RandomBuffer(static_cast<size_t>(n), rng);
    const AlignedVector grad = RandomBuffer(static_cast<size_t>(n), rng);
    const AlignedVector m10 = RandomBuffer(static_cast<size_t>(n), rng);
    AlignedVector m20(static_cast<size_t>(n));
    for (double& v : m20) v = rng.Uniform();  // Second moment >= 0.
    AlignedVector vw = value0, m1w = m10, m2w = m20;
    kernels::scalar::AdamStep(vw.data(), grad.data(), m1w.data(), m2w.data(),
                              n, 0.9, 0.999, 1e-3, 1e-8, 0.1, 0.001999);
    for (Isa isa : kernels::SupportedIsas()) {
      kernels::SetIsaForTesting(isa);
      AlignedVector vg = value0, m1g = m10, m2g = m20;
      kernels::AdamStep(vg.data(), grad.data(), m1g.data(), m2g.data(), n,
                        0.9, 0.999, 1e-3, 1e-8, 0.1, 0.001999);
      ExpectBitEqual(vg, vw, "AdamStep(value)", isa);
      ExpectBitEqual(m1g, m1w, "AdamStep(m1)", isa);
      ExpectBitEqual(m2g, m2w, "AdamStep(m2)", isa);
    }
  }
}

// The clustering ops' shape corpus: the air-traffic node counts 130 and
// 420 and a single row; d = 16 is the embedding width, 17 adds a tail to
// every vector path and 1 and 3 leave no full vector; k spans partial
// and full four-lane blocks.
const int kClusterRows[] = {1, 130, 420};
const int kClusterDims[] = {1, 3, 16, 17};
const int kClusterKs[] = {2, 3, 4, 5, 7};

/// n×d entries from N(0, 1). With `special`, five of them are set to
/// +inf, NaN, -inf, NaN and +inf (spread over the buffer, so a row can
/// hold both infinities and NaN).
AlignedVector ClusterData(int n, int d, bool special, Rng& rng) {
  AlignedVector x = RandomBuffer(static_cast<size_t>(n) * d, rng);
  if (special) {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const size_t last = x.size() - 1;
    x[0] = inf;
    x[last / 3] = nan;
    x[last / 2] = -inf;
    x[2 * last / 3] = nan;
    x[last] = inf;
  }
  return x;
}

TEST(KernelEquivalenceTest, GmmLogJointBitIdenticalAcrossIsas) {
  // Variances of 0, 1e-13 and 1e-12 all take the 1e-12 floor; the rest
  // are ordinary, except that with the special x values component 0's
  // first variance is NaN, which std::max(var, floor) keeps. Compared as
  // bit patterns, ±inf and NaN in x included.
  IsaGuard guard;
  Rng rng(21);
  const double kTinyVariances[] = {0.0, 1e-13, 1e-12};
  for (const int n : kClusterRows) {
    for (const int d : kClusterDims) {
      for (const int k : kClusterKs) {
        for (const bool special : {false, true}) {
          const AlignedVector x = ClusterData(n, d, special, rng);
          const AlignedVector means =
              RandomBuffer(static_cast<size_t>(k) * d, rng);
          AlignedVector variances(static_cast<size_t>(k) * d);
          for (double& v : variances) {
            v = rng.Bernoulli(0.4) ? kTinyVariances[rng.UniformInt(3)]
                                   : 0.1 + rng.Uniform();
          }
          if (special) variances[0] = std::numeric_limits<double>::quiet_NaN();
          const AlignedVector log_norm = RandomBuffer(k, rng);
          const size_t outs = static_cast<size_t>(n) * k;
          AlignedVector want(outs, 0.0);
          kernels::scalar::GmmLogJoint(x.data(), n, d, means.data(),
                                       variances.data(), log_norm.data(), k,
                                       want.data());
          for (Isa isa : kernels::SupportedIsas()) {
            kernels::SetIsaForTesting(isa);
            AlignedVector got(outs, 0.0);
            kernels::GmmLogJoint(x.data(), n, d, means.data(),
                                 variances.data(), log_norm.data(), k,
                                 got.data());
            ExpectSameBits(got.data(), want.data(), outs, "GmmLogJoint", isa);
          }
        }
      }
    }
  }
}

/// ExpectSameBits, except that a NaN matches any NaN. A column of x that
/// holds an infinity and a NaN makes the M-step add two different NaNs:
/// x's quiet NaN and the default NaN of 0·inf or inf - inf. Which one an
/// add returns is its first operand's, and for a commutative add the
/// compiler picks that order, differently in the two tiers; the output is
/// NaN on both.
void ExpectSameBitsOrNaN(const double* got, const double* want, size_t n,
                         const char* what, Isa isa) {
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    ASSERT_EQ(Bits(got[i]), Bits(want[i]))
        << what << " at flat index " << i << ": " << got[i] << " vs "
        << want[i] << " under " << kernels::IsaName(isa);
  }
}

TEST(KernelEquivalenceTest, GmmMStepBitIdenticalAcrossIsas) {
  // Responsibility rows on the simplex with some exact zeros (0·inf is
  // NaN); min_variance 1e-6 as EM uses it, and 0 so that tiny sums pass.
  // NaN outputs are compared as NaN (ExpectSameBitsOrNaN).
  IsaGuard guard;
  Rng rng(22);
  for (const int n : kClusterRows) {
    for (const int d : kClusterDims) {
      for (const int k : kClusterKs) {
        for (const bool special : {false, true}) {
          const AlignedVector x = ClusterData(n, d, special, rng);
          AlignedVector resp(static_cast<size_t>(n) * k);
          for (int i = 0; i < n; ++i) {
            double* row = resp.data() + static_cast<size_t>(i) * k;
            double sum = 0.0;
            for (int c = 0; c < k; ++c) {
              row[c] = rng.Bernoulli(0.2) ? 0.0 : rng.Uniform();
              sum += row[c];
            }
            for (int c = 0; c < k; ++c) row[c] = sum > 0.0 ? row[c] / sum : 0.0;
          }
          const double min_variance = special ? 0.0 : 1e-6;
          const size_t kd = static_cast<size_t>(k) * d;
          AlignedVector nk_want(k), means_want(kd), var_want(kd);
          kernels::scalar::GmmMStep(x.data(), n, d, resp.data(), k,
                                    min_variance, nk_want.data(),
                                    means_want.data(), var_want.data());
          for (Isa isa : kernels::SupportedIsas()) {
            kernels::SetIsaForTesting(isa);
            // Stale outputs: the op overwrites every entry.
            AlignedVector nk(k, 7.0), means(kd, 7.0), var(kd, 7.0);
            kernels::GmmMStep(x.data(), n, d, resp.data(), k, min_variance,
                              nk.data(), means.data(), var.data());
            ExpectSameBits(nk.data(), nk_want.data(), k, "GmmMStep(nk)", isa);
            ExpectSameBitsOrNaN(means.data(), means_want.data(), kd,
                                "GmmMStep(means)", isa);
            ExpectSameBitsOrNaN(var.data(), var_want.data(), kd,
                                "GmmMStep(variances)", isa);
          }
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, NearestCenterBitIdenticalAcrossIsas) {
  // The last center repeats the first, so every row ties and the lower
  // index must win on both tiers; a NaN distance never wins. Checked with
  // and without the `best` output.
  IsaGuard guard;
  Rng rng(23);
  for (const int n : kClusterRows) {
    for (const int d : kClusterDims) {
      for (const int k : kClusterKs) {
        for (const bool special : {false, true}) {
          const AlignedVector x = ClusterData(n, d, special, rng);
          AlignedVector centers =
              RandomBuffer(static_cast<size_t>(k) * d, rng);
          std::copy_n(centers.begin(), d, centers.end() - d);
          std::vector<int> assign_want(n, -1);
          AlignedVector best_want(n, 0.0);
          kernels::scalar::NearestCenter(x.data(), n, d, centers.data(), k,
                                         assign_want.data(),
                                         best_want.data());
          for (Isa isa : kernels::SupportedIsas()) {
            kernels::SetIsaForTesting(isa);
            std::vector<int> assign(n, -1);
            AlignedVector best(n, 0.0);
            kernels::NearestCenter(x.data(), n, d, centers.data(), k,
                                   assign.data(), best.data());
            EXPECT_EQ(assign, assign_want)
                << "NearestCenter under " << kernels::IsaName(isa);
            ExpectSameBits(best.data(), best_want.data(), n,
                           "NearestCenter(best)", isa);
            std::vector<int> assign_only(n, -1);
            kernels::NearestCenter(x.data(), n, d, centers.data(), k,
                                   assign_only.data(), nullptr);
            EXPECT_EQ(assign_only, assign_want)
                << "NearestCenter without best under "
                << kernels::IsaName(isa);
          }
          for (int i = 0; i < n; ++i) ASSERT_NE(assign_want[i], k - 1);
        }
      }
    }
  }
}

TEST(KernelOpsTest, TopTwoReportsRepeatedMaximumTwice) {
  Rng rng(11);
  for (const int n : {1, 6}) {
    for (const int k : {2, 3, 4, 5, 7, 8, 12, 17}) {
      AlignedVector p(static_cast<size_t>(n) * k);
      for (double& v : p) v = rng.Uniform();
      // Duplicate-maximum row: top two must both report the tie value.
      for (int j = 0; j < k; ++j) p[static_cast<size_t>(j)] = 0.5;
      AlignedVector l1(static_cast<size_t>(n)), l2(static_cast<size_t>(n));
      kernels::TopTwo(p.data(), n, k, l1.data(), l2.data());
      EXPECT_EQ(l1[0], 0.5);
      EXPECT_EQ(l2[0], 0.5);
      for (int i = 1; i < n; ++i) {
        std::vector<double> row(p.data() + static_cast<size_t>(i) * k,
                                p.data() + static_cast<size_t>(i + 1) * k);
        std::sort(row.begin(), row.end(), std::greater<double>());
        EXPECT_EQ(l1[static_cast<size_t>(i)], row[0]) << "row " << i;
        EXPECT_EQ(l2[static_cast<size_t>(i)], row[1]) << "row " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fused inner-product decoder (InnerProductBce / InnerProductBceGrad).
// ---------------------------------------------------------------------------

/// The unfused decoder's σ, verbatim: the fused kernel must reproduce its
/// bits from the shared e = exp(-|s|).
double UnfusedSigmoid(double x) {
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

double UnfusedSoftplus(double x) {
  return std::log1p(std::exp(-std::abs(x))) + std::max(x, 0.0);
}

TEST(KernelOpsTest, SoftplusSigmoidSweepMatchesLongDoubleReference) {
  // 64-logit segments, the decoder's longest, in four regimes. The loss is
  // within 1e-14 relative of a long-double Σ log1pl(e) + max(s, 0), where
  // a plain Π(1 + e) would lose every e below 2⁻⁵³ (the two all-negative
  // regimes); σ carries the unfused Sigmoid's bits.
  constexpr double kRelBound = 1e-14;
  constexpr int kSegment = 64;
  struct Regime {
    const char* name;
    double lo, hi;
  };
  const Regime regimes[] = {{"|s| <= 6", -6.0, 6.0},
                            {"s in [-45, -30]", -45.0, -30.0},
                            {"s in [-700, -37]", -700.0, -37.0},
                            {"mixed +-60", -60.0, 60.0}};
  Rng rng(1717);
  for (const Regime& regime : regimes) {
    for (int segment = 0; segment < 500; ++segment) {
      double s[kSegment], sigma[kSegment];
      long double want = 0.0L;
      for (int i = 0; i < kSegment; ++i) {
        s[i] = regime.lo + (regime.hi - regime.lo) * rng.Uniform();
        want += log1pl(std::exp(-std::abs(s[i]))) + std::max(s[i], 0.0);
      }
      const double got = kernels::SoftplusSigmoidSweep(s, kSegment, sigma);
      const double ref = static_cast<double>(want);
      ASSERT_GT(ref, 0.0) << regime.name;
      ASSERT_LE(std::abs(got - ref), kRelBound * ref)
          << regime.name << " segment " << segment << ": " << got << " vs "
          << ref;
      for (int i = 0; i < kSegment; ++i) {
        ASSERT_EQ(Bits(sigma[i]), Bits(UnfusedSigmoid(s[i])))
            << regime.name << " s=" << s[i];
      }
    }
  }
}

TEST(KernelOpsTest, SoftplusSigmoidSweepOfOneLogitIsThePerPairSoftplus) {
  // The decoder's diagonal pairs are count-1 calls: they must keep the
  // per-pair log1p(e) + max(s, 0) bits on every non-NaN logit.
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> logits = {0.0,     -0.0,   inf,     -inf,   denorm,
                                -denorm, 1e-310, -1e-310, 745.5,  -745.5,
                                800.0,   -800.0, 1e300,   -1e300, 36.9,
                                -36.9,   1.0,    -1.0};
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) logits.push_back(80.0 * rng.Gaussian());
  for (const double s : logits) {
    double sigma = -1.0;
    const double got = kernels::SoftplusSigmoidSweep(&s, 1, &sigma);
    EXPECT_EQ(Bits(got),
              Bits(std::log1p(std::exp(-std::abs(s))) + std::max(s, 0.0)))
        << "s=" << s;
    EXPECT_EQ(Bits(sigma), Bits(UnfusedSigmoid(s))) << "s=" << s;
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  double sigma = 0.0;
  EXPECT_TRUE(std::isnan(kernels::SoftplusSigmoidSweep(&nan, 1, &sigma)));
  EXPECT_TRUE(std::isnan(sigma));
  EXPECT_EQ(kernels::SoftplusSigmoidSweep(nullptr, 0, nullptr), 0.0);
}

TEST(KernelOpsTest, SoftplusSigmoidSweepKeepsTheBranchingLoopsBits) {
  // The positive parts are taken from each logit's sign bit, not from
  // std::max. On random-sign 64-logit segments, with ±0 and -inf among
  // them, the loss and every σ carry the bits of the branching loop.
  const auto branching = [](const double* s, int count, double* sigma) {
    double m = 0.0;
    double linear = 0.0;
    for (int i = 0; i < count; ++i) {
      const double e = std::exp(-std::abs(s[i]));
      sigma[i] = (s[i] >= 0.0 ? 1.0 : e) / (1.0 + e);
      m = m + (e + m * e);
      linear += std::max(s[i], 0.0);
    }
    return std::log1p(m) + linear;
  };
  constexpr int kSegment = 64;
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double specials[] = {0.0, -0.0,
                             -std::numeric_limits<double>::infinity(), denorm,
                             -denorm};
  Rng rng(2024);
  for (int segment = 0; segment < 2000; ++segment) {
    double s[kSegment], got_sigma[kSegment], want_sigma[kSegment];
    const double scale = segment % 2 == 0 ? 3.0 : 40.0;
    for (int i = 0; i < kSegment; ++i) {
      s[i] = rng.Bernoulli(0.05) ? specials[rng.UniformInt(5)]
                                 : scale * rng.Gaussian();
    }
    const int count = segment % 7 == 0 ? 1 + rng.UniformInt(kSegment)
                                       : kSegment;
    const double got = kernels::SoftplusSigmoidSweep(s, count, got_sigma);
    const double want = branching(s, count, want_sigma);
    ASSERT_EQ(Bits(got), Bits(want)) << "segment " << segment;
    ExpectSameBits(got_sigma, want_sigma, static_cast<size_t>(count),
                   "SoftplusSigmoidSweep(sigma)", Isa::kScalar);
  }
}

TEST(KernelOpsTest, SoftplusSigmoidSweepStaysFiniteAtItsLongestSegment) {
  // 1023 zero logits, the contract's limit: every factor of Π(1 + e) is 2,
  // and m = 2^1023 - 1 rounds to 2^1023, still finite.
  constexpr int kCount = 1023;
  const std::vector<double> s(kCount, 0.0);
  std::vector<double> sigma(kCount, -1.0);
  const double got = kernels::SoftplusSigmoidSweep(s.data(), kCount,
                                                   sigma.data());
  EXPECT_DOUBLE_EQ(got, kCount * std::log(2.0));
  for (const double v : sigma) ASSERT_EQ(v, 0.5);
}

/// The pre-fusion composition, rebuilt from the scalar tier: dense S by
/// MatMulTransB, the BceSweep base plus the CSR-order positive fixup, then
/// C = gs·σ(S) patched at the positives and C·Z / Cᵀ·Z by MatMul /
/// MatMulTransA.
struct UnfusedDecoder {
  double loss = 0.0;
  AlignedVector cz, ctz;
};

UnfusedDecoder RunUnfusedDecoder(const AlignedVector& z, int n, int d,
                                 const CsrMatrix& t, double pos_weight,
                                 double gs) {
  const size_t nn = static_cast<size_t>(n) * n;
  AlignedVector s(nn);
  kernels::scalar::MatMulTransB(z.data(), z.data(), s.data(), n, d, n);
  UnfusedDecoder out;
  out.loss = kernels::BceSweep(s.data(), static_cast<int64_t>(nn));
  AlignedVector c(nn);
  for (size_t e = 0; e < nn; ++e) c[e] = gs * UnfusedSigmoid(s[e]);
  for (int i = 0; i < n; ++i) {
    for (int k = t.row_ptr()[i]; k < t.row_ptr()[i + 1]; ++k) {
      if (t.values()[k] == 0.0) continue;
      const size_t e = static_cast<size_t>(i) * n + t.col_idx()[k];
      out.loss += pos_weight * (UnfusedSoftplus(s[e]) - s[e]) -
                  UnfusedSoftplus(s[e]);
      c[e] = gs * pos_weight * (UnfusedSigmoid(s[e]) - 1.0);
    }
  }
  out.cz.assign(static_cast<size_t>(n) * d, 0.0);
  out.ctz.assign(static_cast<size_t>(n) * d, 0.0);
  kernels::scalar::MatMul(c.data(), z.data(), out.cz.data(), n, n, d);
  kernels::scalar::MatMulTransA(c.data(), z.data(), out.ctz.data(), n, n, d);
  return out;
}

/// Embeddings with a few "loud" rows (entries ±30, alternating sign per
/// row) whose pairwise logits pass |s| > 745: exp(-|s|) underflows to 0,
/// σ saturates at exactly 0 or 1, and the c == 0.0 skip fires.
AlignedVector DecoderEmbeddings(int n, int d, Rng& rng) {
  AlignedVector z = RandomBuffer(static_cast<size_t>(n) * d, rng);
  for (double& v : z) v *= 0.6;
  for (int i = 5, sign = 1; i < n; i += 17, sign = -sign) {
    for (int c = 0; c < d; ++c) z[static_cast<size_t>(i) * d + c] = 30.0 * sign;
  }
  return z;
}

enum class TargetKind { kSymmetric, kEmptyRows, kStraddle, kEmpty };

/// Decoder targets, all with symmetric positives (the decoder's contract).
/// Symmetric: undirected edges plus a self-loop on every node, with
/// mirrored structural zeros (tv == 0). EmptyRows: ~20% of the nodes have
/// no entry at all, some others a diagonal positive, and the undirected
/// edges among the rest carry mirrored structural zeros. Straddle (n > 128
/// only): every off-diagonal positive joins a node of tile 0 to one of
/// tile 2, so the forward meets it in tile pair (0, 2) and the backward
/// in both row blocks; plus one diagonal positive and mirrored structural
/// zeros. Empty: no stored entry at all.
CsrMatrix DecoderTarget(int n, TargetKind kind, Rng& rng) {
  std::vector<Triplet> t;
  if (kind == TargetKind::kStraddle) {
    for (int e = 0; e < 40; ++e) {
      const int i = rng.UniformInt(64);
      const int j = 128 + rng.UniformInt(std::min(n, 192) - 128);
      const double v = e % 8 == 0 ? 0.0 : 1.0;
      t.push_back({i, j, v});
      t.push_back({j, i, v});
    }
    t.push_back({70, 70, 1.0});
  } else if (kind == TargetKind::kSymmetric) {
    for (int i = 0; i < n; ++i) {
      t.push_back({i, i, 1.0});
      for (int e = 0; e < 3; ++e) {
        const int j = rng.UniformInt(n);
        const double v = rng.Bernoulli(0.1) ? 0.0 : 1.0;
        if (j == i) continue;
        t.push_back({i, j, v});
        t.push_back({j, i, v});
      }
    }
  } else if (kind == TargetKind::kEmptyRows) {
    std::vector<int> linked;
    for (int i = 0; i < n; ++i) {
      if (!rng.Bernoulli(0.2)) linked.push_back(i);
    }
    for (const int i : linked) {
      if (rng.Bernoulli(0.3)) t.push_back({i, i, 1.0});
      for (int e = 0; e < 2; ++e) {
        const int j = linked[rng.UniformInt(static_cast<int>(linked.size()))];
        const double v = rng.Bernoulli(0.1) ? 0.0 : 1.0;
        if (j == i) continue;
        t.push_back({i, j, v});
        t.push_back({j, i, v});
      }
    }
  }
  CsrMatrix m = CsrMatrix::FromTriplets(n, n, std::move(t));
  // Duplicates were summed (mirrors alike); keep every stored value 0/1
  // (0 = structural).
  for (double& v : m.mutable_values()) v = v == 0.0 ? 0.0 : 1.0;
  return m;
}

const char* TargetName(TargetKind kind) {
  switch (kind) {
    case TargetKind::kSymmetric:
      return "symmetric";
    case TargetKind::kEmptyRows:
      return "empty-rows";
    case TargetKind::kStraddle:
      return "straddle";
    case TargetKind::kEmpty:
      return "empty";
  }
  return "?";
}

/// Restores every pool worker on scope exit.
class WorkersGuard {
 public:
  ~WorkersGuard() { kernels::SetParallelWorkersForTesting(0); }
};

TEST(KernelEquivalenceTest, InnerProductBceMatchesUnfusedComposition) {
  // Gradient: C·Z bit-identical to both unfused MatMul(C, Z) and
  // MatMulTransA(C, Z) on every ISA, C being symmetric. Loss: bit-identical
  // across ISAs and within 1e-13 relative of the BceSweep-order reference,
  // whose positives are fixed up in CSR order where the fused loss adds
  // them per tile. Loss, σ and C·Z are also bit-identical with 1 worker,
  // 2 workers and every worker (0 = all). N spans the tile edges (64-node
  // tiles), d the vector tails, and pos_weight reaches a Pubmed-like ~190.
  constexpr double kLossRelBound = 1e-13;
  IsaGuard guard;
  WorkersGuard workers_guard;
  Rng rng(424242);
  const double gs = 0.013;
  int saturated_cases = 0;
  for (const int n : {1, 2, 63, 64, 65, 130, 200}) {
    for (const int d : {1, 3, 16, 17}) {
      const AlignedVector z = DecoderEmbeddings(n, d, rng);
      for (const TargetKind kind :
           {TargetKind::kSymmetric, TargetKind::kEmptyRows,
            TargetKind::kStraddle, TargetKind::kEmpty}) {
        if (kind == TargetKind::kStraddle && n <= 128) continue;
        const CsrMatrix t = DecoderTarget(n, kind, rng);
        const size_t pairs = static_cast<size_t>(n) * (n + 1) / 2;
        AlignedVector s(static_cast<size_t>(n) * n);
        kernels::scalar::MatMulTransB(z.data(), z.data(), s.data(), n, d, n);
        for (double v : s) saturated_cases += std::abs(v) > 745.0;
        for (const double pos_weight : {3.7, 190.3}) {
          const UnfusedDecoder want =
              RunUnfusedDecoder(z, n, d, t, pos_weight, gs);
          double first_loss = 0.0;
          AlignedVector first_sigma, first_cz;
          for (Isa isa : kernels::SupportedIsas()) {
            kernels::SetIsaForTesting(isa);
            for (const int workers : {1, 2, 0}) {
              kernels::SetParallelWorkersForTesting(workers);
              AlignedVector sigma(pairs, -1.0);
              const double loss = kernels::InnerProductBce(
                  z.data(), n, d, t.row_ptr().data(), t.col_idx().data(),
                  t.values().data(), pos_weight, sigma.data());
              AlignedVector cz(static_cast<size_t>(n) * d, 0.0);
              kernels::InnerProductBceGrad(
                  z.data(), n, d, t.row_ptr().data(), t.col_idx().data(),
                  t.values().data(), pos_weight, gs, sigma.data(), cz.data());
              SCOPED_TRACE(::testing::Message()
                           << "n=" << n << " d=" << d << " target="
                           << TargetName(kind) << " pos_weight=" << pos_weight
                           << " workers=" << workers);
              // σ of the packed upper triangle, row-major from (0, 0).
              for (int i = 0, e = 0; i < n; ++i) {
                for (int j = i; j < n; ++j, ++e) {
                  ASSERT_EQ(sigma[static_cast<size_t>(e)],
                            UnfusedSigmoid(s[static_cast<size_t>(i) * n + j]))
                      << "sigma(" << i << "," << j << ") under "
                      << kernels::IsaName(isa);
                }
              }
              ExpectBitEqual(cz, want.cz, "InnerProductBceGrad vs C*Z", isa);
              ExpectBitEqual(cz, want.ctz, "InnerProductBceGrad vs Ct*Z", isa);
              EXPECT_NEAR(loss, want.loss,
                          kLossRelBound * std::max(1.0, std::abs(want.loss)))
                  << kernels::IsaName(isa);
              if (first_sigma.empty()) {
                first_loss = loss;
                first_sigma = sigma;
                first_cz = cz;
              }
              EXPECT_EQ(loss, first_loss) << kernels::IsaName(isa);
              ExpectBitEqual(sigma, first_sigma, "InnerProductBce(sigma)", isa);
              ExpectBitEqual(cz, first_cz, "InnerProductBceGrad", isa);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(saturated_cases, 0) << "corpus never exercised |s| > 745";
}

TEST(KernelEquivalenceTest, InnerProductBceGradientThroughTapeMatchesUnfused) {
  // End to end through the Tape: dL/dZ equals the unfused C·Z + C·Z (with
  // gs = norm/N²) bit for bit under every ISA, on a multi-tile target with
  // empty rows; C·Z and Cᵀ·Z agree there because C is symmetric.
  IsaGuard guard;
  Rng rng(77);
  const int n = 130, d = 16;
  const double pos_weight = 5.0, norm = 0.6;
  const AlignedVector zbuf = DecoderEmbeddings(n, d, rng);
  const CsrMatrix t = DecoderTarget(n, TargetKind::kEmptyRows, rng);
  const UnfusedDecoder want = RunUnfusedDecoder(
      zbuf, n, d, t, pos_weight, norm / (static_cast<double>(n) * n));
  Matrix zm(n, d);
  std::copy(zbuf.begin(), zbuf.end(), zm.data());
  for (Isa isa : kernels::SupportedIsas()) {
    kernels::SetIsaForTesting(isa);
    Parameter z(zm);
    Tape tape;
    const Var loss = tape.InnerProductBceLoss(tape.Leaf(&z), &t, pos_weight,
                                              norm);
    tape.Backward(loss);
    for (size_t e = 0; e < zbuf.size(); ++e) {
      ASSERT_EQ(want.cz[e], want.ctz[e]) << "flat index " << e;
      ASSERT_EQ(z.grad.data()[e], want.cz[e] + want.cz[e])
          << "flat index " << e << " under " << kernels::IsaName(isa);
    }
  }
}

TEST(KernelEquivalenceTest, GoldenPathOpsBitIdenticalThroughMatrixLayer) {
  // End-to-end through the Matrix/CsrMatrix wrappers: the layer above the
  // stubs must not introduce any ISA-dependent behavior either.
  IsaGuard guard;
  Rng rng(12);
  const Matrix a = GaussianMatrix(9, 13, 1.0, rng);
  const Matrix b = GaussianMatrix(13, 17, 1.0, rng);
  kernels::SetIsaForTesting(Isa::kScalar);
  const Matrix want = MatMul(a, b);
  for (Isa isa : kernels::SupportedIsas()) {
    kernels::SetIsaForTesting(isa);
    const Matrix got = MatMul(a, b);
    for (int i = 0; i < want.rows(); ++i) {
      for (int j = 0; j < want.cols(); ++j) {
        ASSERT_EQ(got(i, j), want(i, j)) << kernels::IsaName(isa);
      }
    }
  }
}

}  // namespace
}  // namespace rgae
