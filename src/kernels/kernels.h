#ifndef RGAE_KERNELS_KERNELS_H_
#define RGAE_KERNELS_KERNELS_H_

#include <cstdint>

#include "src/kernels/dispatch.h"

namespace rgae {
namespace kernels {

/// The SIMD kernel library: every hot inner loop of the tensor, graph,
/// clustering, optimizer and loss layers, as a KernelStub with a scalar
/// reference and an AVX2 variant, or as one plain scalar function where
/// no workload needs a vector body (DESIGN.md §9).
///
/// Conventions shared by every op:
///  - Raw pointers + dimensions only; no Matrix/CsrMatrix dependency, so
///    the tensor layer can sit on top without an include cycle.
///  - Output buffers that are accumulated into (`MatMul`, `MatMulTransA`,
///    `Spmm*`, `InnerProductBceGrad`) must be zero-filled by the caller;
///    kernels that overwrite every entry (`MatMulTransB`, softmax,
///    top-two, `InnerProductBce`'s sigma) need no zeroing.
///  - Determinism contract: a given (op, ISA, shape) always performs
///    floating-point operations in one fixed order, so repeated calls are
///    bit-identical, and every op is bit-identical *across* ISAs: the AVX2
///    variants preserve the scalar per-element operation order (they
///    vectorize across independent output elements, never across a
///    summation chain, and never use FMA), and every transcendental (the
///    decoder's exp per node pair and log1p per row segment, the Gaussian
///    softmax's exp) is the same scalar libm call under either tier.
///  - No kernel needs aligned loads: the AVX2 tier loads and stores
///    unaligned throughout, so any buffer alignment works.

// ---------------------------------------------------------------------------
// Op signatures.
// ---------------------------------------------------------------------------

/// out(m,n) += a(m,k) * b(k,n). Zero a-entries are skipped (the training
/// loops multiply by sparse-ish masks); out must be pre-zeroed.
using MatMulFn = void (*)(const double* a, const double* b, double* out,
                          int m, int k, int n);

/// One row of MatMul: out_row(n) += a_row(k) * b(k,n), same per-element
/// order as the full op (the serve incremental path depends on this).
using MatMulRowFn = void (*)(const double* a_row, const double* b,
                             double* out_row, int k, int n);

/// out(m,n) += aᵀ * b with a stored (k,m), b (k,n); out pre-zeroed.
using MatMulTransAFn = void (*)(const double* a, const double* b, double* out,
                                int k, int m, int n);

/// out(m,n) = a(m,k) * bᵀ with b stored (n,k). Overwrites out.
using MatMulTransBFn = void (*)(const double* a, const double* b, double* out,
                                int m, int k, int n);

/// One CSR row times a dense matrix: out_row(x_cols) += Σ vals[i] *
/// x(cols[i], :) over the row's `count` stored entries; out_row pre-zeroed.
using SpmmRowFn = void (*)(const int* cols, const double* vals, int count,
                           const double* x, int x_cols, double* out_row);

/// Full SpMM: out(rows, x_cols) += S * x for CSR S; out pre-zeroed.
/// Row r's bits equal a SpmmRowFn call on that row.
using SpmmFn = void (*)(const int* row_ptr, const int* col_idx,
                        const double* vals, int rows, const double* x,
                        int x_cols, double* out);

/// Scattered SpMM (Sᵀ * x): out(cols, x_cols) += Σ_r Σ_k vals[k] *
/// x(r, :) into out row col_idx[k]; out pre-zeroed.
using SpmmScatterFn = void (*)(const int* row_ptr, const int* col_idx,
                               const double* vals, int rows, const double* x,
                               int x_cols, double* out);

/// Student-t soft assignments: p(n,k) from embeddings z(n,d) and centers
/// (k,d). Overwrites p.
using StudentTFn = void (*)(const double* z, int n, int d,
                            const double* centers, int k, double* p);

/// Gaussian soft assignments with per-cluster diagonal variances (k,d),
/// log-sum-exp normalized per row. Overwrites p(n,k).
using GaussianFn = void (*)(const double* z, int n, int d,
                            const double* centers, const double* variances,
                            int k, double* p);

/// One fused Adam step over `n` elements (bc1/bc2 are the bias
/// corrections 1-β^t, precomputed by the optimizer).
using AdamStepFn = void (*)(double* value, const double* grad, double* m1,
                            double* m2, int64_t n, double beta1, double beta2,
                            double lr, double eps, double bc1, double bc2);

/// Floor on a GMM variance inside the log density: a collapsed component
/// (variance 0 after EM shrank it onto identical points) would otherwise
/// give 0/0 = NaN for a point sitting exactly on its mean.
inline constexpr double kGmmVarianceFloor = 1e-12;

/// Diagonal-GMM log joints: lj(n,k) from x(n,d), means and variances
/// (k,d) and the per-component constants log_norm(k). Entry (i,c) starts
/// at log_norm[c] and, for ascending j, subtracts
/// ((0.5·diff)·diff) / max(var(c,j), kGmmVarianceFloor) with
/// diff = x(i,j) - mean(c,j). Overwrites lj.
using GmmLogJointFn = void (*)(const double* x, int n, int d,
                               const double* means, const double* variances,
                               const double* log_norm, int k, double* lj);

/// A diagonal-GMM M-step from x(n,d) and responsibilities resp(n,k).
/// Per component c: nk[c] = max(Σ_i r, 1e-10); means(c,j) = (Σ_i r·x) /
/// nk[c]; variances(c,j) = max(min_variance, (Σ_i (r·diff)·diff) / nk[c])
/// with r = resp(i,c) and diff = x(i,j) - means(c,j), the new mean. Every
/// sum starts at +0.0 and adds its terms in ascending i. Overwrites nk(k),
/// means(k,d) and variances(k,d).
using GmmMStepFn = void (*)(const double* x, int n, int d,
                            const double* resp, int k, double min_variance,
                            double* nk, double* means, double* variances);

/// k-means assignment: for each row of x(n,d), the nearest of the k rows
/// of centers(k,d) by squared distance (diff·diff added in ascending j
/// from +0.0), scanned in ascending c with a strict < from DBL_MAX, so
/// ties go to the lower c and a NaN distance never wins. assign[i] gets
/// the winner (0 when no distance is below DBL_MAX) and, unless `best` is
/// null, best[i] its distance (DBL_MAX then).
using NearestCenterFn = void (*)(const double* x, int n, int d,
                                 const double* centers, int k, int* assign,
                                 double* best);

// ---------------------------------------------------------------------------
// Dispatch wrappers — what product code calls. Each resolves its
// KernelStub against SelectedIsa() per call.
// ---------------------------------------------------------------------------

void MatMul(const double* a, const double* b, double* out, int m, int k,
            int n);
void MatMulRow(const double* a_row, const double* b, double* out_row, int k,
               int n);
void MatMulTransA(const double* a, const double* b, double* out, int k, int m,
                  int n);
void MatMulTransB(const double* a, const double* b, double* out, int m, int k,
                  int n);
void SpmmRow(const int* cols, const double* vals, int count, const double* x,
             int x_cols, double* out_row);
void Spmm(const int* row_ptr, const int* col_idx, const double* vals,
          int rows, const double* x, int x_cols, double* out);
void SpmmScatter(const int* row_ptr, const int* col_idx, const double* vals,
                 int rows, const double* x, int x_cols, double* out);
void StudentT(const double* z, int n, int d, const double* centers, int k,
              double* p);
void Gaussian(const double* z, int n, int d, const double* centers,
              const double* variances, int k, double* p);
void AdamStep(double* value, const double* grad, double* m1, double* m2,
              int64_t n, double beta1, double beta2, double lr, double eps,
              double bc1, double bc2);
void GmmLogJoint(const double* x, int n, int d, const double* means,
                 const double* variances, const double* log_norm, int k,
                 double* lj);
void GmmMStep(const double* x, int n, int d, const double* resp, int k,
              double min_variance, double* nk, double* means,
              double* variances);
void NearestCenter(const double* x, int n, int d, const double* centers,
                   int k, int* assign, double* best);

// ---------------------------------------------------------------------------
// Plain scalar ops, one definition each in kernels_scalar.cc (compiled with
// -ffp-contract=off like every kernel TU). No workload needs a vector body
// for these, so they have no stub and no tier.
// ---------------------------------------------------------------------------

/// Flat reductions over `n` entries, summed in index order.
double Sum(const double* p, int64_t n);
double SumSquares(const double* p, int64_t n);
double Dot(const double* a, const double* b, int64_t n);

/// Σ softplus(s_i) over dense logits: the base sweep of the unfused
/// decoder loss, kept as the reference order the fused InnerProductBce
/// is tested against.
double BceSweep(const double* s, int64_t n);

/// The fused decoder's per-segment sweep. For each of the `count` logits
/// it takes one e = exp(-|s|) and writes σ(s) = (s >= 0 ? 1 : e) / (1 + e)
/// to sigma[i], the unfused Sigmoid's bits. It returns Σ softplus(s_i)
/// with one log1p for the whole call: m = Π(1 + e_i) - 1 is carried as
/// m + (e + m·e), which keeps every e below 2⁻⁵³ that a plain product
/// would round away, and the result is log1p(m) + Σ max(s_i, 0), the
/// positive parts taken from each logit's sign bit, not a branch. With
/// count == 1 that is log1p(e) + max(s, 0) bit for bit. Requires
/// 0 <= count <= 1023: each factor is at most 2, so m stays finite.
double SoftplusSigmoidSweep(const double* s, int count, double* sigma);

/// Tape::Relu's two loops over `n` entries, without a branch on the data.
/// Relu sets p[i] = std::max(p[i], 0.0) bit for bit (-0.0 and NaN stay).
/// ReluGrad adds g[i] to ga[i] where value[i] > 0.0 and leaves ga[i]'s
/// bits untouched elsewhere, even -0.0 or NaN: `if (value > 0) ga += g`.
void Relu(double* p, int64_t n);
void ReluGrad(const double* value, const double* g, double* ga, int64_t n);

/// Operator Ξ's per-row top-two scan over p(n,k): lambda1/lambda2 (each
/// length n) receive the largest and second-largest entry of every row; a
/// row whose maximum repeats reports it twice. Requires k >= 2.
void TopTwo(const double* p, int n, int k, double* lambda1, double* lambda2);

// ---------------------------------------------------------------------------
// The fused inner-product decoder (kernels/decoder.cc). One tile sweep,
// compiled once without arch flags, over 64×64 node tiles, run as
// ParallelFor tasks (kernels/parallel.h). Its products go through the
// dispatched MatMulTransB and MatMul above, so it follows the selected ISA;
// its sweeps (SoftplusSigmoidSweep) and loss accumulation are scalar libm
// code. Results are bit-identical across ISAs and across worker counts.
// ---------------------------------------------------------------------------

/// Forward half. For embeddings z(n,d) and a CSR target (columns ascending
/// within each row, the CsrMatrix invariant; entries with value 0.0 are
/// structural zeros) whose positives are symmetric, returns the
/// un-normalized weighted BCE between sigmoid(Z Zᵀ) and the target:
/// Σ_ij softplus(s_ij) plus, per positive, pos_weight·(softplus(s) - s) -
/// softplus(s). One task per upper-triangle tile pair I <= J builds its S
/// tile with MatMulTransB's per-entry chain, so s_ij == s_ji bit for bit;
/// one exp(-|s|) per unordered pair feeds both the softplus and σ(s), and
/// σ for j >= i is written to `sigma`, packed row-major upper triangle of
/// n(n+1)/2 doubles (row i starts at i·n - i(i-1)/2). SoftplusSigmoidSweep
/// runs each diagonal pair alone and each row segment (a tile row's up to
/// 64 pairs with j > i) as one call, so the upper pairs take one log1p per
/// segment. Each task also adds its tile's stored positives (i, j >= i),
/// found by binary search in row i: bce(s, 1) = softplus(s) - s weighted by
/// pos_weight, less the softplus(s) already counted, taken from the S tile
/// (once for j == i, twice otherwise, for the mirror (j, i)). The sum is
/// (diag + 2·upper) + pos over per-tile partials folded in row-major tile
/// order.
double InnerProductBce(const double* z, int n, int d, const int* row_ptr,
                       const int* col_idx, const double* values,
                       double pos_weight, double* sigma);

/// Backward half, from the forward's `sigma` and no transcendentals: with
/// C_ij = gs·σ_ij for negatives and gs·pos_weight·(σ_ij - 1) at
/// positives, cz(n,d) += C·Z, zero-filled by the caller. The positives
/// must be symmetric (the forward's contract), so C is symmetric and
/// Cᵀ·Z carries the same bits: dL/dZ = cz + cz. One task per 64-row block
/// walks the column tiles in ascending order with the c == 0.0 skip, so cz
/// carries the bits of MatMul(C, Z) and MatMulTransA(C, Z) on a dense C,
/// on every ISA.
void InnerProductBceGrad(const double* z, int n, int d, const int* row_ptr,
                         const int* col_idx, const double* values,
                         double pos_weight, double gs, const double* sigma,
                         double* cz);

// ---------------------------------------------------------------------------
// Per-ISA implementations of the dispatched ops, one translation unit each:
// kernels_scalar.cc, and kernels_avx2.cc, compiled with -mavx2 and built
// only when the toolchain has the flag. Exposed so the equivalence suite
// can pin either tier directly.
// ---------------------------------------------------------------------------

#define RGAE_DECLARE_KERNEL_TIER(ns)                                          \
  namespace ns {                                                              \
  void MatMul(const double* a, const double* b, double* out, int m, int k,    \
              int n);                                                         \
  void MatMulRow(const double* a_row, const double* b, double* out_row,       \
                 int k, int n);                                               \
  void MatMulTransA(const double* a, const double* b, double* out, int k,     \
                    int m, int n);                                            \
  void MatMulTransB(const double* a, const double* b, double* out, int m,     \
                    int k, int n);                                            \
  void SpmmRow(const int* cols, const double* vals, int count,                \
               const double* x, int x_cols, double* out_row);                 \
  void Spmm(const int* row_ptr, const int* col_idx, const double* vals,       \
            int rows, const double* x, int x_cols, double* out);              \
  void SpmmScatter(const int* row_ptr, const int* col_idx,                    \
                   const double* vals, int rows, const double* x, int x_cols, \
                   double* out);                                              \
  void StudentT(const double* z, int n, int d, const double* centers, int k,  \
                double* p);                                                   \
  void Gaussian(const double* z, int n, int d, const double* centers,         \
                const double* variances, int k, double* p);                   \
  void AdamStep(double* value, const double* grad, double* m1, double* m2,    \
                int64_t n, double beta1, double beta2, double lr, double eps, \
                double bc1, double bc2);                                      \
  void GmmLogJoint(const double* x, int n, int d, const double* means,        \
                   const double* variances, const double* log_norm, int k,    \
                   double* lj);                                               \
  void GmmMStep(const double* x, int n, int d, const double* resp, int k,     \
                double min_variance, double* nk, double* means,               \
                double* variances);                                           \
  void NearestCenter(const double* x, int n, int d, const double* centers,    \
                     int k, int* assign, double* best);                       \
  }  // namespace ns

RGAE_DECLARE_KERNEL_TIER(scalar)
#if defined(RGAE_KERNELS_HAVE_AVX2)
RGAE_DECLARE_KERNEL_TIER(avx2)
#endif

#undef RGAE_DECLARE_KERNEL_TIER

}  // namespace kernels
}  // namespace rgae

#endif  // RGAE_KERNELS_KERNELS_H_
