// Stub tables + dispatch wrappers. One KernelStub per dispatched op; when
// the build lacks the AVX2 tier its slot stays null and KernelStub::Get
// falls back to scalar (DESIGN.md §9).

#include "src/kernels/kernels.h"

namespace rgae {
namespace kernels {

namespace {

#if defined(RGAE_KERNELS_HAVE_AVX2)
#define RGAE_AVX2_FN(op) &avx2::op
#else
#define RGAE_AVX2_FN(op) nullptr
#endif

#define RGAE_KERNEL_STUB(Fn, op) \
  constexpr KernelStub<Fn> k##op##Stub { &scalar::op, RGAE_AVX2_FN(op) }

RGAE_KERNEL_STUB(MatMulFn, MatMul);
RGAE_KERNEL_STUB(MatMulRowFn, MatMulRow);
RGAE_KERNEL_STUB(MatMulTransAFn, MatMulTransA);
RGAE_KERNEL_STUB(MatMulTransBFn, MatMulTransB);
RGAE_KERNEL_STUB(SpmmRowFn, SpmmRow);
RGAE_KERNEL_STUB(SpmmFn, Spmm);
RGAE_KERNEL_STUB(SpmmScatterFn, SpmmScatter);
RGAE_KERNEL_STUB(StudentTFn, StudentT);
RGAE_KERNEL_STUB(GaussianFn, Gaussian);
RGAE_KERNEL_STUB(AdamStepFn, AdamStep);
RGAE_KERNEL_STUB(GmmLogJointFn, GmmLogJoint);
RGAE_KERNEL_STUB(GmmMStepFn, GmmMStep);
RGAE_KERNEL_STUB(NearestCenterFn, NearestCenter);

#undef RGAE_KERNEL_STUB
#undef RGAE_AVX2_FN

}  // namespace

void MatMul(const double* a, const double* b, double* out, int m, int k,
            int n) {
  kMatMulStub.Get()(a, b, out, m, k, n);
}

void MatMulRow(const double* a_row, const double* b, double* out_row, int k,
               int n) {
  kMatMulRowStub.Get()(a_row, b, out_row, k, n);
}

void MatMulTransA(const double* a, const double* b, double* out, int k, int m,
                  int n) {
  kMatMulTransAStub.Get()(a, b, out, k, m, n);
}

void MatMulTransB(const double* a, const double* b, double* out, int m, int k,
                  int n) {
  kMatMulTransBStub.Get()(a, b, out, m, k, n);
}

void SpmmRow(const int* cols, const double* vals, int count, const double* x,
             int x_cols, double* out_row) {
  kSpmmRowStub.Get()(cols, vals, count, x, x_cols, out_row);
}

void Spmm(const int* row_ptr, const int* col_idx, const double* vals,
          int rows, const double* x, int x_cols, double* out) {
  kSpmmStub.Get()(row_ptr, col_idx, vals, rows, x, x_cols, out);
}

void SpmmScatter(const int* row_ptr, const int* col_idx, const double* vals,
                 int rows, const double* x, int x_cols, double* out) {
  kSpmmScatterStub.Get()(row_ptr, col_idx, vals, rows, x, x_cols, out);
}

void StudentT(const double* z, int n, int d, const double* centers, int k,
              double* p) {
  kStudentTStub.Get()(z, n, d, centers, k, p);
}

void Gaussian(const double* z, int n, int d, const double* centers,
              const double* variances, int k, double* p) {
  kGaussianStub.Get()(z, n, d, centers, variances, k, p);
}

void AdamStep(double* value, const double* grad, double* m1, double* m2,
              int64_t n, double beta1, double beta2, double lr, double eps,
              double bc1, double bc2) {
  kAdamStepStub.Get()(value, grad, m1, m2, n, beta1, beta2, lr, eps, bc1,
                      bc2);
}

void GmmLogJoint(const double* x, int n, int d, const double* means,
                 const double* variances, const double* log_norm, int k,
                 double* lj) {
  kGmmLogJointStub.Get()(x, n, d, means, variances, log_norm, k, lj);
}

void GmmMStep(const double* x, int n, int d, const double* resp, int k,
              double min_variance, double* nk, double* means,
              double* variances) {
  kGmmMStepStub.Get()(x, n, d, resp, k, min_variance, nk, means, variances);
}

void NearestCenter(const double* x, int n, int d, const double* centers,
                   int k, int* assign, double* best) {
  kNearestCenterStub.Get()(x, n, d, centers, k, assign, best);
}

}  // namespace kernels
}  // namespace rgae
