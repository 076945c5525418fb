#include "src/clustering/gmm.h"

#include <cassert>
#include <cmath>
#include <utility>

#include "src/clustering/kmeans.h"
#include "src/kernels/kernels.h"
#include "src/obs/trace.h"

namespace rgae {

namespace {

constexpr double kLog2Pi = 1.8378770664093453;

// Per-row log joint densities log(pi_k) + log N(x_i; mu_k, var_k): n x k.
// Variances are floored at kernels::kGmmVarianceFloor here and in the
// kernel, so a collapsed component gives no 0/0 = NaN.
Matrix LogJoint(const GmmModel& m, const Matrix& data) {
  const int n = data.rows();
  const int k = m.num_components();
  const int d = m.dim();
  std::vector<double> log_norm(k, 0.0);  // Precomputed per-component parts.
  for (int c = 0; c < k; ++c) {
    double s = std::log(std::max(m.weights[c], 1e-300));
    for (int j = 0; j < d; ++j) {
      s -= 0.5 * (std::log(std::max(m.variances(c, j),
                                    kernels::kGmmVarianceFloor)) +
                  kLog2Pi);
    }
    log_norm[c] = s;
  }
  Matrix lj = Matrix::Uninitialized(n, k);  // The kernel writes every entry.
  kernels::GmmLogJoint(data.data(), n, d, m.means.data(), m.variances.data(),
                       log_norm.data(), k, lj.data());
  return lj;
}

// Log-sum-exp of one row of k log joints, shifted by the row max. Leaves
// exp(row[c] - max) in the row and their sum in *sum, which
// Responsibilities normalizes by. When the max is not finite (every log
// joint -inf after underflow) it returns the max unchanged and leaves the
// row as it was, rather than form -inf - (-inf) = NaN.
double RowLogSumExp(double* row, int k, double* sum) {
  double row_max = row[0];
  for (int c = 1; c < k; ++c) row_max = std::max(row_max, row[c]);
  if (!std::isfinite(row_max)) return row_max;
  double s = 0.0;
  for (int c = 0; c < k; ++c) {
    row[c] = std::exp(row[c] - row_max);
    s += row[c];
  }
  *sum = s;
  return row_max + std::log(s);
}

}  // namespace

double GmmModel::EStep(const Matrix& data, Matrix* resp) const {
  *resp = LogJoint(*this, data);
  Matrix& lj = *resp;
  double total = 0.0;
  for (int i = 0; i < lj.rows(); ++i) {
    double sum = 0.0;
    const double lse = RowLogSumExp(lj.row(i), lj.cols(), &sum);
    // -inf for a point impossibly far from every component (all log joints
    // -inf after underflow), so the mean is -inf and EM stops, instead of
    // NaN; that point gets a uniform row.
    total += lse;
    if (!std::isfinite(lse)) {
      for (int c = 0; c < lj.cols(); ++c) lj(i, c) = 1.0 / lj.cols();
      continue;
    }
    for (int c = 0; c < lj.cols(); ++c) lj(i, c) /= sum;
  }
  return data.rows() > 0 ? total / data.rows() : 0.0;
}

Matrix GmmModel::Responsibilities(const Matrix& data) const {
  Matrix resp;
  EStep(data, &resp);
  return resp;
}

double GmmModel::MeanLogLikelihood(const Matrix& data) const {
  Matrix resp;
  return EStep(data, &resp);
}

std::vector<int> GmmModel::HardAssignments(const Matrix& data) const {
  const Matrix r = Responsibilities(data);
  std::vector<int> out(r.rows(), 0);
  for (int i = 0; i < r.rows(); ++i) {
    for (int c = 1; c < r.cols(); ++c) {
      if (r(i, c) > r(i, out[i])) out[i] = c;
    }
  }
  return out;
}

GmmModel FitGmm(const Matrix& data, int k, Rng& rng,
                const GmmOptions& options, Matrix* responsibilities) {
  assert(k > 0 && data.rows() >= k);
  const int n = data.rows();
  const int d = data.cols();

  // Initialize from k-means.
  const KMeansResult km = KMeans(data, k, rng);
  GmmModel model;
  model.means = km.centers;
  model.variances = Matrix(k, d, 1.0);
  model.weights.assign(k, 1.0 / k);
  {
    std::vector<int> counts(k, 0);
    Matrix sq(k, d);
    for (int i = 0; i < n; ++i) {
      const int c = km.assignments[i];
      ++counts[c];
      for (int j = 0; j < d; ++j) {
        const double diff = data(i, j) - model.means(c, j);
        sq(c, j) += diff * diff;
      }
    }
    for (int c = 0; c < k; ++c) {
      model.weights[c] = std::max(1, counts[c]) / static_cast<double>(n);
      for (int j = 0; j < d; ++j) {
        model.variances(c, j) =
            std::max(options.min_variance,
                     counts[c] > 0 ? sq(c, j) / counts[c] : 1.0);
      }
    }
  }

  EmIterations(&model, data, options.max_iterations, options,
               responsibilities);
  return model;
}

void EmIterations(GmmModel* model, const Matrix& data, int iterations,
                  const GmmOptions& options, Matrix* responsibilities) {
  RGAE_TIMED_KERNEL("kernel.gmm_em");
  const int n = data.rows();
  const int k = model->num_components();
  const int d = model->dim();
  assert(data.cols() == d);
  double prev_ll = -1e300;
  int ran = 0;
  // The E-step of the first iteration; each later one comes with the
  // previous iteration's mean log-likelihood.
  Matrix resp;
  if (iterations > 0) model->EStep(data, &resp);
  std::vector<double> nk(k);
  for (int it = 0; it < iterations; ++it) {
    ++ran;
    kernels::GmmMStep(data.data(), n, d, resp.data(), k, options.min_variance,
                      nk.data(), model->means.data(),
                      model->variances.data());
    for (int c = 0; c < k; ++c) model->weights[c] = nk[c] / n;
    const double ll = model->EStep(data, &resp);
    if (ll - prev_ll < options.tolerance) break;
    prev_ll = ll;
  }
  if (responsibilities != nullptr) {
    // Every iteration ends with the E-step of the parameters it fitted.
    if (iterations > 0) {
      *responsibilities = std::move(resp);
    } else {
      model->EStep(data, responsibilities);
    }
  }
  if (obs::Enabled()) {
    RGAE_COUNT("gmm.fits");
    static obs::Histogram* const iters =
        obs::MetricsRegistry::Global().GetHistogram("gmm.iterations");
    iters->Observe(ran);
  }
}

}  // namespace rgae
