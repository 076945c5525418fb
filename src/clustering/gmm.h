#ifndef RGAE_CLUSTERING_GMM_H_
#define RGAE_CLUSTERING_GMM_H_

#include <vector>

#include "src/tensor/matrix.h"
#include "src/tensor/random.h"

namespace rgae {

/// Diagonal-covariance Gaussian Mixture Model fitted by EM.
///
/// Used (a) to initialize GMM-VGAE's mixture parameters after pretraining
/// and (b) as the soft-assignment backend of operator Ξ when the base model
/// produces hard assignments (Eq. 15 of the paper).
struct GmmModel {
  Matrix means;     // k x d.
  Matrix variances; // k x d (diagonal covariances).
  std::vector<double> weights;  // Mixture weights, sum to 1.

  int num_components() const { return means.rows(); }
  int dim() const { return means.cols(); }

  /// Posterior responsibilities p(k | x_i); rows sum to 1. `data` is n x d.
  Matrix Responsibilities(const Matrix& data) const;

  /// Mean log-likelihood of the data under the mixture: -inf, not NaN,
  /// when a point is so far from every component that all its log joints
  /// underflow to -inf.
  double MeanLogLikelihood(const Matrix& data) const;

  /// Responsibilities(data) into *resp, returning MeanLogLikelihood(data),
  /// both bit for bit from one evaluation of the log joints. EM calls it
  /// once per parameter set: the mean of the parameters it just fitted and
  /// the responsibilities of its next E-step.
  double EStep(const Matrix& data, Matrix* resp) const;

  /// Hard assignment = argmax responsibility per row.
  std::vector<int> HardAssignments(const Matrix& data) const;
};

struct GmmOptions {
  int max_iterations = 100;
  double tolerance = 1e-5;
  /// Variance floor to keep EM numerically sane.
  double min_variance = 1e-6;
};

/// Fits a k-component diagonal GMM with k-means initialization. A non-null
/// `responsibilities` receives the fitted model's Responsibilities(data),
/// bit for bit, as EmIterations gives them.
GmmModel FitGmm(const Matrix& data, int k, Rng& rng,
                const GmmOptions& options = {},
                Matrix* responsibilities = nullptr);

/// Runs up to `iterations` EM updates on an existing model (warm start).
/// Stops early once the mean log-likelihood improves by less than
/// `options.tolerance`. Used by GMM-VGAE to track the moving embedding.
/// A non-null `responsibilities` receives the final model's
/// Responsibilities(data), bit for bit: EM's last E-step already ran on
/// the final parameters, so only `iterations == 0` costs an E-step more.
void EmIterations(GmmModel* model, const Matrix& data, int iterations,
                  const GmmOptions& options = {},
                  Matrix* responsibilities = nullptr);

}  // namespace rgae

#endif  // RGAE_CLUSTERING_GMM_H_
