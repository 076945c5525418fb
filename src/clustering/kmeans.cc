#include "src/clustering/kmeans.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "src/kernels/kernels.h"
#include "src/obs/trace.h"

namespace rgae {

namespace {

// k-means++ seeding.
Matrix SeedCenters(const Matrix& data, int k, Rng& rng) {
  const int n = data.rows();
  Matrix centers(k, data.cols());
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  int first = rng.UniformInt(n);
  std::copy(data.row(first), data.row(first) + data.cols(), centers.row(0));
  for (int c = 1; c < k; ++c) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      const double d = RowSquaredDistance(data, i, centers, c - 1);
      min_dist[i] = std::min(min_dist[i], d);
      total += min_dist[i];
    }
    int chosen = 0;
    if (total > 0.0) {
      double x = rng.Uniform() * total;
      for (int i = 0; i < n; ++i) {
        x -= min_dist[i];
        if (x <= 0.0) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = rng.UniformInt(n);
    }
    std::copy(data.row(chosen), data.row(chosen) + data.cols(),
              centers.row(c));
  }
  return centers;
}

KMeansResult RunOnce(const Matrix& data, int k, Rng& rng,
                     const KMeansOptions& options) {
  const int n = data.rows();
  KMeansResult result;
  result.centers = SeedCenters(data, k, rng);
  result.assignments.assign(n, 0);
  std::vector<int> nearest(n);
  std::vector<double> best(n);
  double prev_inertia = std::numeric_limits<double>::max();
  for (int it = 0; it < options.max_iterations; ++it) {
    result.iterations = it + 1;
    // Assignment step.
    kernels::NearestCenter(data.data(), n, data.cols(), result.centers.data(),
                           k, nearest.data(), best.data());
    bool changed = false;
    double inertia = 0.0;
    for (int i = 0; i < n; ++i) {
      if (nearest[i] != result.assignments[i]) changed = true;
      inertia += best[i];
    }
    result.assignments.swap(nearest);
    result.inertia = inertia;
    // Update step.
    result.centers = ClusterMeans(data, result.assignments, k);
    if (!changed || prev_inertia - inertia < options.tolerance) break;
    prev_inertia = inertia;
  }
  return result;
}

}  // namespace

KMeansResult KMeans(const Matrix& data, int k, Rng& rng,
                    const KMeansOptions& options) {
  RGAE_TIMED_KERNEL("kernel.kmeans");
  assert(k > 0 && data.rows() >= k);
  KMeansResult best;
  best.inertia = std::numeric_limits<double>::max();
  int total_iterations = 0;
  for (int r = 0; r < std::max(1, options.restarts); ++r) {
    KMeansResult candidate = RunOnce(data, k, rng, options);
    total_iterations += candidate.iterations;
    if (candidate.inertia < best.inertia) best = std::move(candidate);
  }
  if (obs::Enabled()) {
    RGAE_COUNT("kmeans.fits");
    static obs::Histogram* const iters =
        obs::MetricsRegistry::Global().GetHistogram("kmeans.iterations");
    iters->Observe(total_iterations);
  }
  return best;
}

std::vector<int> NearestCenters(const Matrix& data, const Matrix& centers) {
  assert(centers.rows() == 0 || centers.cols() == data.cols());
  std::vector<int> out(data.rows(), 0);
  kernels::NearestCenter(data.data(), data.rows(), data.cols(),
                         centers.data(), centers.rows(), out.data(), nullptr);
  return out;
}

Matrix ClusterMeans(const Matrix& data, const std::vector<int>& assignments,
                    int k) {
  assert(static_cast<int>(assignments.size()) == data.rows());
  Matrix centers(k, data.cols());
  std::vector<int> counts(k, 0);
  for (int i = 0; i < data.rows(); ++i) {
    const int c = assignments[i];
    assert(c >= 0 && c < k);
    ++counts[c];
    const double* row = data.row(i);
    double* center = centers.row(c);
    for (int j = 0; j < data.cols(); ++j) center[j] += row[j];
  }
  // Overall mean as the fallback for empty clusters, computed only when
  // one is empty.
  Matrix overall;
  if (std::find(counts.begin(), counts.end(), 0) != counts.end()) {
    overall = Matrix(1, data.cols());
    for (int i = 0; i < data.rows(); ++i) {
      const double* row = data.row(i);
      for (int j = 0; j < data.cols(); ++j) overall(0, j) += row[j];
    }
    if (data.rows() > 0) overall *= 1.0 / data.rows();
  }
  for (int c = 0; c < k; ++c) {
    double* center = centers.row(c);
    if (counts[c] == 0) {
      std::copy(overall.row(0), overall.row(0) + data.cols(), center);
    } else {
      for (int j = 0; j < data.cols(); ++j) center[j] /= counts[c];
    }
  }
  return centers;
}

}  // namespace rgae
