// FitGmm, EmIterations, KMeans, NearestCenters and ClusterMeans against the
// loops they ran before their O(n·k·d) parts moved into the kernel library
// (GmmLogJoint, GmmMStep, NearestCenter). Those loops are kept below as a
// test-local reference, and every result must match them bit for bit under
// each supported kernel tier and draw the same random numbers, over 20
// seeds at the air-traffic shapes (USA, Europe and Brazil: 420, 320 and
// 130 nodes, k = 4, d = 16) and at k = 7. The responsibilities FitGmm and
// EmIterations hand back must be Responsibilities(data) of the fitted
// model, bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/clustering/gmm.h"
#include "src/clustering/kmeans.h"
#include "src/kernels/dispatch.h"
#include "src/tensor/matrix.h"
#include "src/tensor/random.h"

namespace rgae {
namespace {

namespace reference {

Matrix ClusterMeans(const Matrix& data, const std::vector<int>& assignments,
                    int k) {
  Matrix centers(k, data.cols());
  std::vector<int> counts(k, 0);
  for (int i = 0; i < data.rows(); ++i) {
    const int c = assignments[i];
    ++counts[c];
    const double* row = data.row(i);
    double* center = centers.row(c);
    for (int j = 0; j < data.cols(); ++j) center[j] += row[j];
  }
  Matrix overall(1, data.cols());
  for (int i = 0; i < data.rows(); ++i) {
    const double* row = data.row(i);
    for (int j = 0; j < data.cols(); ++j) overall(0, j) += row[j];
  }
  if (data.rows() > 0) overall *= 1.0 / data.rows();
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
  double prev_inertia = std::numeric_limits<double>::max();
  for (int it = 0; it < options.max_iterations; ++it) {
    result.iterations = it + 1;
    bool changed = false;
    double inertia = 0.0;
    for (int i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::max();
      int best_c = 0;
      for (int c = 0; c < k; ++c) {
        const double d = RowSquaredDistance(data, i, result.centers, c);
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      if (best_c != result.assignments[i]) changed = true;
      result.assignments[i] = best_c;
      inertia += best;
    }
    result.inertia = inertia;
    result.centers = reference::ClusterMeans(data, result.assignments, k);
    if (!changed || prev_inertia - inertia < options.tolerance) break;
    prev_inertia = inertia;
  }
  return result;
}

KMeansResult KMeans(const Matrix& data, int k, Rng& rng,
                    const KMeansOptions& options = {}) {
  KMeansResult best;
  best.inertia = std::numeric_limits<double>::max();
  for (int r = 0; r < std::max(1, options.restarts); ++r) {
    KMeansResult candidate = RunOnce(data, k, rng, options);
    if (candidate.inertia < best.inertia) best = std::move(candidate);
  }
  return best;
}

std::vector<int> NearestCenters(const Matrix& data, const Matrix& centers) {
  std::vector<int> out(data.rows(), 0);
  for (int i = 0; i < data.rows(); ++i) {
    double best = std::numeric_limits<double>::max();
    for (int c = 0; c < centers.rows(); ++c) {
      const double d = RowSquaredDistance(data, i, centers, c);
      if (d < best) {
        best = d;
        out[i] = c;
      }
    }
  }
  return out;
}

constexpr double kLog2Pi = 1.8378770664093453;
constexpr double kDensityVarianceFloor = 1e-12;

Matrix LogJoint(const GmmModel& m, const Matrix& data) {
  const int n = data.rows();
  const int k = m.num_components();
  const int d = m.dim();
  Matrix lj(n, k);
  std::vector<double> log_norm(k, 0.0);
  for (int c = 0; c < k; ++c) {
    double s = std::log(std::max(m.weights[c], 1e-300));
    for (int j = 0; j < d; ++j) {
      s -= 0.5 * (std::log(std::max(m.variances(c, j),
                                    kDensityVarianceFloor)) +
                  kLog2Pi);
    }
    log_norm[c] = s;
  }
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < k; ++c) {
      double s = log_norm[c];
      for (int j = 0; j < d; ++j) {
        const double diff = data(i, j) - m.means(c, j);
        s -= 0.5 * diff * diff /
             std::max(m.variances(c, j), kDensityVarianceFloor);
      }
      lj(i, c) = s;
    }
  }
  return lj;
}

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

double EStep(const GmmModel& model, const Matrix& data, Matrix* resp) {
  *resp = LogJoint(model, data);
  Matrix& lj = *resp;
  double total = 0.0;
  for (int i = 0; i < lj.rows(); ++i) {
    double sum = 0.0;
    const double lse = RowLogSumExp(lj.row(i), lj.cols(), &sum);
    total += lse;
    if (!std::isfinite(lse)) {
      for (int c = 0; c < lj.cols(); ++c) lj(i, c) = 1.0 / lj.cols();
      continue;
    }
    for (int c = 0; c < lj.cols(); ++c) lj(i, c) /= sum;
  }
  return data.rows() > 0 ? total / data.rows() : 0.0;
}

void EmIterations(GmmModel* model, const Matrix& data, int iterations,
                  const GmmOptions& options = {}) {
  const int n = data.rows();
  const int k = model->num_components();
  const int d = model->dim();
  double prev_ll = -1e300;
  Matrix resp;
  if (iterations > 0) EStep(*model, data, &resp);
  for (int it = 0; it < iterations; ++it) {
    for (int c = 0; c < k; ++c) {
      double nk = 0.0;
      for (int i = 0; i < n; ++i) nk += resp(i, c);
      nk = std::max(nk, 1e-10);
      model->weights[c] = nk / n;
      for (int j = 0; j < d; ++j) {
        double mean = 0.0;
        for (int i = 0; i < n; ++i) mean += resp(i, c) * data(i, j);
        mean /= nk;
        model->means(c, j) = mean;
      }
      for (int j = 0; j < d; ++j) {
        double var = 0.0;
        for (int i = 0; i < n; ++i) {
          const double diff = data(i, j) - model->means(c, j);
          var += resp(i, c) * diff * diff;
        }
        model->variances(c, j) = std::max(options.min_variance, var / nk);
      }
    }
    const double ll = EStep(*model, data, &resp);
    if (ll - prev_ll < options.tolerance) break;
    prev_ll = ll;
  }
}

GmmModel FitGmm(const Matrix& data, int k, Rng& rng,
                const GmmOptions& options = {}) {
  const int n = data.rows();
  const int d = data.cols();
  const KMeansResult km = reference::KMeans(data, k, rng);
  GmmModel model;
  model.means = km.centers;
  model.variances = Matrix(k, d, 1.0);
  model.weights.assign(k, 1.0 / k);
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
      model.variances(c, j) = std::max(
          options.min_variance, counts[c] > 0 ? sq(c, j) / counts[c] : 1.0);
    }
  }
  reference::EmIterations(&model, data, options.max_iterations, options);
  return model;
}

}  // namespace reference

class IsaGuard {
 public:
  IsaGuard() : saved_(kernels::SelectedIsa()) {}
  ~IsaGuard() { kernels::SetIsaForTesting(saved_); }

 private:
  kernels::Isa saved_;
};

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void ExpectSameBits(const Matrix& got, const Matrix& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(Bits(got.data()[i]), Bits(want.data()[i]))
        << what << " at flat index " << i << ": " << got.data()[i] << " vs "
        << want.data()[i];
  }
}

void ExpectSameModel(const GmmModel& got, const GmmModel& want,
                     const std::string& what) {
  ExpectSameBits(got.means, want.means, what + " means");
  ExpectSameBits(got.variances, want.variances, what + " variances");
  ASSERT_EQ(got.weights.size(), want.weights.size()) << what;
  for (size_t c = 0; c < want.weights.size(); ++c) {
    ASSERT_EQ(Bits(got.weights[c]), Bits(want.weights[c]))
        << what << " weight " << c;
  }
}

struct Shape {
  const char* name;
  int n, k;
};
// The air-traffic datasets' node counts at their four classes, and the
// USA count at Cora's seven; d = 16 is the embedding width.
constexpr Shape kShapes[] = {
    {"USA", 420, 4}, {"Europe", 320, 4}, {"Brazil", 130, 4}, {"k7", 420, 7}};
constexpr int kDim = 16;
constexpr int kSeeds = 20;

/// An embedding-like sample: k overlapping Gaussian blobs of unequal size
/// and spread, so EM and Lloyd take several iterations.
Matrix Embedding(int n, int k, uint64_t seed) {
  Rng rng(seed);
  Matrix centers(k, kDim);
  for (int c = 0; c < k; ++c) {
    for (int j = 0; j < kDim; ++j) centers(c, j) = rng.Gaussian(0.0, 1.5);
  }
  Matrix x(n, kDim);
  for (int i = 0; i < n; ++i) {
    const int c = std::min(k - 1, static_cast<int>(rng.Uniform() *
                                                   rng.Uniform() * k * 1.6));
    const double spread = 0.5 + 0.25 * c;
    for (int j = 0; j < kDim; ++j) {
      x(i, j) = centers(c, j) + rng.Gaussian(0.0, spread);
    }
  }
  return x;
}

/// Runs `check` once per supported kernel tier, pinned.
template <typename Check>
void ForEachTier(const Check& check) {
  const IsaGuard guard;
  for (const kernels::Isa isa : kernels::SupportedIsas()) {
    kernels::SetIsaForTesting(isa);
    SCOPED_TRACE(kernels::IsaName(isa));
    check();
  }
}

TEST(ClusteringReferenceTest, KMeansMatchesReferenceLoops) {
  for (const Shape& s : kShapes) {
    for (int seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE(std::string(s.name) + " seed " + std::to_string(seed));
      const Matrix x = Embedding(s.n, s.k, seed);
      Rng want_rng(seed);
      const KMeansResult want = reference::KMeans(x, s.k, want_rng);
      const double want_next = want_rng.Uniform();
      ForEachTier([&] {
        Rng rng(seed);
        const KMeansResult got = KMeans(x, s.k, rng);
        ExpectSameBits(got.centers, want.centers, "centers");
        EXPECT_EQ(got.assignments, want.assignments);
        EXPECT_EQ(Bits(got.inertia), Bits(want.inertia));
        EXPECT_EQ(got.iterations, want.iterations);
        EXPECT_EQ(Bits(rng.Uniform()), Bits(want_next)) << "rng drift";
      });
    }
  }
}

TEST(ClusteringReferenceTest, FitGmmMatchesReferenceLoops) {
  for (const Shape& s : kShapes) {
    for (int seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE(std::string(s.name) + " seed " + std::to_string(seed));
      const Matrix x = Embedding(s.n, s.k, 100 + seed);
      Rng want_rng(seed);
      const GmmModel want = reference::FitGmm(x, s.k, want_rng);
      const double want_next = want_rng.Uniform();
      Matrix want_resp;
      const double want_ll = reference::EStep(want, x, &want_resp);
      ForEachTier([&] {
        Rng rng(seed);
        const GmmModel got = FitGmm(x, s.k, rng);
        ExpectSameModel(got, want, "FitGmm");
        EXPECT_EQ(Bits(rng.Uniform()), Bits(want_next)) << "rng drift";
        Matrix resp;
        EXPECT_EQ(Bits(got.EStep(x, &resp)), Bits(want_ll));
        ExpectSameBits(resp, want_resp, "responsibilities");
      });
    }
  }
}

TEST(ClusteringReferenceTest, FitGmmReturnsItsModelsResponsibilities) {
  // Each EM iteration ends with the E-step of the parameters it fitted, so
  // the matrix FitGmm returns is its model's Responsibilities(data); with
  // no iteration FitGmm runs that E-step itself.
  for (const Shape& s : kShapes) {
    for (int seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE(std::string(s.name) + " seed " + std::to_string(seed));
      const Matrix x = Embedding(s.n, s.k, 100 + seed);
      ForEachTier([&] {
        for (const int iterations : {0, 1, 100}) {
          GmmOptions options;
          options.max_iterations = iterations;
          Rng rng(seed);
          Matrix resp;
          const GmmModel got = FitGmm(x, s.k, rng, options, &resp);
          ExpectSameBits(resp, got.Responsibilities(x),
                         "FitGmm(max_iterations = " +
                             std::to_string(iterations) + ")");
        }
      });
    }
  }
}

TEST(ClusteringReferenceTest, EmIterationsMatchesReferenceLoops) {
  // Warm starts as GMM-VGAE makes them: five iterations on a moved
  // embedding, with its variance floor, and a run to convergence.
  GmmOptions vgae;
  vgae.min_variance = 1e-4;
  for (const Shape& s : kShapes) {
    for (int seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE(std::string(s.name) + " seed " + std::to_string(seed));
      const Matrix x = Embedding(s.n, s.k, 200 + seed);
      Rng rng(seed);
      const GmmModel start = reference::FitGmm(x, s.k, rng);
      Matrix moved = x;
      for (size_t i = 0; i < moved.size(); ++i) {
        moved.data()[i] += rng.Gaussian(0.0, 0.3);
      }
      for (const int iterations : {5, 100}) {
        GmmModel want = start;
        reference::EmIterations(&want, moved, iterations, vgae);
        ForEachTier([&] {
          GmmModel got = start;
          Matrix resp;
          EmIterations(&got, moved, iterations, vgae, &resp);
          const std::string what =
              "EmIterations(" + std::to_string(iterations) + ")";
          ExpectSameModel(got, want, what);
          ExpectSameBits(resp, want.Responsibilities(moved),
                         what + " responsibilities");
        });
      }
    }
  }
}

TEST(ClusteringReferenceTest, NearestCentersAndClusterMeansMatchReference) {
  // Random centers, some rows of x copied onto a center (distance 0) and
  // a duplicated center (a tie the lower index must win); ClusterMeans
  // with every cluster filled and with the last one empty, which takes the
  // overall-mean fallback.
  for (const Shape& s : kShapes) {
    for (int seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE(std::string(s.name) + " seed " + std::to_string(seed));
      Matrix x = Embedding(s.n, s.k, 300 + seed);
      Rng rng(seed);
      Matrix centers(s.k, kDim);
      for (size_t i = 0; i < centers.size(); ++i) {
        centers.data()[i] = rng.Gaussian(0.0, 1.5);
      }
      std::copy(centers.row(0), centers.row(0) + kDim, centers.row(s.k - 1));
      std::copy(centers.row(1), centers.row(1) + kDim, x.row(seed));
      const std::vector<int> want = reference::NearestCenters(x, centers);
      std::vector<int> emptied = want;
      for (int& c : emptied) c = std::min(c, s.k - 2);
      const Matrix want_means = reference::ClusterMeans(x, want, s.k);
      const Matrix want_emptied = reference::ClusterMeans(x, emptied, s.k);
      ForEachTier([&] {
        EXPECT_EQ(NearestCenters(x, centers), want);
        ExpectSameBits(ClusterMeans(x, want, s.k), want_means,
                       "ClusterMeans");
        ExpectSameBits(ClusterMeans(x, emptied, s.k), want_emptied,
                       "ClusterMeans with an empty cluster");
      });
    }
  }
}

}  // namespace
}  // namespace rgae
