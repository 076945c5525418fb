#include "src/clustering/gmm.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "src/metrics/clustering_metrics.h"

namespace rgae {
namespace {

Matrix TwoBlobs(std::vector<int>* labels, Rng& rng, int per_cluster = 60) {
  Matrix data(2 * per_cluster, 2);
  labels->clear();
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < per_cluster; ++i) {
      const int row = c * per_cluster + i;
      data(row, 0) = (c == 0 ? -4.0 : 4.0) + rng.Gaussian(0.0, 0.8);
      data(row, 1) = rng.Gaussian(0.0, 0.8);
      labels->push_back(c);
    }
  }
  return data;
}

TEST(GmmTest, RecoversTwoBlobs) {
  Rng rng(1);
  std::vector<int> truth;
  const Matrix data = TwoBlobs(&truth, rng);
  const GmmModel gmm = FitGmm(data, 2, rng);
  EXPECT_GT(ClusteringAccuracy(gmm.HardAssignments(data), truth), 0.98);
}

TEST(GmmTest, WeightsSumToOne) {
  Rng rng(2);
  std::vector<int> truth;
  const Matrix data = TwoBlobs(&truth, rng);
  const GmmModel gmm = FitGmm(data, 3, rng);
  double sum = 0.0;
  for (double w : gmm.weights) {
    EXPECT_GT(w, 0.0);
    sum += w;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(GmmTest, ResponsibilitiesRowsSumToOne) {
  Rng rng(3);
  std::vector<int> truth;
  const Matrix data = TwoBlobs(&truth, rng);
  const GmmModel gmm = FitGmm(data, 2, rng);
  const Matrix resp = gmm.Responsibilities(data);
  for (int i = 0; i < resp.rows(); ++i) {
    double row = 0.0;
    for (int j = 0; j < resp.cols(); ++j) {
      EXPECT_GE(resp(i, j), 0.0);
      row += resp(i, j);
    }
    EXPECT_NEAR(row, 1.0, 1e-9);
  }
}

TEST(GmmTest, MeanLogLikelihoodImprovesOverKMeansInit) {
  // After EM the likelihood must be at least as good as a 1-component fit
  // for clearly bimodal data.
  Rng rng(4);
  std::vector<int> truth;
  const Matrix data = TwoBlobs(&truth, rng);
  const GmmModel one = FitGmm(data, 1, rng);
  const GmmModel two = FitGmm(data, 2, rng);
  EXPECT_GT(two.MeanLogLikelihood(data), one.MeanLogLikelihood(data));
}

TEST(GmmTest, VarianceFloorRespected) {
  // Identical points would collapse variances to zero without the floor.
  Matrix data(10, 2, 1.0);
  Rng rng(5);
  GmmOptions opts;
  opts.min_variance = 1e-4;
  const GmmModel gmm = FitGmm(data, 2, rng, opts);
  for (int c = 0; c < 2; ++c) {
    for (int j = 0; j < 2; ++j) {
      EXPECT_GE(gmm.variances(c, j), opts.min_variance - 1e-15);
    }
  }
  // Degenerate input must still produce finite likelihoods.
  EXPECT_TRUE(std::isfinite(gmm.MeanLogLikelihood(data)));
}

TEST(GmmTest, HardAssignmentsMatchArgmaxResponsibility) {
  Rng rng(6);
  std::vector<int> truth;
  const Matrix data = TwoBlobs(&truth, rng, 20);
  const GmmModel gmm = FitGmm(data, 2, rng);
  const Matrix resp = gmm.Responsibilities(data);
  const std::vector<int> hard = gmm.HardAssignments(data);
  for (int i = 0; i < data.rows(); ++i) {
    const int argmax = resp(i, 0) >= resp(i, 1) ? 0 : 1;
    EXPECT_EQ(hard[i], argmax);
  }
}

TEST(GmmTest, DeterministicGivenSeed) {
  Rng data_rng(7);
  std::vector<int> truth;
  const Matrix data = TwoBlobs(&truth, data_rng, 25);
  Rng r1(9), r2(9);
  const GmmModel a = FitGmm(data, 2, r1);
  const GmmModel b = FitGmm(data, 2, r2);
  for (int c = 0; c < 2; ++c) {
    for (int j = 0; j < 2; ++j) {
      EXPECT_DOUBLE_EQ(a.means(c, j), b.means(c, j));
    }
  }
}


TEST(EmIterationsTest, WarmStartImprovesLikelihood) {
  Rng rng(8);
  std::vector<int> truth;
  const Matrix data = TwoBlobs(&truth, rng);
  // Deliberately bad starting point: both components at the origin.
  GmmModel model;
  model.means = Matrix(2, 2, 0.1);
  model.means(1, 0) = -0.1;
  model.variances = Matrix(2, 2, 1.0);
  model.weights = {0.5, 0.5};
  const double before = model.MeanLogLikelihood(data);
  EmIterations(&model, data, 20);
  EXPECT_GT(model.MeanLogLikelihood(data), before);
}

TEST(GmmTest, CollapsedComponentYieldsFiniteResponsibilities) {
  // A hand-built model with one fully collapsed component (zero variance,
  // mean sitting exactly on a data point). Without the density-evaluation
  // variance floor this is 0/0 = NaN for that point.
  GmmModel model;
  model.means = Matrix(2, 2);
  model.means(0, 0) = 1.0;
  model.means(0, 1) = 1.0;   // Collapsed component at (1, 1).
  model.means(1, 0) = -1.0;
  model.means(1, 1) = -1.0;
  model.variances = Matrix(2, 2, 1.0);
  model.variances(0, 0) = 0.0;  // Zero variance: collapsed.
  model.variances(0, 1) = 0.0;
  model.weights = {0.5, 0.5};

  Matrix data(3, 2);
  data(0, 0) = 1.0;
  data(0, 1) = 1.0;   // Exactly on the collapsed mean.
  data(1, 0) = -1.0;
  data(1, 1) = -1.0;
  data(2, 0) = 100.0;  // Impossibly far from both components.
  data(2, 1) = 100.0;

  const Matrix resp = model.Responsibilities(data);
  for (int i = 0; i < resp.rows(); ++i) {
    double row = 0.0;
    for (int c = 0; c < resp.cols(); ++c) {
      EXPECT_TRUE(std::isfinite(resp(i, c))) << "row " << i << " col " << c;
      EXPECT_GE(resp(i, c), 0.0);
      row += resp(i, c);
    }
    EXPECT_NEAR(row, 1.0, 1e-9);
  }
  // The collapsed component claims its own point outright.
  EXPECT_GT(resp(0, 0), 0.99);
  EXPECT_TRUE(std::isfinite(model.MeanLogLikelihood(data)));
  EXPECT_EQ(model.HardAssignments(data).size(), 3u);
}

TEST(GmmTest, ImpossiblyFarPointGetsUniformResponsibilities) {
  // A point so distant the squared deviation overflows to +inf makes every
  // log joint -inf; the fallback hands it a uniform row instead of NaN, and
  // its log-likelihood is -inf, also not NaN.
  GmmModel model;
  model.means = Matrix(2, 1);
  model.means(1, 0) = 1.0;
  model.variances = Matrix(2, 1, 1.0);
  model.weights = {0.5, 0.5};
  Matrix data(1, 1, 1e200);
  const Matrix resp = model.Responsibilities(data);
  EXPECT_DOUBLE_EQ(resp(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(resp(0, 1), 0.5);
  EXPECT_EQ(model.MeanLogLikelihood(data),
            -std::numeric_limits<double>::infinity());
}

TEST(GmmTest, EStepMatchesResponsibilitiesAndMeanLogLikelihoodBitForBit) {
  // EM's one evaluation of the log joints per parameter set gives both
  // public results' bits, including a point whose log joints all
  // underflow (uniform row, -inf mean). The output matrix starts with a
  // stale shape and contents, as EM's does from one iteration to the next.
  Rng rng(31);
  std::vector<int> truth;
  Matrix data = TwoBlobs(&truth, rng, 20);
  const GmmModel fitted = FitGmm(data, 2, rng);
  for (const bool far_point : {false, true}) {
    if (far_point) data(7, 1) = 1e200;
    Matrix resp(3, 5, -1.0);
    const double mean = fitted.EStep(data, &resp);
    const Matrix want = fitted.Responsibilities(data);
    ASSERT_EQ(resp.rows(), want.rows());
    ASSERT_EQ(resp.cols(), want.cols());
    for (int i = 0; i < want.rows(); ++i) {
      for (int c = 0; c < want.cols(); ++c) {
        ASSERT_EQ(std::bit_cast<uint64_t>(resp(i, c)),
                  std::bit_cast<uint64_t>(want(i, c)))
            << "row " << i << " component " << c;
      }
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(mean),
              std::bit_cast<uint64_t>(fitted.MeanLogLikelihood(data)));
    if (far_point) {
      EXPECT_EQ(resp(7, 0), 0.5);
      EXPECT_EQ(resp(7, 1), 0.5);
      EXPECT_EQ(mean, -std::numeric_limits<double>::infinity());
    } else {
      EXPECT_TRUE(std::isfinite(mean));
    }
  }
}

TEST(GmmTest, EmOnCollapsedDataStaysFinite) {
  // All points identical in one dimension, near-identical in the other:
  // EM drives variances onto the floor; nothing may go NaN.
  Matrix data(12, 2, 2.0);
  for (int i = 0; i < 6; ++i) data(i, 1) = 2.0 + 1e-13 * i;
  Rng rng(11);
  const GmmModel gmm = FitGmm(data, 3, rng);
  const Matrix resp = gmm.Responsibilities(data);
  for (int i = 0; i < resp.rows(); ++i) {
    for (int c = 0; c < resp.cols(); ++c) {
      EXPECT_TRUE(std::isfinite(resp(i, c)));
    }
  }
  EXPECT_TRUE(std::isfinite(gmm.MeanLogLikelihood(data)));
  for (double w : gmm.weights) EXPECT_TRUE(std::isfinite(w));
}

TEST(EmIterationsTest, RespectsVarianceFloor) {
  Matrix data(8, 1, 3.0);  // Degenerate data.
  GmmModel model;
  model.means = Matrix(2, 1, 3.0);
  model.variances = Matrix(2, 1, 1.0);
  model.weights = {0.5, 0.5};
  GmmOptions opts;
  opts.min_variance = 0.05;
  EmIterations(&model, data, 10, opts);
  EXPECT_GE(model.variances(0, 0), 0.05 - 1e-12);
  EXPECT_GE(model.variances(1, 0), 0.05 - 1e-12);
}

}  // namespace
}  // namespace rgae
