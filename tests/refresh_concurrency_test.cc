// The first-group refresh of RGaeTrainer::Pretrain fits Ξ's and Υ's GMMs
// as two tasks of the kernels' fork-join pool (DESIGN.md §9). This suite is
// in the concurrency binary, so CI also runs the two fits on two threads
// under the thread sanitizer. Training must give the same bits at any
// worker count, and the same Ω and A^self_clus as the two fits made one
// after the other: fork, fit and score for Ξ, then the same for Υ.

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/clustering/assignments.h"
#include "src/clustering/gmm.h"
#include "src/clustering/kmeans.h"
#include "src/core/operators.h"
#include "src/core/rgae_trainer.h"
#include "src/graph/generators.h"
#include "src/kernels/parallel.h"
#include "src/models/model_factory.h"

namespace rgae {
namespace {

/// Six clusters on 90 nodes: after 20 epochs the embedding is clustered
/// loosely enough that two GMM fits from different forks often disagree.
AttributedGraph SmallGraph() {
  CitationLikeOptions o;
  o.num_nodes = 90;
  o.num_clusters = 6;
  o.feature_dim = 50;
  o.topic_words = 12;
  o.intra_degree = 4.0;
  o.inter_degree = 1.0;
  Rng rng(4);
  return MakeCitationLike(o, rng);
}

ModelOptions SmallModelOptions() {
  ModelOptions o;
  o.hidden_dim = 12;
  o.latent_dim = 6;
  o.seed = 5;
  return o;
}

constexpr int kTransformStart = 20;

/// A first-group R pretraining that refreshes Ξ and Υ on each of its
/// `refreshes` last epochs, after kTransformStart plain ones.
TrainerOptions Refreshing(int refreshes, uint64_t seed) {
  TrainerOptions t;
  t.use_operators = true;
  t.first_group_transform_start = kTransformStart;
  t.pretrain_epochs = kTransformStart + refreshes;
  t.m2 = 1;
  t.seed = seed;
  return t;
}

/// Limits the pool for one scope and gives every worker back after it.
class WorkerLimit {
 public:
  explicit WorkerLimit(int workers) {
    kernels::SetParallelWorkersForTesting(workers);
  }
  ~WorkerLimit() { kernels::SetParallelWorkersForTesting(0); }
  WorkerLimit(const WorkerLimit&) = delete;
  WorkerLimit& operator=(const WorkerLimit&) = delete;
};

struct Refreshed {
  std::vector<Matrix> weights;
  std::vector<std::pair<int, int>> edges;
  std::vector<int> omega;
};

Refreshed PretrainOn(const AttributedGraph& g, const TrainerOptions& opts,
                     int workers) {
  const WorkerLimit limit(workers);
  auto model = CreateModel("GAE", g, SmallModelOptions());
  RGaeTrainer trainer(model.get(), opts);
  EXPECT_TRUE(trainer.Pretrain());
  return {model->SaveWeights(), trainer.self_graph().edges(), trainer.omega()};
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void ExpectSameRun(const Refreshed& got, const Refreshed& want) {
  EXPECT_EQ(got.omega, want.omega);
  EXPECT_EQ(got.edges, want.edges);
  ASSERT_EQ(got.weights.size(), want.weights.size());
  for (size_t p = 0; p < want.weights.size(); ++p) {
    const Matrix& a = got.weights[p];
    const Matrix& b = want.weights[p];
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < b.size(); ++i) {
      ASSERT_EQ(Bits(a.data()[i]), Bits(b.data()[i]))
          << "weight " << p << " at flat index " << i;
    }
  }
}

/// XiScores of `z` as the trainer computed them with both fits on one
/// thread: fork, fit a GMM, harden its responsibilities, then the
/// Student-t kernel against the hard clusters' means.
Matrix SequentialXiScores(const Matrix& z, int k, Rng& rng) {
  Rng fork = rng.Fork();
  const GmmModel gmm = FitGmm(z, k, fork);
  const std::vector<int> hard = HardAssign(gmm.Responsibilities(z));
  return StudentTAssignments(z, ClusterMeans(z, hard, k));
}

TEST(FirstGroupRefreshTest, SameBitsAtAnyWorkerCount) {
  const AttributedGraph g = SmallGraph();
  const TrainerOptions opts = Refreshing(/*refreshes=*/10, /*seed=*/1);
  const Refreshed one = PretrainOn(g, opts, 1);
  EXPECT_FALSE(one.omega.empty());
  EXPECT_NE(one.edges, g.edges());
  for (const int workers : {2, 0}) {  // 0 = every worker of the pool.
    SCOPED_TRACE(::testing::Message() << "workers limit " << workers);
    ExpectSameRun(PretrainOn(g, opts, workers), one);
  }
}

TEST(FirstGroupRefreshTest, FirstRefreshMatchesSequentialFits) {
  const AttributedGraph g = SmallGraph();
  const int k = g.num_clusters();
  // Before the first refresh the R pretraining trains as the plain one
  // does, and the trainer draws no random number.
  auto plain_model = CreateModel("GAE", g, SmallModelOptions());
  TrainerOptions plain = Refreshing(/*refreshes=*/0, /*seed=*/1);
  plain.use_operators = false;
  RGaeTrainer(plain_model.get(), plain).Pretrain();
  const Matrix z = plain_model->Embed();

  for (const uint64_t seed : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const TrainerOptions opts = Refreshing(/*refreshes=*/1, seed);
    Rng rng(opts.seed);
    const Matrix xi_scores = SequentialXiScores(z, k, rng);
    const Matrix upsilon_scores = SequentialXiScores(z, k, rng);
    const std::vector<int> omega = OperatorXi(xi_scores, opts.xi).omega;
    ASSERT_FALSE(omega.empty());  // Ξ's fallback subset is not in play.
    // The two fits disagree here, so forks drawn in the other order would
    // show in Ω.
    ASSERT_NE(OperatorXi(upsilon_scores, opts.xi).omega, omega);
    const std::vector<std::pair<int, int>> edges =
        OperatorUpsilonEdges(g, z, upsilon_scores, omega, opts.upsilon);

    const Refreshed got = PretrainOn(g, opts, 1);
    EXPECT_EQ(got.omega, omega);
    EXPECT_EQ(got.edges, edges);
  }
}

}  // namespace
}  // namespace rgae
