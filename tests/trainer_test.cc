#include "src/core/rgae_trainer.h"

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "src/kernels/dispatch.h"
#include "src/models/dgae.h"
#include "src/models/gae.h"
#include "src/models/gmm_vgae.h"
#include "src/models/model_factory.h"

namespace rgae {
namespace {

AttributedGraph TinyGraph(uint64_t seed = 1) {
  CitationLikeOptions o;
  o.num_nodes = 70;
  o.num_clusters = 3;
  o.feature_dim = 50;
  o.topic_words = 14;
  o.intra_degree = 4.0;
  o.inter_degree = 0.5;
  Rng rng(seed);
  return MakeCitationLike(o, rng);
}

ModelOptions TinyModelOptions() {
  ModelOptions o;
  o.hidden_dim = 12;
  o.latent_dim = 6;
  o.seed = 5;
  return o;
}

TrainerOptions TinyTrainerOptions() {
  TrainerOptions t;
  t.pretrain_epochs = 30;
  t.max_cluster_epochs = 20;
  t.m1 = 5;
  t.m2 = 5;
  t.seed = 11;
  return t;
}

TEST(TrainerTest, PlainSecondGroupRuns) {
  const AttributedGraph g = TinyGraph();
  auto model = CreateModel("DGAE", g, TinyModelOptions());
  RGaeTrainer trainer(model.get(), TinyTrainerOptions());
  const TrainResult result = trainer.Run();
  EXPECT_EQ(result.cluster_epochs_run, 20);
  EXPECT_GT(result.scores.acc, 0.3);  // Clearly above 1/K chance on easy data.
  EXPECT_EQ(static_cast<int>(result.assignments.size()), g.num_nodes());
}

TEST(TrainerTest, RVariantSecondGroupRuns) {
  const AttributedGraph g = TinyGraph();
  auto model = CreateModel("DGAE", g, TinyModelOptions());
  TrainerOptions opts = TinyTrainerOptions();
  opts.use_operators = true;
  opts.xi.alpha1 = 0.2;
  RGaeTrainer trainer(model.get(), opts);
  const TrainResult result = trainer.Run();
  EXPECT_GT(result.scores.acc, 0.3);
  // The self-supervision graph was transformed away from A.
  EXPECT_NE(trainer.self_graph().edges(), g.edges());
}

TEST(TrainerTest, ConvergenceStopsEarlyWhenOmegaFull) {
  const AttributedGraph g = TinyGraph();
  auto model = CreateModel("DGAE", g, TinyModelOptions());
  TrainerOptions opts = TinyTrainerOptions();
  opts.use_operators = true;
  opts.max_cluster_epochs = 100;
  // Accept everything: Ω = 𝒱 immediately, so training stops at epoch 1.
  opts.xi.use_alpha1 = false;
  opts.xi.use_alpha2 = false;
  RGaeTrainer trainer(model.get(), opts);
  const TrainResult result = trainer.Run();
  EXPECT_EQ(result.cluster_epochs_run, 1);
}

TEST(TrainerTest, FirstGroupEvaluatesAfterPretrain) {
  const AttributedGraph g = TinyGraph();
  auto model = CreateModel("GAE", g, TinyModelOptions());
  RGaeTrainer trainer(model.get(), TinyTrainerOptions());
  const TrainResult result = trainer.Run();
  EXPECT_EQ(result.cluster_epochs_run, 0);  // No clustering loop.
  EXPECT_GE(result.scores.acc, 0.0);
  EXPECT_EQ(static_cast<int>(result.assignments.size()), g.num_nodes());
}

TEST(TrainerTest, FirstGroupRVariantTransformsDuringPretrain) {
  const AttributedGraph g = TinyGraph();
  auto model = CreateModel("GAE", g, TinyModelOptions());
  TrainerOptions opts = TinyTrainerOptions();
  opts.use_operators = true;
  opts.first_group_transform_start = 10;
  opts.xi.alpha1 = 0.2;
  RGaeTrainer trainer(model.get(), opts);
  trainer.Pretrain();
  EXPECT_NE(trainer.self_graph().edges(), g.edges());
}

TEST(TrainerTest, XiDelayPostponesOmegaRestriction) {
  const AttributedGraph g = TinyGraph();
  auto model = CreateModel("DGAE", g, TinyModelOptions());
  TrainerOptions opts = TinyTrainerOptions();
  opts.use_operators = true;
  opts.xi_delay_epochs = 10;
  opts.max_cluster_epochs = 15;
  opts.track_dynamics = true;
  RGaeTrainer trainer(model.get(), opts);
  const TrainResult result = trainer.Run();
  // Before the delay the tracked Ω is the full node set.
  ASSERT_GE(result.trace.size(), 11u);
  EXPECT_EQ(result.trace[3].omega_size, g.num_nodes());
}

TEST(TrainerTest, FdProtectionTransformsOnceUpfront) {
  const AttributedGraph g = TinyGraph();
  auto model = CreateModel("GMM-VGAE", g, TinyModelOptions());
  TrainerOptions opts = TinyTrainerOptions();
  opts.use_operators = true;
  opts.fd_protection = true;
  opts.max_cluster_epochs = 5;
  RGaeTrainer trainer(model.get(), opts);
  const TrainResult result = trainer.Run();
  // Upsilon never runs inside the loop in protection mode.
  for (const EpochRecord& r : result.trace) EXPECT_FALSE(r.upsilon_ran);
  EXPECT_NE(trainer.self_graph().edges(), g.edges());
}

TEST(TrainerTest, TraceTracksRequestedDiagnostics) {
  const AttributedGraph g = TinyGraph();
  auto model = CreateModel("DGAE", g, TinyModelOptions());
  TrainerOptions opts = TinyTrainerOptions();
  opts.use_operators = true;
  opts.max_cluster_epochs = 4;
  opts.track_scores = true;
  opts.track_dynamics = true;
  opts.track_fr_fd = true;
  RGaeTrainer trainer(model.get(), opts);
  const TrainResult result = trainer.Run();
  ASSERT_FALSE(result.trace.empty());
  const EpochRecord& r = result.trace.back();
  EXPECT_GE(r.acc, 0.0);
  EXPECT_GE(r.omega_size, 0);
  EXPECT_GE(r.self_links, 0);
  EXPECT_GE(r.lambda_fr_plain, -1.0);
  EXPECT_LE(r.lambda_fr_plain, 1.0);
  EXPECT_GE(r.lambda_fd_r, -1.0);
  EXPECT_LE(r.lambda_fd_r, 1.0);
}

TEST(TrainerTest, EvaluateNowMatchesLabelsLength) {
  const AttributedGraph g = TinyGraph();
  auto model = CreateModel("GMM-VGAE", g, TinyModelOptions());
  RGaeTrainer trainer(model.get(), TinyTrainerOptions());
  trainer.Pretrain();
  std::vector<int> assignments;
  const ClusteringScores s = trainer.EvaluateNow(&assignments);
  EXPECT_EQ(static_cast<int>(assignments.size()), g.num_nodes());
  EXPECT_GE(s.acc, 0.0);
  EXPECT_LE(s.acc, 1.0);
}

TEST(TrainerTest, NumClustersFromLabels) {
  const AttributedGraph g = TinyGraph();
  auto model = CreateModel("DGAE", g, TinyModelOptions());
  RGaeTrainer trainer(model.get(), TinyTrainerOptions());
  EXPECT_EQ(trainer.num_clusters(), 3);
}


TEST(TrainerTest, XiScoresRowsOnSimplex) {
  const AttributedGraph g = TinyGraph();
  auto model = CreateModel("DGAE", g, TinyModelOptions());
  RGaeTrainer trainer(model.get(), TinyTrainerOptions());
  trainer.Pretrain();
  const Matrix scores = trainer.XiScores();
  EXPECT_EQ(scores.rows(), g.num_nodes());
  EXPECT_EQ(scores.cols(), 3);
  for (int i = 0; i < scores.rows(); ++i) {
    double sum = 0.0;
    for (int j = 0; j < scores.cols(); ++j) {
      EXPECT_GE(scores(i, j), 0.0);
      sum += scores(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(TrainerTest, ImpossibleAlphaFallsBackToConfidentSubset) {
  // alpha1 = 0.999 rejects every node under Student-t scores; the trainer
  // must fall back to a small confident Omega rather than training
  // unprotected on all nodes.
  const AttributedGraph g = TinyGraph();
  auto model = CreateModel("DGAE", g, TinyModelOptions());
  TrainerOptions opts = TinyTrainerOptions();
  opts.use_operators = true;
  opts.xi.alpha1 = 0.999;
  opts.xi.alpha2 = 0.999;
  opts.max_cluster_epochs = 6;
  opts.track_dynamics = true;
  RGaeTrainer trainer(model.get(), opts);
  const TrainResult result = trainer.Run();
  ASSERT_FALSE(result.trace.empty());
  const int n = g.num_nodes();
  for (const EpochRecord& r : result.trace) {
    EXPECT_GT(r.omega_size, 0);
    EXPECT_LE(r.omega_size, std::max(3, n / 20) + 3);
  }
}

/// A model that counts its deterministic encodes and its head's score
/// calls. Training steps encode through BuildLossOnTape, so every counted
/// encode is an Embed().
template <typename Base>
class Counting : public Base {
 public:
  using Base::Base;
  int encodes() const { return encodes_; }
  int soft_assignments() const { return soft_assignments_; }

  using Base::SoftAssignments;
  Matrix SoftAssignments(const Matrix& z) const override {
    ++soft_assignments_;
    return Base::SoftAssignments(z);
  }

 protected:
  Var EncodeOnTape(Tape* tape) const override {
    ++encodes_;
    return Base::EncodeOnTape(tape);
  }

 private:
  mutable int encodes_ = 0;
  mutable int soft_assignments_ = 0;
};
using CountingGae = Counting<Gae>;

TEST(TrainerTest, FirstGroupRefreshEmbedsOnce) {
  // Refreshes at pretrain epochs 10, 15, 20 and 25: Ξ's GMM fit, the
  // Student-t scores and Υ all read one embedding per refresh. The plain
  // run embeds never.
  const AttributedGraph g = TinyGraph();
  TrainerOptions opts = TinyTrainerOptions();
  opts.first_group_transform_start = 10;
  opts.xi.alpha1 = 0.2;
  CountingGae plain_model(g, TinyModelOptions());
  RGaeTrainer plain(&plain_model, opts);
  plain.Pretrain();
  EXPECT_EQ(plain_model.encodes(), 0);

  opts.use_operators = true;
  CountingGae model(g, TinyModelOptions());
  RGaeTrainer trainer(&model, opts);
  trainer.Pretrain();
  EXPECT_EQ(model.encodes(), 4);
  EXPECT_NE(trainer.self_graph().edges(), g.edges());
}

/// Encodes made by the clustering phase of a second-group `Model`.
template <typename Model>
int ClusteringEncodes(const AttributedGraph& g, const TrainerOptions& opts) {
  Model model(g, TinyModelOptions());
  RGaeTrainer trainer(&model, opts);
  trainer.Pretrain();
  const int before = model.encodes();
  const TrainResult result = trainer.TrainClustering();
  EXPECT_EQ(result.cluster_epochs_run, opts.max_cluster_epochs);
  if (opts.use_operators) {
    EXPECT_NE(trainer.self_graph().edges(), g.edges());
  }
  return model.encodes() - before;
}

template <typename Model>
void ExpectOneEmbedPerRefresh() {
  // Ten clustering epochs with M₁ = M₂ = 5: Ω and A^self_clus are both
  // refreshed at epochs 0 and 5. Each such epoch embeds once on top of what
  // the operator-free run embeds (head init, target refreshes, the final
  // evaluation); the head reads that embedding instead of embedding again.
  // FD protection's one-shot Υ over 𝒱 embeds once more.
  const AttributedGraph g = TinyGraph();
  TrainerOptions opts = TinyTrainerOptions();
  opts.max_cluster_epochs = 10;
  opts.xi.alpha1 = 0.2;
  opts.convergence_fraction = 2.0;  // Run every epoch.
  const int plain = ClusteringEncodes<Model>(g, opts);
  opts.use_operators = true;
  EXPECT_EQ(ClusteringEncodes<Model>(g, opts), plain + 2);
  opts.fd_protection = true;
  EXPECT_EQ(ClusteringEncodes<Model>(g, opts), plain + 3);
}

TEST(TrainerTest, SecondGroupRefreshEmbedsOnce) {
  ExpectOneEmbedPerRefresh<Counting<Dgae>>();
  ExpectOneEmbedPerRefresh<Counting<GmmVgae>>();
}

TEST(TrainerTest, SecondGroupRefreshScoresOnce) {
  // Ten clustering epochs with M₁ = M₂ = 5: epochs 0 and 5 refresh Ω and
  // A^self_clus, and Ξ and Υ share one matrix of head scores, so each of
  // those epochs reads the head once. The final evaluation reads it once
  // more; the clustering steps score on the tape.
  const AttributedGraph g = TinyGraph();
  TrainerOptions opts = TinyTrainerOptions();
  opts.use_operators = true;
  opts.max_cluster_epochs = 10;
  opts.xi.alpha1 = 0.2;
  opts.convergence_fraction = 2.0;  // Run every epoch.
  Counting<Dgae> model(g, TinyModelOptions());
  RGaeTrainer trainer(&model, opts);
  trainer.Pretrain();
  EXPECT_EQ(model.soft_assignments(), 0);
  const TrainResult result = trainer.TrainClustering();
  EXPECT_EQ(result.cluster_epochs_run, 10);
  EXPECT_EQ(model.soft_assignments(), 2 + 1);
  EXPECT_NE(trainer.self_graph().edges(), g.edges());
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// A first-group R Pretrain, refreshes included, pinned to one kernel
/// tier: the final weights and the self-supervision graph's edges.
struct PinnedPretrain {
  std::vector<Matrix> weights;
  std::vector<std::pair<int, int>> edges;
};

PinnedPretrain PretrainPinned(const AttributedGraph& g, kernels::Isa isa) {
  kernels::SetIsaForTesting(isa);
  auto model = CreateModel("GAE", g, TinyModelOptions());
  TrainerOptions opts = TinyTrainerOptions();
  opts.use_operators = true;
  opts.first_group_transform_start = 10;
  opts.m2 = 2;
  opts.xi.alpha1 = 0.2;
  RGaeTrainer trainer(model.get(), opts);
  trainer.Pretrain();
  return {model->SaveWeights(), trainer.self_graph().edges()};
}

TEST(TrainerTest, FirstGroupRPretrainIsBitIdenticalAcrossKernelTiers) {
  // Ten refreshes (epochs 10, 12, …, 28), each with two GMM fits, so the
  // GMM and k-means kernels feed Υ's edits and the following training.
  if (kernels::BestSupportedIsa() != kernels::Isa::kAvx2) {
    GTEST_SKIP() << "host has no AVX2 tier";
  }
  const kernels::Isa saved = kernels::SelectedIsa();
  const AttributedGraph g = TinyGraph();
  const PinnedPretrain scalar = PretrainPinned(g, kernels::Isa::kScalar);
  const PinnedPretrain avx2 = PretrainPinned(g, kernels::Isa::kAvx2);
  kernels::SetIsaForTesting(saved);
  EXPECT_NE(scalar.edges, g.edges());
  EXPECT_EQ(avx2.edges, scalar.edges);
  ASSERT_EQ(avx2.weights.size(), scalar.weights.size());
  for (size_t p = 0; p < scalar.weights.size(); ++p) {
    const Matrix& want = scalar.weights[p];
    const Matrix& got = avx2.weights[p];
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(Bits(got.data()[i]), Bits(want.data()[i]))
          << "weight " << p << " at flat index " << i;
    }
  }
}

TEST(TrainerTest, EvalReconLossDropsDuringPretrain) {
  const AttributedGraph g = TinyGraph();
  auto model = CreateModel("GAE", g, TinyModelOptions());
  const CsrMatrix adj = g.Adjacency();
  const ReconTarget target = MakeReconTarget(&adj);
  const double before = model->EvalReconLoss(target);
  RGaeTrainer trainer(model.get(), TinyTrainerOptions());
  trainer.Pretrain();
  EXPECT_LT(model->EvalReconLoss(target), before);
}

}  // namespace
}  // namespace rgae
