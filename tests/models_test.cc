#include "src/models/model_factory.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "src/kernels/dispatch.h"
#include "src/models/dgae.h"
#include "src/models/gae.h"
#include "src/models/gmm_vgae.h"

namespace rgae {
namespace {

AttributedGraph TestGraph(uint64_t seed = 1, int num_nodes = 60) {
  CitationLikeOptions o;
  o.num_nodes = num_nodes;
  o.num_clusters = 3;
  o.feature_dim = 40;
  o.topic_words = 12;
  o.intra_degree = 4.0;
  o.inter_degree = 0.5;
  Rng rng(seed);
  return MakeCitationLike(o, rng);
}

ModelOptions SmallOptions() {
  ModelOptions o;
  o.hidden_dim = 12;
  o.latent_dim = 6;
  o.seed = 3;
  return o;
}

TrainContext ReconContext(const GaeModel& /*model*/, const CsrMatrix* adj) {
  TrainContext ctx;
  ctx.recon = MakeReconTarget(adj);
  return ctx;
}

TEST(MakeReconTargetTest, WeightsFromDensity) {
  // 4 nodes, 2 stored positives -> E = 2, N² = 16.
  const CsrMatrix a =
      CsrMatrix::FromTriplets(4, 4, {{0, 1, 1.0}, {1, 0, 1.0}});
  const ReconTarget t = MakeReconTarget(&a);
  EXPECT_DOUBLE_EQ(t.pos_weight, (16.0 - 2.0) / 2.0);
  EXPECT_DOUBLE_EQ(t.norm, 16.0 / (2.0 * 14.0));
}

// Every model in the factory must: construct, embed with the right shape,
// and reduce its reconstruction loss over a few steps.
class ModelZooTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelZooTest, FactoryCreates) {
  const AttributedGraph g = TestGraph();
  auto model = CreateModel(GetParam(), g, SmallOptions());
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->name(), GetParam());
}

TEST_P(ModelZooTest, EmbedShape) {
  const AttributedGraph g = TestGraph();
  auto model = CreateModel(GetParam(), g, SmallOptions());
  const Matrix z = model->Embed();
  EXPECT_EQ(z.rows(), g.num_nodes());
  EXPECT_EQ(z.cols(), SmallOptions().latent_dim);
}

TEST_P(ModelZooTest, ReconstructionLossDecreases) {
  const AttributedGraph g = TestGraph();
  auto model = CreateModel(GetParam(), g, SmallOptions());
  const CsrMatrix adj = g.Adjacency();
  const TrainContext ctx = ReconContext(*model, &adj);
  // The total training loss is not monotone for variational or adversarial
  // models (sampling noise; a strengthening discriminator raises the
  // generator term), so check the forward-only reconstruction loss of the
  // deterministic embedding instead.
  const double before = model->EvalReconLoss(ctx.recon);
  for (int i = 0; i < 80; ++i) model->TrainStep(ctx);
  const double after = model->EvalReconLoss(ctx.recon);
  EXPECT_LT(after, before);
}

TEST_P(ModelZooTest, SaveLoadWeightsRoundTrip) {
  const AttributedGraph g = TestGraph();
  auto model = CreateModel(GetParam(), g, SmallOptions());
  const std::vector<Matrix> weights = model->SaveWeights();
  const Matrix z_before = model->Embed();
  const CsrMatrix adj = g.Adjacency();
  const TrainContext ctx = ReconContext(*model, &adj);
  for (int i = 0; i < 5; ++i) model->TrainStep(ctx);
  model->LoadWeights(weights);
  const Matrix z_after = model->Embed();
  for (int i = 0; i < z_before.rows(); ++i) {
    for (int c = 0; c < z_before.cols(); ++c) {
      EXPECT_DOUBLE_EQ(z_after(i, c), z_before(i, c));
    }
  }
}

TEST_P(ModelZooTest, GradSnapshotsDoNotDisturbState) {
  const AttributedGraph g = TestGraph();
  auto model = CreateModel(GetParam(), g, SmallOptions());
  const std::vector<int> assign(g.num_nodes(), 0);
  std::vector<int> labels = g.labels();
  const CsrMatrix adj = g.Adjacency();
  const ReconTarget target = MakeReconTarget(&adj);
  const Matrix z_before = model->Embed();
  const std::vector<double> g1 =
      model->ClusteringGradSnapshot(labels, 3, {});
  const std::vector<double> g2 = model->ReconGradSnapshot(target);
  EXPECT_FALSE(g1.empty());
  EXPECT_FALSE(g2.empty());
  const Matrix z_after = model->Embed();
  for (int i = 0; i < z_before.rows(); ++i) {
    for (int c = 0; c < z_before.cols(); ++c) {
      EXPECT_DOUBLE_EQ(z_after(i, c), z_before(i, c));
    }
  }
}

/// Restores the selected kernel tier on scope exit.
class IsaGuard {
 public:
  IsaGuard() : saved_(kernels::SelectedIsa()) {}
  ~IsaGuard() { kernels::SetIsaForTesting(saved_); }

 private:
  kernels::Isa saved_;
};

/// One short training run pinned to a kernel tier: the loss of every
/// step, then every parameter and the embedding at the end.
struct PinnedRun {
  std::vector<double> losses;
  std::vector<Matrix> params;
  Matrix z;
};

PinnedRun TrainPinned(const std::string& name, const AttributedGraph& g,
                      kernels::Isa isa) {
  kernels::SetIsaForTesting(isa);
  auto model = CreateModel(name, g, SmallOptions());
  const CsrMatrix adj = g.Adjacency();
  TrainContext ctx = ReconContext(*model, &adj);
  PinnedRun run;
  for (int i = 0; i < 4; ++i) run.losses.push_back(model->TrainStep(ctx));
  if (model->has_clustering_head()) {
    Rng rng(5);
    model->InitClusteringHead(3, rng);
    ctx.include_clustering = true;
    for (int i = 0; i < 3; ++i) run.losses.push_back(model->TrainStep(ctx));
  }
  for (Parameter* p : model->Params()) run.params.push_back(p->value);
  run.z = model->Embed();
  return run;
}

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
        << what << " at flat index " << i;
  }
}

TEST_P(ModelZooTest, TrainingIsBitIdenticalAcrossKernelTiers) {
  // Pretrain steps, then clustering steps where the model has a head, once
  // on the scalar tier and once on AVX2. N = 150 spans three decoder
  // tiles, so the tile sweeps, the S-tile MatMulTransB and the encoder
  // products all run on multi-block shapes.
  if (kernels::BestSupportedIsa() != kernels::Isa::kAvx2) {
    GTEST_SKIP() << "host has no AVX2 tier";
  }
  const IsaGuard guard;
  const AttributedGraph g = TestGraph(/*seed=*/1, /*num_nodes=*/150);
  const PinnedRun scalar = TrainPinned(GetParam(), g, kernels::Isa::kScalar);
  const PinnedRun avx2 = TrainPinned(GetParam(), g, kernels::Isa::kAvx2);
  ASSERT_EQ(avx2.losses.size(), scalar.losses.size());
  for (size_t i = 0; i < scalar.losses.size(); ++i) {
    EXPECT_EQ(Bits(avx2.losses[i]), Bits(scalar.losses[i]))
        << "TrainStep " << i << ": " << avx2.losses[i] << " vs "
        << scalar.losses[i];
  }
  ASSERT_EQ(avx2.params.size(), scalar.params.size());
  for (size_t p = 0; p < scalar.params.size(); ++p) {
    ExpectSameBits(avx2.params[p], scalar.params[p],
                   "parameter " + std::to_string(p));
  }
  ExpectSameBits(avx2.z, scalar.z, "Embed()");
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelZooTest,
                         ::testing::ValuesIn(AllModelNames()));

TEST(ModelFactoryTest, UnknownNameReturnsNull) {
  const AttributedGraph g = TestGraph();
  EXPECT_EQ(CreateModel("NOPE", g, SmallOptions()), nullptr);
}

TEST(ModelFactoryTest, CaseInsensitive) {
  const AttributedGraph g = TestGraph();
  EXPECT_NE(CreateModel("gae", g, SmallOptions()), nullptr);
  EXPECT_NE(CreateModel("gmm-vgae", g, SmallOptions()), nullptr);
}

TEST(ModelFactoryTest, GroupMembership) {
  const AttributedGraph g = TestGraph();
  const ModelOptions o = SmallOptions();
  EXPECT_FALSE(CreateModel("GAE", g, o)->has_clustering_head());
  EXPECT_FALSE(CreateModel("VGAE", g, o)->has_clustering_head());
  EXPECT_FALSE(CreateModel("ARGAE", g, o)->has_clustering_head());
  EXPECT_FALSE(CreateModel("ARVGAE", g, o)->has_clustering_head());
  EXPECT_TRUE(CreateModel("DGAE", g, o)->has_clustering_head());
  EXPECT_TRUE(CreateModel("GMM-VGAE", g, o)->has_clustering_head());
}

TEST(DgaeTest, ClusteringHeadLifecycle) {
  const AttributedGraph g = TestGraph();
  Dgae model(g, SmallOptions());
  const CsrMatrix adj = g.Adjacency();
  TrainContext ctx = ReconContext(model, &adj);
  for (int i = 0; i < 20; ++i) model.TrainStep(ctx);
  Rng rng(5);
  model.InitClusteringHead(3, rng);
  const Matrix p = model.SoftAssignments();
  EXPECT_EQ(p.rows(), g.num_nodes());
  EXPECT_EQ(p.cols(), 3);
  for (int i = 0; i < p.rows(); ++i) {
    double sum = 0.0;
    for (int j = 0; j < 3; ++j) sum += p(i, j);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  // Clustering phase runs and returns finite losses.
  ctx.include_clustering = true;
  ctx.gamma = 0.1;
  const double loss = model.TrainStep(ctx);
  EXPECT_TRUE(std::isfinite(loss));
  // Params now include the centers.
  EXPECT_EQ(model.Params().size(), 3u);
}

TEST(DgaeTest, OmegaRestrictedClusteringStep) {
  const AttributedGraph g = TestGraph();
  Dgae model(g, SmallOptions());
  const CsrMatrix adj = g.Adjacency();
  TrainContext ctx = ReconContext(model, &adj);
  for (int i = 0; i < 10; ++i) model.TrainStep(ctx);
  Rng rng(5);
  model.InitClusteringHead(3, rng);
  ctx.include_clustering = true;
  ctx.omega = {0, 1, 2, 3, 4};
  EXPECT_TRUE(std::isfinite(model.TrainStep(ctx)));
}

TEST(GmmVgaeTest, ClusteringHeadLifecycle) {
  const AttributedGraph g = TestGraph();
  GmmVgae model(g, SmallOptions());
  const CsrMatrix adj = g.Adjacency();
  TrainContext ctx = ReconContext(model, &adj);
  for (int i = 0; i < 20; ++i) model.TrainStep(ctx);
  Rng rng(7);
  model.InitClusteringHead(3, rng);
  const Matrix p = model.SoftAssignments();
  EXPECT_EQ(p.cols(), 3);
  for (int i = 0; i < p.rows(); ++i) {
    double sum = 0.0;
    for (int j = 0; j < 3; ++j) sum += p(i, j);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  ctx.include_clustering = true;
  const double loss = model.TrainStep(ctx);
  EXPECT_TRUE(std::isfinite(loss));
  // VGAE params (3) + means + logvars + logits.
  EXPECT_EQ(model.Params().size(), 6u);
}

TEST(GaeTest, DeterministicGivenSeed) {
  const AttributedGraph g = TestGraph();
  Gae a(g, SmallOptions());
  Gae b(g, SmallOptions());
  const CsrMatrix adj = g.Adjacency();
  const TrainContext ctx = ReconContext(a, &adj);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(a.TrainStep(ctx), b.TrainStep(ctx));
  }
}

}  // namespace
}  // namespace rgae
