#include "src/analysis/gradcheck.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "src/models/model_factory.h"

namespace rgae {
namespace {

// Deterministic, kink-free test values (no entry near a ReLU corner or a
// saturated sigmoid).
Matrix Pattern(int rows, int cols, double scale = 0.1, double offset = 0.05) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      m(i, j) = scale * (i + 1) - offset * (j + 1) + 0.02 * ((i + j) % 3);
    }
  }
  return m;
}

void ExpectPasses(const GradCheckResult& r) {
  EXPECT_TRUE(r.ok) << "max_rel_error=" << r.max_rel_error << " at "
                    << r.worst;
  EXPECT_GT(r.entries_checked, 0);
}

// ---------------------------------------------------------------------------
// The six fused losses.
// ---------------------------------------------------------------------------

TEST(GradCheckTest, InnerProductBceLoss) {
  Parameter z(Pattern(4, 3));
  const CsrMatrix target = CsrMatrix::FromTriplets(
      4, 4, {{0, 1, 1.0}, {1, 0, 1.0}, {2, 3, 1.0}, {3, 2, 1.0}});
  const GradCheckResult r = GradCheck(
      [&](Tape* tape) {
        return tape->InnerProductBceLoss(tape->Leaf(&z), &target,
                                         /*pos_weight=*/3.0, /*norm=*/0.7);
      },
      {&z});
  ExpectPasses(r);
}

TEST(GradCheckTest, InnerProductBceLossMultiTile) {
  // N = 150 spans three decoder tiles (64 + 64 + 22), so every kind of
  // tile pair is differentiated. The undirected edges (i, i+1) and (i, i+7)
  // cross tile edges, every fifth node has a self-loop, and one mirrored
  // structural zero stays a negative.
  const int n = 150;
  Parameter z(Pattern(n, 4, 0.004, 0.01));
  std::vector<Triplet> t;
  for (int i = 0; i < n; ++i) {
    for (const int step : {1, 7}) {
      t.push_back({i, (i + step) % n, 1.0});
      t.push_back({(i + step) % n, i, 1.0});
    }
    if (i % 5 == 0) t.push_back({i, i, 1.0});
  }
  t.push_back({3, 90, 0.0});
  t.push_back({90, 3, 0.0});
  const CsrMatrix target = CsrMatrix::FromTriplets(n, n, std::move(t));
  GradCheckOptions options;
  options.max_entries_per_param = 64;
  const GradCheckResult r = GradCheck(
      [&](Tape* tape) {
        return tape->InnerProductBceLoss(tape->Leaf(&z), &target,
                                         /*pos_weight=*/40.0, /*norm=*/0.9);
      },
      {&z}, options);
  ExpectPasses(r);
}

TEST(GradCheckTest, GaussianKlLoss) {
  Parameter mu(Pattern(4, 3));
  Parameter logvar(Pattern(4, 3, 0.2, 0.1));
  const GradCheckResult r = GradCheck(
      [&](Tape* tape) {
        return tape->GaussianKlLoss(tape->Leaf(&mu), tape->Leaf(&logvar));
      },
      {&mu, &logvar});
  ExpectPasses(r);
}

TEST(GradCheckTest, KMeansLoss) {
  Parameter z(Pattern(5, 3));
  const Matrix centers = Pattern(2, 3, 0.3, 0.2);
  const std::vector<int> assign = {0, 1, 0, 1, 0};
  const GradCheckResult r = GradCheck(
      [&](Tape* tape) {
        return tape->KMeansLoss(tape->Leaf(&z), &centers, &assign);
      },
      {&z});
  ExpectPasses(r);

  const std::vector<int> omega = {0, 2, 4};
  const GradCheckResult restricted = GradCheck(
      [&](Tape* tape) {
        return tape->KMeansLoss(tape->Leaf(&z), &centers, &assign, omega);
      },
      {&z});
  ExpectPasses(restricted);
}

TEST(GradCheckTest, DecKlLoss) {
  Parameter z(Pattern(5, 3));
  Parameter centers(Pattern(2, 3, 0.3, 0.2));
  Matrix q(5, 2);
  for (int i = 0; i < 5; ++i) {
    q(i, 0) = 0.3 + 0.08 * i;
    q(i, 1) = 1.0 - q(i, 0);
  }
  const GradCheckResult r = GradCheck(
      [&](Tape* tape) {
        return tape->DecKlLoss(tape->Leaf(&z), tape->Leaf(&centers), &q);
      },
      {&z, &centers});
  ExpectPasses(r);
}

TEST(GradCheckTest, GmmNllLoss) {
  Parameter z(Pattern(5, 3));
  Parameter means(Pattern(2, 3, 0.3, 0.2));
  Parameter logvars(Pattern(2, 3, 0.1, 0.05));
  Parameter pi_logits(Pattern(1, 2, 0.2, 0.1));
  const GradCheckResult r = GradCheck(
      [&](Tape* tape) {
        return tape->GmmNllLoss(tape->Leaf(&z), tape->Leaf(&means),
                                tape->Leaf(&logvars), tape->Leaf(&pi_logits));
      },
      {&z, &means, &logvars, &pi_logits});
  ExpectPasses(r);
}

TEST(GradCheckTest, BceWithLogits) {
  Parameter logits(Pattern(4, 2, 0.4, 0.3));
  Matrix targets(4, 2);
  for (int i = 0; i < 4; ++i) {
    targets(i, 0) = (i % 2 == 0) ? 1.0 : 0.0;
    targets(i, 1) = 1.0 - targets(i, 0);
  }
  const GradCheckResult r = GradCheck(
      [&](Tape* tape) {
        return tape->BceWithLogits(tape->Leaf(&logits), &targets);
      },
      {&logits});
  ExpectPasses(r);
}

// GmmKlLoss only differentiates z (the mixture is EM-owned), so the check
// covers z alone; the mixture leaves would show a genuine analytic/FD gap.
TEST(GradCheckTest, GmmKlLossZOnly) {
  Parameter z(Pattern(5, 3));
  Parameter means(Pattern(2, 3, 0.3, 0.2));
  Parameter logvars(Pattern(2, 3, 0.1, 0.05));
  Parameter pi_logits(Pattern(1, 2, 0.2, 0.1));
  Matrix q(5, 2);
  for (int i = 0; i < 5; ++i) {
    q(i, 0) = 0.3 + 0.08 * i;
    q(i, 1) = 1.0 - q(i, 0);
  }
  const GradCheckResult r = GradCheck(
      [&](Tape* tape) {
        return tape->GmmKlLoss(tape->Leaf(&z), tape->Leaf(&means),
                               tape->Leaf(&logvars), tape->Leaf(&pi_logits),
                               &q);
      },
      {&z});
  ExpectPasses(r);
}

TEST(GradCheckTest, RestoresValuesAndGradients) {
  Parameter logits(Pattern(3, 2));
  Matrix targets(3, 2, 1.0);
  const Matrix value_before = logits.value;
  logits.grad = Matrix(3, 2, 42.0);
  const Matrix grad_before = logits.grad;
  GradCheck(
      [&](Tape* tape) {
        return tape->BceWithLogits(tape->Leaf(&logits), &targets);
      },
      {&logits});
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) {
      EXPECT_DOUBLE_EQ(logits.value(i, j), value_before(i, j));
      EXPECT_DOUBLE_EQ(logits.grad(i, j), grad_before(i, j));
    }
  }
}

// ---------------------------------------------------------------------------
// Every factory model's full training loss.
// ---------------------------------------------------------------------------

AttributedGraph GradTestGraph() {
  CitationLikeOptions o;
  o.num_nodes = 40;
  o.num_clusters = 3;
  o.feature_dim = 30;
  o.topic_words = 10;
  o.intra_degree = 4.0;
  o.inter_degree = 0.5;
  Rng rng(1);
  return MakeCitationLike(o, rng);
}

ModelOptions GradModelOptions() {
  ModelOptions o;
  o.hidden_dim = 8;
  o.latent_dim = 4;
  o.seed = 3;
  return o;
}

GradCheckOptions ModelCheckOptions() {
  GradCheckOptions o;
  o.max_entries_per_param = 6;
  return o;
}

class ModelGradCheckTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelGradCheckTest, PretrainLossMatchesFiniteDifference) {
  const AttributedGraph g = GradTestGraph();
  auto model = CreateModel(GetParam(), g, GradModelOptions());
  ASSERT_NE(model, nullptr);
  const CsrMatrix adj = g.Adjacency();
  TrainContext ctx;
  ctx.recon = MakeReconTarget(&adj);
  // Fresh fixed-seed Rng per rebuild: stochastic models replay identical
  // sampling noise, making the loss a deterministic function of the weights.
  const GradCheckResult r = GradCheck(
      [&](Tape* tape) {
        Rng rng(123);
        return model->BuildLossOnTape(tape, ctx, &rng);
      },
      model->Params(), ModelCheckOptions());
  ExpectPasses(r);
}

INSTANTIATE_TEST_SUITE_P(ModelZoo, ModelGradCheckTest,
                         ::testing::ValuesIn(AllModelNames()),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ModelGradCheckTest, DgaeClusteringLossMatchesFiniteDifference) {
  const AttributedGraph g = GradTestGraph();
  auto model = CreateModel("DGAE", g, GradModelOptions());
  ASSERT_NE(model, nullptr);
  Rng init_rng(11);
  model->InitClusteringHead(3, init_rng);
  const CsrMatrix adj = g.Adjacency();
  TrainContext ctx;
  ctx.recon = MakeReconTarget(&adj);
  ctx.include_clustering = true;
  const GradCheckResult r = GradCheck(
      [&](Tape* tape) {
        Rng rng(123);
        return model->BuildLossOnTape(tape, ctx, &rng);
      },
      model->Params(), ModelCheckOptions());
  ExpectPasses(r);
}

TEST(ModelGradCheckTest, GmmVgaeClusteringLossEncoderOnly) {
  const AttributedGraph g = GradTestGraph();
  auto model = CreateModel("GMM-VGAE", g, GradModelOptions());
  ASSERT_NE(model, nullptr);
  Rng init_rng(11);
  model->InitClusteringHead(3, init_rng);
  const CsrMatrix adj = g.Adjacency();
  TrainContext ctx;
  ctx.recon = MakeReconTarget(&adj);
  ctx.include_clustering = true;
  // Drop the three EM-owned mixture parameters: the tape intentionally
  // reports zero gradient for them while the loss is FD-sensitive to their
  // values (DESIGN.md §2), so only the encoder side is checkable.
  std::vector<Parameter*> params = model->Params();
  ASSERT_GE(params.size(), 3u);
  params.resize(params.size() - 3);
  const GradCheckResult r = GradCheck(
      [&](Tape* tape) {
        Rng rng(123);
        return model->BuildLossOnTape(tape, ctx, &rng);
      },
      params, ModelCheckOptions());
  ExpectPasses(r);
}

}  // namespace
}  // namespace rgae
