#include "src/analysis/tape_lint.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/shape.h"
#include "src/graph/generators.h"
#include "src/models/model_factory.h"

namespace rgae {
namespace {

using Kind = TapeLintFinding::Kind;

Matrix Filled(int rows, int cols, double v) { return Matrix(rows, cols, v); }

// ---------------------------------------------------------------------------
// Shape inference: dimension mismatches are TapeError at node creation.
// ---------------------------------------------------------------------------

TEST(TapeShapeTest, MatMulInnerDimMismatch) {
  Tape tape;
  const Var a = tape.Constant(Filled(3, 4, 1.0));
  const Var b = tape.Constant(Filled(5, 2, 1.0));
  EXPECT_THROW(tape.MatMul(a, b), TapeError);
}

TEST(TapeShapeTest, ElementwiseShapeMismatch) {
  Tape tape;
  const Var a = tape.Constant(Filled(3, 4, 1.0));
  const Var b = tape.Constant(Filled(3, 5, 1.0));
  EXPECT_THROW(tape.Add(a, b), TapeError);
  EXPECT_THROW(tape.Sub(a, b), TapeError);
  EXPECT_THROW(tape.Hadamard(a, b), TapeError);
}

TEST(TapeShapeTest, AddRowBroadcastBiasShape) {
  Tape tape;
  const Var a = tape.Constant(Filled(3, 4, 1.0));
  const Var bad_cols = tape.Constant(Filled(1, 3, 1.0));
  const Var bad_rows = tape.Constant(Filled(2, 4, 1.0));
  EXPECT_THROW(tape.AddRowBroadcast(a, bad_cols), TapeError);
  EXPECT_THROW(tape.AddRowBroadcast(a, bad_rows), TapeError);
}

TEST(TapeShapeTest, AddScalarsRequiresScalars) {
  Tape tape;
  const Var s = tape.Constant(Filled(1, 1, 1.0));
  const Var m = tape.Constant(Filled(2, 2, 1.0));
  EXPECT_THROW(tape.AddScalars(s, m), TapeError);
}

TEST(TapeShapeTest, GatherRowsRejectsOutOfRange) {
  Tape tape;
  const Var a = tape.Constant(Filled(3, 2, 1.0));
  EXPECT_THROW(tape.GatherRows(a, {0, 3}), TapeError);
  EXPECT_THROW(tape.GatherRows(a, {-1}), TapeError);
}

TEST(TapeShapeTest, GaussianKlShapeMismatch) {
  Tape tape;
  const Var mu = tape.Constant(Filled(4, 3, 0.0));
  const Var logvar = tape.Constant(Filled(4, 2, 0.0));
  EXPECT_THROW(tape.GaussianKlLoss(mu, logvar), TapeError);
}

TEST(TapeShapeTest, InnerProductBceTargetSizeMismatch) {
  Tape tape;
  const Var z = tape.Constant(Filled(4, 3, 0.1));
  const CsrMatrix wrong =
      CsrMatrix::FromTriplets(3, 3, {{0, 1, 1.0}, {1, 0, 1.0}});
  EXPECT_THROW(tape.InnerProductBceLoss(z, &wrong, 1.0, 1.0), TapeError);
  EXPECT_THROW(tape.InnerProductBceLoss(z, nullptr, 1.0, 1.0), TapeError);
}

TEST(TapeShapeTest, InnerProductBceRejectsAsymmetricTarget) {
  // The decoder forms C·Z once and doubles it, which needs symmetric
  // positives; a one-sided structural zero is still a negative both ways.
  Tape tape;
  const Var z = tape.Constant(Filled(3, 2, 0.1));
  const CsrMatrix directed =
      CsrMatrix::FromTriplets(3, 3, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 1, 1.0}});
  const CsrMatrix lower_only =
      CsrMatrix::FromTriplets(3, 3, {{2, 0, 1.0}, {1, 1, 1.0}});
  const CsrMatrix mirrored_as_zero = CsrMatrix::FromTriplets(
      3, 3, {{0, 1, 1.0}, {1, 0, 0.0}, {2, 2, 1.0}});
  const CsrMatrix one_sided_zero =
      CsrMatrix::FromTriplets(3, 3, {{0, 1, 0.0}, {2, 2, 1.0}});
  EXPECT_THROW(tape.InnerProductBceLoss(z, &directed, 1.0, 1.0), TapeError);
  EXPECT_THROW(tape.InnerProductBceLoss(z, &lower_only, 1.0, 1.0), TapeError);
  EXPECT_THROW(tape.InnerProductBceLoss(z, &mirrored_as_zero, 1.0, 1.0),
               TapeError);
  EXPECT_NO_THROW(tape.InnerProductBceLoss(z, &one_sided_zero, 1.0, 1.0));
}

TEST(TapeShapeTest, InnerProductBceRejectsSigmaCacheBeyondInt) {
  // 65,536·65,537/2 packed σ entries exceed INT_MAX: rejected before any
  // allocation.
  constexpr int kNodes = 65536;
  Tape tape;
  const Var z = tape.Constant(Filled(kNodes, 1, 0.1));
  const CsrMatrix empty = CsrMatrix::FromTriplets(kNodes, kNodes, {});
  EXPECT_THROW(tape.InnerProductBceLoss(z, &empty, 1.0, 1.0), TapeError);
}

TEST(TapeShapeTest, KMeansLossValidatesCentersAndAssignments) {
  Tape tape;
  const Var z = tape.Constant(Filled(4, 3, 0.1));
  const Matrix centers_bad_dim(2, 2);
  const Matrix centers(2, 3);
  const std::vector<int> assign_short = {0, 1, 0};
  const std::vector<int> assign_oob = {0, 1, 2, 1};
  const std::vector<int> assign(4, 0);
  EXPECT_THROW(tape.KMeansLoss(z, &centers_bad_dim, &assign), TapeError);
  EXPECT_THROW(tape.KMeansLoss(z, &centers, &assign_short), TapeError);
  EXPECT_THROW(tape.KMeansLoss(z, &centers, &assign_oob), TapeError);
  EXPECT_THROW(tape.KMeansLoss(z, &centers, &assign, {0, 4}), TapeError);
}

TEST(TapeShapeTest, GmmMixtureShapeMismatch) {
  Tape tape;
  const Var z = tape.Constant(Filled(5, 3, 0.1));
  const Var means = tape.Constant(Filled(2, 3, 0.0));
  const Var logvars_bad = tape.Constant(Filled(2, 2, 0.0));
  const Var logvars = tape.Constant(Filled(2, 3, 0.0));
  const Var logits_bad = tape.Constant(Filled(1, 3, 0.0));
  const Var logits = tape.Constant(Filled(1, 2, 0.0));
  EXPECT_THROW(tape.GmmNllLoss(z, means, logvars_bad, logits), TapeError);
  EXPECT_THROW(tape.GmmNllLoss(z, means, logvars, logits_bad), TapeError);
}

// ---------------------------------------------------------------------------
// Var misuse: invalid and foreign handles are checked errors.
// ---------------------------------------------------------------------------

TEST(TapeVarTest, DefaultConstructedVarRejected) {
  Tape tape;
  const Var ok = tape.Constant(Filled(2, 2, 1.0));
  Var invalid;
  EXPECT_THROW(tape.Add(ok, invalid), TapeError);
  EXPECT_THROW(tape.value(invalid), TapeError);
  EXPECT_THROW(tape.Backward(invalid), TapeError);
}

TEST(TapeVarTest, ForeignTapeVarRejected) {
  Tape a;
  Tape b;
  const Var on_a = a.Constant(Filled(2, 2, 1.0));
  const Var on_b = b.Constant(Filled(2, 2, 1.0));
  EXPECT_THROW(b.Add(on_b, on_a), TapeError);
  EXPECT_THROW(b.value(on_a), TapeError);
}

TEST(TapeVarTest, OutOfRangeIdRejected) {
  Tape tape;
  tape.Constant(Filled(2, 2, 1.0));
  Var forged;
  forged.id = 99;
  forged.tape = &tape;
  EXPECT_THROW(tape.value(forged), TapeError);
}

// ---------------------------------------------------------------------------
// Backward misuse.
// ---------------------------------------------------------------------------

TEST(TapeBackwardTest, NullExternalTargetRejected) {
  Parameter p(Filled(2, 2, 0.5));
  Tape tape;
  const Var leaf = tape.Leaf(&p);
  EXPECT_THROW(tape.BceWithLogits(leaf, nullptr), TapeError);
}

TEST(TapeBackwardTest, SecondBackwardThrows) {
  Parameter p(Filled(3, 2, 0.5));
  const Matrix targets(3, 2, 1.0);
  Tape tape;
  const Var loss = tape.BceWithLogits(tape.Leaf(&p), &targets);
  tape.Backward(loss);
  EXPECT_TRUE(tape.backward_done());
  EXPECT_THROW(tape.Backward(loss), TapeError);
}

TEST(TapeBackwardTest, NonScalarBackwardThrows) {
  Tape tape;
  const Var m = tape.Constant(Filled(2, 3, 1.0));
  EXPECT_THROW(tape.Backward(m), TapeError);
}

TEST(TapeBackwardTest, RecordingAfterBackwardThrows) {
  Parameter p(Filled(3, 2, 0.5));
  const Matrix targets(3, 2, 1.0);
  Tape tape;
  const Var loss = tape.BceWithLogits(tape.Leaf(&p), &targets);
  tape.Backward(loss);
  EXPECT_THROW(tape.Constant(Filled(1, 1, 0.0)), TapeError);
}

// ---------------------------------------------------------------------------
// LintTape: the four seeded defect classes plus the clean case.
// ---------------------------------------------------------------------------

TEST(LintTapeTest, CleanGraphIsClean) {
  Parameter p(Filled(3, 2, 0.5));
  const Matrix targets(3, 2, 1.0);
  Tape tape;
  const Var loss = tape.BceWithLogits(tape.Leaf(&p), &targets);
  const TapeLintReport report = LintTape(tape, loss, {&p});
  EXPECT_TRUE(report.clean()) << report.Format();
}

TEST(LintTapeTest, InvalidLossHandleReported) {
  Tape tape;
  tape.Constant(Filled(1, 1, 0.0));
  Var invalid;
  const TapeLintReport report = LintTape(tape, invalid, {});
  EXPECT_EQ(report.Count(Kind::kInvalidLoss), 1);
}

TEST(LintTapeTest, DeadSubgraphReported) {
  Parameter p(Filled(3, 2, 0.5));
  const Matrix targets(3, 2, 1.0);
  Tape tape;
  const Var leaf = tape.Leaf(&p);
  // Seeded defect: a relu branch that never feeds the loss.
  const Var dead = tape.Relu(leaf);
  const Var dead2 = tape.Scale(dead, 2.0);
  (void)dead2;
  const Var loss = tape.BceWithLogits(leaf, &targets);
  const TapeLintReport report = LintTape(tape, loss, {&p});
  EXPECT_EQ(report.Count(Kind::kDeadNode), 2) << report.Format();
  EXPECT_EQ(report.Count(Kind::kParamNoGradPath), 0) << report.Format();
}

TEST(LintTapeTest, ParamNotOnTapeReported) {
  Parameter used(Filled(3, 2, 0.5));
  Parameter forgotten(Filled(2, 2, 0.1));
  const Matrix targets(3, 2, 1.0);
  Tape tape;
  const Var loss = tape.BceWithLogits(tape.Leaf(&used), &targets);
  const TapeLintReport report = LintTape(tape, loss, {&used, &forgotten});
  EXPECT_EQ(report.Count(Kind::kParamNotOnTape), 1) << report.Format();
  const TapeLintFinding* found = nullptr;
  for (const TapeLintFinding& f : report.findings) {
    if (f.kind == Kind::kParamNotOnTape) found = &f;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->param, &forgotten);
}

TEST(LintTapeTest, ParamWithoutGradPathReported) {
  // Seeded defect: the parameter is on the tape but its branch never joins
  // the loss (classic frozen-encoder bug).
  Parameter trained(Filled(3, 2, 0.5));
  Parameter frozen(Filled(3, 2, 0.1));
  const Matrix targets(3, 2, 1.0);
  Tape tape;
  const Var frozen_leaf = tape.Relu(tape.Leaf(&frozen));
  (void)frozen_leaf;
  const Var loss = tape.BceWithLogits(tape.Leaf(&trained), &targets);
  const TapeLintReport report = LintTape(tape, loss, {&trained, &frozen});
  EXPECT_EQ(report.Count(Kind::kParamNoGradPath), 1) << report.Format();
  EXPECT_GE(report.Count(Kind::kDeadNode), 1) << report.Format();
}

TEST(LintTapeTest, GmmMixtureLeavesHaveNoGradPathByDesign) {
  // GmmKlLoss reads the mixture leaves but never propagates a gradient into
  // them (EM owns those parameters): value-reachable yet outside the
  // gradient cone, which is exactly kParamNoGradPath without a dead node.
  Parameter z(Filled(5, 3, 0.2));
  Parameter means(Filled(2, 3, 0.0));
  Parameter logvars(Filled(2, 3, 0.0));
  Parameter logits(Filled(1, 2, 0.0));
  Matrix q(5, 2);
  for (int i = 0; i < 5; ++i) {
    q(i, 0) = 0.5;
    q(i, 1) = 0.5;
  }
  Tape tape;
  const Var loss =
      tape.GmmKlLoss(tape.Leaf(&z), tape.Leaf(&means), tape.Leaf(&logvars),
                     tape.Leaf(&logits), &q);
  const TapeLintReport report =
      LintTape(tape, loss, {&z, &means, &logvars, &logits});
  EXPECT_EQ(report.Count(Kind::kDeadNode), 0) << report.Format();
  EXPECT_EQ(report.Count(Kind::kParamNoGradPath), 3) << report.Format();
}

// ---------------------------------------------------------------------------
// Every factory model's training graph passes the lint audit.
// ---------------------------------------------------------------------------

AttributedGraph LintTestGraph() {
  CitationLikeOptions o;
  o.num_nodes = 60;
  o.num_clusters = 3;
  o.feature_dim = 40;
  o.topic_words = 12;
  o.intra_degree = 4.0;
  o.inter_degree = 0.5;
  Rng rng(1);
  return MakeCitationLike(o, rng);
}

ModelOptions LintModelOptions() {
  ModelOptions o;
  o.hidden_dim = 12;
  o.latent_dim = 6;
  o.seed = 3;
  return o;
}

class ModelLintTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelLintTest, PretrainGraphIsClean) {
  const AttributedGraph g = LintTestGraph();
  auto model = CreateModel(GetParam(), g, LintModelOptions());
  ASSERT_NE(model, nullptr);
  const CsrMatrix adj = g.Adjacency();
  TrainContext ctx;
  ctx.recon = MakeReconTarget(&adj);
  Rng rng(7);
  Tape tape;
  const Var loss = model->BuildLossOnTape(&tape, ctx, &rng);
  const TapeLintReport report = LintTape(tape, loss, model->Params());
  EXPECT_TRUE(report.clean()) << GetParam() << ":\n" << report.Format();
}

INSTANTIATE_TEST_SUITE_P(ModelZoo, ModelLintTest,
                         ::testing::ValuesIn(AllModelNames()),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ModelLintTest, DgaeClusteringGraphIsClean) {
  const AttributedGraph g = LintTestGraph();
  auto model = CreateModel("DGAE", g, LintModelOptions());
  ASSERT_NE(model, nullptr);
  Rng init_rng(11);
  model->InitClusteringHead(3, init_rng);
  const CsrMatrix adj = g.Adjacency();
  TrainContext ctx;
  ctx.recon = MakeReconTarget(&adj);
  ctx.include_clustering = true;
  Rng rng(7);
  Tape tape;
  const Var loss = model->BuildLossOnTape(&tape, ctx, &rng);
  const TapeLintReport report = LintTape(tape, loss, model->Params());
  EXPECT_TRUE(report.clean()) << report.Format();
}

TEST(ModelLintTest, GmmVgaeClusteringReportsOnlyEmOwnedMixture) {
  const AttributedGraph g = LintTestGraph();
  auto model = CreateModel("GMM-VGAE", g, LintModelOptions());
  ASSERT_NE(model, nullptr);
  Rng init_rng(11);
  model->InitClusteringHead(3, init_rng);
  const CsrMatrix adj = g.Adjacency();
  TrainContext ctx;
  ctx.recon = MakeReconTarget(&adj);
  ctx.include_clustering = true;
  Rng rng(7);
  Tape tape;
  const Var loss = model->BuildLossOnTape(&tape, ctx, &rng);
  const TapeLintReport report = LintTape(tape, loss, model->Params());
  // The three mixture parameters are EM-owned by design (DESIGN.md §2);
  // everything else must be clean.
  EXPECT_EQ(report.Count(Kind::kParamNoGradPath), 3) << report.Format();
  EXPECT_EQ(static_cast<int>(report.findings.size()), 3) << report.Format();
}

TEST(TapeLintReportTest, FormatMentionsEachFinding) {
  Parameter p(Filled(3, 2, 0.5));
  Parameter forgotten(Filled(2, 2, 0.1));
  const Matrix targets(3, 2, 1.0);
  Tape tape;
  const Var loss = tape.BceWithLogits(tape.Leaf(&p), &targets);
  const TapeLintReport clean_report = LintTape(tape, loss, {&p});
  EXPECT_NE(clean_report.Format().find("clean"), std::string::npos);
  const TapeLintReport dirty = LintTape(tape, loss, {&p, &forgotten});
  EXPECT_NE(dirty.Format().find("no Leaf registered"), std::string::npos)
      << dirty.Format();
}

}  // namespace
}  // namespace rgae
