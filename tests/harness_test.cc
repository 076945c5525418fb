#include "src/eval/harness.h"

#include <cmath>
#include <cstdlib>
#include <limits>

#include <gtest/gtest.h>

#include "src/core/fault_injection.h"
#include "src/eval/table.h"
#include "src/graph/generators.h"

namespace rgae {
namespace {

AttributedGraph SmallGraph() {
  CitationLikeOptions o;
  o.num_nodes = 60;
  o.num_clusters = 3;
  o.feature_dim = 40;
  o.topic_words = 12;
  o.intra_degree = 4.0;
  o.inter_degree = 0.5;
  Rng rng(2);
  return MakeCitationLike(o, rng);
}

CoupleConfig SmallCouple(const std::string& model) {
  CoupleConfig c;
  c.model_name = model;
  c.dataset = "Cora";
  c.model_options.hidden_dim = 12;
  c.model_options.latent_dim = 6;
  c.model_options.seed = 3;
  TrainerOptions t;
  t.pretrain_epochs = 15;
  t.max_cluster_epochs = 10;
  t.num_clusters = 3;
  t.m1 = 4;
  t.m2 = 4;
  t.seed = 9;
  c.base = t;
  c.rvariant = t;
  c.rvariant.use_operators = true;
  c.rvariant.xi.alpha1 = 0.2;
  return c;
}

TEST(HarnessTest, MakeCoupleConfigWiresHyperParams) {
  const CoupleConfig c = MakeCoupleConfig("DGAE", "Cora", 4);
  EXPECT_EQ(c.model_name, "DGAE");
  EXPECT_FALSE(c.base.use_operators);
  EXPECT_TRUE(c.rvariant.use_operators);
  EXPECT_DOUBLE_EQ(c.rvariant.xi.alpha1, 0.3);  // Appendix C, Cora/DGAE.
  EXPECT_EQ(c.rvariant.m2, 15);
  EXPECT_EQ(c.base.num_clusters, 7);
}

TEST(HarnessTest, RunCoupleSecondGroupSharesPretrain) {
  const AttributedGraph g = SmallGraph();
  const CoupleOutcome outcome = RunCouple(SmallCouple("DGAE"), g);
  EXPECT_GT(outcome.base.scores.acc, 0.0);
  EXPECT_GT(outcome.rmodel.scores.acc, 0.0);
  EXPECT_EQ(static_cast<int>(outcome.base.result.assignments.size()),
            g.num_nodes());
}

TEST(HarnessTest, RunCoupleFirstGroup) {
  const AttributedGraph g = SmallGraph();
  CoupleConfig c = SmallCouple("GAE");
  c.rvariant.first_group_transform_start = 5;
  const CoupleOutcome outcome = RunCouple(c, g);
  EXPECT_GE(outcome.base.scores.acc, 0.0);
  EXPECT_GE(outcome.rmodel.scores.acc, 0.0);
}

TEST(HarnessTest, FailedSharedPretrainFailsBothHalves) {
  const AttributedGraph g = SmallGraph();
  FaultEvent e;
  e.type = FaultEvent::Type::kNanWeight;
  e.epoch = 2;
  e.pretrain = true;
  e.once = false;  // Re-fires on every replay: unrecoverable.
  FaultInjector injector({e}, /*seed=*/42);
  CoupleConfig c = SmallCouple("DGAE");
  c.base.resilience.enabled = true;
  c.base.resilience.max_rollbacks = 0;
  c.base.fault_injector = &injector;

  const CoupleOutcome outcome = RunCouple(c, g);
  EXPECT_TRUE(outcome.base.failed);
  EXPECT_TRUE(outcome.rmodel.failed);
  // The R half's own clustering run was healthy; the harness fails it.
  EXPECT_FALSE(outcome.rmodel.result.failed);
  EXPECT_EQ(outcome.rmodel.failure_reason.rfind("shared pretrain failed: ", 0),
            0u)
      << outcome.rmodel.failure_reason;
  EXPECT_EQ(injector.faults_fired(), 1);  // Pretraining ran exactly once.

  for (const TrialOutcome& half : {outcome.base, outcome.rmodel}) {
    const Aggregate agg = AggregateTrials({half});
    EXPECT_EQ(agg.num_trials, 0);
    EXPECT_EQ(agg.dropped_trials, 1);
  }
}

TEST(HarnessTest, RunSingleProducesScores) {
  const AttributedGraph g = SmallGraph();
  const CoupleConfig c = SmallCouple("GMM-VGAE");
  const TrialOutcome t =
      RunSingle("GMM-VGAE", g, c.model_options, c.base);
  EXPECT_GE(t.scores.acc, 0.2);
  EXPECT_GE(t.seconds, 0.0);
}

TEST(AggregateTest, BestMeanStd) {
  std::vector<TrialOutcome> trials(3);
  trials[0].scores = {0.5, 0.4, 0.3};
  trials[0].seconds = 1.0;
  trials[1].scores = {0.7, 0.6, 0.5};
  trials[1].seconds = 3.0;
  trials[2].scores = {0.6, 0.5, 0.4};
  trials[2].seconds = 2.0;
  const Aggregate agg = AggregateTrials(trials);
  EXPECT_DOUBLE_EQ(agg.best.acc, 0.7);
  EXPECT_DOUBLE_EQ(agg.best.nmi, 0.6);
  EXPECT_NEAR(agg.mean.acc, 0.6, 1e-12);
  EXPECT_NEAR(agg.stddev.acc, std::sqrt(2.0 / 300.0), 1e-9);
  EXPECT_DOUBLE_EQ(agg.best_seconds, 1.0);
  EXPECT_DOUBLE_EQ(agg.mean_seconds, 2.0);
  EXPECT_NEAR(agg.var_seconds, 2.0 / 3.0, 1e-12);
}

TEST(AggregateTest, SingleTrial) {
  std::vector<TrialOutcome> trials(1);
  trials[0].scores = {0.9, 0.8, 0.7};
  const Aggregate agg = AggregateTrials(trials);
  EXPECT_DOUBLE_EQ(agg.best.acc, 0.9);
  EXPECT_DOUBLE_EQ(agg.mean.acc, 0.9);
  EXPECT_DOUBLE_EQ(agg.stddev.acc, 0.0);
  EXPECT_EQ(agg.num_trials, 1);
  EXPECT_EQ(agg.dropped_trials, 0);
}

TEST(AggregateTest, EmptyInputYieldsZeroedAggregate) {
  const Aggregate agg = AggregateTrials({});
  EXPECT_DOUBLE_EQ(agg.best.acc, 0.0);
  EXPECT_DOUBLE_EQ(agg.mean.acc, 0.0);
  EXPECT_DOUBLE_EQ(agg.stddev.acc, 0.0);
  EXPECT_EQ(agg.num_trials, 0);
  EXPECT_EQ(agg.dropped_trials, 0);
}

TEST(AggregateTest, ExcludesFailedTrialsAndCountsDrops) {
  std::vector<TrialOutcome> trials(3);
  trials[0].scores = {0.5, 0.4, 0.3};
  trials[0].seconds = 1.0;
  trials[1].scores = {0.9, 0.8, 0.7};  // Failed: must not win "best".
  trials[1].seconds = 9.0;
  trials[1].failed = true;
  trials[1].failure_reason = "cluster epoch 12: nan weight";
  trials[2].scores = {0.7, 0.6, 0.5};
  trials[2].seconds = 3.0;
  const Aggregate agg = AggregateTrials(trials);
  EXPECT_EQ(agg.num_trials, 2);
  EXPECT_EQ(agg.dropped_trials, 1);
  EXPECT_DOUBLE_EQ(agg.best.acc, 0.7);
  EXPECT_NEAR(agg.mean.acc, 0.6, 1e-12);
  // Stddev over the two survivors only (population convention, divide by n).
  EXPECT_NEAR(agg.stddev.acc, 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(agg.mean_seconds, 2.0);
}

TEST(AggregateTest, AllTrialsFailedYieldsZeroedAggregate) {
  std::vector<TrialOutcome> trials(2);
  trials[0].scores = {0.5, 0.4, 0.3};
  trials[0].failed = true;
  trials[1].scores = {0.6, 0.5, 0.4};
  trials[1].failed = true;
  const Aggregate agg = AggregateTrials(trials);
  EXPECT_EQ(agg.num_trials, 0);
  EXPECT_EQ(agg.dropped_trials, 2);
  EXPECT_DOUBLE_EQ(agg.best.acc, 0.0);
  EXPECT_DOUBLE_EQ(agg.mean.acc, 0.0);
}

// Unset, and every value that is not a positive finite number (for the
// trial count, not a whole number in `int` range), give the defaults.
TEST(EnvScalingTest, DefaultsWithoutEnv) {
  unsetenv("RGAE_TRIALS");
  unsetenv("RGAE_EPOCH_SCALE");
  EXPECT_EQ(NumTrialsFromEnv(), 3);
  EXPECT_DOUBLE_EQ(EpochScaleFromEnv(), 1.0);

  for (const char* bad : {"", "abc", "0", "-2", "5x", "2.5", " ",
                          "99999999999", "2147483648", "-2147483649"}) {
    setenv("RGAE_TRIALS", bad, 1);
    EXPECT_EQ(NumTrialsFromEnv(), 3) << "RGAE_TRIALS=" << bad;
    EXPECT_EQ(PositiveIntFromEnv("RGAE_TRIALS", 7), 7) << bad;
  }
  for (const char* bad : {"", "abc", "0", "-0.5", "0.25x", "inf", "-inf",
                          "nan", "1e400", "1e-400"}) {
    setenv("RGAE_EPOCH_SCALE", bad, 1);
    EXPECT_DOUBLE_EQ(EpochScaleFromEnv(), 1.0) << "RGAE_EPOCH_SCALE=" << bad;
    const CoupleConfig c = MakeCoupleConfig("GAE", "Cora", 1);
    EXPECT_EQ(c.base.pretrain_epochs, 100) << bad;
    EXPECT_EQ(c.base.max_cluster_epochs, 150) << bad;
  }
  unsetenv("RGAE_TRIALS");
  unsetenv("RGAE_EPOCH_SCALE");
}

TEST(EnvScalingTest, ReadsEnv) {
  setenv("RGAE_TRIALS", "5", 1);
  setenv("RGAE_EPOCH_SCALE", "0.25", 1);
  EXPECT_EQ(NumTrialsFromEnv(), 5);
  EXPECT_DOUBLE_EQ(EpochScaleFromEnv(), 0.25);
  setenv("RGAE_TRIALS", "2147483647", 1);
  EXPECT_EQ(NumTrialsFromEnv(), std::numeric_limits<int>::max());

  // Epoch counts scaled past INT_MAX saturate there instead of wrapping.
  constexpr int kMax = std::numeric_limits<int>::max();
  for (const char* huge : {"3e7", "1e300"}) {
    setenv("RGAE_EPOCH_SCALE", huge, 1);
    const CoupleConfig c = MakeCoupleConfig("GAE", "Cora", 1);
    EXPECT_EQ(c.base.pretrain_epochs, kMax) << huge;
    EXPECT_EQ(c.base.max_cluster_epochs, kMax) << huge;
    EXPECT_EQ(c.rvariant.first_group_transform_start, kMax / 2) << huge;
  }
  setenv("RGAE_EPOCH_SCALE", "0.001", 1);  // Never below one epoch.
  EXPECT_EQ(MakeCoupleConfig("GAE", "Cora", 1).base.pretrain_epochs, 1);
  unsetenv("RGAE_TRIALS");
  unsetenv("RGAE_EPOCH_SCALE");
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(FormatPct(0.613), "61.3");
  EXPECT_EQ(FormatMeanStd(0.556, 0.049), "55.6 +/- 4.9");
  EXPECT_EQ(FormatSeconds(17.1351), "17.135");
}

TEST(TablePrinterTest, PrintsWithoutCrashing) {
  TablePrinter t({"Method", "ACC", "NMI"});
  t.AddRow({"GAE", "61.3", "44.4"});
  t.AddRow({"R-GAE", "65.8", "51.6"});
  t.Print("smoke");  // Visual output; just must not crash.
}

}  // namespace
}  // namespace rgae
