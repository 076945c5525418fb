#include "src/core/stop.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/core/rgae_trainer.h"
#include "src/graph/generators.h"
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
  t.pretrain_epochs = 8;
  t.max_cluster_epochs = 4;
  t.m1 = 2;
  t.m2 = 2;
  t.seed = 11;
  return t;
}

TEST(GlobalStopTest, RequestSetsAndClearResets) {
  ClearGlobalStop();
  EXPECT_FALSE(GlobalStopRequested());
  RequestGlobalStop();
  EXPECT_TRUE(GlobalStopRequested());
  ClearGlobalStop();
  EXPECT_FALSE(GlobalStopRequested());
}

// The trainer honours a stop request at epoch boundaries: the run ends
// early, marked timed out rather than failed.
TEST(TrainerDeadlineTest, GlobalStopBehavesLikeTimeout) {
  const AttributedGraph g = TinyGraph();
  auto model = CreateModel("GAE", g, TinyModelOptions());
  RGaeTrainer trainer(model.get(), TinyTrainerOptions());
  RequestGlobalStop();
  const TrainResult r = trainer.Run();
  ClearGlobalStop();
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.failed);
  EXPECT_TRUE(r.trace.empty());  // Stopped at the very first boundary.
  // A stopped trial still yields a finite partial-state evaluation.
  EXPECT_TRUE(std::isfinite(r.scores.acc));
}

}  // namespace
}  // namespace rgae
