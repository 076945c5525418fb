#include "src/graph/multiplex.h"

#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace rgae {
namespace {

MultiplexGraph SmallMultiplex() {
  Matrix x(4, 2, {1, 0, 1, 0, 0, 1, 0, 1});
  MultiplexGraph mg(4, x, {0, 0, 1, 1});
  mg.AddLayer();
  mg.AddLayer();
  mg.AddEdge(0, 0, 1);
  mg.AddEdge(0, 2, 3);
  mg.AddEdge(0, 1, 2);  // Cross-cluster, only in layer 0.
  mg.AddEdge(1, 0, 1);
  mg.AddEdge(1, 2, 3);
  return mg;
}

TEST(MultiplexTest, LayerBookkeeping) {
  const MultiplexGraph mg = SmallMultiplex();
  EXPECT_EQ(mg.num_layers(), 2);
  EXPECT_EQ(mg.LayerEdgeCount(0), 3);
  EXPECT_EQ(mg.LayerEdgeCount(1), 2);
  EXPECT_EQ(mg.num_nodes(), 4);
}

TEST(MultiplexTest, AddEdgeRejectsSelfLoopsAndDuplicates) {
  MultiplexGraph mg(3, Matrix(3, 1, 1.0), {0, 0, 1});
  mg.AddLayer();
  EXPECT_FALSE(mg.AddEdge(0, 1, 1));
  EXPECT_TRUE(mg.AddEdge(0, 0, 1));
  EXPECT_FALSE(mg.AddEdge(0, 1, 0));  // Same canonical edge.
}

TEST(MultiplexTest, LayerHomophily) {
  const MultiplexGraph mg = SmallMultiplex();
  EXPECT_NEAR(mg.LayerHomophily(0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(mg.LayerHomophily(1), 1.0, 1e-12);
}

TEST(MultiplexTest, FlattenUnionKeepsEverything) {
  const AttributedGraph g = SmallMultiplex().Flatten(1);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_EQ(g.feature_dim(), 2);
  EXPECT_EQ(g.num_clusters(), 2);
}

TEST(MultiplexTest, FlattenMajorityFiltersSingleLayerNoise) {
  const AttributedGraph g = SmallMultiplex().Flatten(2);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_FALSE(g.HasEdge(1, 2));  // Cross edge appeared in one layer only.
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(MultiplexTest, GeneratorProducesRequestedLayers) {
  MultiplexCitationOptions o;
  o.base.num_nodes = 120;
  o.base.num_clusters = 4;
  o.base.feature_dim = 80;
  o.base.topic_words = 18;
  o.num_layers = 4;
  Rng rng(3);
  const MultiplexGraph mg = MakeMultiplexCitationLike(o, rng);
  EXPECT_EQ(mg.num_layers(), 4);
  for (int l = 0; l < 4; ++l) EXPECT_GT(mg.LayerEdgeCount(l), 20);
}

TEST(MultiplexTest, LayersShareTrueEdgesButNotNoise) {
  MultiplexCitationOptions o;
  o.base.num_nodes = 150;
  o.base.num_clusters = 4;
  o.base.feature_dim = 80;
  o.base.topic_words = 18;
  Rng rng(5);
  const MultiplexGraph mg = MakeMultiplexCitationLike(o, rng);
  // Pairwise layer overlap should be substantial (correlated true edges)
  // but well below identity (independent keep/noise draws).
  int shared = 0;
  for (const auto& e : mg.layer_edges(0)) {
    shared += mg.layer_edges(1).count(e) > 0 ? 1 : 0;
  }
  const double overlap =
      static_cast<double>(shared) / mg.LayerEdgeCount(0);
  EXPECT_GT(overlap, 0.3);
  EXPECT_LT(overlap, 0.95);
}

TEST(MultiplexTest, MajorityFlattenBeatsUnionHomophily) {
  MultiplexCitationOptions o;
  o.base.num_nodes = 150;
  o.base.num_clusters = 4;
  o.base.feature_dim = 80;
  o.base.topic_words = 18;
  Rng rng(7);
  const MultiplexGraph mg = MakeMultiplexCitationLike(o, rng);
  const AttributedGraph union_graph = mg.Flatten(1);
  const AttributedGraph majority_graph = mg.Flatten(2);
  EXPECT_GT(majority_graph.EdgeHomophily(), union_graph.EdgeHomophily());
}

// ---------------------------------------------------------------------------
// Save/Load round trip and the LoadGraph-style validation contract.

std::string MultiplexTmpPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// Writes raw text and parses it back, for the malformed-input cases. The
// file is named after the running test: ctest runs each case as its own
// process, in parallel under -j, so a shared name would let one case
// overwrite or delete another's input.
std::optional<MultiplexGraph> LoadFromText(const std::string& contents,
                                           std::string* error) {
  const std::string path = MultiplexTmpPath(
      std::string("multiplex_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fputs(contents.c_str(), f);
  std::fclose(f);
  auto loaded = LoadMultiplex(path, error);
  std::remove(path.c_str());
  return loaded;
}

// A minimal well-formed file (3 nodes, 1 layer, 1 feature column, labels)
// the error cases below mutate one aspect of.
constexpr char kValidMultiplexFile[] =
    "rgae-multiplex 1 3 1 1 1\n"
    "layer 0 2\n"
    "0 1\n"
    "1 2\n"
    "0.5\n1.5\n-2.5\n"
    "0\n0\n1\n";

TEST(MultiplexIoTest, SaveLoadRoundTripIsExact) {
  const MultiplexGraph original = SmallMultiplex();
  const std::string path = MultiplexTmpPath("multiplex_roundtrip.txt");
  std::string error;
  ASSERT_TRUE(SaveMultiplex(original, path, &error)) << error;
  auto loaded = LoadMultiplex(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->num_nodes(), original.num_nodes());
  ASSERT_EQ(loaded->num_layers(), original.num_layers());
  for (int l = 0; l < original.num_layers(); ++l) {
    EXPECT_EQ(loaded->layer_edges(l), original.layer_edges(l));
  }
  EXPECT_EQ(loaded->labels(), original.labels());
  ASSERT_EQ(loaded->features().rows(), original.features().rows());
  ASSERT_EQ(loaded->features().cols(), original.features().cols());
  for (size_t i = 0; i < original.features().size(); ++i) {
    EXPECT_EQ(loaded->features().data()[i], original.features().data()[i]);
  }
  std::remove(path.c_str());
}

TEST(MultiplexIoTest, ValidBaselineParses) {
  std::string error;
  auto loaded = LoadFromText(kValidMultiplexFile, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->num_nodes(), 3);
  EXPECT_EQ(loaded->num_layers(), 1);
  EXPECT_EQ(loaded->LayerEdgeCount(0), 2);
  EXPECT_EQ(loaded->labels(), (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(loaded->features()(2, 0), -2.5);
}

TEST(MultiplexIoTest, LoadMissingFileFails) {
  std::string error;
  EXPECT_FALSE(LoadMultiplex(MultiplexTmpPath("absent.txt"), &error));
  EXPECT_FALSE(error.empty());
}

TEST(MultiplexIoTest, RejectsBadMagicAndVersion) {
  std::string error;
  EXPECT_FALSE(LoadFromText("rgae-graph 1 3 1 1 1\n", &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
  EXPECT_FALSE(LoadFromText("rgae-multiplex 9 3 1 1 1\n", &error));
  EXPECT_NE(error.find("version 9"), std::string::npos) << error;
}

TEST(MultiplexIoTest, RejectsNonPositiveNodeCount) {
  std::string error;
  EXPECT_FALSE(LoadFromText("rgae-multiplex 1 0 1 1 1\n", &error));
  EXPECT_NE(error.find("must be positive"), std::string::npos) << error;
}

TEST(MultiplexIoTest, RejectsLayerCountMismatch) {
  // Header promises 2 layers but the file holds 1: the parser hits the
  // feature block where the second layer header should be.
  std::string error;
  EXPECT_FALSE(LoadFromText("rgae-multiplex 1 3 2 1 1\n"
                            "layer 0 1\n0 1\n"
                            "0.5\n1.5\n-2.5\n0\n0\n1\n",
                            &error));
  EXPECT_NE(error.find("layer-count mismatch"), std::string::npos) << error;
}

TEST(MultiplexIoTest, RejectsLayerIndexMismatch) {
  std::string error;
  EXPECT_FALSE(LoadFromText("rgae-multiplex 1 3 1 1 1\n"
                            "layer 1 2\n0 1\n1 2\n"
                            "0.5\n1.5\n-2.5\n0\n0\n1\n",
                            &error));
  EXPECT_NE(error.find("does not match position"), std::string::npos)
      << error;
}

TEST(MultiplexIoTest, RejectsOutOfRangeEndpoint) {
  std::string error;
  EXPECT_FALSE(LoadFromText("rgae-multiplex 1 3 1 1 1\n"
                            "layer 0 2\n0 1\n1 7\n"
                            "0.5\n1.5\n-2.5\n0\n0\n1\n",
                            &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST(MultiplexIoTest, RejectsSelfLoopAndDuplicateEdge) {
  std::string error;
  EXPECT_FALSE(LoadFromText("rgae-multiplex 1 3 1 1 1\n"
                            "layer 0 2\n0 1\n2 2\n"
                            "0.5\n1.5\n-2.5\n0\n0\n1\n",
                            &error));
  EXPECT_NE(error.find("self-loop"), std::string::npos) << error;
  EXPECT_FALSE(LoadFromText("rgae-multiplex 1 3 1 1 1\n"
                            "layer 0 2\n0 1\n1 0\n"
                            "0.5\n1.5\n-2.5\n0\n0\n1\n",
                            &error));
  EXPECT_NE(error.find("repeats edge"), std::string::npos) << error;
}

TEST(MultiplexIoTest, RejectsTruncatedEdgeList) {
  std::string error;
  EXPECT_FALSE(
      LoadFromText("rgae-multiplex 1 3 1 1 1\nlayer 0 2\n0 1\n", &error));
  EXPECT_NE(error.find("truncated edge list"), std::string::npos) << error;
}

TEST(MultiplexIoTest, RejectsBadFeatureValues) {
  std::string error;
  // Truncated features.
  EXPECT_FALSE(LoadFromText("rgae-multiplex 1 3 1 1 1\n"
                            "layer 0 2\n0 1\n1 2\n"
                            "0.5\n1.5\n",
                            &error));
  EXPECT_NE(error.find("feature value"), std::string::npos) << error;
  // Non-numeric features.
  EXPECT_FALSE(LoadFromText("rgae-multiplex 1 3 1 1 1\n"
                            "layer 0 2\n0 1\n1 2\n"
                            "0.5\nbroken\n-2.5\n0\n0\n1\n",
                            &error));
  EXPECT_NE(error.find("feature value"), std::string::npos) << error;
}

TEST(MultiplexIoTest, RejectsBadLabels) {
  std::string error;
  // Out-of-range label.
  EXPECT_FALSE(LoadFromText("rgae-multiplex 1 3 1 1 1\n"
                            "layer 0 2\n0 1\n1 2\n"
                            "0.5\n1.5\n-2.5\n0\n0\n9\n",
                            &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  // Truncated labels.
  EXPECT_FALSE(LoadFromText("rgae-multiplex 1 3 1 1 1\n"
                            "layer 0 2\n0 1\n1 2\n"
                            "0.5\n1.5\n-2.5\n0\n0\n",
                            &error));
  EXPECT_NE(error.find("truncated labels"), std::string::npos) << error;
}

TEST(MultiplexTest, GeneratorDeterministic) {
  MultiplexCitationOptions o;
  o.base.num_nodes = 100;
  o.base.num_clusters = 3;
  o.base.feature_dim = 60;
  o.base.topic_words = 15;
  Rng r1(9), r2(9);
  const MultiplexGraph a = MakeMultiplexCitationLike(o, r1);
  const MultiplexGraph b = MakeMultiplexCitationLike(o, r2);
  for (int l = 0; l < a.num_layers(); ++l) {
    EXPECT_EQ(a.layer_edges(l), b.layer_edges(l));
  }
}

}  // namespace
}  // namespace rgae
