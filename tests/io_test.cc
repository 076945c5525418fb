#include "src/graph/io.h"

#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/generators.h"

namespace rgae {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(GraphIoTest, RoundTripFullGraph) {
  CitationLikeOptions o;
  o.num_nodes = 40;
  o.num_clusters = 3;
  o.feature_dim = 30;
  o.topic_words = 8;
  Rng rng(1);
  const AttributedGraph g = MakeCitationLike(o, rng);
  const std::string path = TempPath("roundtrip.graph");
  ASSERT_TRUE(SaveGraph(g, path));

  AttributedGraph loaded;
  ASSERT_TRUE(LoadGraph(path, &loaded));
  EXPECT_EQ(loaded.num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.edges(), g.edges());
  EXPECT_EQ(loaded.labels(), g.labels());
  ASSERT_EQ(loaded.feature_dim(), g.feature_dim());
  for (int i = 0; i < g.num_nodes(); ++i) {
    for (int j = 0; j < g.feature_dim(); ++j) {
      EXPECT_NEAR(loaded.features()(i, j), g.features()(i, j), 1e-9);
    }
  }
  std::remove(path.c_str());
}

TEST(GraphIoTest, RoundTripNoFeaturesNoLabels) {
  AttributedGraph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(3, 4);
  const std::string path = TempPath("bare.graph");
  ASSERT_TRUE(SaveGraph(g, path));
  AttributedGraph loaded;
  ASSERT_TRUE(LoadGraph(path, &loaded));
  EXPECT_EQ(loaded.num_nodes(), 5);
  EXPECT_EQ(loaded.num_edges(), 2);
  EXPECT_FALSE(loaded.has_labels());
  EXPECT_EQ(loaded.feature_dim(), 0);
  std::remove(path.c_str());
}

TEST(GraphIoTest, LoadMissingFileFails) {
  AttributedGraph g;
  EXPECT_FALSE(LoadGraph("/nonexistent/definitely/not/here.graph", &g));
}

TEST(GraphIoTest, LoadRejectsBadMagic) {
  const std::string path = TempPath("bad.graph");
  {
    std::ofstream out(path);
    out << "not-a-graph 1 2 3 4 5\n";
  }
  AttributedGraph g;
  EXPECT_FALSE(LoadGraph(path, &g));
  std::remove(path.c_str());
}

TEST(GraphIoTest, LoadRejectsOutOfRangeEdge) {
  const std::string path = TempPath("badedge.graph");
  {
    std::ofstream out(path);
    out << "rgae-graph 1 3 1 0 0\n9 1\n";
  }
  AttributedGraph g;
  EXPECT_FALSE(LoadGraph(path, &g));
  std::remove(path.c_str());
}

TEST(GraphIoTest, LoadCanonicalizesAndDropsDuplicateEdges) {
  const std::string path = TempPath("dupedges.graph");
  {
    std::ofstream out(path);
    out << "rgae-graph 1 4 5 0 0\n3 1\n0 2\n1 3\n2 0\n0 2\n";
  }
  AttributedGraph g;
  ASSERT_TRUE(LoadGraph(path, &g));
  EXPECT_EQ(g.edges(),
            (std::vector<std::pair<int, int>>{{0, 2}, {1, 3}}));
  std::remove(path.c_str());
}

TEST(GraphIoTest, LoadRejectsTruncatedFeatures) {
  const std::string path = TempPath("trunc.graph");
  {
    std::ofstream out(path);
    out << "rgae-graph 1 2 0 3 0\n0.1 0.2\n";  // Missing entries.
  }
  AttributedGraph g;
  EXPECT_FALSE(LoadGraph(path, &g));
  std::remove(path.c_str());
}

// Writes `body` to a temp file and returns LoadGraph's error message, which
// must be non-empty because every rejection names its cause.
std::string LoadError(const std::string& name, const std::string& body) {
  const std::string path = TempPath(name);
  {
    std::ofstream out(path);
    out << body;
  }
  AttributedGraph g;
  std::string error;
  EXPECT_FALSE(LoadGraph(path, &g, &error)) << body;
  EXPECT_FALSE(error.empty()) << body;
  std::remove(path.c_str());
  return error;
}

TEST(GraphIoTest, MalformedInputMatrix) {
  // Negative counts in the header.
  EXPECT_NE(LoadError("neg.graph", "rgae-graph 1 -3 0 0 0\n")
                .find("negative"),
            std::string::npos);
  // Unsupported version.
  EXPECT_NE(LoadError("ver.graph", "rgae-graph 9 2 0 0 0\n").find("version"),
            std::string::npos);
  // Edge endpoint out of range (negative and too large).
  EXPECT_NE(LoadError("edge-neg.graph", "rgae-graph 1 3 1 0 0\n-1 2\n")
                .find("out of range"),
            std::string::npos);
  EXPECT_NE(LoadError("edge-big.graph", "rgae-graph 1 3 1 0 0\n0 3\n")
                .find("out of range"),
            std::string::npos);
  // Self-loop.
  EXPECT_NE(LoadError("loop.graph", "rgae-graph 1 3 1 0 0\n2 2\n")
                .find("self-loop"),
            std::string::npos);
  // Truncated edge list.
  EXPECT_NE(LoadError("edge-trunc.graph", "rgae-graph 1 3 2 0 0\n0 1\n")
                .find("truncated"),
            std::string::npos);
  // Non-finite feature values. Depending on the standard library, "nan" in
  // a text stream either parses to NaN (caught by the finiteness check) or
  // fails extraction (caught as non-numeric) — both must reject the file
  // with an error naming the feature.
  EXPECT_NE(LoadError("nan.graph", "rgae-graph 1 2 0 1 0\nnan\n0.5\n")
                .find("feature"),
            std::string::npos);
  EXPECT_NE(LoadError("inf.graph", "rgae-graph 1 2 0 1 0\n0.5\ninf\n")
                .find("feature"),
            std::string::npos);
  // Non-numeric feature value.
  EXPECT_NE(LoadError("text.graph", "rgae-graph 1 2 0 1 0\nhello\n0.5\n")
                .find("non-numeric"),
            std::string::npos);
  // Labels out of range (negative and >= num_nodes).
  EXPECT_NE(LoadError("label-neg.graph", "rgae-graph 1 2 0 0 1\n-1\n0\n")
                .find("out of range"),
            std::string::npos);
  EXPECT_NE(LoadError("label-big.graph", "rgae-graph 1 2 0 0 1\n0\n7\n")
                .find("out of range"),
            std::string::npos);
  // Truncated label list.
  EXPECT_NE(LoadError("label-trunc.graph", "rgae-graph 1 2 0 0 1\n0\n")
                .find("truncated"),
            std::string::npos);
}

TEST(GraphIoTest, ErrorParameterIsOptional) {
  const std::string path = TempPath("noerr.graph");
  {
    std::ofstream out(path);
    out << "rgae-graph 1 3 1 0 0\n9 1\n";
  }
  AttributedGraph g;
  EXPECT_FALSE(LoadGraph(path, &g));  // nullptr error must not crash.
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rgae
