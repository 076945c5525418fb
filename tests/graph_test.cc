#include "src/graph/graph.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/tensor/random.h"

namespace rgae {
namespace {

TEST(AttributedGraphTest, AddRemoveEdges) {
  AttributedGraph g(4);
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_TRUE(g.AddEdge(1, 0) == false);  // Duplicate (canonicalized).
  EXPECT_FALSE(g.AddEdge(2, 2));          // Self-loop rejected.
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.RemoveEdge(0, 1));
  EXPECT_FALSE(g.RemoveEdge(0, 1));
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(AttributedGraphTest, Degrees) {
  AttributedGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  const std::vector<int> deg = g.Degrees();
  EXPECT_EQ(deg[0], 3);
  EXPECT_EQ(deg[1], 1);
  EXPECT_EQ(g.Degree(0), 3);
}

TEST(AttributedGraphTest, AdjacencyIsSymmetricNoSelfLoops) {
  AttributedGraph g(3);
  g.AddEdge(0, 2);
  const CsrMatrix a = g.Adjacency();
  EXPECT_DOUBLE_EQ(a.At(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(a.At(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.At(0, 0), 0.0);
  EXPECT_EQ(a.nnz(), 2);
}

/// The symmetric 0/1 adjacency through FromTriplets, as Adjacency() once
/// built it.
CsrMatrix AdjacencyByTriplets(const AttributedGraph& g) {
  std::vector<Triplet> t;
  for (const auto& [a, b] : g.edges()) {
    t.push_back({a, b, 1.0});
    t.push_back({b, a, 1.0});
  }
  return CsrMatrix::FromTriplets(g.num_nodes(), g.num_nodes(), std::move(t));
}

TEST(AttributedGraphTest, AdjacencyMatchesTripletPath) {
  // Empty graphs (no nodes, or nodes and no edges), sparse graphs with
  // isolated nodes, and a complete graph.
  Rng rng(23);
  for (const int n : {0, 1, 2, 9, 60}) {
    for (const double density : {0.0, 0.03, 0.3, 1.0}) {
      AttributedGraph g(n);
      for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
          if (rng.Bernoulli(density)) g.AddEdge(u, v);
        }
      }
      SCOPED_TRACE("n " + std::to_string(n) + ", density " +
                   std::to_string(density));
      const CsrMatrix want = AdjacencyByTriplets(g);
      const CsrMatrix got = g.Adjacency();
      EXPECT_TRUE(got == want);
      EXPECT_EQ(got.row_ptr(), want.row_ptr());
      EXPECT_TRUE(g.NormalizedAdjacency() ==
                  want.AddSelfLoops().SymmetricallyNormalized());
    }
  }
}

TEST(AttributedGraphTest, EdgesStaySortedUnderSingleEdits) {
  AttributedGraph g(6);
  for (const auto& [u, v] : std::vector<std::pair<int, int>>{
           {5, 1}, {0, 4}, {3, 2}, {1, 0}, {4, 5}, {2, 1}, {0, 4}}) {
    g.AddEdge(u, v);
  }
  EXPECT_EQ(g.edges(), (std::vector<std::pair<int, int>>{
                           {0, 1}, {0, 4}, {1, 2}, {1, 5}, {2, 3}, {4, 5}}));
  EXPECT_TRUE(g.RemoveEdge(5, 1));
  EXPECT_FALSE(g.RemoveEdge(5, 1));
  EXPECT_FALSE(g.RemoveEdge(3, 3));
  EXPECT_FALSE(g.HasEdge(1, 5));
  EXPECT_TRUE(g.HasEdge(3, 2));
  EXPECT_EQ(g.edges(), (std::vector<std::pair<int, int>>{
                           {0, 1}, {0, 4}, {1, 2}, {2, 3}, {4, 5}}));
}

TEST(AttributedGraphTest, SetEdgesCanonicalizes) {
  AttributedGraph g(5);
  g.SetEdges({{3, 1}, {0, 2}, {2, 2}, {1, 3}, {4, 0}, {0, 2}});
  EXPECT_EQ(g.edges(),
            (std::vector<std::pair<int, int>>{{0, 2}, {0, 4}, {1, 3}}));
  // A canonical ascending list is taken as is.
  g.SetEdges({{0, 1}, {1, 4}});
  EXPECT_EQ(g.edges(), (std::vector<std::pair<int, int>>{{0, 1}, {1, 4}}));
  g.SetEdges({});
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(AttributedGraphTest, EdgeBatchAnswersLikeAddEdge) {
  AttributedGraph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  AttributedGraph reference = g;
  EdgeBatch batch(&g);
  for (const auto& [u, v] : std::vector<std::pair<int, int>>{
           {1, 0}, {4, 2}, {3, 3}, {2, 4}, {0, 4}, {3, 2}, {4, 0}, {1, 2}}) {
    EXPECT_EQ(batch.Add(u, v), reference.AddEdge(u, v))
        << "{" << u << ", " << v << "}";
  }
  EXPECT_EQ(g.num_edges(), 2);  // Nothing lands before the commit.
  batch.Commit();
  EXPECT_EQ(g.edges(), reference.edges());
  EXPECT_TRUE(batch.Add(3, 4));  // The batch starts over after a commit.
  EXPECT_FALSE(batch.Add(2, 4));
  batch.Commit();
  reference.AddEdge(3, 4);
  EXPECT_EQ(g.edges(), reference.edges());
}

TEST(AttributedGraphTest, NormalizedAdjacencyHasSelfLoops) {
  AttributedGraph g(2);
  g.AddEdge(0, 1);
  const CsrMatrix norm = g.NormalizedAdjacency();
  EXPECT_NEAR(norm.At(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(norm.At(0, 1), 0.5, 1e-12);
}

TEST(AttributedGraphTest, LabelsAndClusterCount) {
  AttributedGraph g(5);
  EXPECT_FALSE(g.has_labels());
  EXPECT_EQ(g.num_clusters(), 0);
  g.set_labels({0, 1, 2, 1, 0});
  EXPECT_TRUE(g.has_labels());
  EXPECT_EQ(g.num_clusters(), 3);
}

TEST(AttributedGraphTest, OneHotDegreeFeatures) {
  AttributedGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.SetOneHotDegreeFeatures(5);
  const Matrix& x = g.features();
  EXPECT_EQ(x.cols(), 6);
  EXPECT_DOUBLE_EQ(x(0, 2), 1.0);  // Degree 2.
  EXPECT_DOUBLE_EQ(x(1, 1), 1.0);  // Degree 1.
  EXPECT_DOUBLE_EQ(x(1, 2), 0.0);
}

TEST(AttributedGraphTest, OneHotDegreeCapsAtMaxBucket) {
  AttributedGraph g(5);
  for (int i = 1; i < 5; ++i) g.AddEdge(0, i);
  g.SetOneHotDegreeFeatures(2);
  EXPECT_DOUBLE_EQ(g.features()(0, 2), 1.0);  // Degree 4 capped to bucket 2.
}

TEST(AttributedGraphTest, NormalizeFeatureRows) {
  AttributedGraph g(2);
  Matrix x(2, 2, {3, 4, 0, 0});
  g.set_features(std::move(x));
  g.NormalizeFeatureRows();
  EXPECT_NEAR(g.features()(0, 0), 0.6, 1e-12);
}

TEST(AttributedGraphTest, EdgeHomophily) {
  AttributedGraph g(4);
  g.set_labels({0, 0, 1, 1});
  g.AddEdge(0, 1);  // Same label.
  g.AddEdge(2, 3);  // Same label.
  g.AddEdge(0, 2);  // Cross label.
  EXPECT_NEAR(g.EdgeHomophily(), 2.0 / 3.0, 1e-12);
}

TEST(BuildClusterGraphTest, MatchesDefinition) {
  // Clusters {0,1,2} and {3,4}.
  const CsrMatrix a = BuildClusterGraph({0, 0, 0, 1, 1}, 2);
  EXPECT_NEAR(a.At(0, 1), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(a.At(0, 0), 1.0 / 3.0, 1e-12);  // Diagonal included.
  EXPECT_NEAR(a.At(3, 4), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(a.At(0, 3), 0.0);
}

TEST(BuildClusterGraphTest, RowsSumToOne) {
  const CsrMatrix a = BuildClusterGraph({0, 1, 0, 1, 2, 2, 2}, 3);
  for (double s : a.RowSums()) EXPECT_NEAR(s, 1.0, 1e-12);
}

TEST(BuildClusterGraphTest, EmptyClusterTolerated) {
  const CsrMatrix a = BuildClusterGraph({0, 0}, 3);  // Clusters 1,2 empty.
  EXPECT_EQ(a.rows(), 2);
  EXPECT_NEAR(a.At(0, 1), 0.5, 1e-12);
}

}  // namespace
}  // namespace rgae
