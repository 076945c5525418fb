#include "src/eval/datasets.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "src/graph/corrupt.h"
#include "src/tensor/random.h"

namespace rgae {
namespace {

TEST(DatasetsTest, RegistryNames) {
  EXPECT_EQ(CitationDatasetNames().size(), 3u);
  EXPECT_EQ(AirTrafficDatasetNames().size(), 3u);
  EXPECT_TRUE(IsKnownDataset("Cora"));
  EXPECT_TRUE(IsKnownDataset("Brazil"));
  EXPECT_FALSE(IsKnownDataset("Reddit"));
}

TEST(DatasetsTest, ClusterCountsMatchOriginals) {
  EXPECT_EQ(DatasetClusters("Cora"), 7);
  EXPECT_EQ(DatasetClusters("Citeseer"), 6);
  EXPECT_EQ(DatasetClusters("Pubmed"), 3);
  EXPECT_EQ(DatasetClusters("USA"), 4);
  EXPECT_EQ(DatasetClusters("Europe"), 4);
  EXPECT_EQ(DatasetClusters("Brazil"), 4);
}

class DatasetGenerationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DatasetGenerationTest, GeneratesConsistentGraph) {
  const AttributedGraph g = MakeDataset(GetParam(), 1);
  EXPECT_GT(g.num_nodes(), 50);
  EXPECT_GT(g.num_edges(), 50);
  EXPECT_TRUE(g.has_labels());
  EXPECT_EQ(g.num_clusters(), DatasetClusters(GetParam()));
  EXPECT_GT(g.feature_dim(), 0);
}

TEST_P(DatasetGenerationTest, DeterministicPerSeed) {
  const AttributedGraph a = MakeDataset(GetParam(), 7);
  const AttributedGraph b = MakeDataset(GetParam(), 7);
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_EQ(a.labels(), b.labels());
  const AttributedGraph c = MakeDataset(GetParam(), 8);
  EXPECT_NE(a.edges(), c.edges());
}

/// FNV-1a over the endpoints of every edge, in `edges()` order.
uint64_t EdgeListHash(const AttributedGraph& g) {
  uint64_t h = 1469598103934665603ULL;
  for (const auto& [u, v] : g.edges()) {
    for (const int x : {u, v}) {
      h ^= static_cast<uint32_t>(x);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST(DatasetsTest, EdgeListsMatchPinnedHashes) {
  // Recorded when edges were still kept in a std::set: the generators'
  // batched commits must give the same graphs from the same draws.
  struct Pinned {
    const char* name;
    uint64_t seed;
    int edges;
    uint64_t hash;
  };
  const Pinned pinned[] = {
      {"Cora", 1, 1261, 0x22ba43d260bbe64aULL},
      {"Cora", 2, 1260, 0xa57bf95b28fa6b6cULL},
      {"Cora", 3, 1260, 0xb980675ab5927fadULL},
      {"Citeseer", 1, 952, 0xf2fde13286e7c9dcULL},
      {"Citeseer", 2, 952, 0xdfc29e373a208354ULL},
      {"Citeseer", 3, 952, 0x6b50814c3eb895caULL},
      {"Pubmed", 1, 2161, 0x83b07d6ef0517f14ULL},
      {"Pubmed", 2, 2160, 0x807530513986b455ULL},
      {"Pubmed", 3, 2161, 0x3b1d3bfae949a616ULL},
      {"USA", 1, 2508, 0x46442d07c75bbc8bULL},
      {"USA", 2, 2652, 0x950995437c086671ULL},
      {"USA", 3, 2633, 0x6e287ea1a3609272ULL},
      {"Europe", 1, 2198, 0xf8110a103ddbd9c5ULL},
      {"Europe", 2, 2385, 0xa83b3f831ee6bf29ULL},
      {"Europe", 3, 2345, 0xfe525d199998afbaULL},
      {"Brazil", 1, 1097, 0xc66d00f70dedc5c4ULL},
      {"Brazil", 2, 1203, 0x4a68318020b0f136ULL},
      {"Brazil", 3, 1176, 0xb6a5dd4473cfb148ULL},
  };
  for (const Pinned& p : pinned) {
    const AttributedGraph g = MakeDataset(p.name, p.seed);
    EXPECT_EQ(g.num_edges(), p.edges) << p.name << " seed " << p.seed;
    EXPECT_EQ(EdgeListHash(g), p.hash) << p.name << " seed " << p.seed;
  }
}

TEST(DatasetsTest, CorruptedEdgeListsMatchPinnedHashes) {
  // AddRandomEdges and DropRandomEdges commit their edits once; recorded
  // with per-edge edits on a std::set, so the draws and their order must
  // be unchanged.
  struct Pinned {
    const char* name;
    int added_edges;
    uint64_t added_hash;
    int dropped_edges;
    uint64_t dropped_hash;
  };
  const Pinned pinned[] = {
      {"Cora", 1561, 0xfc77d218c293476cULL, 1061, 0x0ee1ccb3897f2701ULL},
      {"USA", 2808, 0x6fba3bd9166c2630ULL, 2308, 0xadc203a89f1bb302ULL},
  };
  for (const Pinned& p : pinned) {
    AttributedGraph g = MakeDataset(p.name, 1);
    Rng add_rng(11);
    EXPECT_EQ(AddRandomEdges(&g, 300, add_rng), 300) << p.name;
    EXPECT_EQ(g.num_edges(), p.added_edges) << p.name;
    EXPECT_EQ(EdgeListHash(g), p.added_hash) << p.name;
    Rng drop_rng(12);
    EXPECT_EQ(DropRandomEdges(&g, 500, drop_rng), 500) << p.name;
    EXPECT_EQ(g.num_edges(), p.dropped_edges) << p.name;
    EXPECT_EQ(EdgeListHash(g), p.dropped_hash) << p.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetGenerationTest,
                         ::testing::Values("Cora", "Citeseer", "Pubmed",
                                           "USA", "Europe", "Brazil"));

TEST(DatasetsTest, CitationGraphsAreHomophilous) {
  for (const std::string& name : CitationDatasetNames()) {
    const AttributedGraph g = MakeDataset(name, 3);
    EXPECT_GT(g.EdgeHomophily(), 0.5) << name;
  }
}

TEST(DatasetsTest, CiteseerSparserThanCora) {
  const AttributedGraph cora = MakeDataset("Cora", 2);
  const AttributedGraph citeseer = MakeDataset("Citeseer", 2);
  const double cora_density =
      static_cast<double>(cora.num_edges()) / cora.num_nodes();
  const double cs_density =
      static_cast<double>(citeseer.num_edges()) / citeseer.num_nodes();
  EXPECT_LT(cs_density, cora_density);
}

TEST(RHyperParamsTest, AppendixCValues) {
  // Spot checks against Tables 11-16.
  EXPECT_DOUBLE_EQ(GetRHyperParams("Cora", "GAE").alpha1, 0.3);
  EXPECT_EQ(GetRHyperParams("Cora", "DGAE").m2, 15);
  EXPECT_EQ(GetRHyperParams("Citeseer", "GMM-VGAE").m1, 50);
  EXPECT_DOUBLE_EQ(GetRHyperParams("Pubmed", "GMM-VGAE").alpha1, 0.4);
  EXPECT_DOUBLE_EQ(GetRHyperParams("Europe", "GMM-VGAE").alpha1, 0.01);
  EXPECT_DOUBLE_EQ(GetRHyperParams("Brazil", "DGAE").alpha1, 0.25);
  EXPECT_EQ(GetRHyperParams("USA", "DGAE").m1, 50);
}

}  // namespace
}  // namespace rgae
