#include "src/serve/engine.h"

#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/graph/corrupt.h"
#include "src/graph/generators.h"
#include "src/models/model_factory.h"
#include "src/serve/cache.h"
#include "src/serve/forward.h"
#include "src/serve/snapshot.h"

namespace rgae {
namespace {

using serve::ForwardEngine;
using serve::ModelSnapshot;
using serve::QueryResult;
using serve::ServeEngine;
using serve::ServeOptions;

AttributedGraph TinyGraph(uint64_t seed = 1) {
  CitationLikeOptions o;
  o.num_nodes = 60;
  o.num_clusters = 3;
  o.feature_dim = 40;
  o.topic_words = 10;
  o.intra_degree = 4.0;
  o.inter_degree = 0.5;
  Rng rng(seed);
  return MakeCitationLike(o, rng);
}

// Larger and sparser than TinyGraph, so an edge flip's 2-hop neighborhood
// stays well short of the whole graph — the precision assertions below
// (partial invalidation, partial recompute) need that headroom.
AttributedGraph SparseGraph(uint64_t seed = 2) {
  CitationLikeOptions o;
  o.num_nodes = 200;
  o.num_clusters = 4;
  o.feature_dim = 40;
  o.topic_words = 10;
  o.intra_degree = 3.0;
  o.inter_degree = 0.1;
  Rng rng(seed);
  return MakeCitationLike(o, rng);
}

ModelOptions TinyModelOptions() {
  ModelOptions o;
  o.hidden_dim = 10;
  o.latent_dim = 5;
  o.seed = 5;
  return o;
}

std::unique_ptr<GaeModel> MakeModel(const std::string& name,
                                    const AttributedGraph& g) {
  auto model = CreateModel(name, g, TinyModelOptions());
  const CsrMatrix adj = g.Adjacency();
  TrainContext ctx;
  ctx.recon = MakeReconTarget(&adj);
  ctx.include_clustering = false;
  for (int i = 0; i < 3; ++i) model->TrainStep(ctx);
  if (model->has_clustering_head()) {
    Rng rng(3);
    model->InitClusteringHead(g.num_clusters(), rng);
  }
  return model;
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "entry " << i;
  }
}

void ExpectRowEq(const std::vector<double>& got, const Matrix& want,
                 int row) {
  ASSERT_EQ(static_cast<int>(got.size()), want.cols()) << "row " << row;
  for (int c = 0; c < want.cols(); ++c) {
    EXPECT_EQ(got[static_cast<size_t>(c)], want(row, c))
        << "row " << row << " col " << c;
  }
}

// The snapshot a mutated serving graph would freeze to: same weights and
// head, the mutated graph's features and filter. FullForward over it is the
// from-scratch reference every incremental path must match bit for bit.
ModelSnapshot WithGraph(ModelSnapshot snapshot, const AttributedGraph& g) {
  snapshot.features = g.features();
  snapshot.filter = g.NormalizedAdjacency();
  return snapshot;
}

TEST(ForwardEngineTest, FullForwardMatchesEmbedForAllSixModels) {
  const AttributedGraph g = TinyGraph();
  for (const std::string& name : AllModelNames()) {
    SCOPED_TRACE(name);
    const auto model = MakeModel(name, g);
    const ModelSnapshot snapshot = model->ExportSnapshot();
    // Tape-free forward == training-path forward, exactly — no tolerance.
    ExpectBitIdentical(ForwardEngine::FullForward(snapshot), model->Embed());
    ForwardEngine engine(snapshot);
    ExpectBitIdentical(engine.Z(), model->Embed());
  }
}

TEST(ForwardEngineTest, EmbedRowsReturnsExactZRows) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("DGAE", g);
  ForwardEngine engine(model->ExportSnapshot());
  const Matrix z = ForwardEngine::FullForward(engine.snapshot());

  const std::vector<int> nodes = {3, 0, 59, 3, 17};  // Duplicates allowed.
  const Matrix rows = engine.EmbedRows(nodes);
  ASSERT_EQ(rows.rows(), static_cast<int>(nodes.size()));
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (int c = 0; c < z.cols(); ++c) {
      EXPECT_EQ(rows(static_cast<int>(i), c), z(nodes[i], c));
    }
  }
  const Matrix p = engine.AssignRows(nodes);
  const Matrix p_full = SoftAssignRows(engine.snapshot(), z);
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (int c = 0; c < p_full.cols(); ++c) {
      EXPECT_EQ(p(static_cast<int>(i), c), p_full(nodes[i], c));
    }
  }
}

TEST(ForwardEngineTest, UnchangedGraphIsANoop) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("GAE", g);
  ForwardEngine engine(model->ExportSnapshot());
  EXPECT_TRUE(engine.UpdateGraph(g).empty());
  EXPECT_EQ(engine.last_update().xw0_rows, 0);
  EXPECT_EQ(engine.last_update().h_rows, 0);
  EXPECT_EQ(engine.last_update().z_rows, 0);
}

TEST(ForwardEngineTest, IncrementalUpdateMatchesFromScratchForward) {
  const AttributedGraph g = SparseGraph();
  const auto model = MakeModel("DGAE", g);
  ForwardEngine engine(model->ExportSnapshot());

  AttributedGraph current = g;
  Rng rng(11);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    AttributedGraph next = current;
    AddRandomEdges(&next, 2, rng);
    DropRandomEdges(&next, 1, rng);

    const std::vector<int> invalidated = engine.UpdateGraph(next);
    EXPECT_TRUE(std::is_sorted(invalidated.begin(), invalidated.end()));
    EXPECT_EQ(engine.last_update().z_rows,
              static_cast<int>(invalidated.size()));
    // An edge flip must not force a whole-graph recompute on this sparse
    // graph — the point of the 2-hop incremental path.
    EXPECT_LT(engine.last_update().h_rows, g.num_nodes());

    ExpectBitIdentical(engine.Z(),
                       ForwardEngine::FullForward(engine.snapshot()));
    ExpectBitIdentical(
        engine.Z(),
        ForwardEngine::FullForward(WithGraph(engine.snapshot(), next)));
    current = next;
  }
}

TEST(ForwardEngineTest, FeatureMutationsRecomputeExactly) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("VGAE", g);
  ForwardEngine engine(model->ExportSnapshot());

  AttributedGraph next = g;
  Rng rng(13);
  AddFeatureNoise(&next, 0.1, rng);  // Dirties every feature row.
  const std::vector<int> invalidated = engine.UpdateGraph(next);
  EXPECT_EQ(static_cast<int>(invalidated.size()), g.num_nodes());
  EXPECT_EQ(engine.last_update().xw0_rows, g.num_nodes());
  ExpectBitIdentical(engine.Z(),
                     ForwardEngine::FullForward(WithGraph(engine.snapshot(),
                                                          next)));
}

TEST(ServeEngineTest, AnswersMatchTheReferenceForward) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("DGAE", g);
  const ModelSnapshot snapshot = model->ExportSnapshot();
  const Matrix z = ForwardEngine::FullForward(snapshot);
  const Matrix p = SoftAssignRows(snapshot, z);

  ServeOptions options;
  options.num_workers = 2;
  options.cache_capacity = g.num_nodes();
  ServeEngine engine(model->ExportSnapshot(), options);
  ASSERT_TRUE(engine.has_head());

  for (int node = 0; node < engine.num_nodes(); ++node) {
    const serve::QueryResult r = engine.QueryBlocking(node);
    EXPECT_EQ(r.node, node);
    ExpectRowEq(r.embedding, z, node);
    ExpectRowEq(r.assignment, p, node);
  }
  // Every node is now cached: the second pass is all hits, same bits.
  for (int node = 0; node < engine.num_nodes(); ++node) {
    const serve::QueryResult r = engine.QueryBlocking(node);
    EXPECT_TRUE(r.cache_hit) << "node " << node;
    ExpectRowEq(r.embedding, z, node);
  }
  const serve::ServeStats stats = engine.stats();
  EXPECT_EQ(stats.queries, 2 * g.num_nodes());
  EXPECT_EQ(stats.cache.hits, g.num_nodes());
  EXPECT_EQ(stats.cache.misses, g.num_nodes());
  EXPECT_EQ(stats.cache.evictions, 0);
}

TEST(ServeEngineTest, HeadlessSnapshotServesEmptyAssignments) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("GAE", g);
  ServeEngine engine(model->ExportSnapshot());
  EXPECT_FALSE(engine.has_head());
  const serve::QueryResult r = engine.QueryBlocking(5);
  EXPECT_FALSE(r.embedding.empty());
  EXPECT_TRUE(r.assignment.empty());
}

TEST(ServeEngineTest, DisabledCacheStillAnswersCorrectly) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("DGAE", g);
  const Matrix z = ForwardEngine::FullForward(model->ExportSnapshot());

  ServeOptions options;
  options.cache_capacity = 0;
  ServeEngine engine(model->ExportSnapshot(), options);
  for (int pass = 0; pass < 2; ++pass) {
    for (int node = 0; node < engine.num_nodes(); ++node) {
      const serve::QueryResult r = engine.QueryBlocking(node);
      EXPECT_FALSE(r.cache_hit);
      ExpectRowEq(r.embedding, z, node);
    }
  }
  EXPECT_EQ(engine.stats().cache.hits, 0);
}

// Cache coherence: after a mutation, cached answers for untouched nodes are
// served as hits and remain correct; answers inside the invalidated 2-hop
// neighborhood are recomputed — nothing stale survives.
TEST(ServeEngineTest, MutationInvalidatesExactlyTheAffectedEntries) {
  const AttributedGraph g = SparseGraph();
  const auto model = MakeModel("DGAE", g);

  ServeOptions options;
  options.cache_capacity = g.num_nodes();
  ServeEngine engine(model->ExportSnapshot(), options);
  for (int node = 0; node < engine.num_nodes(); ++node) {
    engine.QueryBlocking(node);  // Fill the cache.
  }

  AttributedGraph mutated = engine.CurrentGraph();
  Rng rng(19);
  AddRandomEdges(&mutated, 1, rng);
  DropRandomEdges(&mutated, 1, rng);
  const std::vector<int> invalidated = engine.MutateGraph(mutated);
  ASSERT_FALSE(invalidated.empty());
  ASSERT_LT(static_cast<int>(invalidated.size()), g.num_nodes())
      << "mutation invalidated everything; the precision claim is vacuous";
  const std::set<int> dropped(invalidated.begin(), invalidated.end());

  const ModelSnapshot reference =
      WithGraph(model->ExportSnapshot(), mutated);
  const Matrix z = ForwardEngine::FullForward(reference);
  const Matrix p = SoftAssignRows(reference, z);
  for (int node = 0; node < engine.num_nodes(); ++node) {
    const serve::QueryResult r = engine.QueryBlocking(node);
    EXPECT_EQ(r.cache_hit, dropped.count(node) == 0) << "node " << node;
    ExpectRowEq(r.embedding, z, node);
    ExpectRowEq(r.assignment, p, node);
  }
  const serve::CacheCounters cache = engine.stats().cache;
  EXPECT_EQ(cache.invalidations, static_cast<int64_t>(dropped.size()));
}

// Concurrency smoke for tsan: issuers hammer the engine while the main
// thread applies edge mutations. Afterwards every answer must equal the
// from-scratch forward of the final graph.
TEST(ServeEngineTest, ConcurrentQueriesAndMutationsStayCoherent) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("GMM-VGAE", g);

  ServeOptions options;
  options.num_workers = 3;
  options.max_batch = 8;
  options.cache_capacity = g.num_nodes() / 2;  // Force evictions too.
  ServeEngine engine(model->ExportSnapshot(), options);

  constexpr int kIssuers = 4;
  constexpr int kQueriesPerIssuer = 150;
  std::vector<std::thread> issuers;
  for (int t = 0; t < kIssuers; ++t) {
    issuers.emplace_back([&engine, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      for (int q = 0; q < kQueriesPerIssuer; ++q) {
        const serve::QueryResult r =
            engine.QueryBlocking(rng.UniformInt(engine.num_nodes()));
        ASSERT_FALSE(r.embedding.empty());
      }
    });
  }
  Rng mut_rng(7);
  for (int m = 0; m < 10; ++m) {
    AttributedGraph next = engine.CurrentGraph();
    AddRandomEdges(&next, 2, mut_rng);
    DropRandomEdges(&next, 1, mut_rng);
    engine.MutateGraph(next);
  }
  for (std::thread& t : issuers) t.join();

  const ModelSnapshot reference =
      WithGraph(model->ExportSnapshot(), engine.CurrentGraph());
  const Matrix z = ForwardEngine::FullForward(reference);
  const Matrix p = SoftAssignRows(reference, z);
  for (int node = 0; node < engine.num_nodes(); ++node) {
    const serve::QueryResult r = engine.QueryBlocking(node);
    ExpectRowEq(r.embedding, z, node);
    ExpectRowEq(r.assignment, p, node);
  }
  EXPECT_EQ(engine.stats().queries,
            kIssuers * kQueriesPerIssuer + g.num_nodes());
  EXPECT_GE(engine.stats().batches, 1);
}

// A node id outside [0, num_nodes) is answered at once with an empty
// embedding in every build type; it reaches neither the cache nor the
// forward engine, so the stats and cache counters do not move.
TEST(ServeEngineTest, OutOfRangeNodeResolvesEmptyWithoutTouchingTheEngine) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("DGAE", g);
  ServeEngine engine(model->ExportSnapshot());
  for (const int node : {-1, engine.num_nodes()}) {
    std::future<QueryResult> pending = engine.Query(node);
    ASSERT_EQ(pending.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "node " << node;
    const QueryResult r = pending.get();
    EXPECT_EQ(r.node, node);
    EXPECT_TRUE(r.embedding.empty()) << "node " << node;
    EXPECT_TRUE(r.assignment.empty()) << "node " << node;
    EXPECT_FALSE(r.cache_hit);
  }
  const serve::ServeStats stats = engine.stats();
  EXPECT_EQ(stats.queries, 0);
  EXPECT_EQ(stats.batches, 0);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 0);
  // The engine still answers valid ids afterwards.
  EXPECT_FALSE(engine.QueryBlocking(engine.num_nodes() - 1).embedding.empty());
}

TEST(ServeEngineTest, DestructorDrainsPendingQueries) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("GAE", g);
  std::vector<std::future<serve::QueryResult>> pending;
  {
    ServeOptions options;
    options.num_workers = 1;
    ServeEngine engine(model->ExportSnapshot(), options);
    pending.reserve(20);
    for (int i = 0; i < 20; ++i) pending.push_back(engine.Query(i));
  }
  // The engine shut down only after answering everything it accepted.
  for (auto& f : pending) {
    EXPECT_FALSE(f.get().embedding.empty());
  }
}

TEST(ServeEngineTest, WorkerPoolTraceWritesStayConsistent) {
  // Serve workers and issuer threads all write spans into the global
  // TraceCollector concurrently; the collector must come out consistent
  // (every span closed, parents on the same thread, nothing torn). This
  // test is the tsan target for the obs/serve seam.
  obs::MetricsRegistry::Global().Reset();
  obs::TraceCollector::Global().Clear();
  obs::SetEnabled(true);
  obs::SetTraceEnabled(true);

  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("GAE", g);
  {
    ServeOptions options;
    options.num_workers = 4;
    options.max_batch = 8;
    ServeEngine engine(model->ExportSnapshot(), options);
    constexpr int kIssuers = 3;
    constexpr int kQueriesPerIssuer = 120;
    std::vector<std::thread> issuers;
    for (int t = 0; t < kIssuers; ++t) {
      issuers.emplace_back([&engine, t] {
        Rng rng(500 + static_cast<uint64_t>(t));
        for (int q = 0; q < kQueriesPerIssuer; ++q) {
          const serve::QueryResult r =
              engine.QueryBlocking(rng.UniformInt(engine.num_nodes()));
          ASSERT_FALSE(r.embedding.empty());
        }
      });
    }
    for (std::thread& t : issuers) t.join();
  }  // Engine (and its worker spans) fully shut down before the checks.

  const std::vector<obs::TraceEvent> events =
      obs::TraceCollector::Global().Snapshot();
  EXPECT_FALSE(events.empty());
  bool saw_batch_span = false;
  for (const obs::TraceEvent& e : events) {
    EXPECT_GE(e.dur_us, 0) << e.name;  // Closed, never torn.
    if (e.parent >= 0) {
      ASSERT_LT(static_cast<size_t>(e.parent), events.size());
      EXPECT_EQ(events[static_cast<size_t>(e.parent)].tid, e.tid) << e.name;
    }
    if (e.name == "serve.batch") saw_batch_span = true;
  }
  EXPECT_TRUE(saw_batch_span);

  // The engine counters surfaced through the metrics registry.
  const auto* queries =
      obs::MetricsRegistry::Global().GetCounter("serve.queries");
  const auto* batches =
      obs::MetricsRegistry::Global().GetCounter("serve.batches");
  EXPECT_EQ(queries->value(), 3 * 120);
  EXPECT_GE(batches->value(), 1);

  obs::SetTraceEnabled(false);
  obs::SetEnabled(false);
  obs::MetricsRegistry::Global().Reset();
  obs::TraceCollector::Global().Clear();
}

}  // namespace
}  // namespace rgae
