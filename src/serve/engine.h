#ifndef RGAE_SERVE_ENGINE_H_
#define RGAE_SERVE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "src/graph/graph.h"
#include "src/serve/cache.h"
#include "src/serve/forward.h"
#include "src/serve/snapshot.h"
#include "src/util/sync.h"

namespace rgae {
namespace serve {

struct ServeOptions {
  /// Fixed worker-pool size; clamped to at least 1.
  int num_workers = 2;
  /// Maximum queries coalesced into one batch per worker tick.
  int max_batch = 32;
  /// LRU embedding-cache capacity in nodes; <= 0 disables caching.
  int cache_capacity = 1024;
};

/// Answer for one node query.
struct QueryResult {
  int node = 0;
  /// Empty when `node` was out of range.
  std::vector<double> embedding;
  /// Soft assignment under the snapshot head; empty for head-less models.
  std::vector<double> assignment;
  /// True when the answer came straight from the cache.
  bool cache_hit = false;
  /// Engine-side latency: submission to response, microseconds.
  double serve_us = 0.0;
};

/// Aggregate serving counters (monotone since construction).
struct ServeStats {
  int64_t queries = 0;
  int64_t batches = 0;
  CacheCounters cache;
};

/// In-process query server over a frozen snapshot.
///
/// Queries enqueue onto a shared queue; a fixed pool of workers drains it,
/// coalescing up to `max_batch` pending queries per tick into one
/// row-restricted forward batch. Results flow back through futures. An LRU
/// cache short-circuits repeat queries; `MutateGraph` applies an
/// incremental forward update and invalidates exactly the affected cache
/// entries. The queue is unbounded: callers bound their own outstanding
/// queries.
///
/// Locking protocol (DESIGN.md §8.4): `state_mu_` serializes every use of
/// the forward engine — batch computes, cache *inserts*, and mutations with
/// their invalidations — so a worker racing a mutation can never re-insert
/// a stale row. Cache probes take only the cache's internal mutex; a probe
/// concurrent with a mutation linearizes before it. `queue_mu_` guards only
/// the request queue and is never held while computing.
class ServeEngine {
 public:
  explicit ServeEngine(ModelSnapshot snapshot, const ServeOptions& options = {});
  /// Drains pending queries, then stops the workers.
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Enqueues a query for `node`'s embedding (and assignment when the
  /// snapshot has a head). An out-of-range `node` is answered at once with
  /// an empty embedding and never reaches the cache or the forward engine.
  std::future<QueryResult> Query(int node);
  /// Convenience: enqueue and wait.
  QueryResult QueryBlocking(int node);

  /// Applies a graph mutation: diffs `next` against the current serving
  /// graph, incrementally recomputes the affected 2-hop neighborhood, and
  /// invalidates the affected cache entries. Returns the invalidated node
  /// ids (sorted).
  std::vector<int> MutateGraph(const AttributedGraph& next);

  /// Copy of the current serving graph (mutation base for callers).
  AttributedGraph CurrentGraph() const;

  ServeStats stats() const;
  int num_nodes() const { return num_nodes_; }
  bool has_head() const { return has_head_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    int node = 0;
    Clock::time_point submitted;
    std::promise<QueryResult> promise;
  };

  void WorkerLoop();
  void ProcessBatch(std::vector<Request>* batch);

  const ServeOptions options_;
  const int num_nodes_;
  const bool has_head_;

  // Guards forward_ and the serving graph; cache inserts and invalidations
  // also happen under it (coherence, see class comment). Never held while
  // queue_mu_ is taken (workers drop queue_mu_ before computing), so the
  // two are never nested.
  mutable Mutex state_mu_;
  ForwardEngine forward_ RGAE_GUARDED_BY(state_mu_);
  // Internally synchronized; inserts/invalidations additionally run under
  // state_mu_ for graph coherence (probes do not).
  EmbeddingCache cache_;

  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<Request> queue_ RGAE_GUARDED_BY(queue_mu_);
  bool stop_ RGAE_GUARDED_BY(queue_mu_) = false;

  std::atomic<int64_t> queries_{0};
  std::atomic<int64_t> batches_{0};

  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace rgae

#endif  // RGAE_SERVE_ENGINE_H_
