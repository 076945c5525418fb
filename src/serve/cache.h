#ifndef RGAE_SERVE_CACHE_H_
#define RGAE_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <vector>

#include "src/util/sync.h"

namespace rgae {
namespace serve {

/// An embedding row (plus optional soft assignment) cached for one node.
struct CachedEntry {
  std::vector<double> embedding;
  std::vector<double> assignment;  // Empty for head-less snapshots.
};

/// Running totals of cache effectiveness, exported into the bench report
/// and mirrored as obs counters.
struct CacheCounters {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t invalidations = 0;
};

/// Bounded LRU cache of per-node serving results, keyed by node id.
///
/// Thread-safe: every operation takes the internal mutex, so concurrent
/// workers can probe and fill it without external locking. Coherence with
/// the graph, however, is the caller's job — `ServeEngine` performs inserts
/// and invalidations under its state mutex so a worker racing a graph
/// mutation can never re-insert a stale row (see DESIGN.md §8.4).
class EmbeddingCache {
 public:
  /// `capacity` <= 0 disables caching (every Get misses, Put is a no-op).
  explicit EmbeddingCache(int capacity) : capacity_(capacity) {}

  EmbeddingCache(const EmbeddingCache&) = delete;
  EmbeddingCache& operator=(const EmbeddingCache&) = delete;

  /// Looks up `node`, refreshing its LRU position. Returns true and copies
  /// the entry into `*out` on a hit.
  bool Get(int node, CachedEntry* out);

  /// Inserts or refreshes `node`, evicting the least-recently-used entry
  /// when over capacity.
  void Put(int node, CachedEntry entry);

  /// Drops the listed nodes (missing ids are ignored).
  void Invalidate(const std::vector<int>& nodes);

  int capacity() const { return capacity_; }
  int size() const;
  CacheCounters counters() const;

 private:
  struct Slot {
    int node = 0;
    CachedEntry entry;
  };

  const int capacity_;
  mutable Mutex mu_;
  // Most-recently-used at the front; map values point into the list.
  std::list<Slot> lru_ RGAE_GUARDED_BY(mu_);
  std::map<int, std::list<Slot>::iterator> index_ RGAE_GUARDED_BY(mu_);
  CacheCounters counters_ RGAE_GUARDED_BY(mu_);
};

}  // namespace serve
}  // namespace rgae

#endif  // RGAE_SERVE_CACHE_H_
