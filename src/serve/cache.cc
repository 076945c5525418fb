#include "src/serve/cache.h"

#include <utility>

#include "src/obs/trace.h"

namespace rgae {
namespace serve {

bool EmbeddingCache::Get(int node, CachedEntry* out) {
  MutexLock lock(mu_);
  auto it = index_.find(node);
  if (it == index_.end()) {
    ++counters_.misses;
    RGAE_COUNT("serve.cache_misses");
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->entry;
  ++counters_.hits;
  RGAE_COUNT("serve.cache_hits");
  return true;
}

void EmbeddingCache::Put(int node, CachedEntry entry) {
  if (capacity_ <= 0) return;
  MutexLock lock(mu_);
  auto it = index_.find(node);
  if (it != index_.end()) {
    it->second->entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Slot{node, std::move(entry)});
  index_[node] = lru_.begin();
  while (static_cast<int>(lru_.size()) > capacity_) {
    index_.erase(lru_.back().node);
    lru_.pop_back();
    ++counters_.evictions;
    RGAE_COUNT("serve.cache_evictions");
  }
}

void EmbeddingCache::Invalidate(const std::vector<int>& nodes) {
  MutexLock lock(mu_);
  for (int node : nodes) {
    auto it = index_.find(node);
    if (it == index_.end()) continue;
    lru_.erase(it->second);
    index_.erase(it);
    ++counters_.invalidations;
    RGAE_COUNT("serve.cache_invalidations");
  }
}

int EmbeddingCache::size() const {
  MutexLock lock(mu_);
  return static_cast<int>(lru_.size());
}

CacheCounters EmbeddingCache::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

}  // namespace serve
}  // namespace rgae
