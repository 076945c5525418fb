#ifndef RGAE_OBS_METRICS_H_
#define RGAE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "src/obs/json.h"
#include "src/util/sync.h"

namespace rgae {
namespace obs {

/// Process-wide observability master switch. All instrumented hot paths
/// (SpMM, dense matmul, tape dispatch, Ξ/Υ, checkpointing, ...) guard on
/// `Enabled()` — one relaxed atomic-bool load — so a disabled build path
/// costs a single well-predicted branch per call.
///
/// Initial state comes from the `RGAE_OBS_ENABLED` environment variable:
/// unset, "0" or "false" → off, anything else → on. `RGAE_OBS_ENABLED=0`
/// additionally *forces* instrumentation off: `SetEnabled(true)` becomes a
/// no-op so perf baselines cannot be polluted by a stray `--json` flag.
bool Enabled();
void SetEnabled(bool enabled);

/// Monotonically increasing counter. Pointers returned by the registry are
/// stable for the process lifetime; cache them in a function-local static.
class Counter {
 public:
  void Inc(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins scalar.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Exponential-bucket histogram (base 2, bucket i has upper bound 2^i with
/// a final overflow bucket), tracking count / sum / min / max alongside the
/// bucket counts. Designed for microsecond wall times but unit-agnostic.
class Histogram {
 public:
  static constexpr int kNumBuckets = 32;  // le 1, 2, 4, ..., 2^30, +inf.

  void Observe(double v);

  int64_t count() const;
  double sum() const;
  double min() const;  // 0 when empty.
  double max() const;  // 0 when empty.
  double mean() const;
  int64_t bucket_count(int i) const;
  /// Upper bound of bucket `i`; the last bucket returns +inf.
  static double BucketUpperBound(int i);
  /// Index of the bucket `v` lands in.
  static int BucketIndex(double v);

  void Reset();

  /// {"count":…, "sum":…, "min":…, "max":…, "mean":…,
  ///  "buckets":[{"le":2,"count":…}, …, {"le":null,"count":…}]}
  /// (only non-empty buckets are emitted).
  JsonValue ToJson() const;

 private:
  mutable Mutex mu_;
  int64_t count_ RGAE_GUARDED_BY(mu_) = 0;
  double sum_ RGAE_GUARDED_BY(mu_) = 0.0;
  double min_ RGAE_GUARDED_BY(mu_) = 0.0;
  double max_ RGAE_GUARDED_BY(mu_) = 0.0;
  std::array<int64_t, kNumBuckets> buckets_ RGAE_GUARDED_BY(mu_){};
};

/// Thread-safe global registry of named metrics. Metric objects are
/// created on first lookup and never destroyed or moved, so hot paths can
/// resolve a name once and keep the pointer. `Reset` zeroes every metric in
/// place (pointers stay valid) — used by tests and bench sessions to scope
/// a measurement window.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  void Reset();

  /// {"counters":{name:value,…}, "gauges":{…}, "histograms":{name:{…},…}},
  /// names sorted for deterministic output.
  JsonValue ToJson() const;

 private:
  MetricsRegistry() = default;

  mutable Mutex mu_;
  // Deques give pointer stability; the maps only resolve names to slots.
  // Metric objects handed out are internally synchronized (atomics or the
  // Histogram mutex), so callers never need mu_.
  std::deque<Counter> counters_ RGAE_GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ RGAE_GUARDED_BY(mu_);
  std::deque<Histogram> histograms_ RGAE_GUARDED_BY(mu_);
  std::map<std::string, Counter*> counter_names_ RGAE_GUARDED_BY(mu_);
  std::map<std::string, Gauge*> gauge_names_ RGAE_GUARDED_BY(mu_);
  std::map<std::string, Histogram*> histogram_names_ RGAE_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace rgae

#endif  // RGAE_OBS_METRICS_H_
