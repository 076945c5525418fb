#ifndef RGAE_OBS_TRACE_H_
#define RGAE_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/util/sync.h"

namespace rgae {
namespace obs {

/// Span recording switch, independent of the metrics switch: histograms are
/// cheap and bounded, but a full trace of every kernel call can grow large,
/// so spans are only captured when a trace sink was requested
/// (`--trace=…` in benches, or `SetTraceEnabled(true)` in tests). A span is
/// recorded only when `Enabled() && TraceEnabled()`.
bool TraceEnabled();
void SetTraceEnabled(bool enabled);

/// Monotonic microseconds since the first observability use in the process.
int64_t NowMicros();

/// One completed (or still-open) span. `parent` indexes the enclosing span
/// in the collector's event list (-1 for roots); `depth` is the nesting
/// level. `dur_us` is -1 while the span is open.
struct TraceEvent {
  std::string name;
  int64_t start_us = 0;
  int64_t dur_us = -1;
  int depth = 0;
  int parent = -1;
  uint64_t tid = 0;
};

/// Global trace-tree collector with Chrome `trace_event` JSON export.
/// Events are capped (`kMaxEvents`); past the cap new spans are counted in
/// `dropped()` instead of recorded, so a long training run cannot exhaust
/// memory. Thread nesting is tracked per thread via a thread-local stack.
class TraceCollector {
 public:
  static constexpr size_t kMaxEvents = 1u << 20;

  static TraceCollector& Global();

  /// Opens a span; returns its event index, or -1 when dropped (cap hit).
  int BeginSpan(const char* name);
  /// Closes the span opened as `index` (no-op for -1).
  void EndSpan(int index);

  std::vector<TraceEvent> Snapshot() const;
  size_t size() const;
  int64_t dropped() const;
  void Clear();

  /// Chrome `chrome://tracing` / Perfetto-compatible document:
  /// {"traceEvents":[{"name":…,"ph":"X","ts":…,"dur":…,"pid":0,"tid":…},…],
  ///  "displayTimeUnit":"ms"}. Open spans are exported with dur 0.
  JsonValue ChromeTraceJson() const;
  /// Serializes `ChromeTraceJson` to `path`. Returns false on I/O error.
  bool WriteChromeTrace(const std::string& path,
                        std::string* error = nullptr) const;

 private:
  TraceCollector() = default;

  mutable Mutex mu_;
  std::vector<TraceEvent> events_ RGAE_GUARDED_BY(mu_);
  int64_t dropped_ RGAE_GUARDED_BY(mu_) = 0;
};

/// RAII span: opens on construction, closes on destruction. Inactive (two
/// branch instructions total) when observability or tracing is off. When
/// `hist` is non-null the span duration in microseconds is also observed
/// into the histogram whenever `Enabled()` — even with tracing off — which
/// is how the per-kernel wall-time histograms are fed. When
/// `ProfileEnabled()` the span also opens a `Profiler` scope, building the
/// calling-context tree.
///
/// The destructor runs during exception unwinding too, so a span that
/// throws mid-scope still closes its trace event and profiler scope — and
/// it must never itself throw while another exception is in flight, so
/// every sink close is wrapped: a failing sink loses one observation, not
/// the process.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name, Histogram* hist = nullptr)
      : hist_(hist) {
    if (!Enabled()) return;
    start_us_ = NowMicros();
    if (TraceEnabled()) index_ = TraceCollector::Global().BeginSpan(name);
    if (ProfileEnabled()) scope_ = Profiler::Global().BeginScope(name);
  }
  ~ScopedTimer() noexcept {
    if (start_us_ < 0) return;
    // Monotonic guard: NowMicros is steady, but clamp anyway so a
    // zero-resolution tick (or any clock surprise) can never record a
    // negative duration into the histogram, trace, or profile.
    const int64_t elapsed = NowMicros() - start_us_;
    const int64_t dur_us = elapsed > 0 ? elapsed : 0;
    try {
      if (index_ >= 0) TraceCollector::Global().EndSpan(index_);
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
    try {
      if (scope_ != nullptr) Profiler::Global().EndScope(scope_, dur_us);
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
    try {
      if (hist_ != nullptr) hist_->Observe(static_cast<double>(dur_us));
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  int64_t start_us_ = -1;  // -1 = inactive.
  int index_ = -1;
  Profiler::Node* scope_ = nullptr;
};

#define RGAE_OBS_CONCAT_INNER_(a, b) a##b
#define RGAE_OBS_CONCAT_(a, b) RGAE_OBS_CONCAT_INNER_(a, b)

/// Opens a trace span for the rest of the enclosing scope.
#define RGAE_SPAN(name) \
  ::rgae::obs::ScopedTimer RGAE_OBS_CONCAT_(rgae_span_, __LINE__)(name)

/// Opens a span AND feeds the duration into the histogram `name ## ".us"`.
/// The histogram pointer is resolved once per call site.
#define RGAE_TIMED_KERNEL(name)                                              \
  static ::rgae::obs::Histogram* const RGAE_OBS_CONCAT_(rgae_hist_,          \
                                                        __LINE__) =          \
      ::rgae::obs::MetricsRegistry::Global().GetHistogram(                   \
          ::std::string(name) + ".us");                                      \
  ::rgae::obs::ScopedTimer RGAE_OBS_CONCAT_(rgae_kspan_, __LINE__)(          \
      name, RGAE_OBS_CONCAT_(rgae_hist_, __LINE__))

/// Increments the counter `name` (resolved once per call site) when
/// observability is enabled.
#define RGAE_COUNT(name)                                                \
  do {                                                                  \
    if (::rgae::obs::Enabled()) {                                       \
      static ::rgae::obs::Counter* const rgae_counter_ =                \
          ::rgae::obs::MetricsRegistry::Global().GetCounter(name);      \
      rgae_counter_->Inc();                                             \
    }                                                                   \
  } while (0)

}  // namespace obs
}  // namespace rgae

#endif  // RGAE_OBS_TRACE_H_
