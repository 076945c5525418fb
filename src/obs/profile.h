#ifndef RGAE_OBS_PROFILE_H_
#define RGAE_OBS_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/util/sync.h"

namespace rgae {
namespace obs {

/// Profiling switch, independent of the metrics and trace switches: the
/// calling-context tree costs one map lookup per span open, so it is only
/// built when a bench requested a `--json` report (or a test asked for it).
/// A scope is recorded only when `Enabled() && ProfileEnabled()`.
bool ProfileEnabled();
void SetProfileEnabled(bool enabled);

/// Aggregated view of one calling-context-tree node, produced by
/// `Profiler::Snapshot`. `exclusive_us` is inclusive time minus the
/// inclusive time of all children (clamped at zero: children overlapping
/// their parent across threads can otherwise over-subtract).
struct ProfileNode {
  std::string name;
  int64_t calls = 0;
  int64_t inclusive_us = 0;
  int64_t exclusive_us = 0;
  int64_t flops = 0;
  int64_t bytes = 0;
  std::vector<ProfileNode> children;  // Sorted by name.
};

/// Hierarchical self-profiler: aggregates `ScopedTimer` spans into a
/// calling-context tree keyed by (parent node, span name), with per-node
/// call counts, inclusive/exclusive wall time, and the FLOP/byte work
/// reported by `RGAE_KERNEL_WORK` annotations in the kernels. The same
/// kernel reached through different call paths gets one node per path —
/// attribution, not just totals (DESIGN.md §6.6).
///
/// Nesting is tracked with a per-thread stack of open nodes; each thread
/// grows its own subtree under the roots it opens. Node storage is
/// append-only and `Reset()` retires (never frees) the old tree, so node
/// pointers held by in-flight `ScopedTimer`s stay valid for the process
/// lifetime and the hot path never takes the structure mutex after a
/// (parent, name) pair has been interned.
class Profiler {
 public:
  struct Node;  // Opaque to callers; stable address for the process life.

  static Profiler& Global();

  /// Opens a scope named `name` under the calling thread's innermost open
  /// scope (a root when none is open). Returns null when profiling is off.
  Node* BeginScope(const char* name);
  /// Closes `node` (no-op for null), adding `dur_us` to its inclusive time
  /// and bumping its call count. Tolerates scopes abandoned by exceptions:
  /// the thread stack is popped through to the matching frame.
  void EndScope(Node* node, int64_t dur_us);

  /// Attributes `flops`/`bytes` of kernel work to the calling thread's
  /// innermost open scope, or to the "(unattributed)" root when no scope
  /// is open. No-op when profiling is off.
  void AddWork(int64_t flops, int64_t bytes);

  /// Retires the current tree and starts an empty one. In-flight scopes
  /// keep writing into the retired tree (harmless; it is never reported).
  void Reset();

  /// Copies the current tree (roots sorted by name).
  std::vector<ProfileNode> Snapshot() const;

  /// {"enabled":…, "nodes":[{name, calls, inclusive_us, exclusive_us,
  ///  flops, bytes, gflops, gbs, children:[…]}, …]} — the `profile` block
  /// of the rgae.bench.v1 document. `gflops`/`gbs` are achieved rates over
  /// inclusive time (0 when no work or no time was recorded).
  JsonValue ToJson() const;

 private:
  Profiler() = default;

  Node* Intern(Node* parent, const char* name);
  Node* UnattributedRoot();

  mutable Mutex mu_;
  std::vector<std::unique_ptr<Node>> nodes_ RGAE_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Node>> retired_ RGAE_GUARDED_BY(mu_);
  std::map<std::string, Node*> roots_ RGAE_GUARDED_BY(mu_);
  // Bumped by Reset(); thread-local scope stacks self-clear on mismatch.
  std::atomic<uint64_t> epoch_{1};
};

/// Reports the nominal arithmetic (`flops`) and memory traffic (`bytes`)
/// of one kernel invocation: feeds the `<name>.flops` / `<name>.bytes`
/// counters and the profiler's innermost open scope. The cost models are
/// closed-form per kernel (DESIGN.md §6.6) so tests can assert exact
/// counts; `flops`/`bytes` are evaluated only when observability is on.
#define RGAE_KERNEL_WORK(name, flops, bytes)                               \
  do {                                                                     \
    if (::rgae::obs::Enabled()) {                                          \
      static ::rgae::obs::Counter* const rgae_work_flops_ =                \
          ::rgae::obs::MetricsRegistry::Global().GetCounter(               \
              ::std::string(name) + ".flops");                             \
      static ::rgae::obs::Counter* const rgae_work_bytes_ =                \
          ::rgae::obs::MetricsRegistry::Global().GetCounter(               \
              ::std::string(name) + ".bytes");                             \
      const ::std::int64_t rgae_work_f_ = (flops);                         \
      const ::std::int64_t rgae_work_b_ = (bytes);                         \
      rgae_work_flops_->Inc(rgae_work_f_);                                 \
      rgae_work_bytes_->Inc(rgae_work_b_);                                 \
      ::rgae::obs::Profiler::Global().AddWork(rgae_work_f_, rgae_work_b_); \
    }                                                                      \
  } while (0)

}  // namespace obs
}  // namespace rgae

#endif  // RGAE_OBS_PROFILE_H_
