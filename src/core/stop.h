#ifndef RGAE_CORE_STOP_H_
#define RGAE_CORE_STOP_H_

namespace rgae {

/// Process-wide cooperative stop flag, set from the bench binaries'
/// SIGINT/SIGTERM handlers (async-signal-safe: a relaxed atomic store).
/// The trainer polls it at epoch boundaries, and the multi-trial loops poll
/// it between trials, so an interrupted bench run stops at the next
/// consistent point, journals nothing partial, and still flushes its
/// journal/metrics/trace sinks on the way out.
void RequestGlobalStop();
bool GlobalStopRequested();
/// Re-arms the flag (tests; a new run after a handled interruption).
void ClearGlobalStop();

}  // namespace rgae

#endif  // RGAE_CORE_STOP_H_
