#ifndef RGAE_KERNELS_PARALLEL_H_
#define RGAE_KERNELS_PARALLEL_H_

#include <functional>

namespace rgae {
namespace kernels {

/// A fixed fork-join pool for work that splits into independent tasks:
/// the fused decoder's tiles and a first-group refresh's two GMM fits
/// (DESIGN.md §9). It holds one worker thread for each CPU in the
/// process's affinity mask at first use, minus one: the calling thread is
/// always worker 0. There is no setting for its size.
///
/// Policy:
///  - Tasks are claimed in index order from one shared counter; which
///    thread runs which task varies from call to call, so a task must
///    write only outputs of its own (and per-worker scratch, which the
///    caller allocates). Results then do not depend on the worker count.
///  - Idle workers block on a condition variable, never spin, and the
///    caller blocks until every task has finished.
///  - A call made while another call is in flight, from another thread or
///    from inside a task, runs all its tasks inline on the calling thread
///    as worker 0, so nesting cannot deadlock.
///  - If a task throws, no further task is started and the first exception
///    is rethrown on the caller once the running tasks have finished.

/// The number of threads a ParallelFor call may run on: the worker ids a
/// task can see are in [0, ParallelWorkers()). Per-worker scratch is sized
/// by it.
int ParallelWorkers();

/// Runs fn(task, worker) once for every task in [0, tasks), on the calling
/// thread and the pool's workers, and returns when all have run (or, after
/// a throw, rethrows as the policy above says).
void ParallelFor(int tasks,
                 const std::function<void(int task, int worker)>& fn);

/// Test hook: limits ParallelFor to `workers` threads (clamped to the pool
/// size; <= 0 restores all of them). Product code never calls this. Must
/// not race a ParallelFor call or a ParallelWorkers() sizing.
void SetParallelWorkersForTesting(int workers);

}  // namespace kernels
}  // namespace rgae

#endif  // RGAE_KERNELS_PARALLEL_H_
