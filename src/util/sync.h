#ifndef RGAE_UTIL_SYNC_H_
#define RGAE_UTIL_SYNC_H_

#include <condition_variable>
#include <mutex>

/// Annotated synchronization primitives (DESIGN.md §7).
///
/// Every mutex in `src/` goes through `rgae::Mutex` / `rgae::MutexLock` /
/// `rgae::CondVar` instead of the std types (lint rule R10), so every lock
/// carries Clang thread-safety capability attributes: `RGAE_GUARDED_BY(mu_)`
/// on a member and `RGAE_REQUIRES(mu_)` on a helper are *checked* by
/// `-Wthread-safety` (the `tsa` CMake preset builds with
/// `-Werror=thread-safety-analysis`): touching guarded state without the
/// lock fails the build, not the code review. On non-Clang compilers every
/// attribute macro expands to nothing.
///
/// Lock-order inversions (potential deadlocks), which per-capability static
/// analysis cannot express, are left to the thread sanitizer: its deadlock
/// detector sees every acquisition through these wrappers, and CI runs the
/// concurrency suite in a `-fsanitize=thread` build.

// ---------------------------------------------------------------------------
// Clang thread-safety attribute macros. See
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html — the macro layer
// follows the reference mutex.h from that document, RGAE_-prefixed.
// ---------------------------------------------------------------------------
#if defined(__clang__) && defined(__has_attribute)
#define RGAE_TSA_HAS_ATTRIBUTE__(x) __has_attribute(x)
#else
#define RGAE_TSA_HAS_ATTRIBUTE__(x) 0
#endif

#if RGAE_TSA_HAS_ATTRIBUTE__(capability)
#define RGAE_TSA_ATTRIBUTE__(x) __attribute__((x))
#else
#define RGAE_TSA_ATTRIBUTE__(x)  // No-op outside Clang.
#endif

/// Marks a type as a lockable capability ("mutex" in diagnostics).
#define RGAE_CAPABILITY(x) RGAE_TSA_ATTRIBUTE__(capability(x))
/// Marks an RAII type that acquires in its constructor / releases in its
/// destructor.
#define RGAE_SCOPED_CAPABILITY RGAE_TSA_ATTRIBUTE__(scoped_lockable)
/// Data member readable/writable only with `x` held.
#define RGAE_GUARDED_BY(x) RGAE_TSA_ATTRIBUTE__(guarded_by(x))
/// Pointer member whose pointee requires `x` held.
#define RGAE_PT_GUARDED_BY(x) RGAE_TSA_ATTRIBUTE__(pt_guarded_by(x))
/// Function requires the listed capabilities held on entry (and exit).
#define RGAE_REQUIRES(...) \
  RGAE_TSA_ATTRIBUTE__(requires_capability(__VA_ARGS__))
#define RGAE_REQUIRES_SHARED(...) \
  RGAE_TSA_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))
/// Function acquires the capability (held on exit, not on entry).
#define RGAE_ACQUIRE(...) \
  RGAE_TSA_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
/// Function releases the capability (held on entry, not on exit).
#define RGAE_RELEASE(...) \
  RGAE_TSA_ATTRIBUTE__(release_capability(__VA_ARGS__))
/// Function must NOT be called with the listed capabilities held
/// (deadlock guard for self-locking methods).
#define RGAE_EXCLUDES(...) \
  RGAE_TSA_ATTRIBUTE__(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the named capability.
#define RGAE_RETURN_CAPABILITY(x) RGAE_TSA_ATTRIBUTE__(lock_returned(x))
/// Escape hatch: the function's locking is intentionally invisible to the
/// analysis. Use sparingly, with a comment saying why.
#define RGAE_NO_THREAD_SAFETY_ANALYSIS \
  RGAE_TSA_ATTRIBUTE__(no_thread_safety_analysis)

namespace rgae {

/// Annotated exclusive mutex. Wraps `std::mutex` and carries the Clang
/// `capability` attribute for static analysis. Non-copyable, non-movable.
class RGAE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() RGAE_ACQUIRE() { mu_.lock(); }
  void Unlock() RGAE_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;

  std::mutex mu_;
};

/// RAII scope lock over `Mutex` (the project's `std::lock_guard`).
class RGAE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) RGAE_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RGAE_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over `rgae::Mutex`. `Wait` takes the mutex (which the
/// caller must hold — `RGAE_REQUIRES`) plus a predicate; the predicate runs
/// with the mutex held, so annotate its lambda with `RGAE_REQUIRES(mu)` to
/// keep guarded reads inside it checkable:
///
///   MutexLock lock(queue_mu_);
///   queue_cv_.Wait(queue_mu_, [this]() RGAE_REQUIRES(queue_mu_) {
///     return stop_ || !queue_.empty();
///   });
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until `pred()` holds. Atomically releases `mu` while blocked.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) RGAE_REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait, then dissolve the
    // unique_lock without unlocking: ownership stays with the caller's
    // MutexLock scope.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native, std::move(pred));
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace rgae

#endif  // RGAE_UTIL_SYNC_H_
