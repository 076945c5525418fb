// The annotated sync wrappers (util/sync.h) under the thread sanitizer,
// the project's one lock-order check: TSan must see an inversion taken
// through rgae::Mutex just as it sees one on a bare pthread mutex.

#include "src/util/sync.h"

#include <cstdlib>
#include <thread>

#include <gtest/gtest.h>

namespace rgae {
namespace {

#if defined(__SANITIZE_THREAD__)
// Takes `first`, then `second`, on a thread of its own, and joins it.
void LockInOrder(Mutex& first, Mutex& second) {
  std::thread([&first, &second] {
    MutexLock outer(first);
    MutexLock inner(second);
  }).join();
}

// A->B on one thread, then B->A on the next. The threads never overlap,
// so nothing deadlocks: only the potential is there to report.
void InvertLockOrderThenExit() {
  Mutex a;
  Mutex b;
  LockInOrder(a, b);
  LockInOrder(b, a);
  std::exit(0);
}
#endif

TEST(SyncDeathTest, SanitizerReportsLockOrderInversion) {
#if defined(__SANITIZE_THREAD__)
  // Re-exec the binary for the child instead of forking a process that may
  // already run threads.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // TSan turns the clean exit into its exitcode (66) once it has reported.
  EXPECT_EXIT(InvertLockOrderThenExit(), ::testing::ExitedWithCode(66),
              "lock-order-inversion");
#else
  GTEST_SKIP() << "needs a -fsanitize=thread build";
#endif
}

}  // namespace
}  // namespace rgae
