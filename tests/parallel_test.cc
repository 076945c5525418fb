// The fork-join pool behind the fused decoder (kernels/parallel.h). This
// suite is in the concurrency binary, so CI also runs it under the thread
// sanitizer.

#include "src/kernels/parallel.h"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/csr.h"
#include "src/kernels/aligned.h"
#include "src/kernels/kernels.h"
#include "src/tensor/random.h"

namespace rgae {
namespace {

using kernels::AlignedVector;
using kernels::ParallelFor;
using kernels::ParallelWorkers;

/// One counter per task, bumped by every run of that task.
class RunCounts {
 public:
  explicit RunCounts(int tasks)
      : counts_(std::make_unique<std::atomic<int>[]>(
            static_cast<size_t>(tasks))),
        tasks_(tasks) {}

  void Bump(int task) { counts_[static_cast<size_t>(task)].fetch_add(1); }

  void ExpectEachOnce() const {
    for (int t = 0; t < tasks_; ++t) {
      ASSERT_EQ(counts_[static_cast<size_t>(t)].load(), 1) << "task " << t;
    }
  }

 private:
  std::unique_ptr<std::atomic<int>[]> counts_;
  int tasks_;
};

TEST(ParallelForTest, EveryTaskRunsExactlyOnce) {
  for (const int tasks : {0, 1, 2, ParallelWorkers(), 1000}) {
    SCOPED_TRACE(::testing::Message() << tasks << " tasks");
    RunCounts counts(tasks);
    ParallelFor(tasks, [&](int task, int) { counts.Bump(task); });
    counts.ExpectEachOnce();
  }
}

TEST(ParallelForTest, WorkerIdsStayBelowPoolSizeAndCallerIsWorkerZero) {
  const int tasks = 1000;
  std::vector<int> worker_of(tasks, -1);
  std::vector<std::thread::id> thread_of(tasks);
  ParallelFor(tasks, [&](int task, int worker) {
    worker_of[static_cast<size_t>(task)] = worker;
    thread_of[static_cast<size_t>(task)] = std::this_thread::get_id();
  });
  const std::thread::id caller = std::this_thread::get_id();
  for (int t = 0; t < tasks; ++t) {
    const int w = worker_of[static_cast<size_t>(t)];
    ASSERT_GE(w, 0) << "task " << t;
    ASSERT_LT(w, ParallelWorkers()) << "task " << t;
    ASSERT_EQ(w == 0, thread_of[static_cast<size_t>(t)] == caller)
        << "task " << t << " ran as worker " << w;
  }
}

TEST(ParallelForTest, ConcurrentCallersBothFinishCorrectly) {
  // Whichever caller finds the pool busy runs inline; both must see every
  // task of their own call run once.
  for (int round = 0; round < 20; ++round) {
    constexpr int kTasks = 500;
    std::vector<long> sum_a(kTasks), sum_b(kTasks);
    const auto call = [](std::vector<long>* out) {
      ParallelFor(kTasks, [out](int task, int) {
        long s = 0;
        for (int k = 0; k <= task; ++k) s += k;
        (*out)[static_cast<size_t>(task)] = s;
      });
    };
    std::thread a(call, &sum_a);
    std::thread b(call, &sum_b);
    a.join();
    b.join();
    for (int t = 0; t < kTasks; ++t) {
      const long want = static_cast<long>(t) * (t + 1) / 2;
      ASSERT_EQ(sum_a[static_cast<size_t>(t)], want) << "task " << t;
      ASSERT_EQ(sum_b[static_cast<size_t>(t)], want) << "task " << t;
    }
  }
}

TEST(ParallelForTest, NestedCallRunsInlineWithoutDeadlock) {
  constexpr int kOuter = 16, kInner = 8;
  RunCounts counts(kOuter * kInner);
  std::atomic<int> off_thread_inner{0};
  ParallelFor(kOuter, [&](int outer, int) {
    const std::thread::id self = std::this_thread::get_id();
    ParallelFor(kInner, [&, outer, self](int inner, int worker) {
      if (std::this_thread::get_id() != self || worker != 0) {
        off_thread_inner.fetch_add(1);
      }
      counts.Bump(outer * kInner + inner);
    });
  });
  counts.ExpectEachOnce();
  EXPECT_EQ(off_thread_inner.load(), 0);
}

TEST(ParallelForTest, ThrowingTaskReachesTheCallerAndThePoolRecovers) {
  for (const int bad : {0, 37, 999}) {
    EXPECT_THROW(ParallelFor(1000,
                             [bad](int task, int) {
                               if (task == bad) {
                                 throw std::runtime_error("task failed");
                               }
                             }),
                 std::runtime_error);
    RunCounts counts(1000);
    ParallelFor(1000, [&](int task, int) { counts.Bump(task); });
    counts.ExpectEachOnce();
  }
}

/// One forward + backward of the fused decoder.
struct DecoderRun {
  double loss = 0.0;
  AlignedVector sigma, cz;
};

DecoderRun RunDecoder(const AlignedVector& z, int n, int d,
                      const CsrMatrix& target) {
  DecoderRun out;
  out.sigma.assign(static_cast<size_t>(n) * (n + 1) / 2, 0.0);
  out.cz.assign(static_cast<size_t>(n) * d, 0.0);
  const int* rp = target.row_ptr().data();
  const int* ci = target.col_idx().data();
  const double* v = target.values().data();
  out.loss = kernels::InnerProductBce(z.data(), n, d, rp, ci, v, 2.5,
                                      out.sigma.data());
  kernels::InnerProductBceGrad(z.data(), n, d, rp, ci, v, 2.5, 1e-3,
                               out.sigma.data(), out.cz.data());
  return out;
}

TEST(ParallelForTest, ConcurrentDecoderCallsKeepSingleThreadBits) {
  // A symmetric ring plus chords and self-loops over three 64-node tiles.
  const int n = 150, d = 8;
  std::vector<Triplet> t;
  for (int i = 0; i < n; ++i) {
    t.push_back({i, (i + 1) % n, 1.0});
    t.push_back({(i + 1) % n, i, 1.0});
    t.push_back({i, (i * 7 + 3) % n, 1.0});
    t.push_back({(i * 7 + 3) % n, i, 1.0});
    if (i % 4 == 0) t.push_back({i, i, 1.0});
  }
  CsrMatrix target = CsrMatrix::FromTriplets(n, n, std::move(t));
  for (double& v : target.mutable_values()) v = 1.0;
  Rng rng(5);
  AlignedVector z(static_cast<size_t>(n) * d);
  for (double& v : z) v = 0.5 * rng.Gaussian();

  kernels::SetParallelWorkersForTesting(1);
  const DecoderRun want = RunDecoder(z, n, d, target);
  kernels::SetParallelWorkersForTesting(0);

  const auto check = [&]() {
    for (int round = 0; round < 10; ++round) {
      const DecoderRun got = RunDecoder(z, n, d, target);
      ASSERT_EQ(got.loss, want.loss);
      ASSERT_EQ(got.sigma, want.sigma);
      ASSERT_EQ(got.cz, want.cz);
    }
  };
  std::thread a(check);
  std::thread b(check);
  a.join();
  b.join();
}

}  // namespace
}  // namespace rgae
