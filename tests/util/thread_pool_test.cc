#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "util/barrier.h"

namespace xphi::util {
namespace {

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCount) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForCountSmallerThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunOnAllGivesDistinctIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(4);
  pool.run_on_all([&](std::size_t idx) { seen[idx].fetch_add(1); });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPool, RunWithCallerGivesTheCallerTheLastIndex) {
  ThreadPool pool(3);
  const auto caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> seen(4);
  std::atomic<int> on_caller{-1};
  for (int rep = 0; rep < 20; ++rep) {
    pool.run_with_caller([&](std::size_t part) {
      seen[part].fetch_add(1);
      if (std::this_thread::get_id() == caller)
        on_caller.store(static_cast<int>(part));
    });
  }
  for (const auto& s : seen) EXPECT_EQ(s.load(), 20);
  EXPECT_EQ(on_caller.load(), 3);
}

TEST(ThreadPool, DynamicSchedulingCoversAllIndicesExactlyOnce) {
  // Counts large enough to trigger the atomic-claiming path, with ragged
  // remainders against every grain.
  ThreadPool pool(4);
  for (std::size_t count : {11u, 100u, 1001u}) {
    for (std::size_t grain : {0u, 1u, 3u, 7u, 2000u}) {
      std::vector<std::atomic<int>> hits(count);
      pool.parallel_for(
          count, [&](std::size_t i) { hits[i].fetch_add(1); }, grain);
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "count=" << count << " grain=" << grain
                                     << " i=" << i;
    }
  }
}

TEST(ThreadPool, DynamicSchedulingBalancesSkewedWork) {
  // One pathological index costs ~count times the others. A static block
  // split serializes the whole block holding it; dynamic claiming lets the
  // remaining participants drain everything else meanwhile. We can't assert
  // wall-clock on a loaded machine, so assert the work all happens and that
  // many distinct claim batches were taken (i.e. scheduling was dynamic).
  ThreadPool pool(3);
  constexpr std::size_t kCount = 256;
  std::atomic<long> sum{0};
  pool.parallel_for(
      kCount,
      [&](std::size_t i) {
        if (i == 0) {
          volatile long burn = 0;
          for (int r = 0; r < 2000000; ++r) burn = burn + r;
        }
        sum.fetch_add(static_cast<long>(i) + 1);
      },
      /*grain=*/1);
  EXPECT_EQ(sum.load(), static_cast<long>(kCount * (kCount + 1) / 2));
}

TEST(ThreadPool, SingleIndexRunsInline) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForAcceptsMoveOnlyBody) {
  // The dispatch must not re-wrap the body in a std::function (which would
  // require a copyable callable and a per-dispatch allocation); a move-only
  // callable therefore must compile and run.
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  auto guard = std::make_unique<int>(7);
  auto body = [&calls, g = std::move(guard)](std::size_t) {
    calls.fetch_add(*g);
  };
  pool.parallel_for(64, body);
  EXPECT_EQ(calls.load(), 64 * 7);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  for (int round = 0; round < 10; ++round)
    pool.parallel_for(100, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
  EXPECT_EQ(sum.load(), 10 * (99 * 100 / 2));
}

// Far past the pool's spin window, so every worker (and a waiting caller)
// has parked on its futex by the time the sleep ends.
constexpr auto kPastSpinWindow = std::chrono::milliseconds(20);

TEST(ThreadPool, BackToBackSmallDispatchesKeepExactCounts) {
  // The LU panel's shape of traffic: many tiny dispatches with no gap, so
  // every handoff lands inside the spin window. Plain (non-atomic) counters:
  // each index is owned by one participant per dispatch, and the pool's
  // epoch/pending handoff must order consecutive dispatches.
  ThreadPool pool(3);
  constexpr std::size_t kDispatches = 100000;
  std::size_t hits[4] = {0, 0, 0, 0};
  for (std::size_t d = 0; d < kDispatches; ++d)
    pool.parallel_for(4, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(hits[i], kDispatches) << i;
}

TEST(ThreadPool, DispatchAfterWorkersParkedSeesEveryIndexOnce) {
  ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(kPastSpinWindow);
    std::vector<std::atomic<int>> hits(37);
    pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    std::this_thread::sleep_for(kPastSpinWindow);
    std::vector<std::atomic<int>> seen(pool.size());
    pool.run_on_all([&](std::size_t w) { seen[w].fetch_add(1); });
    for (std::size_t w = 0; w < seen.size(); ++w)
      ASSERT_EQ(seen[w].load(), 1) << "round " << round << " worker " << w;
  }
}

TEST(ThreadPool, CallerParkedPastSpinWindowWakesOnCompletion) {
  // One worker outlasts the spin window, so the caller parks on the pending
  // count and must be woken by the last worker's decrement.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.run_on_all([&](std::size_t w) {
    if (w == 0) std::this_thread::sleep_for(kPastSpinWindow);
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 2);
}

TEST(ThreadPool, DestroysWithParkedWorkers) {
  for (int round = 0; round < 3; ++round) {
    ThreadPool pool(3);
    std::this_thread::sleep_for(kPastSpinWindow);
  }
  SUCCEED();
}

TEST(ThreadPool, DestroysRightAfterConstructionOrDispatch) {
  // Workers still spinning (or not yet started) when the destructor
  // publishes the exit epoch must still see it.
  for (int round = 0; round < 200; ++round) {
    ThreadPool idle(2);
  }
  for (int round = 0; round < 200; ++round) {
    ThreadPool pool(3);
    std::atomic<int> calls{0};
    pool.parallel_for(8, [&](std::size_t) { calls.fetch_add(1); });
    ASSERT_EQ(calls.load(), 8);
  }
}

TEST(ThreadPool, AlternatesRunOnAllAndParallelFor) {
  ThreadPool pool(3);
  std::vector<int> per_worker(pool.size(), 0);
  std::size_t hits[5] = {0, 0, 0, 0, 0};
  constexpr int kRounds = 2000;
  for (int round = 0; round < kRounds; ++round) {
    pool.run_on_all([&](std::size_t w) { ++per_worker[w]; });
    pool.parallel_for(5, [&](std::size_t i) { ++hits[i]; });
  }
  for (std::size_t w = 0; w < per_worker.size(); ++w)
    EXPECT_EQ(per_worker[w], kRounds) << w;
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(hits[i], std::size_t{kRounds}) << i;
}

TEST(SpinBarrier, SynchronizesPhases) {
  constexpr std::size_t kThreads = 4;
  SpinBarrier barrier(kThreads);
  std::atomic<int> phase_counts[3] = {{0}, {0}, {0}};
  std::atomic<bool> violation{false};
  ThreadPool pool(kThreads);
  pool.run_on_all([&](std::size_t) {
    for (int p = 0; p < 3; ++p) {
      phase_counts[p].fetch_add(1);
      barrier.arrive_and_wait();
      // After the barrier everyone must have bumped this phase's counter.
      if (phase_counts[p].load() != static_cast<int>(kThreads))
        violation.store(true);
      barrier.arrive_and_wait();
    }
  });
  EXPECT_FALSE(violation.load());
}

TEST(SpinBarrier, SinglePartyNeverBlocks) {
  SpinBarrier barrier(1);
  for (int i = 0; i < 5; ++i) barrier.arrive_and_wait();
  SUCCEED();
}

}  // namespace
}  // namespace xphi::util
