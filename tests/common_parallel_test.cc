#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace mlprov::common {
namespace {

Flags MakeFlags(std::vector<const char*> args) {
  args.insert(args.begin(), "binary");
  return Flags(static_cast<int>(args.size()),
               const_cast<char**>(args.data()));
}

/// Restores the global thread knob on scope exit so tests don't leak
/// their settings into each other.
struct ThreadGuard {
  ThreadGuard() : saved(GlobalThreads()) {}
  ~ThreadGuard() { SetGlobalThreads(saved); }
  int saved;
};

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  ThreadGuard guard;
  SetGlobalThreads(4);
  const size_t n = 10000;
  std::vector<std::atomic<int>> visits(n);
  ParallelFor(n, [&](size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, VisitsEveryIndexWithGrainOne) {
  ThreadGuard guard;
  SetGlobalThreads(4);
  const size_t n = 257;  // not a multiple of anything convenient
  std::vector<std::atomic<int>> visits(n);
  ParallelFor(
      n,
      [&](size_t i) { visits[i].fetch_add(1, std::memory_order_relaxed); },
      /*grain=*/1);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, VisitsEveryIndexWithOversizedGrain) {
  ThreadGuard guard;
  SetGlobalThreads(4);
  const size_t n = 100;
  std::atomic<int> total{0};
  ParallelFor(
      n, [&](size_t) { total.fetch_add(1, std::memory_order_relaxed); },
      /*grain=*/1000);
  EXPECT_EQ(total.load(), 100);
}

TEST(ParallelForTest, ZeroAndSingleElement) {
  ThreadGuard guard;
  SetGlobalThreads(4);
  int calls = 0;
  ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(1, [&](size_t i) {
    ++calls;
    EXPECT_EQ(i, 0u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, SingleThreadRunsInOrderOnCaller) {
  ThreadGuard guard;
  SetGlobalThreads(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  ParallelFor(100, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<size_t> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ParallelForTest, NestedLoopsRunInlineWithoutDeadlock) {
  ThreadGuard guard;
  SetGlobalThreads(4);
  const size_t outer = 16, inner = 64;
  std::atomic<int> total{0};
  ParallelFor(
      outer,
      [&](size_t) {
        ParallelFor(inner, [&](size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      },
      /*grain=*/1);
  EXPECT_EQ(total.load(), static_cast<int>(outer * inner));
}

TEST(ParallelForTest, PropagatesException) {
  ThreadGuard guard;
  SetGlobalThreads(4);
  EXPECT_THROW(
      ParallelFor(1000,
                  [&](size_t i) {
                    if (i == 333) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, PoolIsReusableAfterException) {
  ThreadGuard guard;
  SetGlobalThreads(4);
  try {
    ParallelFor(100, [](size_t) { throw std::runtime_error("boom"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> total{0};
  ParallelFor(100, [&](size_t) {
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 100);
}

TEST(ParallelMapTest, PreservesIndexOrder) {
  ThreadGuard guard;
  SetGlobalThreads(4);
  const std::vector<int> out =
      ParallelMap<int>(1000, [](size_t i) { return static_cast<int>(i) * 3; });
  ASSERT_EQ(out.size(), 1000u);
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(ThreadPoolTest, DirectUseAndReuseAcrossLoops) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> total{0};
    pool.ParallelFor(500, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(total.load(), 500);
  }
}

TEST(ThreadPoolTest, SingleThreadPoolSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<size_t> order;
  pool.ParallelFor(10, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order.size(), 10u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(GlobalThreadsTest, DefaultsToHardwareConcurrency) {
  ThreadGuard guard;
  EXPECT_GE(HardwareThreads(), 1);
}

TEST(GlobalThreadsTest, SetClampsToAtLeastOne) {
  ThreadGuard guard;
  SetGlobalThreads(0);
  EXPECT_EQ(GlobalThreads(), 1);
  SetGlobalThreads(-7);
  EXPECT_EQ(GlobalThreads(), 1);
  SetGlobalThreads(8);
  EXPECT_EQ(GlobalThreads(), 8);
}

TEST(ThreadsFromFlagsTest, AbsentDefaultsToHardware) {
  const Flags flags = MakeFlags({});
  const StatusOr<int> threads = ThreadsFromFlags(flags);
  ASSERT_TRUE(threads.ok());
  EXPECT_EQ(*threads, HardwareThreads());
}

TEST(ThreadsFromFlagsTest, AcceptsValidValue) {
  const Flags flags = MakeFlags({"--threads=6"});
  const StatusOr<int> threads = ThreadsFromFlags(flags);
  ASSERT_TRUE(threads.ok());
  EXPECT_EQ(*threads, 6);
}

TEST(ThreadsFromFlagsTest, RejectsZero) {
  const Flags flags = MakeFlags({"--threads=0"});
  const StatusOr<int> threads = ThreadsFromFlags(flags);
  ASSERT_FALSE(threads.ok());
  EXPECT_EQ(threads.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(threads.status().message().find("threads"), std::string::npos);
}

TEST(ThreadsFromFlagsTest, RejectsNegative) {
  const Flags flags = MakeFlags({"--threads=-2"});
  EXPECT_FALSE(ThreadsFromFlags(flags).ok());
}

TEST(ThreadsFromFlagsTest, RejectsNonNumeric) {
  const Flags flags = MakeFlags({"--threads=lots"});
  const StatusOr<int> threads = ThreadsFromFlags(flags);
  ASSERT_FALSE(threads.ok());
  EXPECT_NE(threads.status().message().find("lots"), std::string::npos);
}

TEST(ThreadsFromFlagsTest, RejectsTrailingJunk) {
  const Flags flags = MakeFlags({"--threads=4x"});
  EXPECT_FALSE(ThreadsFromFlags(flags).ok());
}

TEST(ThreadsFromFlagsTest, RejectsAbsurdlyLarge) {
  const Flags flags = MakeFlags({"--threads=100000"});
  EXPECT_FALSE(ThreadsFromFlags(flags).ok());
}

TEST(ThreadsFromFlagsTest, CustomFlagName) {
  const Flags flags = MakeFlags({"--workers=3"});
  const StatusOr<int> threads = ThreadsFromFlags(flags, "workers");
  ASSERT_TRUE(threads.ok());
  EXPECT_EQ(*threads, 3);
}

}  // namespace
}  // namespace mlprov::common
