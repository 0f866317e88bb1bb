#include "ros/exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace re = ros::exec;

namespace {

/// Set ROS_THREADS for one scope and restore the previous value.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* value) {
    const char* old = std::getenv("ROS_THREADS");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv("ROS_THREADS", value, 1);
    } else {
      ::unsetenv("ROS_THREADS");
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv("ROS_THREADS", old_.c_str(), 1);
    } else {
      ::unsetenv("ROS_THREADS");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

}  // namespace

TEST(ThreadPool, EmptyRangeRunsNothing) {
  re::ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, 0, [&](std::size_t) { calls.fetch_add(1); });
  pool.parallel_for(7, 7, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  // Guided claims shrink as the range drains; every (range, pool,
  // grain) shape must still cover each index once and join only after
  // the last iteration.
  for (const std::size_t executors : {2u, 3u, 8u}) {
    re::ThreadPool pool(executors);
    for (const std::size_t n : {1u, 2u, 3u, 7u, 64u, 1000u}) {
      for (const std::size_t grain : {1u, 4u, 64u}) {
        std::vector<std::atomic<int>> hits(n);
        pool.parallel_for(5, 5 + n,
                          [&](std::size_t i) { hits[i - 5].fetch_add(1); },
                          grain);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1)
              << "index " << i << " of " << n << ", " << executors
              << " executors, grain " << grain;
        }
      }
    }
  }
}

TEST(ThreadPool, RespectsNonZeroBegin) {
  re::ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(10, 20, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 145u);  // 10 + 11 + ... + 19
}

TEST(ThreadPool, SerialPoolRunsInIndexOrder) {
  re::ThreadPool pool(1);
  std::vector<std::size_t> order;  // serial path: no synchronization needed
  pool.parallel_for(0, 64, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ParallelMapPreservesOrder) {
  re::ThreadPool pool(4);
  const auto out = pool.parallel_map<double>(
      100, [](std::size_t i) { return static_cast<double>(i) * 2.0; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * 2.0);
  }
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  re::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, PoolUsableAfterException) {
  re::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   0, 16, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> calls{0};
  pool.parallel_for(0, 16, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 16);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  re::ThreadPool pool(4);
  std::atomic<int> inner_calls{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    // The nested region must not deadlock waiting for busy workers.
    pool.parallel_for(0, 8, [&](std::size_t) { inner_calls.fetch_add(1); });
  });
  EXPECT_EQ(inner_calls.load(), 32);
}

TEST(ThreadPool, ReusableAcrossManyRegions) {
  re::ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(0, 20, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 1000u);
}

TEST(ThreadPool, GrainBoundsChunking) {
  re::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(10);
  // grain larger than the range still covers everything once.
  pool.parallel_for(0, 10, [&](std::size_t i) { hits[i].fetch_add(1); },
                    /*grain=*/64);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, GlobalPoolResizes) {
  re::ThreadPool::set_global_threads(2);
  EXPECT_EQ(re::ThreadPool::global().threads(), 2u);
  std::atomic<int> calls{0};
  re::parallel_for(0, 10, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 10);
  re::ThreadPool::set_global_threads(re::default_threads());
}

TEST(ThreadPool, FreeFunctionsUseGlobalPool) {
  const auto out =
      re::parallel_map<int>(8, [](std::size_t i) { return static_cast<int>(i); });
  ASSERT_EQ(out.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST(DefaultThreads, ParsesRosThreadsEnv) {
  {
    ScopedEnv env("3");
    EXPECT_EQ(re::default_threads(), 3u);
  }
  {
    ScopedEnv env("1");
    EXPECT_EQ(re::default_threads(), 1u);
  }
  {
    // Clamped to something sane, never astronomically large.
    ScopedEnv env("99999");
    EXPECT_LE(re::default_threads(), 512u);
    EXPECT_GE(re::default_threads(), 1u);
  }
}

TEST(DefaultThreads, FallsBackToHardwareConcurrency) {
  for (const char* bad :
       {"0", "", "abc", "-4", static_cast<const char*>(nullptr)}) {
    ScopedEnv env(bad);
    EXPECT_GE(re::default_threads(), 1u);
  }
}
