// Deterministic fork-join execution (ros::exec).
//
// A reusable worker pool with `parallel_for` / `parallel_map` primitives
// sized by the ROS_THREADS environment variable (default:
// hardware_concurrency; 1 = exact serial fallback — the loop body runs
// inline, in index order, on the calling thread). The hot paths built on
// top of it (the Interrogator frame loop, DE-GA generation evaluation,
// beam-shaping objectives) are deterministic *by construction*: every
// loop iteration owns its output slot and, where randomness is involved,
// derives its own counter-based RNG stream (see
// ros::common::derive_stream_seed), so serial and parallel runs produce
// bit-identical results.
//
// Scheduling: workers and the calling thread claim contiguous chunks of
// [begin, end) from a shared atomic cursor (the caller always
// participates, so a pool of N executors uses N-1 background workers).
// Claims are guided: each takes ceil(left / (2N)) of the iterations
// still unclaimed, never fewer than `grain`, so early claims are large
// and the last ones small enough that no executor idles through
// another's long tail. The join waits for the finished-iteration count
// to reach the range size. Nested parallel_for calls from inside a pool
// task run serially inline — simple, deadlock-free, and still correct.
// The first exception thrown by any chunk is captured and rethrown on
// the calling thread after the join.
//
// Observability (via ros::obs::MetricsRegistry::global()):
//   exec.pool.threads        gauge    executor count of the global pool
//   exec.pool.queue_depth    gauge    jobs queued when a region starts
//   exec.parallel_for        counter  fork-join regions entered
//   exec.parallel_for.serial counter  regions that ran the serial path
//   exec.chunks.worker       counter  chunks claimed by pool workers
//   exec.chunks.caller       counter  chunks claimed by the caller
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ros::exec {

/// Point-in-time pool introspection (see ThreadPool::stats()).
struct PoolStats {
  std::size_t threads = 1;     ///< executor count (workers + caller)
  std::size_t busy = 0;        ///< executors currently running chunks
  std::size_t queue_depth = 0; ///< jobs parked in the pool's deque
  std::uint64_t regions = 0;   ///< parallel_for regions dispatched
};

/// Executor count requested by the environment: ROS_THREADS when set to
/// a positive integer, otherwise std::thread::hardware_concurrency()
/// (also the fallback for ROS_THREADS=0, empty, or unparsable). Always
/// >= 1; clamped to 512.
std::size_t default_threads();

class ThreadPool {
 public:
  /// A pool of `n_threads` executors: `n_threads - 1` background
  /// workers plus the thread that calls parallel_for. `n_threads <= 1`
  /// spawns nothing and every parallel_for runs serially inline.
  explicit ThreadPool(std::size_t n_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Executor count (workers + caller), >= 1.
  std::size_t threads() const { return n_threads_; }

  /// Relaxed-read snapshot of pool activity: busy executors, parked
  /// jobs, and how many parallel regions (non-serial parallel_for
  /// calls) this pool has dispatched. Values may be mid-update — meant
  /// for gauges and diagnostics, not for synchronization.
  PoolStats stats() const;

  /// Process-wide pool, created on first use with default_threads().
  static ThreadPool& global();

  /// Replace the global pool (tests, scaling benches). Must not be
  /// called while any thread is inside the global pool's parallel_for;
  /// references previously returned by global() are invalidated.
  static void set_global_threads(std::size_t n_threads);

  /// Run body(i) for every i in [begin, end). Blocks until all
  /// iterations finish. Iterations may run concurrently and in any
  /// order across chunks; within a chunk they run in index order. The
  /// serial path (pool size 1, single iteration, or a nested call from
  /// inside a pool task) runs strictly in index order on the calling
  /// thread. The first exception thrown by any iteration is rethrown
  /// here after all in-flight chunks settle; remaining chunks are
  /// skipped. `grain` is the minimum iterations per chunk (the last
  /// chunk may be shorter).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    std::size_t grain = 1);

  /// out[i] = fn(i) for i in [0, n). T must be default-constructible
  /// and, with a pool larger than 1, fn must be safe to call
  /// concurrently. Result order is always [fn(0), fn(1), ... fn(n-1)].
  template <typename T, typename Fn>
  std::vector<T> parallel_map(std::size_t n, Fn&& fn) {
    std::vector<T> out(n);
    parallel_for(0, n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  struct Job;

  void worker_loop();
  void run_chunks(Job& job, bool is_worker);

  std::size_t n_threads_ = 1;
  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool stop_ = false;
  std::atomic<std::size_t> busy_{0};
  std::atomic<std::uint64_t> regions_{0};
};

/// parallel_for on the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

/// parallel_map on the global pool.
template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t n, Fn&& fn) {
  return ThreadPool::global().parallel_map<T>(n, std::forward<Fn>(fn));
}

}  // namespace ros::exec
