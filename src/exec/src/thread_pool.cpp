#include "ros/exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>

#include "ros/obs/flight_recorder.hpp"
#include "ros/obs/log.hpp"
#include "ros/obs/metrics.hpp"

namespace ros::exec {

namespace {

/// Depth of pool-task nesting on this thread. Non-zero inside a chunk
/// body (worker or participating caller); nested parallel_for calls see
/// it and fall back to the serial path instead of deadlocking on the
/// pool they are already occupying.
thread_local int t_task_depth = 0;

}  // namespace

std::size_t default_threads() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const char* env = std::getenv("ROS_THREADS");
  if (env == nullptr || *env == '\0') return hw;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < 0) {
    ROS_LOG_WARN("exec", "ignoring unparsable ROS_THREADS",
                 ros::obs::kv("value", env));
    return hw;
  }
  if (v == 0) return hw;
  return std::min<std::size_t>(static_cast<std::size_t>(v), 512);
}

struct ThreadPool::Job {
  std::size_t end = 0;
  std::size_t grain = 1;   ///< smallest claim
  std::size_t split = 2;   ///< a claim takes ceil(left / split)
  const std::function<void(std::size_t)>* body = nullptr;

  std::atomic<std::size_t> next{0};     ///< next unclaimed index
  std::atomic<bool> failed{false};      ///< skip remaining chunks
  std::mutex mu;                        ///< guards pending + error
  std::condition_variable done_cv;
  std::size_t pending = 0;              ///< iterations not yet finished
  std::exception_ptr error;

  /// Guided claim: ceil(left / split) iterations, never fewer than
  /// `grain`, so claims shrink as the range drains and the last ones
  /// are small enough to even out the executors' tails. Returns false
  /// once the range is exhausted.
  bool claim(std::size_t& start, std::size_t& stop) {
    start = next.load(std::memory_order_relaxed);
    do {
      if (start >= end) return false;
      const std::size_t left = end - start;
      const std::size_t take = std::max(grain, (left + split - 1) / split);
      stop = start + std::min(left, take);
    } while (!next.compare_exchange_weak(start, stop,
                                         std::memory_order_relaxed));
    return true;
  }
};

ThreadPool::ThreadPool(std::size_t n_threads)
    : n_threads_(std::max<std::size_t>(1, n_threads)) {
  workers_.reserve(n_threads_ - 1);
  for (std::size_t i = 0; i + 1 < n_threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

namespace {
std::mutex g_global_mu;
std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(default_threads());
  return *slot;
}

void ThreadPool::set_global_threads(std::size_t n_threads) {
  std::lock_guard<std::mutex> lock(g_global_mu);
  auto& slot = global_slot();
  slot.reset();  // join the old workers before spawning the new pool
  slot = std::make_unique<ThreadPool>(n_threads);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stop_ set and nothing left to run
      job = jobs_.front();
      if (job->next.load(std::memory_order_relaxed) >= job->end) {
        // Exhausted: retire it and look again.
        jobs_.pop_front();
        continue;
      }
    }
    run_chunks(*job, /*is_worker=*/true);
  }
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.threads = n_threads_;
  s.busy = busy_.load(std::memory_order_relaxed);
  s.regions = regions_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queue_depth = jobs_.size();
  }
  return s;
}

void ThreadPool::run_chunks(Job& job, bool is_worker) {
  auto& reg = ros::obs::MetricsRegistry::global();
  ++t_task_depth;
  busy_.fetch_add(1, std::memory_order_relaxed);
  std::size_t executed = 0;
  std::size_t start = 0;
  std::size_t stop = 0;
  while (job.claim(start, stop)) {
    if (!job.failed.load(std::memory_order_acquire)) {
      try {
        for (std::size_t i = start; i < stop; ++i) (*job.body)(i);
      } catch (...) {
        job.failed.store(true, std::memory_order_release);
        std::lock_guard<std::mutex> lock(job.mu);
        if (!job.error) job.error = std::current_exception();
      }
    }
    ++executed;
    {
      std::lock_guard<std::mutex> lock(job.mu);
      job.pending -= stop - start;
      if (job.pending == 0) job.done_cv.notify_all();
    }
  }
  busy_.fetch_sub(1, std::memory_order_relaxed);
  --t_task_depth;
  if (executed > 0) {
    reg.counter(is_worker ? "exec.chunks.worker" : "exec.chunks.caller")
        .inc(executed);
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  auto& reg = ros::obs::MetricsRegistry::global();
  reg.counter("exec.parallel_for").inc();

  // Serial path: singleton pool, a single iteration, or a nested call
  // from inside a pool task. Runs inline in index order; exceptions
  // propagate directly.
  if (n_threads_ <= 1 || n == 1 || t_task_depth > 0) {
    reg.counter("exec.parallel_for.serial").inc();
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  reg.gauge("exec.pool.threads").set(static_cast<double>(n_threads_));

  auto job = std::make_shared<Job>();
  job->end = end;
  job->grain = std::max<std::size_t>(1, grain);
  job->split = 2 * n_threads_;
  job->body = &body;
  job->next.store(begin, std::memory_order_relaxed);
  job->pending = n;

  regions_.fetch_add(1, std::memory_order_relaxed);
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(job);
    depth = jobs_.size();
  }
  cv_.notify_all();
  reg.gauge("exec.pool.queue_depth").set(static_cast<double>(depth));
  // One unsampled event per region: should_sample() gates frames only.
  auto& fr = ros::obs::FlightRecorder::global();
  static const std::uint32_t qd_id = fr.intern("exec.pool.queue_depth");
  fr.record(ros::obs::FlightKind::queue_depth, qd_id, depth);

  run_chunks(*job, /*is_worker=*/false);

  // The caller saw the cursor run out; drop the job from the queue if
  // no worker retired it yet so idle workers stop inspecting it.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
      if (it->get() == job.get()) {
        jobs_.erase(it);
        break;
      }
    }
  }

  std::unique_lock<std::mutex> lock(job->mu);
  job->done_cv.wait(lock, [&] { return job->pending == 0; });
  if (job->error) std::rethrow_exception(job->error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  ThreadPool::global().parallel_for(begin, end, body, grain);
}

}  // namespace ros::exec
