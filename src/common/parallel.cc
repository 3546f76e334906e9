#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mlprov::common {
namespace {

// Upper bound on --threads / SetGlobalThreads: generous for any real
// machine while still catching "--threads=100000" typos.
constexpr int kMaxThreads = 1024;

std::atomic<int> g_threads{0};  // 0 = unset, resolves to HardwareThreads()

// True while this thread executes a ParallelFor body on behalf of a pool
// (workers and the participating caller). Nested loops then run inline,
// which both avoids deadlock and keeps per-index work on one thread.
thread_local bool t_in_parallel_region = false;

}  // namespace

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int GlobalThreads() {
  const int t = g_threads.load(std::memory_order_relaxed);
  return t > 0 ? t : HardwareThreads();
}

void SetGlobalThreads(int threads) {
  g_threads.store(std::clamp(threads, 1, kMaxThreads),
                  std::memory_order_relaxed);
}

StatusOr<int> ThreadsFromFlags(const Flags& flags, const std::string& name) {
  if (!flags.Has(name)) return HardwareThreads();
  const StatusOr<int64_t> parsed = flags.GetIntStrict(name, 0);
  if (!parsed.ok()) return parsed.status();
  if (*parsed < 1 || *parsed > kMaxThreads) {
    return Status::InvalidArgument(
        "--" + name + "=" + flags.GetString(name, "") +
        " is out of range; expected an integer in [1, " +
        std::to_string(kMaxThreads) + "]");
  }
  return static_cast<int>(*parsed);
}

struct ThreadPool::LoopState {
  size_t n = 0;
  size_t chunk = 1;
  const std::function<void(size_t)>* fn = nullptr;

  std::atomic<size_t> next{0};
  // Workers currently inside RunBatch for this loop. The participating
  // caller is not counted: it waits for this to hit zero after draining
  // its own share.
  std::atomic<int> active{0};
  std::atomic<uint64_t> busy_us{0};

  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr error;  // guarded by mu; first thrower wins
};

ThreadPool::ThreadPool(int num_threads) {
  const int total = std::clamp(num_threads, 1, kMaxThreads);
  workers_.reserve(static_cast<size_t>(total - 1));
  for (int i = 1; i < total; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunBatch(LoopState& state) {
  const bool was_nested = std::exchange(t_in_parallel_region, true);
  const obs::Stopwatch busy;
  MLPROV_SPAN(batch_span, "parallel.task");
  size_t chunks = 0;
  size_t items = 0;
  for (;;) {
    const size_t begin =
        state.next.fetch_add(state.chunk, std::memory_order_relaxed);
    if (begin >= state.n) break;
    const size_t end = std::min(state.n, begin + state.chunk);
    try {
      for (size_t i = begin; i < end; ++i) (*state.fn)(i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(state.mu);
        if (!state.error) state.error = std::current_exception();
      }
      // Park the cursor past the end so every thread stops claiming.
      state.next.store(state.n, std::memory_order_relaxed);
      break;
    }
    ++chunks;
    items += end - begin;
  }
  if (chunks > 0) {
    MLPROV_SPAN_ARG(batch_span, "chunks", static_cast<uint64_t>(chunks));
    MLPROV_SPAN_ARG(batch_span, "items", static_cast<uint64_t>(items));
    MLPROV_COUNTER_ADD("parallel.batches", chunks);
    MLPROV_COUNTER_ADD("parallel.items", items);
    state.busy_us.fetch_add(static_cast<uint64_t>(busy.Seconds() * 1e6),
                            std::memory_order_relaxed);
  }
  t_in_parallel_region = was_nested;
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_epoch = 0;
  for (;;) {
    std::shared_ptr<LoopState> state;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return stop_ || (epoch_ != seen_epoch && loop_ != nullptr);
      });
      if (stop_) return;
      seen_epoch = epoch_;
      state = loop_;
    }
    state->active.fetch_add(1, std::memory_order_acq_rel);
    RunBatch(*state);
    if (state->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Notify under the loop mutex so the caller's predicate check and
      // this wakeup cannot interleave into a lost notification.
      std::lock_guard<std::mutex> lock(state->mu);
      state->done_cv.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             size_t grain) {
  if (n == 0) return;
  if (workers_.empty() || n == 1 || t_in_parallel_region) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto state = std::make_shared<LoopState>();
  state->n = n;
  state->chunk =
      grain > 0
          ? grain
          : std::max<size_t>(
                1, n / (static_cast<size_t>(num_threads()) * 8));
  state->fn = &fn;

  const obs::Stopwatch wall;
  {
    std::lock_guard<std::mutex> lock(mu_);
    loop_ = state;
    ++epoch_;
  }
  cv_.notify_all();

  RunBatch(*state);  // the caller takes its share of chunks

  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock, [&] {
      return state->active.load(std::memory_order_acquire) == 0;
    });
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (loop_ == state) loop_.reset();
  }

#ifndef MLPROV_OBS_NOOP
  const double wall_s = wall.Seconds();
  if (wall_s > 0.0) {
    const double busy_s =
        static_cast<double>(
            state->busy_us.load(std::memory_order_relaxed)) /
        1e6;
    MLPROV_GAUGE_SET("parallel.pool.utilization",
                     busy_s / (wall_s * num_threads()));
  }
#else
  (void)wall;
#endif

  if (state->error) std::rethrow_exception(state->error);
}

namespace {

// Lazily built pool shared by the free ParallelFor/ParallelMap, rebuilt
// when GlobalThreads() changes between loops. Concurrent free
// ParallelFor calls are safe (completion tracking is per-loop), though a
// loop issued while another is draining may run mostly on its caller.
ThreadPool* AcquireGlobalPool(int threads) {
  static std::mutex g_pool_mu;
  static std::unique_ptr<ThreadPool> g_pool;
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool || g_pool->num_threads() != threads) {
    g_pool = std::make_unique<ThreadPool>(threads);
  }
  return g_pool.get();
}

}  // namespace

void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 size_t grain) {
  const int threads = GlobalThreads();
  if (threads <= 1 || n < 2 || t_in_parallel_region) {
    MLPROV_COUNTER_INC("parallel.sequential_loops");
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  MLPROV_COUNTER_INC("parallel.loops");
  MLPROV_GAUGE_SET("parallel.pool.threads", threads);
  AcquireGlobalPool(threads)->ParallelFor(n, fn, grain);
}

}  // namespace mlprov::common
