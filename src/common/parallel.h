#ifndef MLPROV_COMMON_PARALLEL_H_
#define MLPROV_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/status.h"

namespace mlprov::common {

/// Number of hardware threads, never less than 1.
int HardwareThreads();

/// Process-wide parallelism knob read by the free ParallelFor/ParallelMap
/// below. Defaults to HardwareThreads(); 1 selects the exact sequential
/// fallback (a plain in-order loop on the calling thread). Intended to be
/// set once at startup from --threads=; not safe to change concurrently
/// with running parallel loops.
int GlobalThreads();
void SetGlobalThreads(int threads);  // values < 1 clamp to 1

/// Parses and validates the --threads flag: absent means
/// HardwareThreads(); 0, negative, non-numeric, or absurdly large values
/// are InvalidArgument with a message naming the flag and value (no
/// silent fallback).
StatusOr<int> ThreadsFromFlags(const Flags& flags,
                               const std::string& name = "threads");

/// Fixed-size thread pool with chunked, deterministic parallel-for
/// dispatch. Work is handed out as contiguous index chunks claimed from a
/// shared atomic cursor (no work stealing, no per-task queues), so the
/// scheduling metadata is one fetch_add per chunk. The calling thread
/// participates in every loop, so ThreadPool(n) spawns n-1 workers.
///
/// Determinism contract: ParallelFor(n, fn) may invoke fn(0..n-1) in any
/// order and concurrently, but callers in this codebase only use it with
/// bodies whose effects for index i are confined to slot i of
/// preallocated output (plus commutative obs counters); any
/// order-sensitive reduction happens sequentially afterwards. Under that
/// discipline results are byte-identical for every thread count,
/// including the sequential fallback.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism, including the calling thread.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(i) for every i in [0, n). `grain` is the number of indices
  /// per claimed chunk; 0 picks max(1, n / (threads * 8)). Use grain=1
  /// when per-index cost is heavy-tailed (e.g. simulated pipelines).
  /// Exceptions thrown by fn are rethrown on the calling thread after the
  /// loop drains (first one wins). Loops issued from inside a pool worker
  /// run inline sequentially, so nesting cannot deadlock.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   size_t grain = 0);

 private:
  struct LoopState;

  void WorkerLoop();
  static void RunBatch(LoopState& state);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  uint64_t epoch_ = 0;
  std::shared_ptr<LoopState> loop_;
};

/// Runs fn(i) for i in [0, n) on the global pool sized by
/// GlobalThreads(). With GlobalThreads() == 1 (or n < 2, or when already
/// inside a pool worker) this is exactly `for (i = 0; i < n; ++i) fn(i)`.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 size_t grain = 0);

/// Maps i -> fn(i) into a vector whose order is always 0..n-1 regardless
/// of thread count. T must be default-constructible and movable.
template <typename T, typename Fn>
std::vector<T> ParallelMap(size_t n, Fn&& fn, size_t grain = 0) {
  std::vector<T> out(n);
  ParallelFor(
      n, [&](size_t i) { out[i] = fn(i); }, grain);
  return out;
}

}  // namespace mlprov::common

#endif  // MLPROV_COMMON_PARALLEL_H_
