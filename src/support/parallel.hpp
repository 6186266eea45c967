// Fixed-size thread pool and data-parallel primitives.
//
// The leader-stage price scans, the Monte-Carlo expectation sweeps and the
// bench scenario sweeps all fan out over independent work items whose
// outputs land in disjoint slots, so any schedule produces bitwise
// identical results. parallel_for hands indices to at most `threads`
// concurrent executors (the calling thread always participates, so a pool
// of size zero degrades to a plain serial loop), propagates the first
// exception thrown by any item, and is safe to call from inside a pool
// task: a nested call simply has the nested caller drain its own batch.
//
// Stochastic work stays reproducible through Rng::substreams: derive one
// child stream per work item *before* dispatch and index them by item, so
// the draw sequence is a function of the item index alone, never of the
// schedule.
//
// Telemetry: submit() and parallel_for() capture the issuer's thread-local
// telemetry sink (support::current_telemetry()) at issue time and install
// it on whichever worker runs the task, so instrumentation deep inside
// pool work reaches the same sink as the issuing solve. When a sink is
// present each executing thread also records a "pool.batch" / "pool.task"
// busy span — the gaps between those spans on a worker's timeline track
// are its idle time. Disarmed (no sink installed), the cost is one
// thread-local read per issue and a null test per task.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace hecmine::support {

/// Effective executor count for a requested thread setting: a positive
/// request wins, 0 defers to the HECMINE_THREADS environment override and
/// then to std::thread::hardware_concurrency(). Always >= 1.
[[nodiscard]] int resolve_thread_count(int requested);

/// Fixed-size worker pool. Construction spawns `workers` threads; the
/// destructor drains and joins them. All members are thread-safe.
class ThreadPool {
 public:
  /// Spawns `workers` worker threads (0 is valid: every operation then
  /// runs inline on the calling thread).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int workers() const noexcept {
    return static_cast<int>(threads_.size());
  }

  /// Enqueues one task; the future rethrows whatever the task threw.
  /// With zero workers the task runs inline before returning.
  std::future<void> submit(std::function<void()> task);

  /// Runs body(0) .. body(n-1) with at most `threads` concurrent executors
  /// (0 = workers() + 1, i.e. the whole pool plus the caller). Blocks until
  /// every item finished; rethrows the first exception and skips items not
  /// yet claimed once one is pending. Reentrant: body may call parallel_for
  /// on the same pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                    int threads = 0);

  /// Process-wide pool sized resolve_thread_count(0) - 1 workers, created
  /// on first use.
  static ThreadPool& global();

 private:
  struct Batch;

  void enqueue(std::function<void()> task);
  void worker_loop();
  static void run_helper(Batch& batch);
  static void run_batch(Batch& batch);
  static void claim_loop(Batch& batch);

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

/// parallel_for on the global pool.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  int threads = 0);

/// Maps fn over 0..n-1 on the global pool, preserving index order in the
/// returned vector. fn must be invocable concurrently from several threads.
template <typename Fn>
[[nodiscard]] auto parallel_map(std::size_t n, Fn&& fn, int threads = 0)
    -> std::vector<decltype(fn(std::size_t{}))> {
  std::vector<decltype(fn(std::size_t{}))> out(n);
  parallel_for(
      n, [&](std::size_t i) { out[i] = fn(i); }, threads);
  return out;
}

}  // namespace hecmine::support
