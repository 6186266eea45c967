#include "support/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace hecmine::support {

int resolve_thread_count(int requested) {
  HECMINE_REQUIRE(requested >= 0, "thread count must be >= 0 (0 = auto)");
  if (requested > 0) return requested;
  const int env = env_thread_override();
  if (env > 0) return env;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

/// One parallel_for invocation. Indices are claimed through an atomic
/// cursor, so scheduling only decides *who* runs an item, never *what* the
/// item computes; `done` counts finished items so the issuing thread can
/// block until the stragglers claimed by workers drain.
///
/// The Batch itself is shared with the queued helper tasks, but `body` and
/// `telemetry` belong to the issuer and die when parallel_for returns. A
/// helper dequeued after that must not touch them: once every item is done
/// the issuer sets `closed` and waits until no helper is `active`, and a
/// helper starting after `closed` returns at once. Helpers still in the
/// queue are never waited for — a nested parallel_for issued from a pool
/// task could otherwise wait on a task queued behind itself.
struct ThreadPool::Batch {
  std::size_t size = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> cancelled{false};
  std::exception_ptr error;  // first failure; guarded by mutex
  bool closed = false;       // issuer is leaving; guarded by mutex
  int active = 0;            // helpers inside run_batch; guarded by mutex
  std::mutex mutex;
  std::condition_variable finished;
  Telemetry* telemetry = nullptr;  // issuer's sink, propagated to executors
};

ThreadPool::ThreadPool(int workers) {
  HECMINE_REQUIRE(workers >= 0, "ThreadPool requires workers >= 0");
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // pool tasks are noexcept wrappers; see submit/parallel_for
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  auto future = packaged->get_future();
  if (threads_.empty()) {
    (*packaged)();  // inline: the caller's own telemetry scope applies
    return future;
  }
  if (Telemetry* sink = current_telemetry(); sink != nullptr) {
    enqueue([packaged, sink] {
      TelemetryScope scope(sink);
      SolveTrace::Scope span(&sink->trace, "pool.task");
      (*packaged)();
    });
  } else {
    enqueue([packaged] { (*packaged)(); });
  }
  return future;
}

void ThreadPool::run_helper(Batch& batch) {
  {
    std::lock_guard<std::mutex> lock(batch.mutex);
    if (batch.closed) return;
    ++batch.active;
  }
  run_batch(batch);
  std::lock_guard<std::mutex> lock(batch.mutex);
  if (--batch.active == 0) batch.finished.notify_all();
}

void ThreadPool::run_batch(Batch& batch) {
  if (batch.telemetry != nullptr) {
    // Propagate the issuer's sink to this executor and record its busy
    // window; idle time is the gap between busy spans on a track.
    TelemetryScope scope(batch.telemetry);
    SolveTrace::Scope span(&batch.telemetry->trace, "pool.batch");
    claim_loop(batch);
    return;
  }
  claim_loop(batch);
}

void ThreadPool::claim_loop(Batch& batch) {
  for (;;) {
    const std::size_t index = batch.next.fetch_add(1);
    if (index >= batch.size) return;
    if (!batch.cancelled.load(std::memory_order_relaxed)) {
      try {
        (*batch.body)(index);
      } catch (...) {
        std::lock_guard<std::mutex> lock(batch.mutex);
        if (!batch.error) batch.error = std::current_exception();
        batch.cancelled.store(true, std::memory_order_relaxed);
      }
    }
    if (batch.done.fetch_add(1) + 1 == batch.size) {
      // Lock so the notify cannot race past the issuer's wait predicate.
      std::lock_guard<std::mutex> lock(batch.mutex);
      batch.finished.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              int threads) {
  HECMINE_REQUIRE(threads >= 0, "parallel_for requires threads >= 0");
  if (n == 0) return;
  const std::size_t executors = std::min<std::size_t>(
      n, threads > 0 ? static_cast<std::size_t>(threads)
                     : threads_.size() + 1);
  if (executors <= 1 || threads_.empty()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->size = n;
  batch->body = &body;
  batch->telemetry = current_telemetry();
  if (batch->telemetry != nullptr)
    batch->telemetry->metrics.counter("pool.batches").add();
  for (std::size_t helper = 0; helper + 1 < executors; ++helper)
    enqueue([batch] { run_helper(*batch); });
  run_batch(*batch);  // the issuer participates — no idle blocking, and a
                      // nested call from a pool task cannot deadlock
  {
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->finished.wait(lock, [&] { return batch->done.load() == n; });
    batch->closed = true;
    batch->finished.wait(lock, [&] { return batch->active == 0; });
    if (batch->error) std::rethrow_exception(batch->error);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(resolve_thread_count(0) - 1);
  return pool;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  int threads) {
  ThreadPool::global().parallel_for(n, body, threads);
}

}  // namespace hecmine::support
