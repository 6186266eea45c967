// Tests for support/parallel: pool correctness, exception propagation,
// nested dispatch, sink lifetime under late helpers, determinism of
// parallel_map, and thread-count resolution (HECMINE_THREADS).
#include "support/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "support/error.hpp"
#include "support/prof.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace hecmine::support {
namespace {

/// Sets HECMINE_THREADS for one scope and restores the prior value.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* value) {
    const char* prior = std::getenv("HECMINE_THREADS");
    if (prior != nullptr) saved_ = prior;
    had_prior_ = prior != nullptr;
    if (value == nullptr)
      ::unsetenv("HECMINE_THREADS");
    else
      ::setenv("HECMINE_THREADS", value, 1);
  }
  ~ScopedEnv() {
    if (had_prior_)
      ::setenv("HECMINE_THREADS", saved_.c_str(), 1);
    else
      ::unsetenv("HECMINE_THREADS");
  }

 private:
  std::string saved_;
  bool had_prior_ = false;
};

TEST(ResolveThreadCount, PositiveRequestWins) {
  ScopedEnv env("7");
  EXPECT_EQ(resolve_thread_count(3), 3);
  EXPECT_EQ(resolve_thread_count(1), 1);
}

TEST(ResolveThreadCount, ZeroDefersToEnvOverride) {
  ScopedEnv env("5");
  EXPECT_EQ(resolve_thread_count(0), 5);
}

TEST(ResolveThreadCount, WithoutEnvUsesHardwareAndIsAtLeastOne) {
  ScopedEnv env(nullptr);
  EXPECT_GE(resolve_thread_count(0), 1);
}

TEST(ResolveThreadCount, MalformedEnvThrows) {
  ScopedEnv env("not-a-number");
  EXPECT_THROW((void)resolve_thread_count(0), PreconditionError);
}

TEST(ResolveThreadCount, NegativeEnvThrows) {
  ScopedEnv env("-2");
  EXPECT_THROW((void)resolve_thread_count(0), PreconditionError);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> counts(257);
  pool.parallel_for(counts.size(),
                    [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0);
  std::vector<int> hits(16, 0);  // no atomics needed: everything is inline
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 16);
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPool, SubmitReturnsAWorkingFuture) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  auto future = pool.submit([&] { ran.fetch_add(1); });
  future.get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, SubmitPropagatesExceptionsThroughTheFuture) {
  ThreadPool pool(1);
  auto future = pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForRethrowsTheBodyException) {
  ThreadPool pool(3);
  const auto run = [&] {
    pool.parallel_for(64, [&](std::size_t i) {
      if (i == 17) throw std::invalid_argument("poisoned item");
    });
  };
  EXPECT_THROW(run(), std::invalid_argument);
  // The pool stays usable after a failed batch.
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 8);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPool, NestedSubmitFromATaskCompletes) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  auto outer = pool.submit([&] {
    auto inner = pool.submit([&] { ran.fetch_add(1); });
    inner.get();
    ran.fetch_add(1);
  });
  outer.get();
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPool, SinkScopedBatchesNeverOutliveTheirSink) {
  // The pattern of every telemetry-attached parallel solve: a sink lives
  // for one parallel_for and dies right after it returns. Helper tasks
  // dequeued after that must not open their pool.batch span on the dead
  // sink (a heap-use-after-free under ASan, crashes or hangs without).
  // The nested round checks that the issuer never waits on a helper still
  // queued behind a nested issuer.
  ThreadPool pool(3);
  for (int round = 0; round < 1000; ++round) {
    auto sink = std::make_unique<Telemetry>();
    std::atomic<std::size_t> sum{0};
    {
      const TelemetryScope scope(sink.get());
      pool.parallel_for(
          8,
          [&](std::size_t i) {
            prof::ThreadWorkBlock* work = prof::current_block();
            ASSERT_NE(work, nullptr);
            work->add(prof::WorkField::kBestResponseEvals, i + 1);
            if (round % 10 == 0)
              pool.parallel_for(
                  2, [&](std::size_t j) { sum.fetch_add(j); }, 2);
            sum.fetch_add(i);
          },
          4);
    }
    ASSERT_EQ(sum.load(), round % 10 == 0 ? 28u + 8u : 28u) << round;
    ASSERT_EQ(sink->work.total()[prof::WorkField::kBestResponseEvals], 36u)
        << round;
    sink.reset();
  }
}

TEST(ParallelMap, PreservesIndexOrderForEveryThreadCount) {
  const auto fn = [](std::size_t i) {
    return static_cast<double>(i) * 1.5 + 1.0;
  };
  const auto serial = parallel_map(100, fn, 1);
  for (int threads : {2, 3, 8}) {
    const auto parallel = parallel_map(100, fn, threads);
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

TEST(ParallelMap, SubstreamDrawsAreScheduleIndependent) {
  const auto run = [&](int threads) {
    Rng parent(2024);
    auto streams = parent.substreams(16);
    return parallel_map(
        streams.size(), [&](std::size_t i) { return streams[i].uniform(); },
        threads);
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(RngSubstreams, MatchRepeatedSplit) {
  Rng a(99), b(99);
  auto streams = a.substreams(5);
  ASSERT_EQ(streams.size(), 5u);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    Rng expected = b.split(i);
    EXPECT_EQ(streams[i].uniform(), expected.uniform()) << "stream " << i;
  }
}

}  // namespace
}  // namespace hecmine::support
