/**
 * @file
 * Tests for util::ThreadPool: task submission, parallelFor coverage,
 * exception propagation, and a contended stress loop that doubles as
 * the ThreadSanitizer workload for tools/check.sh.
 */

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace ceer {
namespace util {
namespace {

TEST(ThreadPoolTest, SubmitReturnsFutureResults)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.workerCount(), 3u);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsOnCaller)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 0u);
    std::vector<int> hits(10, 0);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i] = 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto &hit : hits)
        hit.store(0);
    pool.parallelFor(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingle)
{
    ThreadPool pool(2);
    int calls = 0;
    pool.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions)
{
    ThreadPool pool(2);
    auto future = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptions)
{
    ThreadPool pool(3);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](std::size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error(
                                              "task 37 failed");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPoolTest, ZeroWorkerParallelForPropagatesExceptions)
{
    ThreadPool pool(0);
    EXPECT_THROW(pool.parallelFor(10,
                                  [](std::size_t i) {
                                      if (i == 3)
                                          throw std::runtime_error(
                                              "serial task failed");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPoolTest, PoolIsReusableAfterParallelForThrows)
{
    ThreadPool pool(3);
    EXPECT_THROW(pool.parallelFor(
                     50,
                     [](std::size_t i) {
                         if (i % 10 == 5)
                             throw std::runtime_error("partial");
                     }),
                 std::runtime_error);

    // The failed run must not wedge the workers: the same pool runs a
    // full clean pass afterwards.
    std::vector<std::atomic<int>> hits(200);
    for (auto &hit : hits)
        hit.store(0);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, TaskCounterTracksSubmissions)
{
    obs::ScopedEnable on(true);
    obs::counter("pool.tasks").reset();
    ThreadPool pool(2);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 5; ++i)
        futures.push_back(pool.submit([i] { return i; }));
    for (auto &future : futures)
        (void)future.get();
    EXPECT_EQ(obs::snapshotMetrics().counterValue("pool.tasks"), 5u);
}

TEST(ThreadPoolTest, FewerItemsThanWorkersCoversEveryIndex)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    for (auto &hit : hits)
        hit.store(0);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, SubmitAcceptsMoveOnlyCallables)
{
    ThreadPool pool(2);
    auto value = std::make_unique<int>(41);
    auto future = pool.submit(
        [v = std::move(value)] { return *v + 1; });
    EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, RangeFormCoversEveryIndexOnceWithStaticGrain)
{
    ThreadPool pool(4);
    constexpr std::size_t kN = 10'000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto &hit : hits)
        hit.store(0);
    ParallelOptions options;
    options.costHintUs = 1.0; // static grain (no probe chunk)
    pool.parallelForRange(kN, options,
                          [&](std::size_t lo, std::size_t hi) {
                              ASSERT_LT(lo, hi);
                              ASSERT_LE(hi, kN);
                              for (std::size_t i = lo; i < hi; ++i)
                                  hits[i].fetch_add(1);
                          });
    for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, RangeFormCoversEveryIndexOnceWithMeasuredGrain)
{
    ThreadPool pool(4);
    constexpr std::size_t kN = 50'000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto &hit : hits)
        hit.store(0);
    ParallelOptions options; // costHintUs == 0: measured first chunk
    options.minGrain = 16;
    options.maxGrain = 4096;
    pool.parallelForRange(kN, options,
                          [&](std::size_t lo, std::size_t hi) {
                              for (std::size_t i = lo; i < hi; ++i)
                                  hits[i].fetch_add(1);
                          });
    for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, MaxThreadsOneRunsSerially)
{
    ThreadPool pool(4);
    ParallelOptions options;
    options.maxThreads = 1;
    std::vector<int> hits(100, 0); // unsynchronized: serial contract
    pool.parallelForRange(hits.size(), options,
                          [&](std::size_t lo, std::size_t hi) {
                              for (std::size_t i = lo; i < hi; ++i)
                                  hits[i] += 1;
                          });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPoolTest, ExceptionAbandonsRemainingChunks)
{
    // Contract: chunks not yet claimed when a throw is recorded are
    // abandoned. The bodies pin the schedule so the test does not
    // depend on it: every executor but one parks inside its first
    // chunk, and the remaining worker throws. Its throw-then-record
    // happens while no other executor can claim. The parked executors
    // are released by a task the thrower queues on its own deque, and
    // only the thrower is free to run that task, so it runs after the
    // thrower has left the range and recorded the throw. No chunk may
    // start after that; a range that ignored the failure would run
    // every remaining chunk.
    ThreadPool pool(4);
    constexpr std::size_t kN = 1'000'000;
    const std::size_t executors = pool.workerCount() + 1;
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> thrower_chosen{false};
    std::atomic<bool> thrown{false};
    std::atomic<bool> released{false};
    std::atomic<std::size_t> parked{0};
    std::atomic<std::size_t> late_chunks{0};
    std::atomic<std::size_t> executed{0};
    const auto wait_for = [](const auto &ready) {
        while (!ready())
            std::this_thread::yield();
    };
    ParallelOptions options;
    options.costHintUs = 0.01; // fine grain: many chunks to abandon
    try {
        pool.parallelForRange(kN, options, [&](std::size_t lo,
                                               std::size_t hi) {
            if (thrown.load()) {
                late_chunks.fetch_add(1);
                executed.fetch_add(hi - lo);
                return;
            }
            if (std::this_thread::get_id() != caller &&
                !thrower_chosen.exchange(true)) {
                wait_for([&] { return parked.load() == executors - 1; });
                pool.submit([&] { released.store(true); });
                thrown.store(true);
                throw std::runtime_error("chunk failed");
            }
            parked.fetch_add(1);
            wait_for([&] { return released.load(); });
            executed.fetch_add(hi - lo);
        });
        FAIL() << "expected the chunk's exception to propagate";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "chunk failed");
    }
    EXPECT_EQ(late_chunks.load(), 0u)
        << "chunks were claimed after the throw was recorded";
    EXPECT_LT(executed.load(), kN / 2)
        << "remaining chunks were not abandoned";
}

TEST(ThreadPoolTest, RangeFormPropagatesExceptionFromLastChunk)
{
    ThreadPool pool(2);
    ParallelOptions options;
    options.costHintUs = 1000.0;
    EXPECT_THROW(pool.parallelForRange(
                     64, options,
                     [&](std::size_t, std::size_t hi) {
                         if (hi == 64)
                             throw std::runtime_error("tail failed");
                     }),
                 std::runtime_error);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock)
{
    // Outer chunks run on workers; each body opens a nested
    // parallelFor on the same pool. The nested caller claims chunks
    // itself, so this terminates even with every worker busy.
    ThreadPool pool(3);
    constexpr std::size_t kOuter = 16;
    constexpr std::size_t kInner = 64;
    std::vector<std::atomic<std::size_t>> inner_sums(kOuter);
    for (auto &sum : inner_sums)
        sum.store(0);
    pool.parallelFor(kOuter, [&](std::size_t o) {
        pool.parallelFor(kInner, [&](std::size_t i) {
            inner_sums[o].fetch_add(i + 1);
        });
    });
    for (std::size_t o = 0; o < kOuter; ++o)
        EXPECT_EQ(inner_sums[o].load(), kInner * (kInner + 1) / 2)
            << "outer " << o;
}

TEST(ThreadPoolTest, SharedPoolHasWorkersAndRuns)
{
    ThreadPool &pool = ThreadPool::shared();
    EXPECT_GE(pool.workerCount(), 1u);
    EXPECT_TRUE(&pool == &ThreadPool::shared());
    std::vector<std::atomic<int>> hits(512);
    for (auto &hit : hits)
        hit.store(0);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, SchedulerMetricsAreObservable)
{
    obs::ScopedEnable on(true);
    {
        ThreadPool pool(4);
        // Many short parallel sections. Steal and park counts are
        // schedule-dependent (zero is legitimate on a single-core
        // host), so the contract tested here is the deterministic
        // part: helper tasks are counted, the grain controller
        // publishes its decision, and the destructor records the
        // per-worker task distribution.
        for (int round = 0; round < 20; ++round) {
            std::atomic<std::size_t> total{0};
            ParallelOptions options;
            options.costHintUs = 0.5;
            pool.parallelForRange(1000, options,
                                  [&](std::size_t lo, std::size_t hi) {
                                      total.fetch_add(hi - lo);
                                  });
            ASSERT_EQ(total.load(), 1000u);
        }
    }
    const auto snapshot = obs::snapshotMetrics();
    EXPECT_GT(snapshot.counterValue("pool.tasks"), 0u);
    EXPECT_GT(snapshot.gaugeValue("pool.grain"), 0.0);
    EXPECT_NE(snapshot.findHistogram("pool.worker_tasks"), nullptr);
}

TEST(ThreadPoolTest, ZeroWorkerSubmitRunsInline)
{
    // With no workers a submitted task must still execute (inline on
    // the caller): queueing it would deadlock future.get() until the
    // destructor's drain.
    ThreadPool pool(0);
    auto future = pool.submit([] { return 42; });
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(future.get(), 42);
    auto failing = pool.submit(
        []() -> int { throw std::runtime_error("inline boom"); });
    EXPECT_THROW(failing.get(), std::runtime_error);
}

TEST(ThreadPoolTest, SubmitWakeupIsNeverLost)
{
    // Regression for a lost-wakeup race in the park protocol: a task
    // enqueued between a worker's final queue scan and its parked_
    // announcement was folded into the worker's epoch snapshot, so it
    // slept on a non-empty queue and the future never resolved. A
    // single worker maximizes park/unpark round trips; every future
    // must resolve promptly.
    ThreadPool pool(1);
    for (int i = 0; i < 3000; ++i) {
        auto future = pool.submit([i] { return i; });
        ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready)
            << "submission " << i << " was lost by the scheduler";
        ASSERT_EQ(future.get(), i);
    }
}

TEST(ThreadPoolTest, ExceptionExhaustsCursorBeforeRethrow)
{
    // Regression for a use-after-free window: helpers that start
    // after the caller rethrew must be gated by the claim cursor (an
    // RMW), not by relaxed visibility of the failure flag. Tight
    // repeated sections keep stale helper tasks in flight while the
    // next iteration reuses the stack frame; TSan (tools/check.sh)
    // flags any touch of a dead frame.
    ThreadPool pool(4);
    for (int round = 0; round < 200; ++round) {
        std::atomic<std::size_t> executed{0};
        ParallelOptions options;
        options.costHintUs = 0.01;
        try {
            pool.parallelForRange(
                10'000, options,
                [&](std::size_t lo, std::size_t hi) {
                    if (lo == 0)
                        throw std::runtime_error("poisoned chunk");
                    executed.fetch_add(hi - lo);
                });
            FAIL() << "expected the exception to propagate";
        } catch (const std::runtime_error &) {
        }
        EXPECT_LE(executed.load(), 10'000u);
    }
}

TEST(ThreadPoolTest, MeasuredGrainHonorsBalanceCap)
{
    obs::ScopedEnable on(true);
    ThreadPool pool(3); // 4 executors with the caller
    constexpr std::size_t kN = 1600;
    // Near-free items: an uncapped measured grain would cover the
    // whole remaining range in one chunk, serializing the sweep after
    // the probe. The published grain must respect the per-executor
    // balance bound n / (executors * 4) even with maxGrain unset.
    std::atomic<std::size_t> total{0};
    pool.parallelForRange(kN, ParallelOptions{},
                          [&](std::size_t lo, std::size_t hi) {
                              total.fetch_add(hi - lo);
                          });
    EXPECT_EQ(total.load(), kN);
    const double grain =
        obs::snapshotMetrics().gaugeValue("pool.grain");
    EXPECT_GT(grain, 0.0);
    EXPECT_LE(grain, static_cast<double>(kN / (4 * 4)));
}

TEST(ThreadPoolTest, ContendedSharedStateStress)
{
    // TSan workload: many tasks mutating shared state under a mutex
    // plus an atomic counter, across repeated pool lifetimes.
    for (int round = 0; round < 3; ++round) {
        ThreadPool pool(4);
        std::mutex mutex;
        std::set<std::size_t> seen;
        std::atomic<std::size_t> total{0};
        pool.parallelFor(500, [&](std::size_t i) {
            total.fetch_add(i);
            std::lock_guard<std::mutex> lock(mutex);
            seen.insert(i);
        });
        EXPECT_EQ(seen.size(), 500u);
        EXPECT_EQ(total.load(), 500u * 499u / 2);
    }
}

} // namespace
} // namespace util
} // namespace ceer
