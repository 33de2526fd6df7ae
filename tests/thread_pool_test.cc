/**
 * @file
 * Tests for util::ThreadPool: parallelForRange coverage, exception
 * propagation, nested and concurrent callers, and a contended stress
 * loop that doubles as the ThreadSanitizer workload for tools/check.sh.
 */

#include <atomic>
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

/** Runs body(i) for every i in [0, n) through the range form. */
template <typename Body>
void
forEachIndex(ThreadPool &pool, std::size_t n, const Body &body)
{
    pool.parallelForRange(n, ParallelOptions{},
                          [&](std::size_t lo, std::size_t hi) {
                              for (std::size_t i = lo; i < hi; ++i)
                                  body(i);
                          });
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsOnCaller)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 0u);
    std::vector<int> hits(10, 0);
    forEachIndex(pool, hits.size(), [&](std::size_t i) { hits[i] = 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto &hit : hits)
        hit.store(0);
    forEachIndex(pool, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingle)
{
    ThreadPool pool(2);
    int calls = 0;
    forEachIndex(pool, 0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    forEachIndex(pool, 1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptions)
{
    ThreadPool pool(3);
    EXPECT_THROW(forEachIndex(pool, 100,
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
    EXPECT_THROW(forEachIndex(pool, 10,
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
    EXPECT_THROW(forEachIndex(pool, 50,
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
    forEachIndex(pool, hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, FewerItemsThanWorkersCoversEveryIndex)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    for (auto &hit : hits)
        hit.store(0);
    forEachIndex(pool, hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
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
    // happens while no other executor can claim. Before throwing, the
    // thrower starts a releaser thread whose own two-chunk range frees
    // the parked executors: its first chunk waits for its second, and
    // the releaser alone can only run one of them. Every other worker
    // is parked, so the second chunk needs the thrower, which joins
    // only after it has left the failed range and recorded the throw.
    // No chunk may start after that; a range that ignored the failure
    // would run every remaining chunk.
    ThreadPool pool(4);
    constexpr std::size_t kN = 1'000'000;
    const std::size_t executors = pool.workerCount() + 1;
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> thrower_chosen{false};
    std::atomic<bool> thrown{false};
    std::atomic<bool> released{false};
    std::atomic<bool> release_chunk_claimed{false};
    std::atomic<std::size_t> parked{0};
    std::atomic<std::size_t> late_chunks{0};
    std::atomic<std::size_t> executed{0};
    std::thread releaser;
    const auto wait_for = [](const auto &ready) {
        while (!ready())
            std::this_thread::yield();
    };
    const auto release = [&] {
        ParallelOptions two;
        two.costHintUs = 1000.0; // grain 1: two chunks
        two.maxThreads = 2;
        pool.parallelForRange(2, two, [&](std::size_t, std::size_t) {
            if (!release_chunk_claimed.exchange(true))
                wait_for([&] { return released.load(); });
            else
                released.store(true);
        });
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
                releaser = std::thread(release);
                thrown.store(true);
                throw std::runtime_error("chunk failed");
            }
            parked.fetch_add(1);
            wait_for([&] { return released.load(); });
            executed.fetch_add(hi - lo);
        });
        ADD_FAILURE() << "expected the chunk's exception to propagate";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "chunk failed");
    }
    releaser.join();
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
    // Outer chunks run on workers; each body opens a nested range on
    // the same pool. The nested caller claims chunks itself, so this
    // terminates even with every worker busy.
    ThreadPool pool(3);
    constexpr std::size_t kOuter = 16;
    constexpr std::size_t kInner = 64;
    std::vector<std::atomic<std::size_t>> inner_sums(kOuter);
    for (auto &sum : inner_sums)
        sum.store(0);
    forEachIndex(pool, kOuter, [&](std::size_t o) {
        forEachIndex(pool, kInner, [&](std::size_t i) {
            inner_sums[o].fetch_add(i + 1);
        });
    });
    for (std::size_t o = 0; o < kOuter; ++o)
        EXPECT_EQ(inner_sums[o].load(), kInner * (kInner + 1) / 2)
            << "outer " << o;
}

TEST(ThreadPoolTest, ConcurrentCallersShareOnePool)
{
    // Four threads run ranges on one pool at once; workers join
    // whichever linked job they find, and every caller must still see
    // each of its own indices exactly once.
    ThreadPool pool(3);
    constexpr std::size_t kCallers = 4;
    constexpr std::size_t kN = 20'000;
    std::vector<std::vector<std::atomic<int>>> hits(kCallers);
    for (auto &row : hits)
        row = std::vector<std::atomic<int>>(kN);
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            for (int round = 0; round < 10; ++round) {
                ParallelOptions options;
                options.costHintUs = round % 2 == 0 ? 0.05 : 0.0;
                pool.parallelForRange(
                    kN, options, [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i)
                            hits[c][i].fetch_add(1);
                    });
            }
        });
    }
    for (std::thread &caller : callers)
        caller.join();
    for (std::size_t c = 0; c < kCallers; ++c)
        for (std::size_t i = 0; i < kN; ++i)
            ASSERT_EQ(hits[c][i].load(), 10)
                << "caller " << c << " index " << i;
}

TEST(ThreadPoolTest, SharedPoolHasWorkersAndRuns)
{
    ThreadPool &pool = ThreadPool::shared();
    EXPECT_GE(pool.workerCount(), 1u);
    EXPECT_TRUE(&pool == &ThreadPool::shared());
    std::vector<std::atomic<int>> hits(512);
    for (auto &hit : hits)
        hit.store(0);
    forEachIndex(pool, hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, SchedulerMetricsAreObservable)
{
    obs::ScopedEnable on(true);
    {
        ThreadPool pool(4);
        // Many short parallel sections. Joins and waits are
        // schedule-dependent (zero joins is legitimate on a loaded
        // host), so the contract tested here is the deterministic
        // part: claimed chunks are counted, the grain controller
        // publishes its decision, and the destructor records the
        // per-worker join distribution.
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

TEST(ThreadPoolTest, ExceptionExhaustsCursorBeforeRethrow)
{
    // The caller rethrows only after every helper has left its job,
    // and the throw exhausts the cursor. Tight repeated sections reuse
    // the stack frame that held the previous job; TSan
    // (tools/check.sh) flags any helper touching a dead frame.
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
    // balance bound n / (executors * 4).
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
        forEachIndex(pool, 500, [&](std::size_t i) {
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
