#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include "obs/metrics.h"

namespace ceer {
namespace util {

/** One parallelForRange() call. Lives on the caller's stack. */
struct ThreadPool::Job
{
    std::size_t n = 0;
    void (*invoke)(void *, std::size_t, std::size_t) = nullptr;
    void *ctx = nullptr;
    std::size_t minGrain = 1;
    std::size_t maxGrain = 1; ///< Load-balance cap on every grain.

    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> grain{0}; ///< 0 = probing.
    std::atomic<bool> failed{false};
    std::exception_ptr error; ///< Written once, by the first thrower.

    // Guarded by the pool mutex.
    Job *next = nullptr;
    std::size_t openSlots = 0; ///< Helpers that may still join.
    std::size_t inside = 0;    ///< Helpers currently running chunks.
    std::condition_variable left; ///< Signalled when inside hits 0.

    std::size_t clampGrain(double items) const
    {
        const double capped = std::min(items, static_cast<double>(maxGrain));
        return std::max(
            capped < 1.0 ? 1 : static_cast<std::size_t>(capped),
            minGrain);
    }

    /** Claims and runs chunks until the range is exhausted or any
     *  executor has thrown. */
    void runChunks()
    {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t g = grain.load(std::memory_order_acquire);
            const std::size_t take = g > 0 ? g : minGrain;
            const std::size_t lo =
                cursor.fetch_add(take, std::memory_order_relaxed);
            if (lo >= n)
                return;
            const std::size_t hi = std::min(lo + take, n);
            OBS_COUNTER_INC("pool.tasks");
            try {
                if (g > 0) {
                    invoke(ctx, lo, hi);
                    continue;
                }
                // Probe: derive the grain from this chunk's measured
                // per-item cost. First publication wins; the timing
                // feeds scheduling only, never the body's results.
                const auto start = std::chrono::steady_clock::now();
                invoke(ctx, lo, hi);
                const std::chrono::duration<double, std::micro> took =
                    std::chrono::steady_clock::now() - start;
                const double itemUs = std::max(
                    took.count() / static_cast<double>(hi - lo), 1e-4);
                const std::size_t measured =
                    clampGrain(kTargetChunkUs / itemUs);
                std::size_t expected = 0;
                if (grain.compare_exchange_strong(
                        expected, measured, std::memory_order_acq_rel))
                    OBS_GAUGE_SET("pool.grain", measured);
            } catch (...) {
                // Exhaust the cursor so every later claim — an RMW
                // that always sees this store — comes back empty,
                // and keep the first exception for the caller.
                cursor.store(n, std::memory_order_relaxed);
                if (!failed.exchange(true, std::memory_order_relaxed))
                    error = std::current_exception();
                return;
            }
        }
    }
};

ThreadPool::ThreadPool(std::size_t workers) : joins_(workers, 0)
{
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &thread : threads_)
        thread.join();
    // The per-worker join distribution (recorded while obs is on).
    for (const std::uint64_t joins : joins_)
        OBS_HISTOGRAM_RECORD("pool.worker_tasks", joins);
}

ThreadPool &
ThreadPool::shared()
{
    // Leaked so waiting workers never race process teardown.
    static ThreadPool *pool = new ThreadPool(
        std::max(2u, std::thread::hardware_concurrency()) - 1);
    return *pool;
}

std::size_t
ThreadPool::effectiveThreads(int requested)
{
    return requested > 0
               ? static_cast<std::size_t>(requested)
               : std::max(1u, std::thread::hardware_concurrency());
}

void
ThreadPool::workerLoop(std::size_t index)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        // A job whose cursor ran dry has nothing left for a helper.
        while (jobs_ != nullptr &&
               jobs_->cursor.load(std::memory_order_relaxed) >= jobs_->n)
            jobs_ = jobs_->next;
        Job *job = jobs_;
        if (job == nullptr) {
            if (stop_)
                return;
            OBS_COUNTER_INC("pool.parks");
            OBS_TIMER("pool.park_us");
            wake_.wait(lock);
            continue;
        }
        if (--job->openSlots == 0)
            jobs_ = job->next;
        ++job->inside;
        ++joins_[index];
        lock.unlock();
        {
            OBS_TIMER("pool.task_us");
            job->runChunks();
        }
        lock.lock();
        // The caller may free the job as soon as the lock drops.
        if (--job->inside == 0)
            job->left.notify_one();
    }
}

void
ThreadPool::run(std::size_t n, const ParallelOptions &options,
                void (*invoke)(void *, std::size_t, std::size_t),
                void *ctx)
{
    if (n == 0)
        return;
    const std::size_t minGrain =
        std::max<std::size_t>(options.minGrain, 1);
    std::size_t executors = threads_.size() + 1;
    if (options.maxThreads > 0)
        executors = std::min(executors, options.maxThreads);
    // No point waking helpers that could never claim a chunk.
    executors = std::min(executors, (n + minGrain - 1) / minGrain);
    if (executors <= 1) {
        invoke(ctx, 0, n);
        return;
    }

    // maxGrain bounds every grain decision — static hint and measured
    // probe alike — so each executor still sees several chunks for
    // load balance (minGrain stays a hard floor via clampGrain).
    Job job;
    job.n = n;
    job.invoke = invoke;
    job.ctx = ctx;
    job.minGrain = minGrain;
    job.maxGrain = std::max<std::size_t>(1, n / (executors * 4));
    job.openSlots = executors - 1;
    if (options.costHintUs > 0.0) {
        const std::size_t grain =
            job.clampGrain(kTargetChunkUs / options.costHintUs);
        job.grain.store(grain, std::memory_order_relaxed);
        OBS_GAUGE_SET("pool.grain", grain);
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job.next = jobs_;
        jobs_ = &job;
    }
    executors == 2 ? wake_.notify_one() : wake_.notify_all();

    job.runChunks();

    // Unlink so no new helper joins, then wait out the ones inside.
    std::unique_lock<std::mutex> lock(mutex_);
    Job **link = &jobs_;
    while (*link != nullptr && *link != &job)
        link = &(*link)->next;
    if (*link != nullptr)
        *link = job.next;
    job.left.wait(lock, [&] { return job.inside == 0; });
    lock.unlock();
    if (job.error)
        std::rethrow_exception(job.error);
}

} // namespace util
} // namespace ceer
