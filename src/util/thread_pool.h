/**
 * @file
 * Fork-join worker pool for the repo's flat parallel loops.
 *
 * A parallelForRange() call links a job into the pool under its one
 * mutex, notifies the workers once and claims contiguous [lo, hi)
 * chunks from the job's cursor on the calling thread; workers join
 * while the job is linked and claim from the same cursor. The grain
 * targets ~kTargetChunkUs of work per claim. When its own claims run
 * dry the caller unlinks the job and waits for the helpers inside to
 * leave, so the job lives on the caller's stack (docs/performance.md).
 *
 * Work distribution is nondeterministic; call sites stay byte-identical
 * across thread counts by writing slot-indexed results and reducing in
 * serial order.
 */

#ifndef CEER_UTIL_THREAD_POOL_H
#define CEER_UTIL_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ceer {
namespace util {

/** Tuning knobs for one parallelForRange() call. */
struct ParallelOptions
{
    /** Estimated cost of one item in microseconds. Positive values set
     *  the grain statically; 0 means "unknown" and the first chunk is
     *  timed until one measurement publishes the grain. */
    double costHintUs = 0.0;
    /** Never claim fewer items than this per chunk (also the probe
     *  chunk size while the grain is unmeasured). */
    std::size_t minGrain = 1;
    /** Cap on concurrent executors, counting the calling thread
     *  (0 = caller plus every pool worker; 1 = inline on the caller). */
    std::size_t maxThreads = 0;
};

/**
 * Fork-join worker pool. parallelForRange() may be called from any
 * thread, from several at once, and from inside a chunk running on
 * this pool: a caller can always finish its own range alone and only
 * waits for helpers already running its chunks, so nothing deadlocks.
 */
class ThreadPool
{
  public:
    /** @param workers Worker threads besides the caller; 0 makes
     *                 parallelForRange a serial loop. */
    explicit ThreadPool(std::size_t workers);
    ~ThreadPool(); ///< Joins all workers.

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Process-wide pool shared by every parallel call site: created
     *  on first use, leaked, max(1, hardware_concurrency() - 1)
     *  workers so parallel paths run even on a single-core host. */
    static ThreadPool &shared();

    /** Worker threads, excluding the calling thread. */
    std::size_t workerCount() const { return threads_.size(); }
    static constexpr double kTargetChunkUs = 100.0; ///< Work per claim.

    /**
     * Runs body(lo, hi) over disjoint chunks covering [0, n), blocking
     * until all complete. Chunk boundaries are scheduling artifacts —
     * the body must produce the same result for any partition. The
     * first exception thrown by a chunk is rethrown here; chunks not
     * yet claimed when it was thrown are abandoned.
     */
    template <typename Body>
    void parallelForRange(std::size_t n, const ParallelOptions &options,
                          Body &&body)
    {
        using Fn = std::remove_reference_t<Body>;
        run(n, options,
            [](void *ctx, std::size_t lo, std::size_t hi) {
                (*static_cast<Fn *>(ctx))(lo, hi);
            },
            std::addressof(body));
    }

    /** Effective parallelism for a requested thread count: @p requested
     *  if positive, otherwise hardware_concurrency() (min 1). */
    static std::size_t effectiveThreads(int requested);

  private:
    struct Job;

    void run(std::size_t n, const ParallelOptions &options,
             void (*invoke)(void *, std::size_t, std::size_t),
             void *ctx);

    void workerLoop(std::size_t index);

    // mutex_ guards jobs_, stop_, joins_ and every job's helper
    // bookkeeping; idle workers wait on wake_.
    std::mutex mutex_;
    std::condition_variable wake_;
    Job *jobs_ = nullptr; ///< Linked jobs still taking helpers.
    bool stop_ = false;
    std::vector<std::uint64_t> joins_; ///< Jobs joined, per worker.
    std::vector<std::thread> threads_;
};

/** Runs body over [0, n) on ThreadPool::shared(), except that a range
 *  allowed one executor (options.maxThreads == 1) runs inline and never
 *  creates the shared pool: `threads = 1` stays fully serial. */
template <typename Body>
void
parallelForRange(std::size_t n, const ParallelOptions &options,
                 Body &&body)
{
    if (options.maxThreads != 1)
        ThreadPool::shared().parallelForRange(n, options, body);
    else if (n > 0)
        body(std::size_t{0}, n);
}

} // namespace util
} // namespace ceer

#endif // CEER_UTIL_THREAD_POOL_H
