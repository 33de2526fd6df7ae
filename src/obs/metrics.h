/**
 * @file
 * Process-wide metrics registry: counters, gauges, and fixed-bucket
 * latency histograms, built for instrumenting the pipeline's hot loops
 * without perturbing them.
 *
 * Design:
 *  - Recording is gated on a single runtime flag (obs::enabled(), set
 *    from the CEER_OBS environment variable or obs::setEnabled()). The
 *    OBS_* macros check it first, so the disabled path is one relaxed
 *    atomic load and a predictable branch — no allocation, no locking,
 *    no formatting.
 *  - Counters and histograms are sharded: each metric owns a small
 *    fixed array of 128-byte-aligned shards and every thread picks a
 *    shard once (round-robin), so the hot-path record is a relaxed
 *    fetch_add on a line rarely shared with another writer. Shards are
 *    summed only at snapshot time.
 *  - Metrics live forever once created: the registry hands out stable
 *    references (the macros cache them in function-local statics) and
 *    resetMetrics() zeroes values in place without deallocating, so a
 *    cached reference can never dangle.
 *  - Instrumentation must not perturb outputs: nothing in this layer
 *    feeds back into the instrumented computation, so the repo-wide
 *    byte-identity contracts hold with observability on or off (pinned
 *    by the Obs*Parity tests).
 *
 * This library sits below util (ThreadPool is itself instrumented), so
 * it depends on nothing else in the repo.
 */

#ifndef CEER_OBS_METRICS_H
#define CEER_OBS_METRICS_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ceer {
namespace obs {

namespace detail {
extern std::atomic<bool> g_enabled;

/** Round-robin shard index for the calling thread (stable per thread). */
std::size_t shardIndex();

/** CAS-loop add for pre-C++20-style atomic doubles (portable). */
inline void
atomicAdd(std::atomic<double> &target, double delta)
{
    double expected = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(expected, expected + delta,
                                         std::memory_order_relaxed))
        ;
}
} // namespace detail

/** Whether recording is on. Hot-path check: one relaxed load. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Turns recording on or off at runtime (also CEER_OBS=1 in the env). */
void setEnabled(bool on);

/** RAII enable/disable for tests; restores the previous state. */
class ScopedEnable
{
  public:
    explicit ScopedEnable(bool on) : previous_(enabled())
    {
        setEnabled(on);
    }
    ~ScopedEnable() { setEnabled(previous_); }
    ScopedEnable(const ScopedEnable &) = delete;
    ScopedEnable &operator=(const ScopedEnable &) = delete;

  private:
    bool previous_;
};

/** Shard count per metric (power of two; threads map round-robin). */
constexpr std::size_t kMetricShards = 16;

/** Shard alignment: two cache lines (see Counter::Shard). */
constexpr std::size_t kShardAlign = 128;

/** Monotonic event count. add() is a relaxed fetch_add on a TLS shard. */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void add(std::uint64_t n = 1)
    {
        shards_[detail::shardIndex()].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Sum over shards (approximate while writers are active). */
    std::uint64_t value() const
    {
        std::uint64_t total = 0;
        for (const Shard &shard : shards_)
            total += shard.value.load(std::memory_order_relaxed);
        return total;
    }

    /** Zeroes in place; outstanding references stay valid. */
    void reset()
    {
        for (Shard &shard : shards_)
            shard.value.store(0, std::memory_order_relaxed);
    }

  private:
    // 128, not 64: the adjacent-line prefetcher pulls 64-byte lines in
    // pairs, so 64-byte shards still false-share across writers.
    struct alignas(kShardAlign) Shard
    {
        std::atomic<std::uint64_t> value{0};
    };
    std::array<Shard, kMetricShards> shards_;
};

/** Last-written point-in-time value (e.g. queue depth, rate). */
class Gauge
{
  public:
    Gauge() = default;
    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Default histogram bucket upper bounds: a 1-2-5 ladder from 1 us to
 * 1e7 us (10 s), suiting every latency this pipeline records.
 */
const std::vector<double> &defaultLatencyBoundsUs();

/**
 * Fixed-bucket histogram. A recorded value lands in the first bucket
 * whose upper bound is >= the value; values above the last bound land
 * in the implicit overflow bucket (index bounds().size()).
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> upper_bounds);
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void record(double v);

    const std::vector<double> &bounds() const { return bounds_; }

    /** Merged per-bucket counts (size bounds().size() + 1). */
    std::vector<std::uint64_t> bucketCounts() const;

    /** Merged total count. */
    std::uint64_t count() const;

    /** Merged sum of recorded values. */
    double sum() const;

    /** Zeroes in place; outstanding references stay valid. */
    void reset();

  private:
    struct alignas(kShardAlign) Shard
    {
        // Sized at construction, never resized afterwards.
        std::vector<std::atomic<std::uint64_t>> buckets;
        std::atomic<std::uint64_t> count{0};
        std::atomic<double> sum{0.0};
    };
    std::vector<double> bounds_;
    std::vector<Shard> shards_;
};

/** Snapshot of one histogram (value types only, comparable). */
struct HistogramSnapshot
{
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets; ///< bounds.size() + 1 entries.
    std::uint64_t count = 0;
    double sum = 0.0;

    friend bool operator==(const HistogramSnapshot &,
                           const HistogramSnapshot &) = default;
};

/** Point-in-time copy of every registered metric, sorted by name. */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistogramSnapshot> histograms;

    /** Counter value by name (0 if absent). */
    std::uint64_t counterValue(const std::string &name) const;

    /** Gauge value by name (0 if absent). */
    double gaugeValue(const std::string &name) const;

    /** Histogram by name (nullptr if absent). */
    const HistogramSnapshot *findHistogram(const std::string &name) const;

    friend bool operator==(const MetricsSnapshot &,
                           const MetricsSnapshot &) = default;
};

/**
 * Returns the process-wide metric with @p name, creating it on first
 * use. References stay valid for the life of the process. Names follow
 * `<subsystem>.<noun>[_<unit>]` (see docs/observability.md).
 */
Counter &counter(const std::string &name);
Gauge &gauge(const std::string &name);
Histogram &histogram(const std::string &name);

/**
 * Histogram with explicit bucket bounds (must be nonempty and strictly
 * increasing). If the histogram already exists, the existing instance
 * is returned and @p upper_bounds is ignored — first creation wins.
 */
Histogram &histogram(const std::string &name,
                     std::vector<double> upper_bounds);

/** Snapshots every registered metric (safe while recording). */
MetricsSnapshot snapshotMetrics();

/** Zeroes every registered metric in place (references stay valid). */
void resetMetrics();

/**
 * Writes @p snapshot as a JSON document:
 *
 *   {"counters": {...}, "gauges": {...}, "histograms":
 *    {"name": {"bounds": [...], "buckets": [...],
 *              "count": N, "sum": S}, ...}}
 *
 * Doubles are printed with %.17g so a parse round-trips bit-exactly;
 * non-finite values are written as 0.
 */
void writeMetricsJson(std::ostream &out,
                      const MetricsSnapshot &snapshot);

/** Convenience: snapshots the registry and writes it. */
void writeMetricsJson(std::ostream &out);

/**
 * Checked parser for the writeMetricsJson schema (same contract style
 * as util::tryReadCsv: no exceptions, false + *error on malformed
 * input, *out untouched on failure). Accepts arbitrary JSON
 * whitespace; errors report a byte offset.
 */
bool tryParseMetricsJson(const std::string &text, MetricsSnapshot *out,
                         std::string *error);

/**
 * Writes the current snapshot to @p path. Returns false (with *error
 * set when non-null) if the file cannot be written.
 */
bool tryWriteMetricsFile(const std::string &path, std::string *error);

/** Scoped wall-clock timer recording elapsed microseconds on exit. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram &histogram)
        : histogram_(&histogram),
          start_(std::chrono::steady_clock::now())
    {
    }
    ~ScopedTimer()
    {
        const auto elapsed =
            std::chrono::steady_clock::now() - start_;
        histogram_->record(
            std::chrono::duration<double, std::micro>(elapsed).count());
    }
    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Histogram *histogram_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace obs
} // namespace ceer

// Macro plumbing. Each macro caches the registry lookup in a
// function-local static reference (thread-safe magic static), so after
// the first enabled hit the record path is: relaxed flag load, guard
// check, relaxed shard fetch_add.
#define CEER_OBS_CAT2(a, b) a##b
#define CEER_OBS_CAT(a, b) CEER_OBS_CAT2(a, b)

/** Adds @p n to counter @p name (no-op while disabled). */
#define OBS_COUNTER_ADD(name, n)                                       \
    do {                                                               \
        if (::ceer::obs::enabled()) {                                  \
            static ::ceer::obs::Counter &CEER_OBS_CAT(obs_c_,          \
                                                      __LINE__) =      \
                ::ceer::obs::counter(name);                            \
            CEER_OBS_CAT(obs_c_, __LINE__)                             \
                .add(static_cast<std::uint64_t>(n));                   \
        }                                                              \
    } while (0)

/** Increments counter @p name by one (no-op while disabled). */
#define OBS_COUNTER_INC(name) OBS_COUNTER_ADD(name, 1)

/** Sets gauge @p name to @p v (no-op while disabled). */
#define OBS_GAUGE_SET(name, v)                                         \
    do {                                                               \
        if (::ceer::obs::enabled()) {                                  \
            static ::ceer::obs::Gauge &CEER_OBS_CAT(obs_g_,            \
                                                    __LINE__) =        \
                ::ceer::obs::gauge(name);                              \
            CEER_OBS_CAT(obs_g_, __LINE__)                             \
                .set(static_cast<double>(v));                          \
        }                                                              \
    } while (0)

/** Records @p v into histogram @p name (no-op while disabled). */
#define OBS_HISTOGRAM_RECORD(name, v)                                  \
    do {                                                               \
        if (::ceer::obs::enabled()) {                                  \
            static ::ceer::obs::Histogram &CEER_OBS_CAT(obs_h_,        \
                                                        __LINE__) =    \
                ::ceer::obs::histogram(name);                          \
            CEER_OBS_CAT(obs_h_, __LINE__)                             \
                .record(static_cast<double>(v));                       \
        }                                                              \
    } while (0)

/**
 * Times the enclosing scope into histogram @p name (microseconds).
 * While disabled this declares an empty optional and takes no clock
 * readings.
 */
#define OBS_TIMER(name)                                                \
    std::optional<::ceer::obs::ScopedTimer> CEER_OBS_CAT(obs_t_,       \
                                                         __LINE__);    \
    if (::ceer::obs::enabled()) {                                      \
        static ::ceer::obs::Histogram &CEER_OBS_CAT(obs_th_,           \
                                                    __LINE__) =        \
            ::ceer::obs::histogram(name);                              \
        CEER_OBS_CAT(obs_t_, __LINE__)                                 \
            .emplace(CEER_OBS_CAT(obs_th_, __LINE__));                 \
    }                                                                  \
    static_assert(true, "require a trailing semicolon")

#endif // CEER_OBS_METRICS_H
