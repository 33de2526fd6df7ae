/**
 * @file
 * Streaming and batch statistics used throughout profiling and modeling.
 */

#ifndef CEER_UTIL_STATS_H
#define CEER_UTIL_STATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ceer {
namespace util {

/**
 * Numerically stable streaming moments (Welford's algorithm).
 *
 * Tracks count, mean, variance, min and max of a sample stream without
 * storing the samples.
 */
class RunningStats
{
  public:
    /** Adds one observation. */
    void add(double x);

    /** Merges another accumulator into this one (parallel Welford). */
    void merge(const RunningStats &other);

    /** Number of observations added so far. */
    std::size_t count() const { return count_; }

    /** Sample mean; 0 when empty. */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Unbiased sample variance; 0 with fewer than two observations. */
    double variance() const;

    /** Square root of variance(). */
    double stddev() const;

    /**
     * Standard deviation normalized by the mean (coefficient of
     * variation); 0 when the mean is 0.
     */
    double normalizedStddev() const;

    /** Smallest observation; +inf when empty. */
    double min() const;

    /** Largest observation; -inf when empty. */
    double max() const;

    /** Sum of all observations. */
    double sum() const { return mean_ * static_cast<double>(count_); }

    /**
     * Welford M2 accumulator (sum of squared deviations from the
     * mean); exposed so the CBF codecs can serialize the exact
     * internal state instead of a lossy (count, mean, stddev) triple.
     */
    double sumSquaredDeviations() const { return m2_; }

    /**
     * Reconstructs an accumulator from its exact internal state as
     * captured by count()/mean()/sumSquaredDeviations()/min()/max().
     * A zero count yields a default (empty) accumulator regardless of
     * the other arguments.
     */
    static RunningStats fromState(std::size_t count, double mean,
                                  double m2, double min, double max);

    /**
     * The accumulator that add() builds from @p count observations
     * alternating mean + h, mean - h, mean + h, ..., where
     * h = stddev * sqrt((count - 1) / count): a two-point distribution
     * with the given (count, mean, stddev), as stored by the profile
     * CSV. count == 1 adds @p mean once; count == 0 is empty. Runs the
     * same Welford recurrence as add(), so every moment is
     * bit-identical to the add() loop.
     */
    static RunningStats twoPoint(std::size_t count, double mean,
                                 double stddev);

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Bounded reservoir of samples supporting order statistics.
 *
 * Keeps at most @c capacity samples via reservoir sampling so that median
 * and percentile queries stay O(capacity log capacity) regardless of how
 * many observations were offered. Deterministic given the insertion order.
 */
class SampleReservoir
{
  public:
    /** @param capacity Maximum number of retained samples (> 0). */
    explicit SampleReservoir(std::size_t capacity = 4096);

    /** Offers one observation to the reservoir. */
    void add(double x);

    /** Total observations offered (not just retained). */
    std::size_t offered() const { return offered_; }

    /** Maximum number of retained samples. */
    std::size_t capacity() const { return capacity_; }

    /**
     * Internal replacement-RNG state; exposed (with fromState) so the
     * CBF codecs restore a reservoir that continues the exact sample
     * stream the original would have produced.
     */
    std::uint64_t rngState() const { return rngState_; }

    /**
     * Reconstructs a reservoir from its exact internal state. Panics
     * on inconsistent state (capacity 0, more samples than capacity,
     * or a retained count that contradicts @p offered); binary loaders
     * validate before calling so corrupt files degrade to load errors
     * instead.
     */
    static SampleReservoir fromState(std::size_t capacity,
                                     std::size_t offered,
                                     std::uint64_t rng_state,
                                     std::vector<double> samples);

    /** Currently retained samples (unsorted). */
    const std::vector<double> &samples() const { return samples_; }

    /** Median of retained samples; 0 when empty. */
    double median() const;

    /**
     * Percentile of retained samples with linear interpolation.
     *
     * @param p Percentile in [0, 100].
     */
    double percentile(double p) const;

  private:
    std::size_t capacity_;
    std::size_t offered_ = 0;
    std::uint64_t rngState_;
    std::vector<double> samples_;
};

/** Returns the median of @p values (copied and partially sorted). */
double median(std::vector<double> values);

/**
 * Returns the @p p percentile (0-100) of @p values with linear
 * interpolation between closest ranks; 0 for an empty vector.
 */
double percentile(std::vector<double> values, double p);

/** One point of an empirical CDF: P(X <= value) = cumulative. */
struct CdfPoint
{
    double value;      ///< Sample value.
    double cumulative; ///< Fraction of samples <= value, in (0, 1].
};

/**
 * Builds an empirical CDF from samples.
 *
 * @param values     Observations (copied and sorted).
 * @param maxPoints  Downsample to at most this many points (>= 2).
 */
std::vector<CdfPoint> empiricalCdf(std::vector<double> values,
                                   std::size_t maxPoints = 200);

/** Mean absolute percentage error of predictions vs observations. */
double meanAbsolutePercentageError(const std::vector<double> &observed,
                                   const std::vector<double> &predicted);

/** Root-mean-squared error of predictions vs observations. */
double rootMeanSquaredError(const std::vector<double> &observed,
                            const std::vector<double> &predicted);

/**
 * Spearman rank correlation of two paired samples (Pearson correlation
 * of their fractional ranks; ties receive averaged ranks). Returns 0
 * when either side has fewer than two points or zero rank variance —
 * the coefficient is undefined there, and 0 ("no agreement signal") is
 * the conservative report for a ranking-quality metric.
 */
double spearmanRankCorrelation(const std::vector<double> &a,
                               const std::vector<double> &b);

} // namespace util
} // namespace ceer

#endif // CEER_UTIL_STATS_H
