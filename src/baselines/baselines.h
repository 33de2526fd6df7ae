/**
 * @file
 * Instance-selection baselines the paper compares Ceer against
 * (Sec. V):
 *  - "cheapest": rent the instance with the lowest hourly price;
 *  - "latest generation": rent the newest-GPU (P3) instance, as AWS
 *    lists by default — the largest one that fits the constraint.
 *
 * The predictor ablations and comparators (Secs. IV, VII) are engines
 * in the baselines/predictor.h registry.
 */

#ifndef CEER_BASELINES_BASELINES_H
#define CEER_BASELINES_BASELINES_H

#include <limits>

#include "cloud/instances.h"

namespace ceer {
namespace baselines {

/** The lowest-hourly-price candidate; fatals on an empty list. */
const cloud::GpuInstance &
cheapestInstance(const std::vector<cloud::GpuInstance> &candidates);

/**
 * The largest latest-generation (P3/V100) candidate whose hourly price
 * is within @p hourly_budget; falls back to the largest P3 when the
 * budget is infinite. Fatals when no P3 candidate fits.
 */
const cloud::GpuInstance &latestGenerationInstance(
    const std::vector<cloud::GpuInstance> &candidates,
    double hourly_budget = std::numeric_limits<double>::infinity());

} // namespace baselines
} // namespace ceer

#endif // CEER_BASELINES_BASELINES_H
