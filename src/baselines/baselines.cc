#include "baselines/baselines.h"

#include "util/logging.h"

namespace ceer {
namespace baselines {

const cloud::GpuInstance &
cheapestInstance(const std::vector<cloud::GpuInstance> &candidates)
{
    const cloud::GpuInstance *best = nullptr;
    for (const auto &candidate : candidates) {
        if (!best || candidate.hourlyUsd < best->hourlyUsd)
            best = &candidate;
    }
    if (!best)
        util::fatal("cheapestInstance: empty candidate list");
    return *best;
}

const cloud::GpuInstance &
latestGenerationInstance(
    const std::vector<cloud::GpuInstance> &candidates,
    double hourly_budget)
{
    const cloud::GpuInstance *best = nullptr;
    for (const auto &candidate : candidates) {
        if (candidate.gpu != hw::GpuModel::V100 ||
            candidate.hourlyUsd > hourly_budget) {
            continue;
        }
        if (!best || candidate.numGpus > best->numGpus)
            best = &candidate;
    }
    if (!best)
        util::fatal("latestGenerationInstance: no P3 candidate within "
                    "budget");
    return *best;
}

} // namespace baselines
} // namespace ceer
