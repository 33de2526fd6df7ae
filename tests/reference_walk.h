/**
 * @file
 * Test-only reference evaluator of Eq. 2: a node-by-node walk over a
 * graph through CeerModel's public API, which the compiled
 * PredictPlan must reproduce bit for bit.
 */

#ifndef CEER_TESTS_REFERENCE_WALK_H
#define CEER_TESTS_REFERENCE_WALK_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/predictor.h"
#include "graph/graph.h"
#include "profile/features.h"

namespace ceer {
namespace core {

/**
 * Reference evaluation of Eq. 2, walking @p g node by node through
 * CeerModel's public API. Heavy nodes are summed per op type in
 * first-appearance order, nodes in graph order: a fitted type adds
 * each node's clamped OpTimeModel::predictUs; an unusable fit adds
 * count * the clamped median; a type never profiled on @p gpu adds
 * count * the light median (the paper's unseen-op rule). Light and
 * CPU ops are count * median; then S_GPU(k, params). This is the
 * accumulation order the compiled plan promises to reproduce.
 */
inline double
referenceIterationUs(const CeerModel &model, const graph::Graph &g,
                     hw::GpuModel gpu, int num_gpus,
                     const PredictOptions &options)
{
    struct Group
    {
        graph::OpType op;
        const OpTimeModel *fit; ///< Null: every node adds flatUs.
        double flatUs;
        double sumUs = 0.0;
        std::size_t count = 0;
    };
    std::vector<Group> groups;
    std::size_t light = 0, cpu = 0;
    for (const graph::Node &node : g.nodes()) {
        switch (model.classify(node.type)) {
          case OpClass::Cpu:
            ++cpu;
            break;
          case OpClass::Light:
            ++light;
            break;
          case OpClass::Heavy: {
            auto group = std::find_if(
                groups.begin(), groups.end(),
                [&](const Group &c) { return c.op == node.type; });
            if (group == groups.end()) {
                const OpTimeModel *fit = model.opModel(gpu, node.type);
                Group fresh{node.type, nullptr, model.lightMedianUs};
                if (fit && fit->usable)
                    fresh.fit = fit;
                else if (fit)
                    fresh.flatUs = std::max(fit->medianUs, 1.0);
                groups.push_back(fresh);
                group = groups.end() - 1;
            }
            ++group->count;
            if (group->fit)
                group->sumUs +=
                    group->fit->predictUs(profile::opFeatures(node));
            break;
          }
        }
    }
    double total = 0.0;
    for (const Group &group : groups)
        total += group.fit
                     ? group.sumUs
                     : static_cast<double>(group.count) * group.flatUs;
    if (options.includeLightAndCpu) {
        total += static_cast<double>(light) * model.lightMedianUs;
        total += static_cast<double>(cpu) * model.cpuMedianUs;
    }
    if (options.includeComm)
        total += model.comm.overheadUs(
            gpu, num_gpus, static_cast<double>(g.totalParameters()));
    return total;
}

} // namespace core
} // namespace ceer

#endif // CEER_TESTS_REFERENCE_WALK_H
