/**
 * @file
 * Test-only reference evaluators: Eq. 2 as a node-by-node walk over
 * a graph through CeerModel's public API, which the compiled
 * PredictPlan must reproduce bit for bit, and a recommendation that
 * predicts every candidate on its own, which the recommender's
 * once-per-(GPU, k) sweep must reproduce bit for bit.
 */

#ifndef CEER_TESTS_REFERENCE_WALK_H
#define CEER_TESTS_REFERENCE_WALK_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include <cstdint>
#include <cstring>
#include <utility>

#include <gtest/gtest.h>

#include "core/predictor.h"
#include "core/recommender.h"
#include "graph/graph.h"
#include "hw/memory.h"
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

/**
 * Reference recommendation: one predictTraining call per candidate,
 * then the serial candidate-order reduction (strict <, so the first
 * of tied candidates wins).
 */
inline Recommendation
referenceRecommendation(const CeerPredictor &predictor,
                        const PredictPlan &plan,
                        const WorkloadSpec &workload,
                        const std::vector<cloud::GpuInstance> &candidates,
                        const ObjectiveFn &objective,
                        const Constraints &constraints)
{
    Recommendation result;
    // Memory verdicts depend only on the GPU; memoized because the
    // estimate walks every node.
    std::vector<std::pair<hw::GpuModel, bool>> fits;
    const auto fitsMemory = [&](hw::GpuModel gpu) {
        for (const auto &[known, fit] : fits)
            if (known == gpu)
                return fit;
        fits.emplace_back(gpu, hw::fitsInGpuMemory(*workload.graph, gpu));
        return fits.back().second;
    };
    for (const cloud::GpuInstance &instance : candidates) {
        CandidateEvaluation evaluation;
        evaluation.instance = instance;
        evaluation.prediction = predictor.predictTraining(
            plan, instance, workload.datasetSamples,
            workload.batchPerGpu);
        evaluation.costUsd =
            evaluation.prediction.costUsd(instance.hourlyUsd);
        evaluation.withinHourly =
            instance.hourlyUsd <= constraints.hourlyBudgetUsd +
                                      constraints.hourlyToleranceUsd;
        evaluation.withinTotal =
            evaluation.costUsd <= constraints.totalBudgetUsd;
        evaluation.fitsMemory =
            !constraints.enforceGpuMemory || fitsMemory(instance.gpu);
        result.evaluations.push_back(evaluation);
    }
    for (std::size_t i = 0; i < result.evaluations.size(); ++i) {
        const CandidateEvaluation &candidate = result.evaluations[i];
        if (!candidate.feasible())
            continue;
        if (result.bestIndex < 0 ||
            objective(candidate.prediction.hours, candidate.costUsd) <
                objective(result.best().prediction.hours,
                          result.best().costUsd))
            result.bestIndex = static_cast<int>(i);
    }
    return result;
}

/** Bit pattern of a double (== would conflate +0.0 and -0.0). */
inline std::uint64_t
referenceBits(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

/** Expects @p actual to equal @p expected field by field, bit for bit. */
inline void
expectSameRecommendation(const Recommendation &expected,
                         const Recommendation &actual)
{
    EXPECT_EQ(actual.bestIndex, expected.bestIndex);
    ASSERT_EQ(actual.evaluations.size(), expected.evaluations.size());
    for (std::size_t i = 0; i < expected.evaluations.size(); ++i) {
        const CandidateEvaluation &a = expected.evaluations[i];
        const CandidateEvaluation &b = actual.evaluations[i];
        SCOPED_TRACE(testing::Message()
                     << "candidate " << i << " " << a.instance.name);
        ASSERT_EQ(b.instance.name, a.instance.name);
        ASSERT_EQ(b.instance.gpu, a.instance.gpu);
        ASSERT_EQ(b.instance.numGpus, a.instance.numGpus);
        ASSERT_EQ(referenceBits(b.instance.hourlyUsd),
                  referenceBits(a.instance.hourlyUsd));
        ASSERT_EQ(b.prediction.iterations, a.prediction.iterations);
        ASSERT_EQ(referenceBits(b.prediction.iterationUs),
                  referenceBits(a.prediction.iterationUs));
        ASSERT_EQ(referenceBits(b.prediction.hours),
                  referenceBits(a.prediction.hours));
        ASSERT_EQ(referenceBits(b.costUsd), referenceBits(a.costUsd));
        ASSERT_EQ(b.withinHourly, a.withinHourly);
        ASSERT_EQ(b.withinTotal, a.withinTotal);
        ASSERT_EQ(b.fitsMemory, a.fitsMemory);
    }
}

} // namespace core
} // namespace ceer

#endif // CEER_TESTS_REFERENCE_WALK_H
