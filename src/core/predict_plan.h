/**
 * @file
 * Compiled prediction plans: the one-time workload half of the
 * predictor's compile -> evaluate split.
 *
 * Eq. 2 is a sum over graph operations, so nothing about a CNN's
 * terms depends on the candidate (GPU, k) being scored.
 * CeerPredictor::compile walks the graph exactly once, gathers each
 * heavy op type's instances into a dense row-major feature matrix
 * (plus its quadratic expansion when some GPU's fit is quadratic), and
 * evaluates every GPU's heavy term right there: one dense
 * matrix-vector product per (op type, GPU) with the per-node
 * max(., 1.0) clamp applied lane-wise in a vectorized kernel. The
 * matrices are then dropped; the plan keeps only
 *
 *  - the per-(op type, GPU) heavy sums and a per-GPU total, summed in
 *    op-type first-appearance order;
 *  - light / CPU op counts, the snapshotted medians and the cached
 *    parameter count.
 *
 * predictIterationUs(plan, gpu, k) then reads the heavy total and adds
 * the light, CPU and communication terms; only the last depends on k.
 *
 * Determinism contract: every group sum is the left-to-right sum of
 * its nodes' clamped OpTimeModel::predictUs estimates in graph order
 * (the kernel replays LinearModel::predict's exact operation sequence
 * per lane), and the heavy total adds the groups in first-appearance
 * order — pinned bit for bit against a reference node walk by
 * PredictPlanTest.MatchesScalarWalkBitForBit. A plan is immutable
 * after compile(), so one plan may be evaluated from many threads.
 */

#ifndef CEER_CORE_PREDICT_PLAN_H
#define CEER_CORE_PREDICT_PLAN_H

#include <cstddef>
#include <vector>

#include "graph/op_type.h"
#include "hw/gpu_spec.h"

namespace ceer {
namespace core {

class CeerPredictor;

/**
 * A graph compiled against one predictor's model. Obtain via
 * CeerPredictor::compile(); evaluate via the plan-taking members of
 * the SAME predictor (the plan snapshots the op models, but the
 * communication model is read from the live predictor at evaluation
 * time).
 */
class PredictPlan
{
  public:
    /** Number of nodes in the compiled graph. */
    std::size_t nodeCount() const { return nodeCount_; }

    /** Heavy op-type groups (first-appearance order). */
    std::size_t groupCount() const { return groups_.size(); }

    /** Total heavy node instances across all groups. */
    std::size_t heavyCount() const { return heavyCount_; }

    /** Nodes classified light. */
    std::size_t lightCount() const { return lightCount_; }

    /** Nodes classified CPU. */
    std::size_t cpuCount() const { return cpuCount_; }

    /** Cached trainable-parameter count of the compiled graph. */
    double paramCount() const { return paramCount_; }

    /**
     * Heavy-term sum for @p gpu: the sum over all heavy nodes of their
     * clamped regression estimates, computed at compile().
     */
    double heavyUs(hw::GpuModel gpu) const;

    /** Light-term total: lightCount() * the snapshotted light median. */
    double lightUs() const;

    /** CPU-term total: cpuCount() * the snapshotted CPU median. */
    double cpuUs() const;

    /**
     * Approximate resident size in bytes (the per-GPU sums). Used for
     * cache accounting — an estimate, not an exact heap measurement.
     */
    std::size_t approxBytes() const;

  private:
    friend class CeerPredictor;
    PredictPlan() = default;

    /** All instances of one heavy op type. */
    struct OpGroup
    {
        graph::OpType op = graph::OpType::Identity;
        /** Sum of the group's clamped estimates, indexed by
         *  static_cast<std::size_t>(hw::GpuModel). */
        std::vector<double> us;
    };

    std::vector<OpGroup> groups_;
    /** Per-GPU sum of groups_[*].us in group order. */
    std::vector<double> heavyUs_;
    std::size_t nodeCount_ = 0;
    std::size_t heavyCount_ = 0;
    std::size_t lightCount_ = 0;
    std::size_t cpuCount_ = 0;
    double lightMedianUs_ = 0.0;
    double cpuMedianUs_ = 0.0;
    double paramCount_ = 0.0;
};

namespace plan_kernel {

/**
 * The plan evaluation kernel: for each row i of the row-major
 * @p n x @p d matrix @p x, computes the clamped linear estimate
 *
 *   max(intercept + sum_j w[j] * (x[i*d + j] / s[j]), 1.0)
 *
 * and returns the left-to-right sum over rows. The per-lane operation
 * sequence is exactly LinearModel::predict followed by OpTimeModel's
 * clamp, and the translation unit is compiled with -ffp-contract=off,
 * so the result is bit-identical to summing OpTimeModel::predictUs
 * per node on every clone the runtime dispatches to.
 */
double dotClampSum(const double *x, std::size_t n, std::size_t d,
                   const double *w, const double *s, double intercept);

} // namespace plan_kernel

} // namespace core
} // namespace ceer

#endif // CEER_CORE_PREDICT_PLAN_H
