#include "core/predict_plan.h"

#include <algorithm>
#include <array>
#include <vector>

#include "core/predictor.h"
#include "obs/metrics.h"
#include "profile/features.h"
#include "util/logging.h"

// The evaluation kernel is multiversioned via the shared macro; this
// TU is compiled with -ffp-contract=off (see CMakeLists.txt) so no
// clone fuses multiply-add into FMA and every clone returns the same
// bits as summing OpTimeModel::predictUs node by node.
#include "util/target_clones.h"

namespace ceer {
namespace core {

namespace plan_kernel {

namespace {
/** Rows processed per kernel block (accumulator tile size). */
constexpr std::size_t kBlock = 256;
} // namespace

CEER_VECTOR_CLONES double
dotClampSum(const double *x, std::size_t n, std::size_t d,
            const double *w, const double *s, double intercept)
{
    // Per block: seed every lane with the intercept, stream the
    // feature columns (j outermost, so each lane replays
    // LinearModel::predict's j-ascending add sequence exactly), then
    // clamp and fold into the running sum. The sum is carried across
    // blocks left-to-right, so the overall association matches a
    // plain per-node scalar accumulation.
    std::array<double, kBlock> acc;
    double sum = 0.0;
    for (std::size_t start = 0; start < n; start += kBlock) {
        const std::size_t len = std::min(kBlock, n - start);
        const double *rows = x + start * d;
        for (std::size_t i = 0; i < len; ++i)
            acc[i] = intercept;
        for (std::size_t j = 0; j < d; ++j) {
            const double wj = w[j];
            const double sj = s[j];
            for (std::size_t i = 0; i < len; ++i)
                acc[i] += wj * (rows[i * d + j] / sj);
        }
        for (std::size_t i = 0; i < len; ++i)
            sum += std::max(acc[i], 1.0);
    }
    return sum;
}

} // namespace plan_kernel

double
PredictPlan::heavyUs(hw::GpuModel gpu) const
{
    const std::size_t slot = static_cast<std::size_t>(gpu);
    if (slot >= heavyUs_.size())
        util::panic("PredictPlan::heavyUs: unknown GPU slot");
    return heavyUs_[slot];
}

double
PredictPlan::lightUs() const
{
    return static_cast<double>(lightCount_) * lightMedianUs_;
}

double
PredictPlan::cpuUs() const
{
    return static_cast<double>(cpuCount_) * cpuMedianUs_;
}

std::size_t
PredictPlan::approxBytes() const
{
    std::size_t bytes = sizeof *this;
    bytes += groups_.capacity() * sizeof(OpGroup);
    for (const OpGroup &group : groups_)
        bytes += group.us.capacity() * sizeof(double);
    bytes += heavyUs_.capacity() * sizeof(double);
    return bytes;
}

PredictPlan
CeerPredictor::compile(const graph::Graph &g) const
{
    OBS_TIMER("predictor.compile_us");
    OBS_COUNTER_INC("predictor.plan_builds");
    PredictPlan plan;
    plan.nodeCount_ = g.size();
    plan.lightMedianUs_ = model_.lightMedianUs;
    plan.cpuMedianUs_ = model_.cpuMedianUs;
    plan.paramCount_ = static_cast<double>(g.totalParameters());

    std::size_t gpu_slots = 0;
    for (hw::GpuModel gpu : hw::allGpuModels())
        gpu_slots = std::max(gpu_slots,
                             static_cast<std::size_t>(gpu) + 1);

    // One walk: classify every node once; heavy instances append a
    // feature row to their op type's matrix (groups in first-appearance
    // order, rows in graph order — the accumulation order contract).
    std::vector<std::vector<double>> features;
    for (const graph::Node &node : g.nodes()) {
        switch (model_.classify(node.type)) {
          case OpClass::Cpu:
            ++plan.cpuCount_;
            break;
          case OpClass::Light:
            ++plan.lightCount_;
            break;
          case OpClass::Heavy: {
            std::size_t index = 0;
            while (index < plan.groups_.size() &&
                   plan.groups_[index].op != node.type)
                ++index;
            if (index == plan.groups_.size()) {
                plan.groups_.emplace_back();
                plan.groups_.back().op = node.type;
                features.emplace_back();
            }
            const std::vector<double> row = profile::opFeatures(node);
            features[index].insert(features[index].end(), row.begin(),
                                   row.end());
            ++plan.heavyCount_;
            break;
          }
        }
    }

    // Every GPU's group sums: the dense kernel over the fitted model's
    // scaled space, or the flat per-node fallback (unusable fit ->
    // clamped median; never profiled on this GPU -> the paper's
    // light-median rule for unseen operations). The quadratic
    // expansion is built only when some GPU's fit selected it.
    const std::size_t d = profile::kNumOpFeatures;
    std::vector<double> quad;
    for (std::size_t index = 0; index < plan.groups_.size(); ++index) {
        PredictPlan::OpGroup &group = plan.groups_[index];
        const std::vector<double> &raw = features[index];
        const std::size_t rows = raw.size() / d;
        group.us.assign(gpu_slots, 0.0);
        quad.clear();
        for (hw::GpuModel gpu : hw::allGpuModels()) {
            const OpTimeModel *op_model = model_.opModel(gpu, group.op);
            double &us = group.us[static_cast<std::size_t>(gpu)];
            if (!op_model) {
                us = static_cast<double>(rows) * model_.lightMedianUs;
            } else if (!op_model->usable) {
                us = static_cast<double>(rows) *
                     std::max(op_model->medianUs, 1.0);
            } else {
                if (op_model->quadratic && quad.empty()) {
                    quad.reserve(rows * 2 * d);
                    for (std::size_t row = 0; row < rows; ++row) {
                        const double *x = raw.data() + row * d;
                        quad.insert(quad.end(), x, x + d);
                        for (std::size_t j = 0; j < d; ++j)
                            quad.push_back(x[j] * x[j]);
                    }
                }
                const LinearModel &fit = op_model->model;
                us = plan_kernel::dotClampSum(
                    op_model->quadratic ? quad.data() : raw.data(), rows,
                    fit.scaledWeights().size(),
                    fit.scaledWeights().data(), fit.scales().data(),
                    fit.intercept());
            }
        }
    }
    // Per-GPU totals, added in group order.
    plan.heavyUs_.assign(gpu_slots, 0.0);
    for (const PredictPlan::OpGroup &group : plan.groups_)
        for (std::size_t slot = 0; slot < gpu_slots; ++slot)
            plan.heavyUs_[slot] += group.us[slot];
    return plan;
}

} // namespace core
} // namespace ceer
