#include "core/predictor.h"

#include <algorithm>

#include "util/logging.h"

namespace ceer {
namespace core {

using hw::GpuModel;

CeerPredictor::CeerPredictor(CeerModel model) : model_(std::move(model))
{
}

double
CeerPredictor::predictIterationUs(const PredictPlan &plan, GpuModel gpu,
                                  int num_gpus,
                                  const PredictOptions &options) const
{
    double total = plan.heavyUs(gpu);
    if (options.includeLightAndCpu) {
        total += plan.lightUs();
        total += plan.cpuUs();
    }
    if (options.includeComm) {
        total += model_.comm.overheadUs(gpu, num_gpus,
                                        plan.paramCount());
    }
    return total;
}

PredictionBreakdown
CeerPredictor::breakdown(const PredictPlan &plan, GpuModel gpu,
                         int num_gpus) const
{
    // The same terms predictIterationUs adds, in the same order, so
    // totalUs() reproduces it bit for bit.
    PredictionBreakdown result;
    result.heavyUs = plan.heavyUs(gpu);
    result.lightUs = plan.lightUs();
    result.cpuUs = plan.cpuUs();
    result.commUs = model_.comm.overheadUs(gpu, num_gpus,
                                           plan.paramCount());
    const std::size_t slot = static_cast<std::size_t>(gpu);
    for (const PredictPlan::OpGroup &group : plan.groups_)
        result.heavyByType.emplace_back(group.op, group.us[slot]);
    std::sort(result.heavyByType.begin(), result.heavyByType.end(),
              [](const auto &a, const auto &b) {
                  return a.second != b.second ? a.second > b.second
                                              : a.first < b.first;
              });
    return result;
}

TrainingPrediction
makeTrainingPrediction(double iteration_us, int num_gpus,
                       std::int64_t dataset_samples,
                       std::int64_t batch_per_gpu)
{
    if (dataset_samples <= 0 || batch_per_gpu <= 0)
        util::panic("predictTraining: dataset and batch must be > 0");
    TrainingPrediction prediction;
    const std::int64_t per_iteration =
        batch_per_gpu * static_cast<std::int64_t>(num_gpus);
    prediction.iterations =
        (dataset_samples + per_iteration - 1) / per_iteration;
    prediction.iterationUs = iteration_us;
    prediction.hours = prediction.iterationUs *
                       static_cast<double>(prediction.iterations) /
                       3.6e9;
    return prediction;
}

TrainingPrediction
CeerPredictor::predictTraining(const PredictPlan &plan, GpuModel gpu,
                               int num_gpus,
                               std::int64_t dataset_samples,
                               std::int64_t batch_per_gpu,
                               const PredictOptions &options) const
{
    return makeTrainingPrediction(
        predictIterationUs(plan, gpu, num_gpus, options), num_gpus,
        dataset_samples, batch_per_gpu);
}

TrainingPrediction
CeerPredictor::predictTraining(const PredictPlan &plan,
                               const cloud::GpuInstance &instance,
                               std::int64_t dataset_samples,
                               std::int64_t batch_per_gpu,
                               const PredictOptions &options) const
{
    return predictTraining(plan, instance.gpu, instance.numGpus,
                           dataset_samples, batch_per_gpu, options);
}

} // namespace core
} // namespace ceer
