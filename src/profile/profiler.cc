#include "profile/profiler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "io/cbf.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "profile/features.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/random.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace ceer {
namespace profile {

using graph::Device;
using graph::Graph;
using graph::Node;
using graph::OpType;

Profiler::Profiler(const Graph &g, std::string model, hw::GpuModel gpu)
    : graph_(&g), model_(std::move(model)), gpu_(gpu)
{
    // Pre-bucket nodes by instance key so observe() is an array index.
    std::map<std::string, std::size_t> index;
    nodeToProfile_.reserve(g.size());
    for (const Node &node : g.nodes()) {
        const std::string key = opInstanceKey(node);
        auto it = index.find(key);
        if (it == index.end()) {
            OpProfile profile;
            profile.model = model_;
            profile.gpu = gpu_;
            profile.op = node.type;
            profile.onCpu = node.device() == Device::Cpu;
            profile.features = opFeatures(node);
            it = index.emplace(key, profiles_.size()).first;
            profiles_.push_back(std::move(profile));
        }
        profiles_[it->second].occurrences++;
        nodeToProfile_.push_back(it->second);
    }
}

void
Profiler::observe(const Node &node, double time_us)
{
    OpProfile &profile =
        profiles_[nodeToProfile_[static_cast<std::size_t>(node.id)]];
    profile.timeUs.add(time_us);
    profile.samples.add(time_us);
}

std::vector<OpProfile>
Profiler::takeProfiles()
{
    return std::move(profiles_);
}

void
ProfileDataset::add(std::vector<OpProfile> profiles)
{
    for (auto &profile : profiles) {
        const std::size_t index = ops_.size();
        opIndex_[{profile.gpu, profile.op}].push_back(index);
        gpuIndex_[profile.gpu].push_back(index);
        ops_.push_back(std::move(profile));
    }
}

void
ProfileDataset::addIteration(const IterationProfile &profile)
{
    iterations_.push_back(profile);
}

std::vector<const OpProfile *>
ProfileDataset::opsFor(hw::GpuModel gpu) const
{
    std::vector<const OpProfile *> out;
    const auto it = gpuIndex_.find(gpu);
    if (it == gpuIndex_.end())
        return out;
    out.reserve(it->second.size());
    for (std::size_t index : it->second)
        out.push_back(&ops_[index]);
    return out;
}

std::vector<const OpProfile *>
ProfileDataset::opsFor(hw::GpuModel gpu, OpType op) const
{
    std::vector<const OpProfile *> out;
    const auto it = opIndex_.find({gpu, op});
    if (it == opIndex_.end())
        return out;
    out.reserve(it->second.size());
    for (std::size_t index : it->second)
        out.push_back(&ops_[index]);
    return out;
}

double
ProfileDataset::meanTimeUs(hw::GpuModel gpu, OpType op) const
{
    // Execution-weighted mean across instances; summing in insertion
    // order matches the historical full-scan result bit for bit.
    const auto it = opIndex_.find({gpu, op});
    if (it == opIndex_.end())
        return 0.0;
    double total = 0.0;
    double count = 0.0;
    for (std::size_t index : it->second) {
        const OpProfile &profile = ops_[index];
        total += profile.timeUs.sum();
        count += static_cast<double>(profile.timeUs.count());
    }
    return count > 0.0 ? total / count : 0.0;
}

std::vector<OpType>
ProfileDataset::opTypes(hw::GpuModel gpu) const
{
    // opIndex_ keys are sorted by (gpu, op), so the slice for one GPU
    // yields op types in the same ascending order the old std::set
    // scan produced.
    std::vector<OpType> out;
    for (auto it = opIndex_.lower_bound({gpu, OpType{}});
         it != opIndex_.end() && it->first.first == gpu; ++it)
        out.push_back(it->first.second);
    return out;
}

namespace {

/**
 * The one row check for an iteration row, shared by the CSV and CBF
 * decoders: a known GPU and num_gpus in [1, INT_MAX], checked before
 * it is narrowed to int. @p row numbers the row in the caller's
 * dialect.
 */
bool
checkIterationRow(std::size_t row, const std::string &gpu,
                  std::int64_t num_gpus, IterationProfile *run,
                  std::string *error)
{
    if (!hw::gpuModelFromName(gpu, run->gpu)) {
        *error = util::format("iter row %zu: bad GPU '%s'", row,
                              gpu.c_str());
        return false;
    }
    if (num_gpus < 1 || num_gpus > std::numeric_limits<int>::max()) {
        *error = util::format(
            "iter row %zu: num_gpus %lld not in [1, %d]", row,
            static_cast<long long>(num_gpus),
            std::numeric_limits<int>::max());
        return false;
    }
    run->numGpus = static_cast<int>(num_gpus);
    return true;
}

/** Parses one numeric CSV field; a failure names its (row, column)
    coordinates plus the column name. */
bool
parseCsvDouble(const std::string &field, std::size_t row,
               std::size_t column, const char *name, double *out,
               std::string *error)
{
    const auto result = util::parseDouble(field);
    if (!result) {
        *error = util::format("row %zu column %zu (%s): %s: '%s'", row,
                              column, name, result.error, field.c_str());
        return false;
    }
    *out = result.value;
    return true;
}

/** One decoded profile-CSV data row: an iteration or an op profile. */
struct DecodedRow
{
    bool ok = false;
    bool isIteration = false;
    IterationProfile run;
    OpProfile op;
    std::string error; ///< Why the row is malformed, when !ok.
};

/** Decodes data row @p i (1-based after the header) into @p out;
    false leaves the row's error text in out->error. */
bool
decodeCsvRow(std::size_t i, const std::vector<std::string> &row,
             DecodedRow *out)
{
    std::string *error = &out->error;
    if (row.size() < 11) {
        *error = util::format("row %zu has %zu fields", i, row.size());
        return false;
    }
    if (row[0] == "iter") {
        out->isIteration = true;
        IterationProfile &run = out->run;
        run.model = row[1];
        const auto num_gpus = util::parseInt64(row[3]);
        if (!num_gpus) {
            *error = util::format(
                "row %zu column 4 (num_gpus): bad value '%s'", i,
                row[3].c_str());
            return false;
        }
        const auto params = util::parseInt64(row[4]);
        if (!params) {
            *error = util::format(
                "row %zu column 5 (param_count): %s: '%s'", i,
                params.error, row[4].c_str());
            return false;
        }
        run.paramCount = params.value;
        return parseCsvDouble(row[7], i, 8, "mean_iteration_us",
                              &run.meanIterationUs, error) &&
               parseCsvDouble(row[8], i, 9, "mean_compute_us",
                              &run.meanComputeUs, error) &&
               parseCsvDouble(row[9], i, 10, "mean_comm_us",
                              &run.meanCommUs, error) &&
               checkIterationRow(i, row[2], num_gpus.value, &run, error);
    }
    if (row[0] != "op") {
        *error = "unknown row kind '" + row[0] + "'";
        return false;
    }
    OpProfile &profile = out->op;
    profile.model = row[1];
    if (!hw::gpuModelFromName(row[2], profile.gpu)) {
        *error = "bad GPU " + row[2];
        return false;
    }
    if (!graph::opTypeFromName(row[3], profile.op)) {
        *error = "bad op " + row[3];
        return false;
    }
    profile.onCpu = row[4] == "cpu";
    const auto occurrences = util::parseSize(row[5]);
    if (!occurrences) {
        *error = util::format("row %zu column 6 (occurrences): %s: '%s'",
                              i, occurrences.error, row[5].c_str());
        return false;
    }
    profile.occurrences = occurrences.value;
    const auto count = util::parseSize(row[6]);
    if (!count) {
        *error = util::format("row %zu column 7 (count): %s: '%s'", i,
                              count.error, row[6].c_str());
        return false;
    }
    // The moment reconstruction below loops `count` times; a corrupt
    // count must not turn into a near-infinite loop.
    constexpr std::size_t kMaxPlausibleCount = 100'000'000;
    if (count.value > kMaxPlausibleCount) {
        *error = util::format(
            "row %zu column 7 (count): implausibly large count '%s'", i,
            row[6].c_str());
        return false;
    }
    double mean = 0.0, stddev = 0.0;
    if (!parseCsvDouble(row[7], i, 8, "mean_us", &mean, error) ||
        !parseCsvDouble(row[8], i, 9, "stddev_us", &stddev, error))
        return false;
    for (const auto &text : util::split(row[9], ';')) {
        if (text.empty())
            continue;
        double feature = 0.0;
        if (!parseCsvDouble(text, i, 10, "features", &feature, error))
            return false;
        profile.features.push_back(feature);
    }
    for (const auto &text : util::split(row[10], ';')) {
        if (text.empty())
            continue;
        double sample = 0.0;
        if (!parseCsvDouble(text, i, 11, "samples", &sample, error))
            return false;
        profile.samples.add(sample);
    }
    // The CSV keeps (count, mean, stddev); rebuild the accumulator as
    // a two-point distribution with those moments.
    profile.timeUs = util::RunningStats::twoPoint(count.value, mean, stddev);
    return true;
}

} // namespace

void
ProfileDataset::saveCsv(std::ostream &out) const
{
    // Rows are appended to one buffer that reaches the stream in
    // 64 KiB writes (a whole-file buffer would add the file's size to
    // peak memory); only the string fields can need CSV quoting.
    std::string text = "kind,model,gpu,op,device,occurrences,count,"
                       "mean_us,stddev_us,features,samples\n";
    const auto flush = [&](std::size_t at_least) {
        if (text.size() < at_least)
            return;
        out.write(text.data(), static_cast<std::streamsize>(text.size()));
        text.clear();
    };
    const auto add_text = [&text](const std::string &field) {
        text += util::CsvWriter::escape(field);
        text += ',';
    };
    const auto add_number = [&text](double value, int precision) {
        util::appendDouble(&text, value, precision);
        text += ',';
    };
    for (const auto &run : iterations_) {
        text += "iter,";
        add_text(run.model);
        add_text(hw::gpuModelName(run.gpu));
        text += std::to_string(run.numGpus) + ',' +
                std::to_string(run.paramCount) + ",,,";
        add_number(run.meanIterationUs, 9);
        add_number(run.meanComputeUs, 9);
        add_number(run.meanCommUs, 9);
        text += '\n';
    }
    const auto add_list = [&text](const std::vector<double> &values,
                                  int precision) {
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i)
                text += ';';
            util::appendDouble(&text, values[i], precision);
        }
    };
    for (const auto &profile : ops_) {
        text += "op,";
        add_text(profile.model);
        add_text(hw::gpuModelName(profile.gpu));
        add_text(graph::opTypeName(profile.op));
        text += profile.onCpu ? "cpu," : "gpu,";
        text += std::to_string(profile.occurrences) + ',' +
                std::to_string(profile.timeUs.count()) + ',';
        add_number(profile.timeUs.mean(), 9);
        add_number(profile.timeUs.stddev(), 9);
        add_list(profile.features, 17);
        text += ',';
        add_list(profile.samples.samples(), 6);
        text += '\n';
        flush(64 * 1024);
    }
    flush(1);
}

ProfileDataset
ProfileDataset::loadCsv(std::istream &in)
{
    ProfileDataset dataset;
    std::string error;
    if (!tryLoadCsv(in, &dataset, &error))
        util::fatal("ProfileDataset::loadCsv: " + error);
    return dataset;
}

bool
ProfileDataset::tryLoadCsv(std::istream &in, ProfileDataset *dataset,
                           std::string *error)
{
    std::vector<std::vector<std::string>> rows;
    if (!util::tryReadCsv(in, &rows, error))
        return false;
    // Data rows decode independently into their own slots on the pool:
    // an op row's moment replay takes 1 to ~10^5 Welford steps, so the
    // grain is measured. Slots are merged in row order below, which
    // keeps the dataset and the reported (lowest-numbered) bad row the
    // same at any thread count. decoded[i] is CSV row i (0 is the
    // header and stays unused).
    std::vector<DecodedRow> decoded(rows.size());
    util::parallelForRange(
        rows.empty() ? 0 : rows.size() - 1, util::ParallelOptions{},
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo + 1; i <= hi; ++i)
                decoded[i].ok = decodeCsvRow(i, rows[i], &decoded[i]);
        });
    rows.clear(); // Free the tokens before the merge: peak memory.
    ProfileDataset parsed;
    std::vector<OpProfile> loaded_ops;
    loaded_ops.reserve(decoded.size());
    for (std::size_t i = 1; i < decoded.size(); ++i) {
        DecodedRow &row = decoded[i];
        if (!row.ok) {
            *error = std::move(row.error);
            return false;
        }
        if (row.isIteration)
            parsed.iterations_.push_back(std::move(row.run));
        else
            loaded_ops.push_back(std::move(row.op));
    }
    // Route through add() so the (gpu, op) indices are built.
    parsed.add(std::move(loaded_ops));
    *dataset = std::move(parsed);
    return true;
}

void
ProfileDataset::saveCbf(std::ostream &out) const
{
    io::CbfBuilder builder;
    builder.addBytes("schema", "ceer.profiles.v1");

    std::vector<std::string> op_model, op_gpu, op_op;
    std::vector<std::uint8_t> on_cpu;
    std::vector<std::uint64_t> occurrences, time_count, sample_capacity,
        sample_offered, sample_rng;
    std::vector<double> time_mean, time_m2, time_min, time_max;
    std::vector<std::vector<double>> features, samples;
    for (const OpProfile &profile : ops_) {
        op_model.push_back(profile.model);
        op_gpu.push_back(hw::gpuModelName(profile.gpu));
        op_op.push_back(graph::opTypeName(profile.op));
        on_cpu.push_back(profile.onCpu ? 1 : 0);
        occurrences.push_back(profile.occurrences);
        features.push_back(profile.features);
        const bool has_obs = profile.timeUs.count() > 0;
        time_count.push_back(profile.timeUs.count());
        time_mean.push_back(has_obs ? profile.timeUs.mean() : 0.0);
        time_m2.push_back(profile.timeUs.sumSquaredDeviations());
        time_min.push_back(has_obs ? profile.timeUs.min() : 0.0);
        time_max.push_back(has_obs ? profile.timeUs.max() : 0.0);
        samples.push_back(profile.samples.samples());
        sample_capacity.push_back(profile.samples.capacity());
        sample_offered.push_back(profile.samples.offered());
        sample_rng.push_back(profile.samples.rngState());
    }
    io::addStringColumn(&builder, "op.model", op_model);
    io::addStringColumn(&builder, "op.gpu", op_gpu);
    io::addStringColumn(&builder, "op.op", op_op);
    builder.addU8("op.on_cpu", on_cpu);
    builder.addU64("op.occurrences", occurrences);
    io::addF64ListColumn(&builder, "op.features", features);
    builder.addU64("op.time_count", time_count);
    builder.addF64("op.time_mean", time_mean);
    builder.addF64("op.time_m2", time_m2);
    builder.addF64("op.time_min", time_min);
    builder.addF64("op.time_max", time_max);
    io::addF64ListColumn(&builder, "op.samples", samples);
    builder.addU64("op.sample_capacity", sample_capacity);
    builder.addU64("op.sample_offered", sample_offered);
    builder.addU64("op.sample_rng", sample_rng);

    std::vector<std::string> iter_model, iter_gpu;
    std::vector<std::int64_t> iter_gpus, iter_params;
    std::vector<double> iter_us, compute_us, comm_us;
    for (const IterationProfile &run : iterations_) {
        iter_model.push_back(run.model);
        iter_gpu.push_back(hw::gpuModelName(run.gpu));
        iter_gpus.push_back(run.numGpus);
        iter_params.push_back(run.paramCount);
        iter_us.push_back(run.meanIterationUs);
        compute_us.push_back(run.meanComputeUs);
        comm_us.push_back(run.meanCommUs);
    }
    io::addStringColumn(&builder, "iter.model", iter_model);
    io::addStringColumn(&builder, "iter.gpu", iter_gpu);
    builder.addI64("iter.num_gpus", iter_gpus);
    builder.addI64("iter.param_count", iter_params);
    builder.addF64("iter.mean_iteration_us", iter_us);
    builder.addF64("iter.mean_compute_us", compute_us);
    builder.addF64("iter.mean_comm_us", comm_us);

    builder.write(out);
}

bool
ProfileDataset::tryLoadCbf(const io::CbfFile &file,
                           ProfileDataset *dataset, std::string *error)
{
    if (!io::checkSchema(file, "ceer.profiles.v1", "a profiles", error))
        return false;

    io::RowGroup op(file, error);
    std::vector<std::string> op_model = op.str("op.model");
    const std::vector<std::string> op_gpu = op.str("op.gpu");
    const std::vector<std::string> op_op = op.str("op.op");
    const std::uint8_t *on_cpu = op.u8("op.on_cpu");
    const std::uint64_t *occurrences = op.u64("op.occurrences");
    std::vector<std::vector<double>> features = op.f64Lists("op.features");
    const std::uint64_t *time_count = op.u64("op.time_count");
    const double *time_mean = op.f64("op.time_mean");
    const double *time_m2 = op.f64("op.time_m2");
    const double *time_min = op.f64("op.time_min");
    const double *time_max = op.f64("op.time_max");
    std::vector<std::vector<double>> samples = op.f64Lists("op.samples");
    const std::uint64_t *sample_capacity = op.u64("op.sample_capacity");
    const std::uint64_t *sample_offered = op.u64("op.sample_offered");
    const std::uint64_t *sample_rng = op.u64("op.sample_rng");
    if (!op.ok())
        return false;

    std::vector<OpProfile> loaded_ops;
    loaded_ops.reserve(op.rows());
    for (std::size_t i = 0; i < op.rows(); ++i) {
        OpProfile profile;
        profile.model = std::move(op_model[i]);
        if (!hw::gpuModelFromName(op_gpu[i], profile.gpu)) {
            *error = util::format("op row %zu: bad GPU '%s'", i,
                                  op_gpu[i].c_str());
            return false;
        }
        if (!graph::opTypeFromName(op_op[i], profile.op)) {
            *error = util::format("op row %zu: bad op '%s'", i,
                                  op_op[i].c_str());
            return false;
        }
        profile.onCpu = on_cpu[i] != 0;
        profile.occurrences = occurrences[i];
        profile.features = std::move(features[i]);
        profile.timeUs = util::RunningStats::fromState(
            time_count[i], time_mean[i], time_m2[i], time_min[i],
            time_max[i]);
        const std::uint64_t capacity = sample_capacity[i];
        const std::uint64_t offered = sample_offered[i];
        const std::size_t retained = samples[i].size();
        const bool consistent =
            capacity > 0 && (offered <= capacity ? retained == offered
                                                 : retained == capacity);
        if (!consistent) {
            *error = util::format(
                "op row %zu: inconsistent sample reservoir (capacity "
                "%llu, offered %llu, retained %zu)",
                i, static_cast<unsigned long long>(capacity),
                static_cast<unsigned long long>(offered), retained);
            return false;
        }
        profile.samples = util::SampleReservoir::fromState(
            capacity, offered, sample_rng[i], std::move(samples[i]));
        loaded_ops.push_back(std::move(profile));
    }

    io::RowGroup iter(file, error);
    std::vector<std::string> iter_model = iter.str("iter.model");
    const std::vector<std::string> iter_gpu = iter.str("iter.gpu");
    const std::int64_t *iter_gpus = iter.i64("iter.num_gpus");
    const std::int64_t *iter_params = iter.i64("iter.param_count");
    const double *iter_us = iter.f64("iter.mean_iteration_us");
    const double *compute_us = iter.f64("iter.mean_compute_us");
    const double *comm_us = iter.f64("iter.mean_comm_us");
    if (!iter.ok())
        return false;

    ProfileDataset parsed;
    parsed.iterations_.reserve(iter.rows());
    for (std::size_t i = 0; i < iter.rows(); ++i) {
        IterationProfile run;
        run.model = std::move(iter_model[i]);
        run.paramCount = iter_params[i];
        run.meanIterationUs = iter_us[i];
        run.meanComputeUs = compute_us[i];
        run.meanCommUs = comm_us[i];
        if (!checkIterationRow(i, iter_gpu[i], iter_gpus[i], &run, error))
            return false;
        parsed.iterations_.push_back(std::move(run));
    }

    // Route through add() so the (gpu, op) indices are built.
    parsed.add(std::move(loaded_ops));
    *dataset = std::move(parsed);
    return true;
}

bool
ProfileDataset::tryLoadFile(const std::string &path,
                            ProfileDataset *dataset, std::string *error)
{
    return io::tryLoadFile(path, dataset, &tryLoadCbf, &tryLoadCsv,
                           error);
}

ProfileDataset
ProfileDataset::loadFile(const std::string &path)
{
    ProfileDataset dataset;
    std::string error;
    if (!tryLoadFile(path, &dataset, &error))
        util::fatal("ProfileDataset::loadFile: " + error);
    return dataset;
}

std::pair<std::vector<OpProfile>, IterationProfile>
profileRun(const Graph &g, const std::string &model_name,
           const sim::SimConfig &config, int iterations)
{
    Profiler profiler(g, model_name, config.gpu);
    sim::TrainingSimulator simulator(g, config);
    // Observed runs execute serially and in graph order (the observer
    // contract): parallelism lives one level up, across the sweep's
    // run tasks, so profile datasets stay byte-identical regardless
    // of either thread count.
    const sim::RunStats stats =
        simulator.run(iterations, profiler.observer());

    IterationProfile run;
    run.model = model_name;
    run.gpu = config.gpu;
    run.numGpus = config.numGpus;
    run.paramCount = g.totalParameters();
    run.meanIterationUs = stats.iterationUs.mean();
    run.meanComputeUs = stats.computeUs.mean();
    run.meanCommUs = stats.commUs.mean();
    return {profiler.takeProfiles(), run};
}

std::uint64_t
runSeed(std::uint64_t base_seed, const std::string &model,
        hw::GpuModel gpu, int num_gpus)
{
    std::uint64_t h = util::hashMix(base_seed, 0x43454552ull); // "CEER"
    h = util::hashMix(h, model);
    h = util::hashMix(h, static_cast<std::uint64_t>(gpu));
    h = util::hashMix(h, static_cast<std::uint64_t>(num_gpus));
    return h;
}

namespace {

/** One independent (CNN, GPU, k) profiling run of the sweep. */
struct RunTask
{
    std::size_t modelIndex = 0;
    hw::GpuModel gpu = hw::GpuModel::V100;
    int numGpus = 1;
};

/** What one task produces (op profiles only at k = 1). */
struct RunResult
{
    std::vector<OpProfile> ops;
    IterationProfile run;
};

RunResult
executeRunTask(const Graph &g, const std::string &name,
               const RunTask &task, const CollectOptions &options)
{
    sim::SimConfig config;
    config.gpu = task.gpu;
    config.numGpus = task.numGpus;
    config.gpusPerHost = options.gpusPerHost;
    config.seed = runSeed(options.seed, name, task.gpu, task.numGpus);

    RunResult result;
    if (task.numGpus == 1) {
        auto [profiles, run] =
            profileRun(g, name, config, options.iterations);
        result.ops = std::move(profiles);
        result.run = run;
        return result;
    }
    // k >= 2 is run-level only: op times match the k=1 case by
    // construction (same per-GPU batch), as in the paper.
    sim::TrainingSimulator simulator(g, config);
    const sim::RunStats stats = simulator.run(options.iterations);
    result.run.model = name;
    result.run.gpu = task.gpu;
    result.run.numGpus = task.numGpus;
    result.run.paramCount = g.totalParameters();
    result.run.meanIterationUs = stats.iterationUs.mean();
    result.run.meanComputeUs = stats.computeUs.mean();
    result.run.meanCommUs = stats.commUs.mean();
    return result;
}

} // namespace

ProfileDataset
collectProfiles(const std::vector<std::string> &model_names,
                const CollectOptions &options)
{
    // Enumerate the sweep as independent tasks in canonical order;
    // results merge back in this exact order, so the dataset is
    // bit-identical for any thread count.
    std::vector<RunTask> tasks;
    for (std::size_t m = 0; m < model_names.size(); ++m) {
        for (hw::GpuModel gpu : hw::allGpuModels()) {
            tasks.push_back({m, gpu, 1});
            if (!options.multiGpuRuns)
                continue;
            for (int k = 2; k <= options.maxGpus; ++k)
                tasks.push_back({m, gpu, k});
        }
    }

    // Build each graph once and share it read-only across tasks.
    // consumers() is the only lazily-built Graph cache; pre-warm it so
    // concurrent readers never mutate shared state.
    std::vector<Graph> graphs;
    graphs.reserve(model_names.size());
    for (const auto &name : model_names) {
        graphs.push_back(models::buildModel(name, options.batch));
        graphs.back().consumers();
    }

    std::vector<RunResult> results(tasks.size());
    auto execute = [&](std::size_t i) {
        const RunTask &task = tasks[i];
        // The span name is formatted only when observability is on;
        // recording never feeds back into the run, so the dataset is
        // byte-identical with obs enabled or disabled.
        std::optional<obs::ScopedSpan> span;
        if (obs::enabled())
            span.emplace(util::format(
                             "profile %s %s k=%d",
                             model_names[task.modelIndex].c_str(),
                             hw::gpuModelName(task.gpu).c_str(),
                             task.numGpus),
                         "profile");
        OBS_TIMER("profile.run_us");
        results[i] = executeRunTask(graphs[task.modelIndex],
                                    model_names[task.modelIndex], task,
                                    options);
        OBS_COUNTER_INC("profile.runs");
    };

    // Profiling runs are multi-millisecond tasks: the static cost hint
    // keeps the grain at one run per claim (no batching win to be had),
    // and the shared pool's waiting workers make the fan-out cost
    // independent of how often this is called.
    util::parallelForRange(
        tasks.size(),
        {.costHintUs = 2000.0,
         .maxThreads = util::ThreadPool::effectiveThreads(options.threads)},
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                execute(i);
        });

    ProfileDataset dataset;
    for (RunResult &result : results) {
        if (!result.ops.empty())
            dataset.add(std::move(result.ops));
        dataset.addIteration(result.run);
    }
    for (const auto &name : model_names)
        CEER_LOG(Info) << "profiled " << name << " on "
                       << hw::allGpuModels().size() << " GPU models";
    return dataset;
}

} // namespace profile
} // namespace ceer
