/**
 * @file
 * The `pipeline` workload: the paper's study end to end, cold and at
 * full fidelity (profile -> CSV -> train -> model text -> compile ->
 * recommend), repeated for the run's time budget, followed by a short
 * serving phase on the model it trained. Every repetition's profile
 * CSV, model text and 24 recommendations must be byte-identical to a
 * threads = 1 run of the same seed made before timing starts.
 */

#include <sstream>
#include <stdexcept>

#include "core/predictor.h"
#include "core/recommender.h"
#include "core/trainer.h"
#include "models/model_zoo.h"
#include "perfbench.h"
#include "profile/profiler.h"
#include "serve/protocol.h"
#include "util/stats.h"

namespace perfbench {

namespace core = ceer::core;
namespace cloud = ceer::cloud;
namespace graph = ceer::graph;
namespace models = ceer::models;
namespace profile = ceer::profile;
namespace serve = ceer::serve;
namespace util = ceer::util;

namespace {

constexpr std::int64_t kImageNetSamples = 1'200'000;
constexpr std::int64_t kBatch = 32;

/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetups = 5;

/** Offered open-loop rate of the serving phase (req/s): about 40% of
 *  the closed-loop capacity on the 4-core reference host. */
constexpr double kServeRate = 25000.0;

/** Untraced runs follow each repetition with a serving round of
 *  this many seconds per loop (closed, then open). */
constexpr double kServeRoundS = 0.6;

/** Traced runs spend this share of their seconds repeating the
 *  pipeline (half untraced, half traced); the rest serves. */
constexpr double kPipelineShare = 0.6;

/** The 12 zoo CNNs at batch 32 (span models.build per call). */
std::vector<graph::Graph>
buildZoo()
{
    std::vector<graph::Graph> graphs;
    for (const std::string &name : models::allModelNames()) {
        Span span("models.build");
        graphs.push_back(models::buildModel(name, kBatch));
    }
    return graphs;
}

/** Compiles every zoo CNN and recommends for cost and for time. */
std::vector<core::Recommendation>
recommendAll(const core::CeerModel &model,
             const std::vector<graph::Graph> &graphs,
             const std::vector<cloud::GpuInstance> &candidates)
{
    const core::CeerPredictor predictor(model);
    std::vector<core::Recommendation> out;
    for (const graph::Graph &g : graphs) {
        const core::PredictPlan plan = [&] {
            Span span("predictor.compile");
            return predictor.compile(g);
        }();
        const core::WorkloadSpec workload{&g, kImageNetSamples, kBatch};
        for (const core::Objective objective :
             {core::Objective::MinCost, core::Objective::MinTrainingTime}) {
            Span span("recommender.recommend");
            out.push_back(core::recommend(predictor, plan, workload,
                                          candidates,
                                          core::objectiveFunction(objective)));
        }
    }
    return out;
}

/** The 24 answers as reply payload bytes. */
std::vector<std::string>
encodeAll(const std::vector<core::Recommendation> &recommendations)
{
    std::vector<std::string> out;
    for (const core::Recommendation &recommendation : recommendations)
        out.push_back(serve::encodeRecommendResponse(
            serve::responseFromRecommendation(recommendation)));
    return out;
}

/** The serving phase's mix: the pipeline's own 24 questions. */
std::vector<serve::RecommendRequest>
pipelineMix()
{
    std::vector<serve::RecommendRequest> mix;
    for (const std::string &name : models::allModelNames()) {
        for (const char *objective : {"cost", "time"}) {
            serve::RecommendRequest request;
            request.model = name;
            request.batch = kBatch;
            request.datasetSamples = kImageNetSamples;
            request.objective = objective;
            mix.push_back(request);
        }
    }
    return mix;
}

} // namespace

double
studyIterations(int iterations)
{
    // 8 CNNs x 4 GPUs x k = 1..4 runs.
    return static_cast<double>(models::trainingSetNames().size()) * 4 * 4 *
           iterations;
}

bool
runStudy(int iterations, std::uint64_t seed, int threads,
         const std::string &dir, Study *out, std::string *error)
{
    profile::CollectOptions collect;
    collect.iterations = iterations;
    collect.seed = seed;
    collect.threads = threads;
    profile::ProfileDataset collected;
    {
        Span span("profile.collect");
        const double cpu = processCpuS();
        collected =
            profile::collectProfiles(models::trainingSetNames(), collect);
        out->profileCpuS = processCpuS() - cpu;
    }

    const std::string profiles_path = dir + "/profiles.csv";
    {
        Span span("io.csv_save");
        std::ostringstream csv;
        collected.saveCsv(csv);
        out->profileCsv = csv.str();
        if (!writeFile(profiles_path, out->profileCsv)) {
            *error = "cannot write " + profiles_path;
            return false;
        }
    }
    profile::ProfileDataset dataset;
    {
        Span span("io.csv_load");
        if (!profile::ProfileDataset::tryLoadFile(profiles_path, &dataset,
                                                  error))
            return false;
    }

    core::TrainOptions train;
    train.threads = threads;
    core::CeerModel trained;
    {
        Span span("trainer.train");
        const double cpu = processCpuS();
        trained = core::trainCeer(dataset, train);
        out->trainerCpuS = processCpuS() - cpu;
    }

    const std::string model_path = dir + "/model.txt";
    {
        Span span("io.csv_save");
        std::ostringstream text;
        trained.save(text);
        out->modelText = text.str();
        if (!writeFile(model_path, out->modelText)) {
            *error = "cannot write " + model_path;
            return false;
        }
    }
    Span span("io.csv_load");
    return core::CeerModel::tryLoadFile(model_path, &out->model, error);
}

bool
loadCatalog(const cloud::InstanceCatalog &catalog, const std::string &dir,
            cloud::InstanceCatalog *out, std::string *error)
{
    const std::string path = dir + "/catalog.cbf";
    std::ostringstream bytes;
    catalog.saveCbf(bytes);
    if (!writeFile(path, bytes.str())) {
        *error = "cannot write " + path;
        return false;
    }
    Span span("io.cbf_load");
    return cloud::InstanceCatalog::tryLoadFile(path, out, error);
}

void
runPipeline(const Args &args, Report *report)
{
    const int iterations = args.tiny ? 20 : 1000;
    const int threads = hostThreads();
    std::string error;

    // Set-up: the 12 zoo graphs and the paper catalog, read from CBF.
    std::vector<graph::Graph> graphs;
    cloud::InstanceCatalog catalog;
    std::vector<double> setups;
    setTracing(args.trace);
    for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
        const double start = nowS();
        graphs = buildZoo();
        catalog = cloud::InstanceCatalog();
        if (!loadCatalog(cloud::InstanceCatalog::awsOnDemand(),
                         args.workdir, &catalog, &error))
            throw std::runtime_error(error);
        setups.push_back(nowS() - start);
    }
    setTracing(false);
    const std::vector<cloud::GpuInstance> &candidates = catalog.instances();

    // Reference outputs: the same seed at threads = 1, untimed. The
    // serving phase serves the reference model, which every timed
    // repetition must reproduce byte for byte.
    Study reference;
    if (!runStudy(iterations, args.seed, 1, args.workdir, &reference,
                  &error))
        throw std::runtime_error(error);
    const std::vector<std::string> expected =
        encodeAll(recommendAll(reference.model, graphs, candidates));
    ServeBench serving(reference.model, catalog, pipelineMix(), args.seed);
    if (!serving.start(&error))
        throw std::runtime_error(error);
    serving.prepare(args);

    bool flip_profile = args.corrupt == "profile";
    std::vector<double> profile_cpu;
    std::vector<double> trainer_cpu;
    // One repetition: returns its wall time; checks its outputs.
    const auto repeat = [&]() {
        Study study;
        const double start = nowS();
        std::vector<core::Recommendation> answers;
        {
            Span span("pipeline");
            if (!runStudy(iterations, args.seed, threads, args.workdir,
                          &study, &error))
                throw std::runtime_error(error);
            answers = recommendAll(study.model, graphs, candidates);
        }
        const double wall = nowS() - start;

        if (flip_profile) {
            study.profileCsv[study.profileCsv.size() / 2] ^= 0x01;
            flip_profile = false;
        }
        const std::vector<std::string> replies = encodeAll(answers);
        std::int64_t failed = (study.profileCsv != reference.profileCsv) +
                              (study.modelText != reference.modelText);
        for (std::size_t i = 0; i < replies.size(); ++i)
            failed += i >= expected.size() || replies[i] != expected[i];
        report->count(2 + static_cast<std::int64_t>(expected.size()),
                      failed);
        profile_cpu.push_back(study.profileCpuS);
        trainer_cpu.push_back(study.trainerCpuS);
        return wall;
    };

    if (!args.trace) {
        // Timed rounds: one repetition, then a short serving round.
        std::vector<double> walls;
        const double end = nowS() + args.seconds;
        do {
            walls.push_back(repeat());
            serving.round(kServeRoundS, kServeRate);
        } while (nowS() < end);
        serving.report(report);
        report->set("setup_s", util::median(setups), "s");
        report->set("pipeline_s", util::median(walls), "s");
        report->set("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    // Traced run: untraced then traced repetitions, then serving.
    const auto repeatFor = [&](double seconds) {
        std::vector<double> walls;
        const double end = nowS() + seconds;
        do
            walls.push_back(repeat());
        while (nowS() < end);
        return walls;
    };
    const double pipeline_seconds = args.seconds * kPipelineShare;
    const std::vector<double> walls = repeatFor(pipeline_seconds / 2);
    profile_cpu.clear();
    trainer_cpu.clear();
    setTracing(true);
    const std::vector<double> traced_walls = repeatFor(pipeline_seconds / 2);
    setTracing(false);
    serving.measureLayers(args.seconds - pipeline_seconds, kServeRate,
                          report);

    const std::vector<ceer::obs::TraceSpan> spans =
        ceer::obs::TraceSink::instance().spans();
    const double profile_wall =
        util::median(spanDurationsUs(spans, "profile.collect")) / 1e6;
    const double reps = static_cast<double>(traced_walls.size());
    report->set("models.build_s", zooSeconds(spans, "models.build"), "s");
    report->set("profile.wall_s", profile_wall, "s");
    report->set("profile.cpu_s", util::median(profile_cpu), "s");
    report->set("profile.sim_iters_per_s",
                studyIterations(iterations) / profile_wall, "1/s");
    report->set("io.csv_save_s", spanSeconds(spans, "io.csv_save") / reps,
                "s");
    report->set("io.csv_load_s", spanSeconds(spans, "io.csv_load") / reps,
                "s");
    report->set("io.cbf_load_s", spanSeconds(spans, "io.cbf_load"), "s");
    report->set("trainer.wall_s",
                util::median(spanDurationsUs(spans, "trainer.train")) / 1e6,
                "s");
    report->set("trainer.cpu_s", util::median(trainer_cpu), "s");
    report->set("predictor.compile_s",
                zooSeconds(spans, "predictor.compile"), "s");
    report->set("trace.overhead",
                util::median(traced_walls) / util::median(walls), "ratio");
}

} // namespace perfbench
