/**
 * @file
 * I/O-path microbenchmark: profile CSV save and load vs CBF.
 *
 * Writes one profile dataset and one fleet-scale instance catalog to
 * disk in both dialects, then times the profile saves (CSV text, CBF)
 * and the three load paths the loaders expose — CSV text parse,
 * streaming CBF read (read() into an owned buffer), and zero-copy CBF
 * mmap — reporting each path's median with min/max over K
 * repetitions (--load-iters). The CSV files are canonical (one
 * load→save trip), so all three paths must decode bit-identical
 * containers; the bench asserts that by comparing re-serialized CBF
 * bytes and byte-identical trained models downstream. Finishes with a
 * recommend() sweep over the synthetic fleet with the usual
 * thread-identity checks. Writes BENCH_io.json; docs/performance.md
 * and docs/file_formats.md quote these numbers.
 */

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "cloud/instances.h"
#include "core/predictor.h"
#include "core/recommender.h"
#include "core/trainer.h"
#include "io/cbf.h"
#include "models/model_zoo.h"
#include "profile/profiler.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace ceer;
using Clock = std::chrono::steady_clock;

/** Bit pattern of a double (== would conflate +0.0 and -0.0). */
std::uint64_t
bits(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

/** Field-by-field bit comparison of two candidate evaluations. */
bool
evaluationsIdentical(const core::CandidateEvaluation &a,
                     const core::CandidateEvaluation &b)
{
    return a.instance.name == b.instance.name &&
           a.prediction.iterations == b.prediction.iterations &&
           bits(a.prediction.iterationUs) ==
               bits(b.prediction.iterationUs) &&
           bits(a.prediction.hours) == bits(b.prediction.hours) &&
           bits(a.costUsd) == bits(b.costUsd) &&
           a.withinHourly == b.withinHourly &&
           a.withinTotal == b.withinTotal &&
           a.fitsMemory == b.fitsMemory;
}

std::int64_t
fileBytes(const std::string &path)
{
    return static_cast<std::int64_t>(std::filesystem::file_size(path));
}

/** Dataset contents as CBF bytes: the bit-identity fingerprint. */
std::string
datasetFingerprint(const profile::ProfileDataset &dataset)
{
    std::ostringstream out;
    dataset.saveCbf(out);
    return out.str();
}

std::string
catalogFingerprint(const cloud::InstanceCatalog &catalog)
{
    std::ostringstream out;
    catalog.saveCbf(out);
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    util::Flags flags;
    flags.defineString("model", "resnet_101",
                       "CNN for the recommender workload");
    flags.defineInt("train-iters", 200,
                    "profiling iterations for the dataset fixture "
                    "(200 matches the bench suite's default dataset)");
    flags.defineInt("load-iters", 5,
                    "timed repetitions (K) per save and load path");
    flags.defineInt("fleet", 6000,
                    "synthetic fleet size for the catalog loads and "
                    "the recommend() sweep");
    flags.defineInt("threads", 0,
                    "max swept recommender thread count (0 = hardware)");
    flags.defineString("scratch", "build/io-scratch",
                       "directory for the on-disk fixtures");
    flags.defineString("out", "BENCH_io.json",
                       "machine-readable results ('' disables)");
    flags.defineString("metrics-out", "",
                       "write a metrics JSON snapshot here (enables "
                       "observability for the run)");
    flags.parse(argc, argv);
    bench::setMetricsOut(flags.getString("metrics-out"));

    const std::string model_name = flags.getString("model");
    const int load_iters =
        std::max(1, static_cast<int>(flags.getInt("load-iters")));
    const std::size_t fleet_size =
        static_cast<std::size_t>(std::max<std::int64_t>(
            1, flags.getInt("fleet")));
    const unsigned hardware = std::thread::hardware_concurrency();
    const int max_threads =
        flags.getInt("threads") > 0
            ? static_cast<int>(flags.getInt("threads"))
            : static_cast<int>(hardware ? hardware : 1);
    const std::string scratch = flags.getString("scratch");
    std::filesystem::create_directories(scratch);

    util::printBanner(std::cout,
                      "micro_io: profile CSV save/load vs CBF (" +
                          std::to_string(load_iters) + " reps/path)");
    std::cout << "host: " << bench::hostDescription() << "\n";

    // --- Fixtures: one profile dataset, one fleet catalog, both
    // dialects. The CSV is canonical (written from a dataset that was
    // itself parsed from CSV), so the text and binary files decode to
    // bit-identical containers and the three load paths must agree.
    profile::CollectOptions collect;
    collect.iterations = static_cast<int>(flags.getInt("train-iters"));
    collect.multiGpuRuns = true;
    const profile::ProfileDataset collected =
        profile::collectProfiles(models::trainingSetNames(), collect);
    std::ostringstream first_csv;
    collected.saveCsv(first_csv);
    std::istringstream first_csv_in(first_csv.str());
    const profile::ProfileDataset canonical =
        profile::ProfileDataset::loadCsv(first_csv_in);

    const std::string profile_csv = scratch + "/profiles.csv";
    const std::string profile_cbf = scratch + "/profiles.cbf";
    {
        std::ofstream csv(profile_csv);
        canonical.saveCsv(csv);
        std::ofstream cbf(profile_cbf, std::ios::binary);
        canonical.saveCbf(cbf);
        if (!csv.good() || !cbf.good())
            util::fatal("cannot write fixtures under " + scratch);
    }

    const cloud::InstanceCatalog fleet =
        cloud::InstanceCatalog::syntheticFleet(fleet_size);
    const std::string fleet_csv_path = scratch + "/fleet.csv";
    const std::string fleet_cbf = scratch + "/fleet.cbf";
    {
        std::ofstream csv(fleet_csv_path);
        fleet.saveCsv(csv);
        std::ofstream cbf(fleet_cbf, std::ios::binary);
        fleet.saveCbf(cbf);
        if (!csv.good() || !cbf.good())
            util::fatal("cannot write fixtures under " + scratch);
    }

    // --- Timed profile-dataset loads. tryLoadFile sniffs by magic and
    // takes the mmap path for CBF, so the "csv" and "mmap" rows time
    // the exact entry points every tool and the profile cache use; the
    // "stream" row times the checked read()-into-buffer fallback.
    const auto load_profile_file = [](const std::string &path) {
        profile::ProfileDataset dataset;
        std::string error;
        if (!profile::ProfileDataset::tryLoadFile(path, &dataset, &error))
            util::fatal(error);
        return dataset;
    };
    const auto load_profile_stream = [&]() {
        io::CbfFile file;
        std::string error;
        profile::ProfileDataset dataset;
        if (!io::CbfFile::tryLoad(profile_cbf, &file, &error) ||
            !profile::ProfileDataset::tryLoadCbf(file, &dataset, &error))
            util::fatal(error);
        return dataset;
    };
    // Saves time the same entry points `ceer profile` and `ceer
    // convert` use, into a real file.
    const auto save_to = [&](const std::string &path, bool cbf) {
        std::ofstream out(path, std::ios::binary);
        cbf ? canonical.saveCbf(out) : canonical.saveCsv(out);
        if (!out.good())
            util::fatal("cannot write " + path);
    };
    const bench::RepeatedTiming csv_save_time = bench::timeRepeated(
        load_iters, [&] { save_to(scratch + "/saved.csv", false); });
    const bench::RepeatedTiming cbf_save_time = bench::timeRepeated(
        load_iters, [&] { save_to(scratch + "/saved.cbf", true); });
    const bench::RepeatedTiming profile_csv_load = bench::timeRepeated(
        load_iters, [&] { load_profile_file(profile_csv); });
    const bench::RepeatedTiming profile_stream_load = bench::timeRepeated(
        load_iters, [&] { load_profile_stream(); });
    const bench::RepeatedTiming profile_mmap_load = bench::timeRepeated(
        load_iters, [&] { load_profile_file(profile_cbf); });

    // Bit-identity across the three paths, fingerprinted as CBF bytes.
    const profile::ProfileDataset from_csv =
        load_profile_file(profile_csv);
    const profile::ProfileDataset from_stream = load_profile_stream();
    const profile::ProfileDataset from_mmap =
        load_profile_file(profile_cbf);
    const std::string fingerprint = datasetFingerprint(from_csv);
    bool identity_ok =
        fingerprint == datasetFingerprint(from_stream) &&
        fingerprint == datasetFingerprint(from_mmap);
    if (!identity_ok)
        std::cerr << "FAIL: CSV/stream/mmap datasets are not "
                     "bit-identical\n";

    // Downstream identity: models trained from the CSV-parsed and the
    // mmap-adopted datasets must serialize byte-identically (which
    // pins every prediction made from them).
    const core::CeerModel model_from_csv = core::trainCeer(from_csv);
    const core::CeerModel model_from_mmap = core::trainCeer(from_mmap);
    std::ostringstream model_a, model_b;
    model_from_csv.save(model_a);
    model_from_mmap.save(model_b);
    const bool downstream_ok = model_a.str() == model_b.str();
    if (!downstream_ok)
        std::cerr << "FAIL: models trained from CSV- and mmap-loaded "
                     "datasets differ\n";
    identity_ok &= downstream_ok;

    // --- Timed fleet-catalog loads (same three paths). ---
    const auto load_catalog_file = [](const std::string &path) {
        cloud::InstanceCatalog catalog;
        std::string error;
        if (!cloud::InstanceCatalog::tryLoadFile(path, &catalog, &error))
            util::fatal(error);
        return catalog;
    };
    const auto load_catalog_stream = [&]() {
        io::CbfFile file;
        std::string error;
        cloud::InstanceCatalog catalog;
        if (!io::CbfFile::tryLoad(fleet_cbf, &file, &error) ||
            !cloud::InstanceCatalog::tryLoadCbf(file, &catalog, &error))
            util::fatal(error);
        return catalog;
    };
    const bench::RepeatedTiming fleet_csv_load = bench::timeRepeated(
        load_iters, [&] { load_catalog_file(fleet_csv_path); });
    const bench::RepeatedTiming fleet_stream_load = bench::timeRepeated(
        load_iters, [&] { load_catalog_stream(); });
    const bench::RepeatedTiming fleet_mmap_load = bench::timeRepeated(
        load_iters, [&] { load_catalog_file(fleet_cbf); });

    const cloud::InstanceCatalog fleet_from_csv =
        load_catalog_file(fleet_csv_path);
    const cloud::InstanceCatalog fleet_from_mmap =
        load_catalog_file(fleet_cbf);
    const bool fleet_identity =
        catalogFingerprint(fleet_from_csv) ==
            catalogFingerprint(fleet_from_mmap) &&
        catalogFingerprint(fleet_from_csv) ==
            catalogFingerprint(load_catalog_stream());
    if (!fleet_identity)
        std::cerr << "FAIL: CSV/stream/mmap catalogs are not "
                     "bit-identical\n";
    identity_ok &= fleet_identity;

    // One row per timed path; speedups are ratios of medians.
    struct TimedPath
    {
        const char *fixture;
        const char *path;
        bench::RepeatedTiming timing;
        const bench::RepeatedTiming *csvLoad; ///< Speedup base, if any.
    };
    const std::vector<TimedPath> paths = {
        {"profiles", "csv save", csv_save_time, nullptr},
        {"profiles", "cbf save", cbf_save_time, nullptr},
        {"profiles", "csv parse", profile_csv_load, nullptr},
        {"profiles", "cbf stream", profile_stream_load, &profile_csv_load},
        {"profiles", "cbf mmap", profile_mmap_load, &profile_csv_load},
        {"fleet", "csv parse", fleet_csv_load, nullptr},
        {"fleet", "cbf stream", fleet_stream_load, &fleet_csv_load},
        {"fleet", "cbf mmap", fleet_mmap_load, &fleet_csv_load},
    };
    const auto speedup = [](const TimedPath &p) {
        return p.csvLoad->medianUs / p.timing.medianUs;
    };
    util::TablePrinter load_table({"fixture", "path", "median (us)",
                                   "min-max (us)", "speedup vs CSV"});
    std::vector<bench::JsonObject> timing_rows;
    for (const TimedPath &p : paths) {
        load_table.addRow(
            {p.fixture, p.path, util::format("%.1f", p.timing.medianUs),
             util::format("%.1f-%.1f", p.timing.minUs, p.timing.maxUs),
             p.csvLoad ? util::format("%.2fx", speedup(p)) : "-"});
        bench::JsonObject row;
        row.str("fixture", p.fixture).str("path", p.path);
        bench::addTiming(row, p.timing);
        if (p.csvLoad)
            row.num("speedup_vs_csv", speedup(p), "%.2f");
        timing_rows.push_back(std::move(row));
    }
    load_table.print(std::cout);
    std::cout << util::format(
        "profiles: %lld op rows, %lld iter rows, %lld B csv / %lld B "
        "cbf; fleet: %lld instances, %lld B csv / %lld B cbf\n",
        (long long)canonical.ops().size(),
        (long long)canonical.iterations().size(),
        (long long)fileBytes(profile_csv),
        (long long)fileBytes(profile_cbf),
        (long long)fleet.instances().size(),
        (long long)fileBytes(fleet_csv_path),
        (long long)fileBytes(fleet_cbf));

    // --- Fleet-scale recommend() sweep over the mmap-loaded catalog,
    // with the same thread-identity contract micro_ceer enforces.
    const core::CeerPredictor predictor(model_from_mmap);
    const graph::Graph g = models::buildModel(model_name, 32);
    core::WorkloadSpec workload{&g, bench::kImageNetSamples, 32};
    const std::vector<cloud::GpuInstance> &candidates =
        fleet_from_mmap.instances();

    std::vector<int> sweep{1, 2, 4};
    for (int t = 8; t <= max_threads; t *= 2)
        sweep.push_back(t);

    struct Result
    {
        int threads;
        double wallSeconds;
        double speedup;
        bool identical;
        bool belowSerial;
    };
    // On a single-core host every multi-thread point measures
    // scheduling, not speedup: identity is still checked, but the
    // below-serial flag is suppressed and the JSON says so.
    const bool scaling_meaningful = hardware >= 2;
    std::vector<Result> results;
    core::Recommendation reference;
    double serial_wall = 0.0;
    bool sweep_identical = true;

    util::TablePrinter sweep_table(
        {"threads", "wall (s)", "candidates/sec", "speedup",
         "identical"});
    for (int threads : sweep) {
        const auto start = Clock::now();
        const core::Recommendation recommendation = core::recommend(
            predictor, workload, candidates, core::Objective::MinCost,
            core::Constraints{}, threads);
        const double wall =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (threads == 1) {
            reference = recommendation;
            serial_wall = wall;
        }
        Result r;
        r.threads = threads;
        r.wallSeconds = wall;
        r.speedup = serial_wall / wall;
        r.identical =
            recommendation.bestIndex == reference.bestIndex &&
            recommendation.evaluations.size() ==
                reference.evaluations.size();
        if (r.identical) {
            for (std::size_t i = 0; i < reference.evaluations.size();
                 ++i) {
                if (!evaluationsIdentical(reference.evaluations[i],
                                          recommendation
                                              .evaluations[i])) {
                    r.identical = false;
                    break;
                }
            }
        }
        r.belowSerial =
            scaling_meaningful && threads > 1 && r.speedup < 1.0;
        sweep_identical &= r.identical;
        results.push_back(r);
        sweep_table.addRow(
            {std::to_string(threads), util::format("%.3f", wall),
             util::format("%.1f", candidates.size() / wall),
             util::format("%.2fx", r.speedup),
             r.identical ? "yes" : "NO"});
        if (!r.identical) {
            std::cerr << "FAIL: recommendation at " << threads
                      << " threads differs from the serial sweep\n";
        }
    }
    sweep_table.print(std::cout);
    if (!scaling_meaningful) {
        std::cout << "note: single hardware thread; scaling assertions "
                     "skipped (identity still enforced)\n";
    }
    identity_ok &= sweep_identical;

    int below_serial = 0;
    for (const Result &r : results)
        below_serial += r.belowSerial ? 1 : 0;
    bench::JsonObject doc;
    doc.str("benchmark", "io_load_throughput")
        .str("host", bench::hostDescription())
        .str("model", model_name)
        .num("load_iters", load_iters);
    bench::addScalingFields(doc, hardware, scaling_meaningful);
    doc.num("profile_op_rows",
            static_cast<std::int64_t>(canonical.ops().size()))
        .num("profile_iter_rows",
             static_cast<std::int64_t>(canonical.iterations().size()))
        .num("profile_csv_bytes", fileBytes(profile_csv))
        .num("profile_cbf_bytes", fileBytes(profile_cbf))
        .num("fleet_instances",
             static_cast<std::int64_t>(fleet.instances().size()))
        .num("fleet_csv_bytes", fileBytes(fleet_csv_path))
        .num("fleet_cbf_bytes", fileBytes(fleet_cbf))
        // Headline number: zero-copy mmap vs CSV text parse on the
        // profile dataset (the file every bench binary loads).
        .num("mmap_speedup_vs_csv", speedup(paths[4]), "%.2f")
        .boolean("identity_ok", identity_ok)
        .boolean("recommender_identity_ok", sweep_identical)
        .num("below_serial_measurements", below_serial);
    std::vector<bench::JsonObject> rows;
    for (const Result &r : results) {
        bench::JsonObject row;
        row.num("threads", r.threads)
            .num("wall_s", r.wallSeconds, "%.6f")
            .num("speedup", r.speedup, "%.4f")
            .boolean("identical", r.identical)
            .boolean("below_serial", r.belowSerial);
        rows.push_back(std::move(row));
    }
    doc.array("timings", std::move(timing_rows));
    doc.array("recommender_sweep", std::move(rows));
    if (!bench::writeBenchJson(flags.getString("out"), doc))
        return 1;
    bench::flushBenchMetrics();
    return identity_ok ? 0 : 1;
}
