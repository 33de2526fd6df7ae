/**
 * @file
 * perfbench, the repository benchmark: runs one workload from a seed and
 * prints its metrics, then one JSON result line.
 *
 *   perfbench --workload pipeline|serve_zoo|serve_fleet --seed N
 *             --seconds S --trace 0|1 [--workdir DIR] [--tiny]
 *             [--corrupt profile|reply]
 *
 * --trace 0 prints the end-to-end metrics (setup_s, pipeline_s,
 * req_per_s, p50_us, peak_rss_mb). --trace 1 prints the
 * per-layer metrics, the per-layer self-time table of the run's spans,
 * and writes the spans as a Chrome trace to DIR/trace_<workload>.json.
 * --tiny shrinks every input for the self-test; --corrupt flips one
 * byte of the first profile CSV or reply before it is checked, which
 * must make the run report a failure.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "perfbench.h"
#include "util/logging.h"

namespace {

int
usage(const std::string &message)
{
    std::cerr << "perfbench: " << message << "\n"
              << "usage: perfbench --workload pipeline|serve_zoo|"
                 "serve_fleet --seed N --seconds S --trace 0|1 "
                 "[--workdir DIR] [--tiny] [--corrupt profile|reply]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Args args;
    args.workdir = ".bench_build/perfbench-work";
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (flag == "--tiny") {
                args.tiny = true;
                continue;
            }
            if (i + 1 >= argc)
                return usage("missing value for " + flag);
            const std::string value = argv[++i];
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (flag == "--workdir")
                args.workdir = value;
            else if (flag == "--corrupt")
                args.corrupt = value;
            else
                return usage("unknown flag " + flag);
        }
    } catch (const std::exception &) {
        return usage("malformed number");
    }
    if (args.workload != "pipeline" && args.workload != "serve_zoo" &&
        args.workload != "serve_fleet")
        return usage("unknown workload '" + args.workload + "'");
    if (!(args.seconds > 0))
        return usage("--seconds must be positive");
    if (!args.corrupt.empty() && args.corrupt != "profile" &&
        args.corrupt != "reply")
        return usage("--corrupt takes profile or reply");

    // The program's own metrics and spans stay off: a trace holds only
    // perfbench's spans, and the untraced run is the program as users
    // run it.
    ceer::obs::setEnabled(false);
    ceer::util::setLogThreshold(ceer::LogLevel::Warn);
    std::error_code ec;
    std::filesystem::create_directories(args.workdir, ec);

    perfbench::Report report;
    try {
        if (args.workload == "pipeline")
            perfbench::runPipeline(args, &report);
        else
            perfbench::runServe(args, &report);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << args.workload << ": " << e.what()
                  << "\n";
        return 1;
    }

    if (args.trace) {
        ceer::obs::TraceSink &sink = ceer::obs::TraceSink::instance();
        const auto rows = perfbench::foldSelfTimes(sink.spans());
        std::cout << "self time by span, " << args.workload << " (seed "
                  << args.seed << ", " << sink.size() << " spans)\n";
        perfbench::printSelfTimes(std::cout, rows);
        std::ofstream table(args.workdir + "/selftime_" + args.workload +
                            ".txt");
        perfbench::printSelfTimes(table, rows);
        std::string error;
        if (!sink.tryWriteFile(
                args.workdir + "/trace_" + args.workload + ".json", &error))
            std::cerr << "perfbench: " << error << "\n";
    }
    report.print(std::cout);
    return 0;
}
