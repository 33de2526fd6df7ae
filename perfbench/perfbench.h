/**
 * @file
 * Shared pieces of perfbench, the repository benchmark: run arguments, the
 * metric report, wall/CPU clocks, benchmark-side trace spans and the
 * per-layer self-time fold.
 *
 * perfbench calls each layer's public functions directly and times
 * them from outside; nothing in src/ is instrumented for it. Spans are
 * recorded only from perfbench's own files, into the program's
 * obs::TraceSink, and only in a traced run (--trace 1). The program's
 * own obs recording stays off in both modes, so a trace holds nothing
 * but perfbench's spans.
 */

#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "cloud/instances.h"
#include "core/ceer_model.h"
#include "obs/trace_sink.h"
#include "serve/protocol.h"

namespace perfbench {

/** Arguments of one run. */
struct Args
{
    std::string workload;  ///< pipeline, serve_zoo or serve_fleet.
    std::uint64_t seed = 1; ///< Input seed.
    double seconds = 10.0; ///< Timed-phase budget.
    bool trace = false;    ///< Traced run: per-layer metrics.
    bool tiny = false;     ///< Self-test input sizes.
    /** "profile" or "reply" flips one byte of the first such output
     *  before it is checked (self-test of the output checks). */
    std::string corrupt;
    std::string workdir;   ///< Scratch files of the run.
};

/** Metrics of one run plus the output-check tally. */
class Report
{
  public:
    /** Records metric @p name (last write wins). */
    void set(const std::string &name, double value,
             const std::string &unit);

    /** Counts @p attempted operations, @p failed of which failed. */
    void count(std::int64_t attempted, std::int64_t failed);

    /** Prints one "name value unit" line per metric (and fail_ratio),
     *  then the one-line JSON result. */
    void print(std::ostream &out) const;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
};

/** Steady-clock seconds since an arbitrary origin. */
double nowS();

/** CPU seconds (user + system) of the whole process. */
double processCpuS();

/** CPU seconds of the calling thread. */
double threadCpuS();

/** Peak resident set size of the process in MB. */
double peakRssMb();

/** Logical CPUs available to the process. */
int hostThreads();

/** Turns perfbench's span recording on or off. */
void setTracing(bool on);

/**
 * RAII span around one layer call: records [construction,
 * destruction) into obs::TraceSink::instance() under category
 * "perfbench" while setTracing(true) is in effect, and does nothing
 * otherwise.
 * @p name must outlive the span (pass a literal).
 */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    double startUs_ = -1.0;
};

/** Durations (us) of every recorded span named @p name. */
std::vector<double>
spanDurationsUs(const std::vector<ceer::obs::TraceSpan> &spans,
                const std::string &name);

/** Sum of the spans named @p name, in seconds. */
double spanSeconds(const std::vector<ceer::obs::TraceSpan> &spans,
                   const std::string &name);

/** Time of 12 calls (one per zoo CNN) at the mean duration of the
 *  spans named @p name, in seconds. */
double zooSeconds(const std::vector<ceer::obs::TraceSpan> &spans,
                  const std::string &name);

/** One row of the self-time table. */
struct LayerTime
{
    std::string name;
    std::size_t calls = 0;
    double totalUs = 0.0; ///< Sum of span durations.
    double selfUs = 0.0;  ///< Minus time covered by child spans.
};

/**
 * Folds spans into per-name totals and self times. A span's children
 * are the spans of the same lane (thread) that lie inside it; its
 * self time is its duration minus the part they cover. Rows are
 * ordered by descending self time.
 */
std::vector<LayerTime> foldSelfTimes(std::vector<ceer::obs::TraceSpan> spans);

/** Prints @p rows as an aligned table. */
void printSelfTimes(std::ostream &out, const std::vector<LayerTime> &rows);

/** Writes a whole file; false on any write failure. */
bool writeFile(const std::string &path, const std::string &bytes);

/** Outputs of one profile -> CSV -> train -> model-text round trip,
 *  the work of the CLI's `profile` and `train` verbs. */
struct Study
{
    ceer::core::CeerModel model; ///< Reloaded from the saved text.
    std::string profileCsv;      ///< Saved profile dataset.
    std::string modelText;       ///< Saved model.
    double profileCpuS = 0.0;    ///< Process CPU in collectProfiles.
    double trainerCpuS = 0.0;    ///< Process CPU in trainCeer.
};

/** Simulated training iterations of one study at @p iterations. */
double studyIterations(int iterations);

/**
 * Profiles the paper's 8 training CNNs x 4 GPUs x k = 1..4 for
 * @p iterations each with @p threads workers, saves the dataset as
 * CSV under @p dir, reloads it, trains with @p threads, saves the
 * model as text and reloads it. False with @p error when a file
 * cannot be written or read back.
 */
bool runStudy(int iterations, std::uint64_t seed, int threads,
              const std::string &dir, Study *out, std::string *error);

/**
 * Writes @p catalog as CBF under @p dir and loads it back through
 * InstanceCatalog::tryLoadFile (span io.cbf_load), as `ceer serve
 * --catalog` does. False with @p error on failure.
 */
bool loadCatalog(const ceer::cloud::InstanceCatalog &catalog,
                 const std::string &dir,
                 ceer::cloud::InstanceCatalog *out, std::string *error);

/** The pipeline workload (pipeline.cc). */
void runPipeline(const Args &args, Report *report);

/**
 * An in-process ceerd (1 reactor, inline execution) with the
 * benchmark's own load generator. Every reply is checked byte for byte
 * against an in-process recommend() of the same request.
 */
class ServeBench
{
  public:
    ServeBench(const ceer::core::CeerModel &model,
               ceer::cloud::InstanceCatalog catalog,
               std::vector<ceer::serve::RecommendRequest> mix,
               std::uint64_t seed);
    ~ServeBench();
    ServeBench(const ServeBench &) = delete;
    ServeBench &operator=(const ServeBench &) = delete;

    /** Starts the server and sends every mix entry once on each
     *  generator connection, so every plan is compiled before timing. */
    bool start(std::string *error);

    /**
     * Computes each mix entry's expected reply with an in-process
     * recommend() (spans models.build and predictor.compile in a traced
     * run) and arms --corrupt reply. Call once before measuring.
     */
    void prepare(const Args &args);

    /** One untraced round: a closed loop at 2 connections, then an open
     *  loop offering @p rate requests per second, @p seconds each. */
    void round(double seconds, double rate);

    /** Records req_per_s and p50_us over every round so far and counts
     *  their requests. */
    void report(Report *report) const;

    /**
     * Traced run: untraced and traced closed loops, a 1-connection
     * closed loop, an open loop at @p rate and a stage-by-stage replay
     * of the request path, about @p seconds in all. Records the serve.*,
     * loadgen.*, recommender.*, p99_us and trace.overhead layer
     * metrics.
     */
    void measureLayers(double seconds, double rate, Report *report);

  private:
    struct State;
    std::unique_ptr<State> state_;
};

/** The serve_zoo and serve_fleet workloads (serve.cc). */
void runServe(const Args &args, Report *report);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H
