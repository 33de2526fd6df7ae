/**
 * @file
 * Report printing, clocks, benchmark-side spans and the self-time fold.
 */

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

#include "perfbench.h"

namespace perfbench {

void
Report::set(const std::string &name, double value,
            const std::string &unit)
{
    for (Metric &metric : metrics_) {
        if (metric.name == name) {
            metric.value = value;
            metric.unit = unit;
            return;
        }
    }
    metrics_.push_back(Metric{name, value, unit});
}

void
Report::count(std::int64_t attempted, std::int64_t failed)
{
    attempted_ += attempted;
    failed_ += failed;
}

void
Report::print(std::ostream &out) const
{
    const double fail_ratio =
        attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 1.0;
    for (const Metric &metric : metrics_)
        out << std::left << std::setw(30) << metric.name << " "
            << std::setprecision(9) << metric.value << " " << metric.unit
            << "\n";
    out << std::left << std::setw(30) << "fail_ratio" << " " << fail_ratio
        << " failed/attempted (" << failed_ << "/" << attempted_ << ")\n";

    // Shortest round-trip digits: every value is printed as measured.
    std::ostringstream json;
    json << "{\"correct\": "
         << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
         << ", \"attempted\": " << std::max<std::int64_t>(attempted_, 1)
         << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &metric = metrics_[i];
        const double value = std::isfinite(metric.value) ? metric.value : 0.0;
        char digits[32];
        std::snprintf(digits, sizeof digits, "%.17g", value);
        json << (i ? ", " : "") << "\"" << metric.name
             << "\": {\"value\": " << digits << ", \"unit\": \""
             << metric.unit << "\"}";
    }
    json << "}}";
    out << json.str() << std::endl;
}

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuS()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 +
           usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
}

double
threadCpuS()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

int
hostThreads()
{
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<int>(n) : 1;
}

namespace {
std::atomic<bool> g_tracing{false};
} // namespace

void
setTracing(bool on)
{
    g_tracing.store(on, std::memory_order_relaxed);
}

Span::Span(const char *name) : name_(name)
{
    if (g_tracing.load(std::memory_order_relaxed))
        startUs_ = ceer::obs::TraceSink::instance().nowUs();
}

Span::~Span()
{
    if (startUs_ < 0.0)
        return;
    ceer::obs::TraceSink &sink = ceer::obs::TraceSink::instance();
    ceer::obs::TraceSpan span;
    span.durationUs = sink.nowUs() - startUs_;
    span.startUs = startUs_;
    span.name = name_;
    span.category = "perfbench";
    span.lane = sink.laneForThisThread();
    sink.record(std::move(span));
}

std::vector<double>
spanDurationsUs(const std::vector<ceer::obs::TraceSpan> &spans,
                const std::string &name)
{
    std::vector<double> out;
    for (const ceer::obs::TraceSpan &span : spans)
        if (span.name == name)
            out.push_back(span.durationUs);
    return out;
}

double
spanSeconds(const std::vector<ceer::obs::TraceSpan> &spans,
            const std::string &name)
{
    double total = 0.0;
    for (const double us : spanDurationsUs(spans, name))
        total += us;
    return total / 1e6;
}

double
zooSeconds(const std::vector<ceer::obs::TraceSpan> &spans,
           const std::string &name)
{
    const std::size_t calls = spanDurationsUs(spans, name).size();
    return calls ? 12.0 * spanSeconds(spans, name) / calls : 0.0;
}

std::vector<LayerTime>
foldSelfTimes(std::vector<ceer::obs::TraceSpan> spans)
{
    // Parents first: by lane, then start, then longest first.
    std::sort(spans.begin(), spans.end(),
              [](const ceer::obs::TraceSpan &a,
                 const ceer::obs::TraceSpan &b) {
                  if (a.lane != b.lane)
                      return a.lane < b.lane;
                  if (a.startUs != b.startUs)
                      return a.startUs < b.startUs;
                  return a.durationUs > b.durationUs;
              });
    std::vector<double> self(spans.size());
    std::vector<std::size_t> open; // Enclosing spans on this lane.
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const ceer::obs::TraceSpan &span = spans[i];
        self[i] = span.durationUs;
        while (!open.empty()) {
            const ceer::obs::TraceSpan &top = spans[open.back()];
            if (top.lane == span.lane &&
                span.startUs < top.startUs + top.durationUs)
                break;
            open.pop_back();
        }
        if (!open.empty()) {
            const ceer::obs::TraceSpan &parent = spans[open.back()];
            const double end = std::min(span.startUs + span.durationUs,
                                        parent.startUs + parent.durationUs);
            self[open.back()] -= end - span.startUs;
        }
        open.push_back(i);
    }

    std::map<std::string, LayerTime> rows;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        LayerTime &row = rows[spans[i].name];
        row.name = spans[i].name;
        ++row.calls;
        row.totalUs += spans[i].durationUs;
        row.selfUs += self[i];
    }
    std::vector<LayerTime> out;
    for (auto &entry : rows)
        out.push_back(std::move(entry.second));
    std::sort(out.begin(), out.end(),
              [](const LayerTime &a, const LayerTime &b) {
                  return a.selfUs > b.selfUs;
              });
    return out;
}

void
printSelfTimes(std::ostream &out, const std::vector<LayerTime> &rows)
{
    double all = 0.0;
    for (const LayerTime &row : rows)
        all += row.selfUs;
    out << std::left << std::setw(28) << "span" << std::right
        << std::setw(10) << "calls" << std::setw(14) << "total_ms"
        << std::setw(14) << "self_ms" << std::setw(9) << "self%"
        << "\n";
    for (const LayerTime &row : rows)
        out << std::left << std::setw(28) << row.name << std::right
            << std::setw(10) << row.calls << std::fixed
            << std::setprecision(3) << std::setw(14)
            << row.totalUs / 1000.0 << std::setw(14)
            << row.selfUs / 1000.0 << std::setprecision(1)
            << std::setw(9) << (all > 0 ? 100.0 * row.selfUs / all : 0.0)
            << std::defaultfloat << "\n";
}

bool
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    return static_cast<bool>(out);
}

} // namespace perfbench
