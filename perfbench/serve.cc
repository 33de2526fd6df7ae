/**
 * @file
 * The serving phase shared by every workload, and the serve_zoo and
 * serve_fleet workloads.
 *
 * The server is an in-process serve::Server with one reactor in
 * inline mode. Load comes from the benchmark's own generator over
 * loopback TCP, in the same process:
 *  - a closed loop at 2 connections (one thread each) measures
 *    capacity, and the process-CPU minus generator-thread-CPU split;
 *  - an open loop on one thread and 2 non-blocking connections sends
 *    on a seeded Poisson schedule whatever the replies do, several
 *    requests in flight per connection, and times each reply from the
 *    request's due time, so a stall delays every later reply in the
 *    sample.
 * The server's threads run on one half of the CPUs and the generator
 * on the other. Both connections are warmed before timing, and
 * untraced runs alternate short closed and open phases (round()) so
 * both sample the host over the whole run.
 * Every reply frame must be byte-identical to the frame of an
 * in-process recommend() for the same request; a failed, refused,
 * timed-out or wrong reply counts as failed (and, in the open loop, as
 * missing every latency limit).
 */

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <stdexcept>
#include <thread>

#include "core/predictor.h"
#include "core/recommender.h"
#include "models/model_zoo.h"
#include "perfbench.h"
#include "serve/net.h"
#include "serve/plan_cache.h"
#include "serve/server.h"
#include "util/random.h"
#include "util/stats.h"

namespace perfbench {

namespace core = ceer::core;
namespace cloud = ceer::cloud;
namespace graph = ceer::graph;
namespace models = ceer::models;
namespace serve = ceer::serve;
namespace util = ceer::util;

namespace {

constexpr const char *kHost = "127.0.0.1";

/** Reply read timeout of the closed loop; open-loop replies still
 *  missing this long after the last send count as failed. */
constexpr double kReplyTimeoutS = 5.0;

/** Latency recorded for a request that failed: it misses any limit. */
constexpr double kFailedLatencyUs = kReplyTimeoutS * 1e6;

/** Larger reply frames are treated as a protocol failure. */
constexpr std::uint32_t kMaxReplyBytes = 64u << 20;

/**
 * Closed-loop throughput is counted per window of this length and
 * reported as the median window, and open-loop quantiles are taken per
 * window of kWindowRequests requests and reported as the median
 * window: a stall of the host that hits a few windows then moves the
 * result of a run no more than it moves one window.
 */
constexpr double kWindowS = 0.1;
constexpr std::size_t kWindowRequests = 1000;

/** Untraced runs alternate closed- and open-loop phases of this
 *  length. */
constexpr double kRoundS = 1.0;

/** Spans per stage in a traced replay; bounds the trace's memory. */
constexpr std::size_t kMaxReplays = 20000;

/** The server's request-to-constraints mapping (server.cc). */
core::Constraints
constraintsOf(const serve::RecommendRequest &request)
{
    core::Constraints constraints;
    constraints.hourlyBudgetUsd = request.hourlyBudgetUsd;
    constraints.hourlyToleranceUsd = request.hourlyToleranceUsd;
    constraints.totalBudgetUsd = request.totalBudgetUsd;
    constraints.enforceGpuMemory = request.enforceGpuMemory;
    return constraints;
}

core::ObjectiveFn
objectiveOf(const serve::RecommendRequest &request)
{
    return core::objectiveFunction(request.objective == "time"
                                       ? core::Objective::MinTrainingTime
                                       : core::Objective::MinCost);
}

/** Counts of one load phase. */
struct LoadResult
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::int64_t succeeded = 0;
    double generatorCpuS = 0.0; ///< CPU of the generator threads.
    double processCpuS = 0.0;   ///< CPU of the whole process.
    std::vector<std::int64_t> perWindow; ///< Closed loop: replies.
    /** Closed loop: round trips; open loop: latency of each request
     *  from its due time, in send order (failed = kFailedLatencyUs). */
    std::vector<double> latencyUs;
    std::vector<double> lateUs; ///< Open loop: send time - due time.

    /** Appends the counts and samples of @p other. */
    void
    merge(const LoadResult &other)
    {
        attempted += other.attempted;
        failed += other.failed;
        succeeded += other.succeeded;
        generatorCpuS += other.generatorCpuS;
        processCpuS += other.processCpuS;
        perWindow.insert(perWindow.end(), other.perWindow.begin(),
                         other.perWindow.end());
        latencyUs.insert(latencyUs.end(), other.latencyUs.begin(),
                         other.latencyUs.end());
        lateUs.insert(lateUs.end(), other.lateUs.begin(),
                      other.lateUs.end());
    }

    /** Median per-window throughput of a closed loop (req/s). */
    double
    ratePerS() const
    {
        std::vector<double> rates;
        for (const std::int64_t replies : perWindow)
            rates.push_back(replies / kWindowS);
        return util::median(rates);
    }
};

/** Median over windows of kWindowRequests values of their percentile
 *  @p p (of the whole sample when it holds fewer than two windows). */
double
windowedPercentile(const std::vector<double> &values, double p)
{
    if (values.size() < 2 * kWindowRequests)
        return util::percentile(values, p);
    std::vector<double> per_window;
    for (std::size_t i = 0; i + kWindowRequests <= values.size();
         i += kWindowRequests)
        per_window.push_back(util::percentile(
            std::vector<double>(values.begin() + i,
                                values.begin() + i + kWindowRequests),
            p));
    return util::median(per_window);
}

/** One distinct (model, batch) of the mix, compiled in-process. */
struct Compiled
{
    std::shared_ptr<const graph::Graph> graph;
    std::shared_ptr<const core::PredictPlan> plan;
    core::MemoryFitTable fits{};
    std::uint64_t fingerprint = 0;
};

} // namespace

struct ServeBench::State
{
    core::CeerModel model;
    cloud::InstanceCatalog catalog;
    std::vector<serve::RecommendRequest> mix;
    std::vector<std::size_t> order;         ///< Seeded replay order.
    ceer::util::Rng arrivals;               ///< Seeded open-loop gaps.
    std::vector<std::string> requestFrames; ///< Per mix entry.
    std::unique_ptr<serve::Server> server;
    /** The generator's connections, warmed by start(): the server
     *  memoizes each (model, batch) fingerprint per session, so a
     *  fresh connection would pay a graph build per distinct key. */
    serve::Fd connections[2];

    // Filled by reference() before the first timed phase.
    std::unique_ptr<core::CeerPredictor> predictor;
    std::vector<std::shared_ptr<const Compiled>> compiled; ///< Per entry.
    std::vector<std::string> expectedFrames;               ///< Per entry.

    /** Self-test: flip one byte of the next reply before checking. */
    std::atomic<bool> flipReply{false};

    /** Builds and compiles every distinct graph of the mix and
     *  computes each entry's expected reply frame. */
    void reference();

    /** True when @p frame is the expected reply of entry @p index. */
    bool check(std::size_t index, char *frame, std::size_t size);

    /** Untraced rounds so far. */
    LoadResult closed;
    LoadResult open;

    LoadResult closedLoop(int connections, double seconds, bool keep_rtt);
    LoadResult openLoop(double rate, double seconds);
    void replayStages(double seconds, std::vector<double> *reply_bytes,
                      std::int64_t *failed);
};

void
ServeBench::State::reference()
{
    predictor = std::make_unique<core::CeerPredictor>(model);
    std::map<std::pair<std::string, std::int64_t>,
             std::shared_ptr<const Compiled>>
        by_key;
    for (const serve::RecommendRequest &request : mix) {
        std::shared_ptr<const Compiled> &entry =
            by_key[{request.model, request.batch}];
        if (!entry) {
            auto fresh = std::make_shared<Compiled>();
            {
                Span span("models.build");
                fresh->graph = std::make_shared<const graph::Graph>(
                    models::buildModel(request.model, request.batch));
            }
            {
                Span span("predictor.compile");
                fresh->plan = std::make_shared<const core::PredictPlan>(
                    predictor->compile(*fresh->graph));
            }
            fresh->fits = core::computeMemoryFits(*fresh->graph);
            fresh->fingerprint = serve::graphFingerprint(*fresh->graph);
            entry = std::move(fresh);
        }
        compiled.push_back(entry);
        const core::WorkloadSpec workload{entry->graph.get(),
                                          request.datasetSamples,
                                          request.batch};
        expectedFrames.push_back(serve::buildFrame(
            serve::FrameType::Response,
            serve::encodeRecommendResponse(serve::responseFromRecommendation(
                core::recommend(*predictor, *entry->plan, workload,
                                catalog.instances(), objectiveOf(request),
                                constraintsOf(request))))));
    }
}

bool
ServeBench::State::check(std::size_t index, char *frame, std::size_t size)
{
    if (flipReply.exchange(false) && size > 0)
        frame[size / 2] ^= 0x01;
    const std::string &expected = expectedFrames[index];
    return size == expected.size() &&
           std::memcmp(frame, expected.data(), size) == 0;
}

namespace {

/**
 * Restricts the calling thread to one half of the CPUs it may use,
 * until destruction. The server's threads start under the first half
 * and the generator runs under the second, so client and server never
 * compete for a core. A no-op below 4 CPUs.
 */
class HalfOfCpus
{
  public:
    explicit HalfOfCpus(bool second_half)
    {
        if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0)
            return;
        const int n = CPU_COUNT(&saved_);
        if (n < 4)
            return;
        cpu_set_t half;
        CPU_ZERO(&half);
        for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &saved_) && (seen++ >= n / 2) == second_half)
                CPU_SET(cpu, &half);
        pinned_ = ::sched_setaffinity(0, sizeof half, &half) == 0;
    }
    ~HalfOfCpus()
    {
        if (pinned_)
            ::sched_setaffinity(0, sizeof saved_, &saved_);
    }
    HalfOfCpus(const HalfOfCpus &) = delete;
    HalfOfCpus &operator=(const HalfOfCpus &) = delete;

  private:
    cpu_set_t saved_{};
    bool pinned_ = false;
};

/** Reads one frame (header + payload) into @p frame. */
bool
readFrame(int fd, std::string *frame, std::string *error)
{
    char header_bytes[serve::kFrameHeaderBytes];
    if (!serve::recvAll(fd, header_bytes, sizeof header_bytes, error))
        return false;
    serve::FrameHeader header;
    if (!serve::decodeFrameHeader(header_bytes, &header, error))
        return false;
    if (header.payloadBytes > kMaxReplyBytes) {
        *error = "oversized reply";
        return false;
    }
    frame->resize(sizeof header_bytes + header.payloadBytes);
    std::memcpy(frame->data(), header_bytes, sizeof header_bytes);
    return serve::recvAll(fd, frame->data() + sizeof header_bytes,
                          header.payloadBytes, error);
}

/** Clears O_NONBLOCK (the closed loop uses blocking reads). */
bool
setBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) == 0;
}

int
connectClient(int port, std::string *error)
{
    const int fd = serve::connectTcp(kHost, port, error);
    if (fd >= 0 && !serve::setRecvTimeoutMs(
                       fd, static_cast<int>(kReplyTimeoutS * 1000), error)) {
        serve::closeFd(fd);
        return -1;
    }
    return fd;
}

} // namespace

LoadResult
ServeBench::State::closedLoop(int connections, double seconds,
                              bool keep_rtt)
{
    std::vector<LoadResult> results(connections);
    const std::size_t windows =
        std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kWindowS));
    const double start = nowS() + 0.005;
    const double end = start + windows * kWindowS;
    const double cpu_before = processCpuS();
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
        threads.emplace_back([this, c, connections, windows, start, end,
                              keep_rtt, &results] {
            LoadResult &out = results[c];
            out.perWindow.assign(windows, 0);
            try {
                const HalfOfCpus pin(true);
                serve::Fd &fd = this->connections[c];
                std::string error;
                while (nowS() < start) {
                }
                const double cpu = threadCpuS();
                std::string frame;
                std::size_t next = order.size() * c / connections;
                while (fd && nowS() < end) {
                    const std::size_t index = order[next++ % order.size()];
                    const std::string &request = requestFrames[index];
                    ++out.attempted;
                    Span span("loadgen.request");
                    const double sent = nowS();
                    if (!serve::sendAll(fd.get(), request.data(),
                                        request.size(), &error) ||
                        !readFrame(fd.get(), &frame, &error)) {
                        ++out.failed;
                        fd.reset();
                        break;
                    }
                    const double done = nowS();
                    if (!check(index, frame.data(), frame.size())) {
                        ++out.failed;
                    } else {
                        ++out.succeeded;
                        const auto window = static_cast<std::size_t>(
                            (done - start) / kWindowS);
                        if (window < windows)
                            ++out.perWindow[window];
                    }
                    if (keep_rtt)
                        out.latencyUs.push_back((done - sent) * 1e6);
                }
                if (!fd)
                    ++out.failed; // A dead connection fails the run.
                out.generatorCpuS = threadCpuS() - cpu;
            } catch (const std::exception &) {
                ++out.failed; // Reported, never thrown across the thread.
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    LoadResult total;
    total.processCpuS = processCpuS() - cpu_before;
    total.perWindow.assign(windows, 0);
    for (LoadResult &result : results) {
        total.attempted += result.attempted;
        total.failed += result.failed;
        total.succeeded += result.succeeded;
        total.generatorCpuS += result.generatorCpuS;
        for (std::size_t w = 0; w < windows; ++w)
            total.perWindow[w] += result.perWindow[w];
        total.latencyUs.insert(total.latencyUs.end(),
                               result.latencyUs.begin(),
                               result.latencyUs.end());
    }
    return total;
}

LoadResult
ServeBench::State::openLoop(double rate, double seconds)
{
    struct Pending
    {
        std::size_t index;  ///< Mix entry.
        std::int64_t number; ///< Position in the schedule.
        double due;
    };
    struct Connection
    {
        serve::Fd &fd;
        std::string out;
        std::size_t sent = 0;
        std::string in;
        std::deque<Pending> pending;
    };

    const HalfOfCpus pin(true);
    LoadResult result;
    std::string error;
    Connection connections[2] = {
        Connection{this->connections[0], {}, 0, {}, {}},
        Connection{this->connections[1], {}, 0, {}, {}}};
    for (Connection &connection : connections)
        if (connection.fd && !serve::setNonBlocking(connection.fd.get(),
                                                    &error))
            connection.fd.reset();
    // A dropped connection fails every request still pending on it.
    const auto drop = [&](Connection &connection) {
        connection.fd.reset();
        result.failed += static_cast<std::int64_t>(connection.pending.size());
        connection.pending.clear();
    };

    // Poisson arrivals: independent users at a mean of @p rate per
    // second, with seeded exponential gaps.
    std::vector<double> due_offsets;
    for (double t = arrivals.exponential(1.0 / rate); t < seconds;
         t += arrivals.exponential(1.0 / rate))
        due_offsets.push_back(t);
    const auto total = static_cast<std::int64_t>(due_offsets.size());
    const double start = nowS() + 0.005;
    const double give_up = start + seconds + kReplyTimeoutS;
    std::int64_t next = 0;
    char chunk[1 << 16];
    result.latencyUs.assign(total, kFailedLatencyUs);
    result.lateUs.reserve(total);
    while (true) {
        double now = nowS();
        for (; next < total && start + due_offsets[next] <= now; ++next) {
            const double due = start + due_offsets[next];
            const std::size_t index = order[next % order.size()];
            Connection &connection = connections[next % 2];
            ++result.attempted;
            result.lateUs.push_back((now - due) * 1e6);
            if (!connection.fd) {
                ++result.failed;
                continue;
            }
            connection.out.append(requestFrames[index]);
            connection.pending.push_back(Pending{index, next, due});
        }

        bool waiting = false;
        pollfd fds[2];
        for (int c = 0; c < 2; ++c) {
            Connection &connection = connections[c];
            while (connection.fd && connection.sent < connection.out.size()) {
                const ssize_t n = ::send(
                    connection.fd.get(),
                    connection.out.data() + connection.sent,
                    connection.out.size() - connection.sent,
                    MSG_NOSIGNAL | MSG_DONTWAIT);
                if (n > 0)
                    connection.sent += static_cast<std::size_t>(n);
                else if (n < 0 && errno == EINTR)
                    continue;
                else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                    break;
                else
                    drop(connection);
            }
            if (connection.sent == connection.out.size()) {
                connection.out.clear();
                connection.sent = 0;
            }
            waiting = waiting || !connection.pending.empty();
            fds[c].fd = connection.fd ? connection.fd.get() : -1;
            fds[c].events = static_cast<short>(
                POLLIN | (connection.out.empty() ? 0 : POLLOUT));
            fds[c].revents = 0;
        }
        if (next >= total && !waiting)
            break;
        if (now > give_up) {
            for (Connection &connection : connections)
                drop(connection);
            break;
        }

        // Busy-poll while requests remain: a sleeping vCPU can wake
        // hundreds of microseconds late, which would make the generator
        // itself late. Only the final drain sleeps.
        const int timeout_ms = next < total ? 0 : 1;
        if (::poll(fds, 2, timeout_ms) <= 0)
            continue;
        now = nowS();
        for (int c = 0; c < 2; ++c) {
            Connection &connection = connections[c];
            if (!connection.fd ||
                !(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            while (true) {
                const ssize_t n =
                    ::recv(connection.fd.get(), chunk, sizeof chunk, 0);
                if (n > 0) {
                    connection.in.append(chunk, static_cast<std::size_t>(n));
                    continue;
                }
                if (n < 0 && errno == EINTR)
                    continue;
                if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
                    drop(connection);
                break;
            }
            std::size_t offset = 0;
            while (connection.in.size() - offset >= serve::kFrameHeaderBytes &&
                   !connection.pending.empty()) {
                serve::FrameHeader header;
                if (!serve::decodeFrameHeader(connection.in.data() + offset,
                                              &header, &error) ||
                    header.payloadBytes > kMaxReplyBytes) {
                    drop(connection);
                    break;
                }
                const std::size_t size =
                    serve::kFrameHeaderBytes + header.payloadBytes;
                if (connection.in.size() - offset < size)
                    break;
                const Pending pending = connection.pending.front();
                connection.pending.pop_front();
                if (check(pending.index, connection.in.data() + offset,
                          size)) {
                    ++result.succeeded;
                    result.latencyUs[pending.number] =
                        (now - pending.due) * 1e6;
                } else {
                    ++result.failed;
                }
                offset += size;
            }
            connection.in.erase(0, offset);
        }
    }
    for (Connection &connection : connections)
        if (connection.fd && !setBlocking(connection.fd.get()))
            connection.fd.reset();
    return result;
}

void
ServeBench::State::replayStages(double seconds,
                                std::vector<double> *reply_bytes,
                                std::int64_t *failed)
{
    // The server's request path, stage by stage, on the same inputs:
    // decode in place, plan-cache hit, candidate sweep, encode.
    serve::PlanCache cache;
    std::vector<std::string> payloads;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        payloads.push_back(serve::encodeRecommendRequest(mix[i]));
        const Compiled &entry = *compiled[i];
        cache.getOrCompile(entry.fingerprint, 1, [&entry] {
            serve::PlanEntry fresh;
            fresh.fingerprint = entry.fingerprint;
            fresh.generation = 1;
            fresh.graph = entry.graph;
            fresh.plan = entry.plan;
            fresh.fits = entry.fits;
            return fresh;
        });
    }

    ceer::io::CbfFile file;
    serve::RecommendRequest request;
    core::Recommendation recommendation;
    serve::RecommendResponse response;
    serve::ResponseEncodeScratch scratch;
    std::string payload;
    std::string frame;
    std::string error;
    const double end = nowS() + seconds;
    for (std::size_t i = 0;
         i < mix.size() || (i < kMaxReplays && nowS() < end); ++i) {
        const std::size_t index = order[i % order.size()];
        bool ok = false;
        {
            Span span("serve.decode");
            ok = serve::decodeRecommendRequestView(
                payloads[index].data(), payloads[index].size(), &file,
                &request, &error);
        }
        std::shared_ptr<const serve::PlanEntry> entry;
        {
            Span span("serve.lookup");
            entry = cache.tryGet(compiled[index]->fingerprint, 1);
        }
        if (!ok || !entry) {
            ++*failed;
            continue;
        }
        const core::WorkloadSpec workload{entry->graph.get(),
                                          request.datasetSamples,
                                          request.batch};
        const core::ObjectiveFn objective = objectiveOf(request);
        const core::Constraints constraints = constraintsOf(request);
        {
            Span span("recommender.sweep");
            core::recommendInto(*predictor, *entry->plan, workload,
                                catalog.instances(), objective, constraints,
                                1, &recommendation, &entry->fits);
        }
        {
            Span span("serve.encode");
            serve::responseFromRecommendationInto(recommendation, &response);
            serve::encodeRecommendResponseInto(response, &scratch, &payload);
            serve::buildFrameInto(serve::FrameType::Response, payload,
                                  &frame);
        }
        reply_bytes->push_back(static_cast<double>(frame.size()));
        *failed += frame != expectedFrames[index];
    }
}

ServeBench::ServeBench(const core::CeerModel &model,
                       cloud::InstanceCatalog catalog,
                       std::vector<serve::RecommendRequest> mix,
                       std::uint64_t seed)
    : state_(std::make_unique<State>())
{
    State &s = *state_;
    s.arrivals = ceer::util::Rng(seed, 0xa771);
    s.model = model;
    s.catalog = std::move(catalog);
    s.mix = std::move(mix);
    for (const serve::RecommendRequest &request : s.mix)
        s.requestFrames.push_back(serve::buildFrame(
            serve::FrameType::Request, serve::encodeRecommendRequest(request)));
    for (std::size_t i = 0; i < s.mix.size(); ++i)
        s.order.push_back(i);
    ceer::util::Rng rng(seed, 0x5e7e);
    for (std::size_t i = s.order.size(); i > 1; --i)
        std::swap(s.order[i - 1], s.order[rng.uniformInt(i)]);
}

ServeBench::~ServeBench()
{
    if (state_->server)
        state_->server->stop();
}

bool
ServeBench::start(std::string *error)
{
    State &s = *state_;
    serve::ServerOptions options;
    options.host = kHost;
    options.port = 0;
    options.reactors = 1;
    options.sweepThreads = 1; // Inline execution on the reactor.
    s.server = std::make_unique<serve::Server>(s.model, s.catalog, options);
    {
        const HalfOfCpus pin(false); // Inherited by the reactor.
        if (!s.server->tryStart(error))
            return false;
    }

    // Warm-up: every mix entry once on every connection, so every
    // plan compiles and every session memo fills now.
    Span span("serve.warmup");
    std::string frame;
    for (serve::Fd &fd : s.connections) {
        fd.reset(connectClient(s.server->port(), error));
        if (!fd)
            return false;
        for (const std::string &request : s.requestFrames) {
            serve::FrameHeader header;
            if (!serve::sendAll(fd.get(), request.data(), request.size(),
                                error) ||
                !readFrame(fd.get(), &frame, error) ||
                !serve::decodeFrameHeader(frame.data(), &header, error))
                return false;
            if (header.type != serve::FrameType::Response) {
                *error = "warm-up request refused";
                return false;
            }
        }
    }
    return true;
}

void
ServeBench::prepare(const Args &args)
{
    State &s = *state_;
    setTracing(args.trace);
    s.reference();
    setTracing(false);
    s.flipReply = args.corrupt == "reply";
}

void
ServeBench::round(double seconds, double rate)
{
    State &s = *state_;
    s.closed.merge(s.closedLoop(2, seconds, false));
    s.open.merge(s.openLoop(rate, seconds));
}

void
ServeBench::report(Report *report) const
{
    const State &s = *state_;
    report->count(s.closed.attempted, s.closed.failed);
    report->count(s.open.attempted, s.open.failed);
    report->set("req_per_s", s.closed.ratePerS(), "req/s");
    report->set("p50_us", windowedPercentile(s.open.latencyUs, 50), "us");
}

void
ServeBench::measureLayers(double seconds, double rate, Report *report)
{
    State &s = *state_;
    const serve::PlanCache::Stats cache_before = s.server->planCacheStats();
    const auto tally = [&](const LoadResult &result) {
        report->count(result.attempted, result.failed);
    };

    // Untraced and traced capacity, then the probes.
    const LoadResult closed = s.closedLoop(2, seconds * 0.2, false);
    tally(closed);
    setTracing(true);
    const LoadResult traced = s.closedLoop(2, seconds * 0.2, false);
    setTracing(false);
    tally(traced);
    const LoadResult single = s.closedLoop(1, seconds * 0.2, true);
    tally(single);
    const LoadResult open = s.openLoop(rate, seconds * 0.2);
    tally(open);
    const serve::PlanCache::Stats cache_after = s.server->planCacheStats();

    std::vector<double> reply_bytes;
    std::int64_t replay_failed = 0;
    setTracing(true);
    s.replayStages(seconds * 0.2, &reply_bytes, &replay_failed);
    setTracing(false);
    report->count(static_cast<std::int64_t>(reply_bytes.size()),
                  replay_failed);

    const std::vector<ceer::obs::TraceSpan> spans =
        ceer::obs::TraceSink::instance().spans();
    const auto stage = [&](const char *name) {
        return util::median(spanDurationsUs(spans, name));
    };
    const double decode = stage("serve.decode");
    const double lookup = stage("serve.lookup");
    const double sweep = stage("recommender.sweep");
    const double encode = stage("serve.encode");
    const double hits =
        static_cast<double>(cache_after.hits - cache_before.hits);
    const double misses =
        static_cast<double>(cache_after.misses - cache_before.misses);
    const double requests = static_cast<double>(closed.succeeded);
    report->set("recommender.sweep_us", sweep, "us");
    report->set("recommender.candidates",
                static_cast<double>(s.catalog.instances().size()), "count");
    report->set("serve.decode_us", decode, "us");
    report->set("serve.lookup_us", lookup, "us");
    report->set("serve.encode_us", encode, "us");
    report->set("serve.reply_bytes", util::median(reply_bytes), "bytes");
    report->set("serve.plan_cache_hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    report->set("serve.transport_us",
                util::median(single.latencyUs) -
                    (decode + lookup + sweep + encode),
                "us");
    report->set("serve.server_cpu_us_per_req",
                (closed.processCpuS - closed.generatorCpuS) / requests * 1e6,
                "us");
    report->set("loadgen.cpu_us_per_req",
                closed.generatorCpuS / requests * 1e6, "us");
    report->set("p99_us", windowedPercentile(open.latencyUs, 99), "us");
    report->set("loadgen.late_p99_us", windowedPercentile(open.lateUs, 99),
                "us");
    report->set("trace.overhead", closed.ratePerS() / traced.ratePerS(),
                "ratio");
}

namespace {

/**
 * Offered open-loop rates (req/s): 35-40% of each workload's
 * closed-loop capacity on the 4-core reference host. At half of it,
 * p50_us doubled when the host's capacity dropped by a fifth, so the
 * rates leave that margin.
 */
constexpr double kZooRate = 25000.0;
constexpr double kFleetRate = 1000.0;

/** Profiling iterations of the served model's study. */
constexpr int kServedModelIterations = 100;

/** Synthetic fleet size of serve_fleet. */
constexpr std::size_t kFleetSize = 2000;

/** Set-ups per untraced run; setup_s and pipeline_s are medians. */
constexpr int kSetups = 3;

/** 12 zoo CNNs x batch {16, 32, 64, 128} x {cost, time} x {no budget,
 *  a seeded hourly budget}. */
std::vector<serve::RecommendRequest>
zooMix(std::uint64_t seed)
{
    ceer::util::Rng rng(seed, 0xb0d9);
    std::vector<serve::RecommendRequest> mix;
    for (const std::string &name : models::allModelNames()) {
        for (const std::int64_t batch : {16, 32, 64, 128}) {
            for (const char *objective : {"cost", "time"}) {
                for (const bool budget : {false, true}) {
                    serve::RecommendRequest request;
                    request.model = name;
                    request.batch = batch;
                    request.objective = objective;
                    if (budget)
                        request.hourlyBudgetUsd = rng.uniform(2.0, 12.0);
                    mix.push_back(request);
                }
            }
        }
    }
    return mix;
}

} // namespace

void
runServe(const Args &args, Report *report)
{
    const bool fleet = args.workload == "serve_fleet";
    const int iterations = args.tiny ? 10 : kServedModelIterations;
    const double rate = fleet ? kFleetRate : kZooRate;
    const cloud::InstanceCatalog source =
        fleet ? cloud::InstanceCatalog::syntheticFleet(
                    args.tiny ? 100 : kFleetSize, args.seed)
              : cloud::InstanceCatalog::awsOnDemand();
    const std::vector<serve::RecommendRequest> mix = zooMix(args.seed);

    // Set-up: the served model's study, the catalog read from CBF,
    // server start and plan warm-up -- what `ceer profile`, `ceer
    // train` and `ceer serve` do before the first request.
    std::unique_ptr<ServeBench> bench;
    std::vector<double> setups;
    Study served;
    std::string error;
    setTracing(args.trace);
    for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
        bench.reset();
        const double start = nowS();
        served = Study();
        if (!runStudy(iterations, args.seed, hostThreads(), args.workdir,
                      &served, &error))
            throw std::runtime_error(error);
        cloud::InstanceCatalog catalog;
        if (!loadCatalog(source, args.workdir, &catalog, &error))
            throw std::runtime_error(error);
        bench = std::make_unique<ServeBench>(served.model, std::move(catalog),
                                             mix, args.seed);
        if (!bench->start(&error))
            throw std::runtime_error(error);
        setups.push_back(nowS() - start);
    }
    bench->prepare(args);

    if (args.trace) {
        bench->measureLayers(args.seconds, rate, report);
        const std::vector<ceer::obs::TraceSpan> spans =
            ceer::obs::TraceSink::instance().spans();
        const double profile_wall = spanSeconds(spans, "profile.collect");
        report->set("models.build_s", zooSeconds(spans, "models.build"), "s");
        report->set("profile.wall_s", profile_wall, "s");
        report->set("profile.cpu_s", served.profileCpuS, "s");
        report->set("profile.sim_iters_per_s",
                    studyIterations(iterations) / profile_wall, "1/s");
        report->set("io.csv_save_s", spanSeconds(spans, "io.csv_save"), "s");
        report->set("io.csv_load_s", spanSeconds(spans, "io.csv_load"), "s");
        report->set("io.cbf_load_s", spanSeconds(spans, "io.cbf_load"), "s");
        report->set("trainer.wall_s", spanSeconds(spans, "trainer.train"),
                    "s");
        report->set("trainer.cpu_s", served.trainerCpuS, "s");
        report->set("predictor.compile_s",
                    zooSeconds(spans, "predictor.compile"), "s");
        return;
    }

    // Timed rounds: the served model's study again (its outputs must
    // repeat byte for byte), then a closed and an open loop.
    std::vector<double> studies;
    const double end = nowS() + args.seconds;
    do {
        Study study;
        const double start = nowS();
        if (!runStudy(iterations, args.seed, hostThreads(), args.workdir,
                      &study, &error))
            throw std::runtime_error(error);
        studies.push_back(nowS() - start);
        report->count(2, (study.profileCsv != served.profileCsv) +
                             (study.modelText != served.modelText));
        bench->round(kRoundS, rate);
    } while (nowS() < end);
    bench->report(report);
    report->set("setup_s", util::median(setups), "s");
    report->set("pipeline_s", util::median(studies), "s");
    report->set("peak_rss_mb", peakRssMb(), "MB");
}

} // namespace perfbench
