#include "serve/server.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <poll.h>
#include <set>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "io/cbf.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "serve/net.h"
#include "util/logging.h"
#include "util/strings.h"

namespace ceer {
namespace serve {

namespace {

/**
 * models::buildModel fatals on unknown names, so the server validates
 * against the full buildable set (the 12-CNN zoo plus the
 * out-of-family extras) and answers `unknown_model` instead of dying.
 */
bool
isKnownModelName(const std::string &name)
{
    static const std::set<std::string> known = [] {
        std::set<std::string> names(models::allModelNames().begin(),
                                    models::allModelNames().end());
        names.insert("transformer_encoder");
        names.insert("lstm_classifier");
        names.insert("mobilenet_v1");
        return names;
    }();
    return known.count(name) > 0;
}

/** Sends a typed Error frame and counts the rejection. */
void
sendTypedError(int fd, const std::string &code,
               const std::string &message)
{
    ErrorInfo info;
    info.code = code;
    info.message = message;
    const std::string frame =
        buildFrame(FrameType::Error, encodeError(info));
    std::string send_error;
    // Best effort: the connection is closing either way; a peer that
    // already vanished just skips the courtesy reply.
    sendAll(fd, frame.data(), frame.size(), &send_error);
    OBS_COUNTER_INC("serve.rejected");
}

/** Appends the decimal rendering of @p value without allocating. */
void
appendDecimal(std::string *out, long long value)
{
    char buf[32];
    const int len = std::snprintf(buf, sizeof buf, "%lld", value);
    if (len > 0)
        out->append(buf, static_cast<std::size_t>(len));
}

} // namespace

Server::Session::~Session() { closeFd(fd); }

Server::Server(core::CeerModel model, cloud::InstanceCatalog catalog,
               ServerOptions options)
    : options_(std::move(options)),
      candidates_(catalog.instances()),
      engine_(std::make_shared<const Engine>(std::move(model), 1)),
      planCache_(options_.planCacheCapacity, options_.planCacheShards)
{
}

Server::~Server() { stop(); }

std::shared_ptr<const Server::Engine>
Server::currentEngine() const
{
    std::lock_guard<std::mutex> lock(engineMutex_);
    return engine_;
}

std::uint64_t
Server::generation() const
{
    return currentEngine()->generation;
}

bool
Server::tryStart(std::string *error)
{
    if (started_) {
        if (error)
            *error = "server already started";
        return false;
    }
    const int reactor_count =
        options_.reactors < 1 ? 1 : options_.reactors;
    reactors_.clear();
    for (int i = 0; i < reactor_count; ++i) {
        reactors_.push_back(std::make_unique<Reactor>());
        reactors_.back()->index = static_cast<std::size_t>(i);
    }
    const auto cleanup = [this] {
        closeFd(listenFd_);
        listenFd_ = -1;
        for (auto &reactor : reactors_) {
            closeFd(reactor->wakeRead);
            closeFd(reactor->wakeWrite);
        }
        reactors_.clear();
    };

    std::string nb_error;
    for (auto &reactor : reactors_) {
        int pipe_fds[2];
        if (::pipe(pipe_fds) != 0) {
            if (error)
                *error = "pipe: " + std::string(std::strerror(errno));
            cleanup();
            return false;
        }
        reactor->wakeRead = pipe_fds[0];
        reactor->wakeWrite = pipe_fds[1];
        if (!setNonBlocking(reactor->wakeRead, &nb_error) ||
            !setNonBlocking(reactor->wakeWrite, &nb_error)) {
            if (error)
                *error = nb_error;
            cleanup();
            return false;
        }
    }

    listenFd_ = listenTcp(options_.host, options_.port,
                          options_.backlog, &port_, error);
    if (listenFd_ < 0) {
        cleanup();
        return false;
    }
    if (!setNonBlocking(listenFd_, &nb_error)) {
        if (error)
            *error = nb_error;
        cleanup();
        return false;
    }

    started_ = true;
    stopping_ = false;
    for (auto &reactor : reactors_) {
        Reactor *r = reactor.get();
        r->thread = std::thread([this, r] { reactorLoop(*r); });
    }
    return true;
}

void
Server::stop()
{
    if (!started_)
        return;
    stopping_ = true;
    for (auto &reactor : reactors_)
        wake(*reactor);
    // Requests execute on their reactor, so once every reactor has
    // joined, every admitted request has been answered.
    for (auto &reactor : reactors_)
        if (reactor->thread.joinable())
            reactor->thread.join();
    closeFd(listenFd_);
    listenFd_ = -1;
    for (auto &reactor : reactors_) {
        closeFd(reactor->wakeRead);
        closeFd(reactor->wakeWrite);
    }
    reactors_.clear();
    started_ = false;
}

bool
Server::tryReload(const std::string &model_path, std::string *error)
{
    core::CeerModel model;
    if (!core::CeerModel::tryLoadFile(model_path, &model, error))
        return false;
    {
        std::lock_guard<std::mutex> lock(engineMutex_);
        engine_ = std::make_shared<const Engine>(
            std::move(model), engine_->generation + 1);
    }
    OBS_COUNTER_INC("serve.reloads");
    return true;
}

void
Server::wake(Reactor &reactor)
{
    if (reactor.wakeWrite < 0)
        return;
    const char byte = 1;
    while (::write(reactor.wakeWrite, &byte, 1) < 0) {
        if (errno == EINTR)
            continue;
        // EAGAIN: the pipe already holds unread wake bytes, which is
        // all a wake needs.
        break;
    }
}

void
Server::adoptSession(Reactor &reactor, int fd)
{
    std::string nb_error;
    if (!setNonBlocking(fd, &nb_error)) {
        closeFd(fd);
        return;
    }
    const std::uint64_t id =
        nextSessionId_.fetch_add(1, std::memory_order_relaxed);
    Session &session = reactor.sessions.try_emplace(id).first->second;
    session.id = id;
    session.fd = fd;
    session.lastActivity = std::chrono::steady_clock::now();
    OBS_COUNTER_INC("serve.connections");
}

void
Server::reactorLoop(Reactor &reactor)
{
    // Everything below is hoisted so a steady-state iteration reuses
    // capacity instead of allocating.
    std::vector<int> inbox;
    std::vector<pollfd> fds;
    std::vector<Session *> polled;
    const bool accepts = reactor.index == 0;
    while (true) {
        // Adopt the fds reactor 0 dealt to this reactor.
        inbox.clear();
        {
            std::lock_guard<std::mutex> lock(reactor.mutex);
            inbox.swap(reactor.inbox);
        }
        for (const int fd : inbox)
            adoptSession(reactor, fd);
        if (stopping_.load())
            break;

        fds.clear();
        polled.clear();
        fds.push_back(pollfd{reactor.wakeRead, POLLIN, 0});
        if (accepts)
            fds.push_back(pollfd{listenFd_, POLLIN, 0});
        const std::size_t fixed = fds.size();
        int timeout_ms = -1;
        const auto now = std::chrono::steady_clock::now();
        for (auto &[id, session] : reactor.sessions) {
            fds.push_back(pollfd{session.fd, POLLIN, 0});
            polled.push_back(&session);
            if (options_.readTimeoutMs > 0 && !session.inBuf.empty()) {
                const auto deadline =
                    session.lastActivity +
                    std::chrono::milliseconds(options_.readTimeoutMs);
                const auto remaining =
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(deadline - now)
                        .count();
                const int clamped =
                    remaining < 0 ? 0
                                  : static_cast<int>(remaining) + 1;
                if (timeout_ms < 0 || clamped < timeout_ms)
                    timeout_ms = clamped;
            }
        }

        const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            util::fatal(util::format("ceerd poll: %s",
                                     std::strerror(errno)));
        }

        if (fds[0].revents & POLLIN) {
            char drain[64];
            while (::read(reactor.wakeRead, drain, sizeof drain) > 0) {
            }
        }

        if (accepts && (fds[1].revents & POLLIN)) {
            while (true) {
                bool again = false;
                std::string accept_error;
                const int fd =
                    acceptRetry(listenFd_, &again, &accept_error);
                if (fd < 0)
                    break;
                // Deal accepted connections round-robin.
                const std::size_t target =
                    nextReactorRR_++ % reactors_.size();
                if (target == reactor.index) {
                    adoptSession(reactor, fd);
                    continue;
                }
                Reactor &peer = *reactors_[target];
                {
                    std::lock_guard<std::mutex> lock(peer.mutex);
                    peer.inbox.push_back(fd);
                }
                wake(peer);
            }
        }

        for (std::size_t i = 0; i < polled.size(); ++i) {
            const pollfd &entry = fds[fixed + i];
            Session &session = *polled[i];
            bool keep = true;
            if (entry.revents & (POLLIN | POLLHUP | POLLERR))
                keep = readSession(reactor, session);
            if (keep && options_.readTimeoutMs > 0 &&
                !session.inBuf.empty()) {
                const auto stalled = std::chrono::steady_clock::now() -
                                     session.lastActivity;
                if (stalled > std::chrono::milliseconds(
                                  options_.readTimeoutMs)) {
                    sendTypedError(
                        session.fd, errc::kReadTimeout,
                        "frame not completed within read timeout");
                    keep = false;
                }
            }
            if (!keep) {
                const std::uint64_t id = session.id;
                reactor.sessions.erase(id);
            }
        }
    }

    // Shutdown: every request this reactor admitted has been answered;
    // close the idle connections (the Session destructor closes the
    // fd) and any dealt fds that never became sessions.
    reactor.sessions.clear();
    inbox.clear();
    {
        std::lock_guard<std::mutex> lock(reactor.mutex);
        inbox.swap(reactor.inbox);
    }
    for (const int fd : inbox)
        closeFd(fd);
}

bool
Server::readSession(Reactor &reactor, Session &session)
{
    char chunk[65536];
    bool got_data = false;
    while (true) {
        const ssize_t n = ::recv(session.fd, chunk, sizeof chunk, 0);
        if (n > 0) {
            session.inBuf.append(chunk, static_cast<std::size_t>(n));
            got_data = true;
            continue;
        }
        if (n == 0)
            return false; // Peer closed; nothing left to answer.
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        return false;
    }
    if (got_data)
        session.lastActivity = std::chrono::steady_clock::now();
    return processSession(reactor, session);
}

bool
Server::processSession(Reactor &reactor, Session &session)
{
    // Frames are walked by offset and the consumed prefix is erased
    // once per call, so a pipelined burst costs linear, not quadratic,
    // buffer movement.
    std::size_t consumed = 0;
    while (session.inBuf.size() - consumed >= kFrameHeaderBytes) {
        const char *frame = session.inBuf.data() + consumed;
        FrameHeader header;
        std::string decode_error;
        if (!decodeFrameHeader(frame, &header, &decode_error)) {
            sendTypedError(session.fd, errc::kBadFrame, decode_error);
            return false;
        }
        // Length check straight off the header: a hostile length
        // field is refused before a single payload byte is buffered
        // or allocated.
        if (header.payloadBytes > options_.maxPayloadBytes) {
            sendTypedError(
                session.fd, errc::kPayloadTooLarge,
                util::format("payload of %u bytes exceeds limit %zu",
                             header.payloadBytes,
                             options_.maxPayloadBytes));
            return false;
        }
        const std::size_t frame_bytes =
            kFrameHeaderBytes + header.payloadBytes;
        if (session.inBuf.size() - consumed < frame_bytes)
            break; // Wait for the rest of the frame.
        // The payload is decoded IN PLACE from the input buffer. CBF's
        // view parse needs 8-byte-aligned columns, and payloads are not
        // padded at their end, so a payload that follows an odd-sized
        // frame is copied into aligned reactor scratch first.
        const char *payload = frame + kFrameHeaderBytes;
        if (header.payloadBytes > 0 &&
            reinterpret_cast<std::uintptr_t>(payload) %
                    alignof(std::uint64_t) !=
                0) {
            reactor.alignedPayload.resize(
                (header.payloadBytes + sizeof(std::uint64_t) - 1) /
                sizeof(std::uint64_t));
            std::memcpy(reactor.alignedPayload.data(), payload,
                        header.payloadBytes);
            payload = reinterpret_cast<const char *>(
                reactor.alignedPayload.data());
        }
        if (io::xxhash64(payload, header.payloadBytes) !=
            header.checksum) {
            sendTypedError(session.fd, errc::kChecksumMismatch,
                           "payload checksum mismatch");
            return false;
        }
        switch (header.type) {
          case FrameType::Ping: {
            // One process-wide allocation, ever: the pong frame is a
            // constant.
            static const std::string pong =
                buildFrame(FrameType::Pong, "");
            std::string send_error;
            if (!sendAll(session.fd, pong.data(), pong.size(),
                         &send_error))
                return false;
            consumed += frame_bytes;
            continue;
          }
          case FrameType::Request:
          case FrameType::Reload: {
            if (inFlight_.load(std::memory_order_relaxed) >=
                options_.maxQueueDepth) {
                // Explicit backpressure: the client sees a typed
                // `overloaded` reply, never a silent drop.
                sendTypedError(session.fd, errc::kOverloaded,
                               util::format(
                                   "admission queue full (depth %zu)",
                                   options_.maxQueueDepth));
                return false;
            }
            const std::size_t depth =
                inFlight_.fetch_add(1, std::memory_order_relaxed) + 1;
            OBS_GAUGE_SET("serve.queue_depth",
                          static_cast<double>(depth));
            const bool ok = dispatch(reactor, session, header.type,
                                     payload, header.payloadBytes);
            const std::size_t after =
                inFlight_.fetch_sub(1, std::memory_order_relaxed) - 1;
            OBS_GAUGE_SET("serve.queue_depth",
                          static_cast<double>(after));
            if (!ok)
                return false;
            consumed += frame_bytes;
            session.lastActivity = std::chrono::steady_clock::now();
            continue;
          }
          default:
            sendTypedError(
                session.fd, errc::kBadFrame,
                util::format("frame type %u is not a client request",
                             static_cast<unsigned>(header.type)));
            return false;
        }
    }
    session.inBuf.erase(0, consumed);
    return true;
}

bool
Server::dispatch(Reactor &reactor, Session &session, FrameType type,
                 const char *payload, std::size_t size)
{
    // The span name is only materialized when tracing is on; the
    // request path must not allocate otherwise.
    obs::ScopedSpan span(
        obs::enabled()
            ? util::format("serve.session.%llu",
                           static_cast<unsigned long long>(session.id))
            : std::string(),
        "serve");
    OBS_TIMER("serve.request_us");
    return type == FrameType::Request
               ? handleRequest(reactor, session, payload, size)
               : handleReload(session, payload, size);
}

bool
Server::handleRequest(Reactor &reactor, Session &session,
                      const char *payload, std::size_t size)
{
    RecommendRequest &request = reactor.requestScratch;
    std::string error;
    if (!decodeRecommendRequestView(payload, size,
                                    &reactor.requestFile, &request,
                                    &error)) {
        sendTypedError(session.fd, errc::kBadRequest, error);
        return false;
    }
    if (!isKnownModelName(request.model)) {
        sendTypedError(session.fd, errc::kUnknownModel,
                       "unknown model '" + request.model + "'");
        return false;
    }
    if (request.batch < 1 || request.batch > 65536) {
        sendTypedError(session.fd, errc::kBadRequest,
                       util::format("batch %lld out of range [1, 65536]",
                                    static_cast<long long>(
                                        request.batch)));
        return false;
    }
    if (request.datasetSamples < 1) {
        sendTypedError(session.fd, errc::kBadRequest,
                       "samples must be >= 1");
        return false;
    }

    const std::shared_ptr<const Engine> engine = currentEngine();

    // model:batch -> fingerprint memo, shared by the reactor's
    // sessions, so the warm path never rebuilds a graph just to hash
    // it — not even on a fresh connection.
    std::string &key = reactor.keyScratch;
    key.clear();
    key.append(request.model);
    key.push_back(':');
    appendDecimal(&key, static_cast<long long>(request.batch));
    std::uint64_t fingerprint = 0;
    bool have_fingerprint = false;
    const auto key_it = reactor.requestKeys.find(key);
    if (key_it != reactor.requestKeys.end()) {
        fingerprint = key_it->second;
        have_fingerprint = true;
    }
    std::shared_ptr<const graph::Graph> graph;
    if (!have_fingerprint) {
        OBS_COUNTER_INC("serve.graph_builds");
        graph = std::make_shared<const graph::Graph>(
            models::buildModel(request.model, request.batch));
        fingerprint = graphFingerprint(*graph);
        reactor.requestKeys.emplace(key, fingerprint);
    }

    // Process-wide shared plan cache: identical graphs compile once
    // no matter how many connections ask for them, and the entry is
    // pinned for the duration of this request even if a hot reload
    // lands mid-flight. tryGet is the allocation-free hit path;
    // getOrCompile coordinates the (cold) compile across sessions.
    std::shared_ptr<const PlanEntry> entry =
        planCache_.tryGet(fingerprint, engine->generation);
    if (!entry) {
        entry = planCache_.getOrCompile(
            fingerprint, engine->generation, [&]() {
                PlanEntry fresh;
                fresh.fingerprint = fingerprint;
                fresh.generation = engine->generation;
                if (!graph) {
                    OBS_COUNTER_INC("serve.graph_builds");
                    graph = std::make_shared<const graph::Graph>(
                        models::buildModel(request.model,
                                           request.batch));
                }
                fresh.graph = graph;
                OBS_TIMER("serve.compile_us");
                OBS_COUNTER_INC("serve.plan_compiles");
                auto plan =
                    std::make_shared<const core::PredictPlan>(
                        engine->predictor.compile(*fresh.graph));
                // Coalesced warm-up: evaluate every distinct (GPU, k)
                // cell of the catalog through one predictBatch call,
                // so the sweep below (and every request sharing this
                // plan) hits only the memo.
                std::vector<core::PredictRequest> warm;
                for (const cloud::GpuInstance &instance :
                     candidates_) {
                    bool seen = false;
                    for (const core::PredictRequest &w : warm) {
                        if (w.gpu == instance.gpu &&
                            w.numGpus == instance.numGpus) {
                            seen = true;
                            break;
                        }
                    }
                    if (!seen)
                        warm.push_back(core::PredictRequest{
                            instance.gpu, instance.numGpus});
                }
                engine->predictor.predictBatch(*plan, warm);
                // The memory-fit walk is the recommender's only
                // O(nodes) per-query step; bake the verdicts into the
                // entry so warm sweeps skip it.
                fresh.fits = core::computeMemoryFits(*fresh.graph);
                fresh.bytes = plan->approxBytes();
                fresh.plan = std::move(plan);
                return fresh;
            });
    }

    core::WorkloadSpec workload;
    workload.graph = entry->graph.get();
    workload.datasetSamples = request.datasetSamples;
    workload.batchPerGpu = request.batch;
    core::Constraints constraints;
    constraints.hourlyBudgetUsd = request.hourlyBudgetUsd;
    constraints.hourlyToleranceUsd = request.hourlyToleranceUsd;
    constraints.totalBudgetUsd = request.totalBudgetUsd;
    constraints.enforceGpuMemory = request.enforceGpuMemory;
    const core::ObjectiveFn objective = core::objectiveFunction(
        request.objective == "time" ? core::Objective::MinTrainingTime
                                    : core::Objective::MinCost);

    // The sweep, projection and encode all write into per-reactor
    // scratch: a warm request allocates nothing from here on.
    core::recommendInto(engine->predictor, *entry->plan, workload,
                        candidates_, objective, constraints,
                        options_.sweepThreads, &reactor.sweepScratch,
                        &entry->fits);
    responseFromRecommendationInto(reactor.sweepScratch,
                                   &reactor.responseScratch);
    encodeRecommendResponseInto(reactor.responseScratch,
                                &reactor.encodeScratch,
                                &reactor.payloadScratch);
    buildFrameInto(FrameType::Response, reactor.payloadScratch,
                   &reactor.frameScratch);
    if (!sendAll(session.fd, reactor.frameScratch.data(),
                 reactor.frameScratch.size(), &error))
        return false;
    OBS_COUNTER_INC("serve.requests");
    return true;
}

bool
Server::handleReload(Session &session, const char *payload,
                     std::size_t size)
{
    const std::string payload_str(payload, size);
    ReloadRequest reload;
    std::string error;
    if (!decodeReloadRequest(payload_str, &reload, &error)) {
        sendTypedError(session.fd, errc::kBadRequest, error);
        return false;
    }
    core::CeerModel model;
    if (!core::CeerModel::tryLoadFile(reload.modelPath, &model,
                                      &error)) {
        sendTypedError(session.fd, errc::kBadRequest,
                       "reload failed: " + error);
        return false;
    }
    ReloadDone done;
    {
        std::lock_guard<std::mutex> lock(engineMutex_);
        done.generation = engine_->generation + 1;
        engine_ = std::make_shared<const Engine>(std::move(model),
                                                 done.generation);
    }
    OBS_COUNTER_INC("serve.reloads");
    const std::string frame =
        buildFrame(FrameType::ReloadDone, encodeReloadDone(done));
    if (!sendAll(session.fd, frame.data(), frame.size(), &error))
        return false;
    OBS_COUNTER_INC("serve.requests");
    return true;
}

} // namespace serve
} // namespace ceer
