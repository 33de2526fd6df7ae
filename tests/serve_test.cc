/**
 * @file
 * Tests for the ceerd serving stack: protocol codecs, frame-header
 * validation, the server's fail-closed edge cases (malformed frames,
 * oversized payloads, checksum mismatches, slow-loris stalls,
 * admission overload), byte identity against in-process recommend(),
 * hot reload, and the loadgen percentile math.
 *
 * Every rejection test asserts the same contract: the client receives
 * a typed Error frame (protocol.h errc::), the connection is closed
 * (fail closed), and the `serve.rejected` counter advances.
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/instances.h"
#include "core/recommender.h"
#include "core/trainer.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "profile/profiler.h"
#include "serve/client.h"
#include "serve/loadgen.h"
#include "serve/net.h"
#include "serve/plan_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace ceer {
namespace serve {
namespace {

/** A cheap but real trained model, shared across tests. */
const core::CeerModel &
cheapModel()
{
    static const core::CeerModel model = [] {
        profile::CollectOptions options;
        options.iterations = 12;
        const profile::ProfileDataset dataset = profile::collectProfiles(
            {"vgg_11", "inception_v1"}, options);
        return core::trainCeer(dataset);
    }();
    return model;
}

/** Boots a server on an ephemeral port; asserts the bind worked. */
std::unique_ptr<Server>
startServer(ServerOptions options = {},
            cloud::InstanceCatalog catalog =
                cloud::InstanceCatalog::awsOnDemand())
{
    options.port = 0;
    auto server = std::make_unique<Server>(cheapModel(),
                                           std::move(catalog), options);
    std::string error;
    EXPECT_TRUE(server->tryStart(&error)) << error;
    return server;
}

/** Connects a raw socket (no client framing) to a test server. */
Fd
rawConnect(int port)
{
    std::string error;
    const int fd = connectTcp("127.0.0.1", port, &error);
    EXPECT_GE(fd, 0) << error;
    EXPECT_TRUE(setRecvTimeoutMs(fd, 5000, &error)) << error;
    return Fd(fd);
}

/** Reads one complete frame off a raw socket. */
bool
readFrame(int fd, FrameHeader *header, std::string *payload)
{
    char raw[kFrameHeaderBytes];
    std::string error;
    if (!recvAll(fd, raw, sizeof raw, &error))
        return false;
    if (!decodeFrameHeader(raw, header, &error))
        return false;
    payload->assign(header->payloadBytes, '\0');
    return header->payloadBytes == 0 ||
           recvAll(fd, payload->data(), payload->size(), &error);
}

/**
 * The fail-closed contract: a typed Error frame with @p code, then
 * EOF. Observing EOF also sequences the test after the server's
 * `serve.rejected` increment (the reactor closes the fd after
 * counting).
 */
void
expectErrorThenEof(int fd, const std::string &code)
{
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(readFrame(fd, &header, &payload));
    EXPECT_EQ(header.type, FrameType::Error);
    ErrorInfo info;
    std::string error;
    ASSERT_TRUE(decodeError(payload, &info, &error)) << error;
    EXPECT_EQ(info.code, code);
    char byte = 0;
    std::string eof_error;
    EXPECT_FALSE(recvAll(fd, &byte, 1, &eof_error));
}

/**
 * Waits for a counter to reach @p at_least. The increment and the
 * courtesy Error frame are not strictly ordered for a client that
 * does not wait for EOF, so counter assertions poll briefly.
 */
bool
waitForCounter(const std::string &name, std::uint64_t at_least)
{
    for (int i = 0; i < 500; ++i) {
        if (obs::snapshotMetrics().counterValue(name) >= at_least)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
}

/** The reply bytes an in-process recommend() would produce. */
std::string
localReplyBytes(const RecommendRequest &request,
                const cloud::InstanceCatalog &catalog =
                    cloud::InstanceCatalog::awsOnDemand())
{
    const core::CeerPredictor predictor(cheapModel());
    const graph::Graph g =
        models::buildModel(request.model, request.batch);
    core::WorkloadSpec workload{&g, request.datasetSamples,
                                request.batch};
    core::Constraints constraints;
    constraints.hourlyBudgetUsd = request.hourlyBudgetUsd;
    constraints.hourlyToleranceUsd = request.hourlyToleranceUsd;
    constraints.totalBudgetUsd = request.totalBudgetUsd;
    constraints.enforceGpuMemory = request.enforceGpuMemory;
    const core::Objective objective =
        request.objective == "time" ? core::Objective::MinTrainingTime
                                    : core::Objective::MinCost;
    return encodeRecommendResponse(
        responseFromRecommendation(core::recommend(
            predictor, workload, catalog.instances(),
            core::objectiveFunction(objective), constraints)));
}

// --- Protocol codecs ---------------------------------------------------

TEST(ServeProtocolTest, FrameHeaderRoundTrips)
{
    FrameHeader header;
    header.type = FrameType::Request;
    header.payloadBytes = 12345;
    header.checksum = 0x0123456789abcdefULL;
    char raw[kFrameHeaderBytes];
    encodeFrameHeader(header, raw);

    FrameHeader decoded;
    std::string error;
    ASSERT_TRUE(decodeFrameHeader(raw, &decoded, &error)) << error;
    EXPECT_EQ(decoded.type, FrameType::Request);
    EXPECT_EQ(decoded.payloadBytes, 12345u);
    EXPECT_EQ(decoded.checksum, header.checksum);
}

TEST(ServeProtocolTest, FrameHeaderRejectsCorruption)
{
    FrameHeader header;
    header.type = FrameType::Ping;
    char good[kFrameHeaderBytes];
    encodeFrameHeader(header, good);

    const auto rejects = [&](std::size_t offset, char value) {
        char raw[kFrameHeaderBytes];
        std::memcpy(raw, good, sizeof raw);
        raw[offset] = value;
        FrameHeader out;
        std::string error;
        const bool ok = decodeFrameHeader(raw, &out, &error);
        EXPECT_FALSE(ok) << "offset " << offset << " accepted";
        if (!ok) {
            EXPECT_FALSE(error.empty());
        }
        return !ok;
    };
    EXPECT_TRUE(rejects(0, 'X'));   // Magic.
    EXPECT_TRUE(rejects(4, 99));    // Unknown version.
    EXPECT_TRUE(rejects(5, 0));     // Frame type 0 is invalid.
    EXPECT_TRUE(rejects(5, 42));    // Unknown frame type.
    EXPECT_TRUE(rejects(6, 1));     // Reserved u16 must be zero.
    EXPECT_TRUE(rejects(12, 1));    // Reserved u32 must be zero.
}

TEST(ServeProtocolTest, BuildFrameIsHeaderPlusPayload)
{
    const std::string payload = "hello ceerd";
    const std::string frame = buildFrame(FrameType::Error, payload);
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
    FrameHeader header;
    std::string error;
    ASSERT_TRUE(decodeFrameHeader(frame.data(), &header, &error));
    EXPECT_EQ(header.type, FrameType::Error);
    EXPECT_EQ(header.payloadBytes, payload.size());
    EXPECT_EQ(frame.substr(kFrameHeaderBytes), payload);
}

TEST(ServeProtocolTest, RequestCodecRoundTrips)
{
    RecommendRequest request;
    request.model = "resnet_152";
    request.batch = 64;
    request.datasetSamples = 987654;
    request.objective = "time";
    request.hourlyBudgetUsd = 12.5;
    request.hourlyToleranceUsd = 0.75;
    request.totalBudgetUsd = 4000.0;
    request.enforceGpuMemory = false;

    RecommendRequest decoded;
    std::string error;
    ASSERT_TRUE(decodeRecommendRequest(encodeRecommendRequest(request),
                                       &decoded, &error))
        << error;
    EXPECT_EQ(decoded.model, request.model);
    EXPECT_EQ(decoded.batch, request.batch);
    EXPECT_EQ(decoded.datasetSamples, request.datasetSamples);
    EXPECT_EQ(decoded.objective, request.objective);
    EXPECT_DOUBLE_EQ(decoded.hourlyBudgetUsd, request.hourlyBudgetUsd);
    EXPECT_DOUBLE_EQ(decoded.hourlyToleranceUsd,
                     request.hourlyToleranceUsd);
    EXPECT_DOUBLE_EQ(decoded.totalBudgetUsd, request.totalBudgetUsd);
    EXPECT_FALSE(decoded.enforceGpuMemory);

    // Defaults (infinite budgets) survive the wire too.
    RecommendRequest defaults;
    defaults.model = "alexnet";
    RecommendRequest decoded_defaults;
    ASSERT_TRUE(
        decodeRecommendRequest(encodeRecommendRequest(defaults),
                               &decoded_defaults, &error))
        << error;
    EXPECT_TRUE(std::isinf(decoded_defaults.hourlyBudgetUsd));
    EXPECT_TRUE(std::isinf(decoded_defaults.totalBudgetUsd));
    EXPECT_TRUE(decoded_defaults.enforceGpuMemory);
}

TEST(ServeProtocolTest, RequestCodecRejectsBadPayloads)
{
    RecommendRequest out;
    std::string error;
    EXPECT_FALSE(decodeRecommendRequest("not a CBF document", &out,
                                        &error));
    EXPECT_FALSE(error.empty());

    RecommendRequest bad_objective;
    bad_objective.model = "alexnet";
    bad_objective.objective = "speed";
    error.clear();
    EXPECT_FALSE(decodeRecommendRequest(
        encodeRecommendRequest(bad_objective), &out, &error));
    EXPECT_NE(error.find("objective"), std::string::npos);
}

TEST(ServeProtocolTest, ResponseCodecRoundTrips)
{
    RecommendResponse response;
    response.bestIndex = 1;
    response.instances = {"p2.xlarge", "p3.2xlarge"};
    response.hourlyUsd = {0.9, 3.06};
    response.hours = {12.0, 4.0};
    response.costUsd = {10.8, 12.24};
    response.iterationUs = {125000.0, 41000.0};
    response.feasible = {1, 1};

    RecommendResponse decoded;
    std::string error;
    ASSERT_TRUE(decodeRecommendResponse(
        encodeRecommendResponse(response), &decoded, &error))
        << error;
    EXPECT_EQ(decoded.bestIndex, 1);
    EXPECT_EQ(decoded.instances, response.instances);
    EXPECT_EQ(decoded.hourlyUsd, response.hourlyUsd);
    EXPECT_EQ(decoded.hours, response.hours);
    EXPECT_EQ(decoded.costUsd, response.costUsd);
    EXPECT_EQ(decoded.iterationUs, response.iterationUs);
    EXPECT_EQ(decoded.feasible, response.feasible);

    RecommendResponse garbage;
    EXPECT_FALSE(decodeRecommendResponse("junk", &garbage, &error));

    // Each column is encoded at its own length, so an inconsistent
    // response is caught by the decoder rather than read past.
    RecommendResponse ragged = response;
    ragged.hours.push_back(1.0);
    ragged.feasible.pop_back();
    EXPECT_FALSE(decodeRecommendResponse(encodeRecommendResponse(ragged),
                                         &garbage, &error));
    EXPECT_NE(error.find("disagree"), std::string::npos) << error;
}

TEST(ServeProtocolTest, ResponseFrameWriterMatchesTheReferenceChain)
{
    // The one-pass reply writer (catalog columns encoded once, the
    // payload built straight after the frame header) must produce the
    // bytes of the projection -> encode -> frame chain, on a warm
    // scratch and frame reused across catalogs of different sizes,
    // with and without a winner.
    const core::CeerPredictor predictor(cheapModel());
    const graph::Graph g = models::buildModel("resnet_50", 32);
    const core::WorkloadSpec workload{&g, 1'200'000, 32};
    core::Constraints no_winner;
    no_winner.totalBudgetUsd = 0.0;
    ResponseFrameScratch scratch;
    std::string frame;
    for (const cloud::InstanceCatalog &catalog :
         {cloud::InstanceCatalog::syntheticFleet(2000, 5),
          cloud::InstanceCatalog::awsOnDemand(),
          cloud::InstanceCatalog(),
          cloud::InstanceCatalog::syntheticFleet(333, 6)}) {
        const ResponseCatalogColumns columns(catalog.instances());
        ASSERT_EQ(columns.rows(), catalog.instances().size());
        for (const core::Constraints &constraints :
             {core::Constraints{}, no_winner}) {
            SCOPED_TRACE(testing::Message()
                         << catalog.instances().size()
                         << " candidates, total budget "
                         << constraints.totalBudgetUsd);
            const core::Recommendation recommendation = core::recommend(
                predictor, workload, catalog.instances(),
                core::Objective::MinCost, constraints);
            writeRecommendResponseFrame(recommendation, columns,
                                        &scratch, &frame);
            EXPECT_EQ(frame,
                      buildFrame(FrameType::Response,
                                 encodeRecommendResponse(
                                     responseFromRecommendation(
                                         recommendation))));
        }
    }
    // A sweep over some other candidate list is a caller bug.
    const ResponseCatalogColumns paper(
        cloud::InstanceCatalog::awsOnDemand().instances());
    const core::Recommendation fleet = core::recommend(
        predictor, workload,
        cloud::InstanceCatalog::syntheticFleet(20, 1).instances(),
        core::Objective::MinCost);
    EXPECT_DEATH(
        writeRecommendResponseFrame(fleet, paper, &scratch, &frame),
        "20 evaluations for a 16-row catalog");
}

TEST(ServeProtocolTest, ErrorAndReloadCodecsRoundTrip)
{
    ErrorInfo info{errc::kOverloaded, "queue full"};
    ErrorInfo decoded_info;
    std::string error;
    ASSERT_TRUE(
        decodeError(encodeError(info), &decoded_info, &error));
    EXPECT_EQ(decoded_info.code, errc::kOverloaded);
    EXPECT_EQ(decoded_info.message, "queue full");

    ReloadRequest reload{"/tmp/model.txt"};
    ReloadRequest decoded_reload;
    ASSERT_TRUE(decodeReloadRequest(encodeReloadRequest(reload),
                                    &decoded_reload, &error));
    EXPECT_EQ(decoded_reload.modelPath, reload.modelPath);

    ReloadDone done{7};
    ReloadDone decoded_done;
    ASSERT_TRUE(
        decodeReloadDone(encodeReloadDone(done), &decoded_done,
                         &error));
    EXPECT_EQ(decoded_done.generation, 7u);
}

TEST(ServeProtocolTest, GraphFingerprintDiscriminates)
{
    const std::uint64_t alexnet32 =
        graphFingerprint(models::buildModel("alexnet", 32));
    // Stable: rebuilding the identical graph reproduces the hash
    // (this is what makes it a valid plan-cache key).
    EXPECT_EQ(alexnet32,
              graphFingerprint(models::buildModel("alexnet", 32)));
    // Different model or batch size must change the plan key.
    EXPECT_NE(alexnet32,
              graphFingerprint(models::buildModel("vgg_11", 32)));
    EXPECT_NE(alexnet32,
              graphFingerprint(models::buildModel("alexnet", 64)));
}

// --- Loadgen math ------------------------------------------------------

TEST(ServeLoadgenTest, LatencyPercentileUsesNearestRank)
{
    std::vector<double> sorted;
    EXPECT_EQ(latencyPercentile(sorted, 0.5), 0.0);
    for (int i = 1; i <= 100; ++i)
        sorted.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(latencyPercentile(sorted, 0.50), 50.0);
    EXPECT_DOUBLE_EQ(latencyPercentile(sorted, 0.99), 99.0);
    EXPECT_DOUBLE_EQ(latencyPercentile(sorted, 0.999), 100.0);
    EXPECT_DOUBLE_EQ(latencyPercentile(sorted, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(latencyPercentile(sorted, 1.0), 100.0);
    // Out-of-range quantiles clamp instead of indexing out of bounds.
    EXPECT_DOUBLE_EQ(latencyPercentile(sorted, 2.0), 100.0);
}

// --- End-to-end server behaviour ---------------------------------------

TEST(ServeServerTest, RecommendMatchesInProcessRecommendByteForByte)
{
    auto server = startServer();
    ServeClient client;
    std::string error;
    ASSERT_TRUE(
        client.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;

    RecommendRequest request;
    request.model = "vgg_19";
    RecommendResponse response;
    std::string raw;
    const CallOutcome outcome =
        client.recommend(request, &response, &raw);
    ASSERT_TRUE(outcome.ok) << outcome.errorMessage;
    EXPECT_EQ(raw, localReplyBytes(request));
    ASSERT_FALSE(response.instances.empty());
    ASSERT_GE(response.bestIndex, 0);
    ASSERT_LT(static_cast<std::size_t>(response.bestIndex),
              response.instances.size());
    EXPECT_EQ(response.hours.size(), response.instances.size());
    EXPECT_TRUE(response.feasible[static_cast<std::size_t>(
        response.bestIndex)]);

    // A second identical request rides the session plan cache and
    // must still produce the same bytes.
    std::string cached_raw;
    ASSERT_TRUE(client.recommend(request, &response, &cached_raw).ok);
    EXPECT_EQ(cached_raw, raw);
}

/** Reads one complete frame, header included, off a raw socket. */
bool
readWholeFrame(int fd, std::string *frame)
{
    FrameHeader header;
    std::string payload;
    if (!readFrame(fd, &header, &payload))
        return false;
    frame->resize(kFrameHeaderBytes);
    encodeFrameHeader(header, frame->data());
    frame->append(payload);
    return true;
}

TEST(ServeServerTest, FleetRepliesMatchTheReferenceChainAcrossReload)
{
    // A 2,000-instance fleet, the catalog whose reply columns the
    // server encodes once: every reply frame must equal
    // buildFrame(encode(project(recommend()))) on that catalog, with
    // the sweep on the reactor alone and fanned out to 4 threads, and
    // again after a hot reload swaps the engine under the cached
    // catalog columns.
    const cloud::InstanceCatalog fleet =
        cloud::InstanceCatalog::syntheticFleet(2000, 9);
    std::vector<RecommendRequest> requests;
    for (const char *model : {"resnet_50", "vgg_16", "inception_v3"}) {
        RecommendRequest request;
        request.model = model;
        requests.push_back(request);
        request.objective = "time";
        request.hourlyBudgetUsd = 6.0;
        request.totalBudgetUsd = 200.0;
        requests.push_back(request);
    }
    std::vector<std::string> expected;
    for (const RecommendRequest &request : requests)
        expected.push_back(buildFrame(FrameType::Response,
                                      localReplyBytes(request, fleet)));

    const std::string path = "serve_test_fleet_reload.tmp.txt";
    {
        std::ofstream out(path);
        cheapModel().save(out);
    }
    for (int sweep_threads : {1, 4}) {
        SCOPED_TRACE(testing::Message()
                     << "sweepThreads " << sweep_threads);
        ServerOptions options;
        options.sweepThreads = sweep_threads;
        auto server = startServer(options, fleet);
        Fd fd = rawConnect(server->port());
        const auto expectReplies = [&](const char *phase) {
            for (std::size_t i = 0; i < requests.size(); ++i) {
                const std::string request = buildFrame(
                    FrameType::Request,
                    encodeRecommendRequest(requests[i]));
                std::string error;
                ASSERT_TRUE(sendAll(fd.get(), request.data(),
                                    request.size(), &error))
                    << error;
                std::string frame;
                ASSERT_TRUE(readWholeFrame(fd.get(), &frame));
                EXPECT_EQ(frame, expected[i])
                    << phase << ", request " << i;
            }
        };
        expectReplies("before reload");
        std::string error;
        ASSERT_TRUE(server->tryReload(path, &error)) << error;
        EXPECT_EQ(server->generation(), 2u);
        expectReplies("after reload");
        server->stop();
    }
    std::remove(path.c_str());
}

TEST(ServeServerTest, PingPongRoundTrips)
{
    auto server = startServer();
    ServeClient client;
    std::string error;
    ASSERT_TRUE(
        client.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;
    EXPECT_TRUE(client.ping().ok);
    // The session survives a ping: a real request still works.
    RecommendRequest request;
    request.model = "alexnet";
    RecommendResponse response;
    EXPECT_TRUE(client.recommend(request, &response).ok);
}

TEST(ServeServerTest, UnknownModelIsRejectedWithTypedError)
{
    obs::ScopedEnable metrics(true);
    obs::resetMetrics();
    auto server = startServer();
    ServeClient client;
    std::string error;
    ASSERT_TRUE(
        client.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;
    RecommendRequest request;
    request.model = "definitely_not_a_model";
    RecommendResponse response;
    const CallOutcome outcome = client.recommend(request, &response);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.errorCode, errc::kUnknownModel);
    EXPECT_FALSE(client.connected()); // Fail closed.
    EXPECT_TRUE(waitForCounter("serve.rejected", 1));
}

TEST(ServeServerTest, InvalidBatchIsRejectedAsBadRequest)
{
    obs::ScopedEnable metrics(true);
    obs::resetMetrics();
    auto server = startServer();
    ServeClient client;
    std::string error;
    ASSERT_TRUE(
        client.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;
    RecommendRequest request;
    request.model = "alexnet";
    request.batch = 0;
    RecommendResponse response;
    const CallOutcome outcome = client.recommend(request, &response);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.errorCode, errc::kBadRequest);
    EXPECT_FALSE(client.connected());
    EXPECT_TRUE(waitForCounter("serve.rejected", 1));
}

TEST(ServeServerTest, MalformedFrameFailsClosed)
{
    obs::ScopedEnable metrics(true);
    obs::resetMetrics();
    auto server = startServer();
    Fd fd = rawConnect(server->port());
    ASSERT_TRUE(fd);
    const std::string garbage(kFrameHeaderBytes, 'X');
    std::string error;
    ASSERT_TRUE(
        sendAll(fd.get(), garbage.data(), garbage.size(), &error))
        << error;
    expectErrorThenEof(fd.get(), errc::kBadFrame);
    EXPECT_TRUE(waitForCounter("serve.rejected", 1));
}

TEST(ServeServerTest, OversizedPayloadIsRejectedFromTheHeaderAlone)
{
    obs::ScopedEnable metrics(true);
    obs::resetMetrics();
    auto server = startServer();
    Fd fd = rawConnect(server->port());
    ASSERT_TRUE(fd);
    // A hostile length field (~4 GiB) with no payload behind it: the
    // server must answer from the header alone, without ever trying
    // to buffer (or allocate) the claimed bytes.
    FrameHeader header;
    header.type = FrameType::Request;
    header.payloadBytes = 0xfffffff0u;
    char raw[kFrameHeaderBytes];
    encodeFrameHeader(header, raw);
    std::string error;
    ASSERT_TRUE(sendAll(fd.get(), raw, sizeof raw, &error)) << error;
    expectErrorThenEof(fd.get(), errc::kPayloadTooLarge);
    EXPECT_TRUE(waitForCounter("serve.rejected", 1));
}

TEST(ServeServerTest, ChecksumMismatchFailsClosed)
{
    obs::ScopedEnable metrics(true);
    obs::resetMetrics();
    auto server = startServer();
    Fd fd = rawConnect(server->port());
    ASSERT_TRUE(fd);
    RecommendRequest request;
    request.model = "alexnet";
    std::string frame =
        buildFrame(FrameType::Request, encodeRecommendRequest(request));
    frame.back() ^= 0x01; // Corrupt the payload; header keeps the
                          // checksum of the original bytes.
    std::string error;
    ASSERT_TRUE(sendAll(fd.get(), frame.data(), frame.size(), &error))
        << error;
    expectErrorThenEof(fd.get(), errc::kChecksumMismatch);
    EXPECT_TRUE(waitForCounter("serve.rejected", 1));
}

TEST(ServeServerTest, SlowLorisClientHitsReadTimeout)
{
    obs::ScopedEnable metrics(true);
    obs::resetMetrics();
    ServerOptions options;
    options.readTimeoutMs = 150;
    auto server = startServer(options);
    Fd fd = rawConnect(server->port());
    ASSERT_TRUE(fd);
    // Four bytes of a 24-byte header, then silence: the stall sweep
    // must disconnect us shortly after readTimeoutMs.
    std::string error;
    ASSERT_TRUE(sendAll(fd.get(), kFrameMagic, sizeof kFrameMagic,
                        &error))
        << error;
    expectErrorThenEof(fd.get(), errc::kReadTimeout);
    EXPECT_TRUE(waitForCounter("serve.rejected", 1));
}

TEST(ServeServerTest, FullAdmissionQueueRefusesWithBackpressure)
{
    obs::ScopedEnable metrics(true);
    obs::resetMetrics();
    ServerOptions options;
    options.maxQueueDepth = 0; // Deterministic overload: admit nothing.
    auto server = startServer(options);
    ServeClient client;
    std::string error;
    ASSERT_TRUE(
        client.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;
    RecommendRequest request;
    request.model = "alexnet";
    RecommendResponse response;
    const CallOutcome outcome = client.recommend(request, &response);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.errorCode, errc::kOverloaded);
    EXPECT_FALSE(client.connected()); // Refused, not silently dropped.
    EXPECT_TRUE(waitForCounter("serve.rejected", 1));
}

TEST(ServeServerTest, HotReloadBumpsGenerationAndKeepsReplies)
{
    auto server = startServer();
    EXPECT_EQ(server->generation(), 1u);
    ServeClient client;
    std::string error;
    ASSERT_TRUE(
        client.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;

    RecommendRequest request;
    request.model = "alexnet";
    RecommendResponse response;
    std::string before;
    ASSERT_TRUE(client.recommend(request, &response, &before).ok);

    const std::string path = "serve_test_reload_model.tmp.txt";
    {
        std::ofstream out(path);
        cheapModel().save(out);
    }
    std::uint64_t generation = 0;
    const CallOutcome outcome = client.reload(path, &generation);
    std::remove(path.c_str());
    ASSERT_TRUE(outcome.ok) << outcome.errorMessage;
    EXPECT_EQ(generation, 2u);
    EXPECT_EQ(server->generation(), 2u);

    // The same model was reloaded, so the (lazily recompiled) plan
    // must reproduce the identical reply bytes on the same session.
    std::string after;
    ASSERT_TRUE(client.recommend(request, &response, &after).ok);
    EXPECT_EQ(after, before);

    // A failed reload keeps the old engine serving.
    EXPECT_FALSE(
        server->tryReload("/nonexistent/model/path.txt", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(server->generation(), 2u);
}

TEST(ServeServerTest, HostileReloadIsABadRequestAndKeepsServing)
{
    auto server = startServer();
    // A comm_fit whose k would size a 10^17-entry fit table.
    const std::string path = "serve_test_hostile_model.tmp.txt";
    {
        std::ofstream out(path);
        out << "ceer_model v1\ncomm_fit V100 100000000000000000 0.5 1\n";
    }
    ServeClient client;
    std::string error;
    ASSERT_TRUE(
        client.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;
    std::uint64_t generation = 0;
    const CallOutcome outcome = client.reload(path, &generation);
    std::remove(path.c_str());
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.errorCode, errc::kBadRequest);
    EXPECT_EQ(server->generation(), 1u);

    // The server closes a session after an Error frame, so the old
    // engine's replies are checked on a fresh connection.
    ServeClient fresh;
    ASSERT_TRUE(
        fresh.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;
    RecommendRequest request;
    request.model = "alexnet";
    RecommendResponse response;
    std::string raw;
    ASSERT_TRUE(fresh.recommend(request, &response, &raw).ok);
    EXPECT_EQ(raw, localReplyBytes(request));
}

TEST(ServeServerTest, LoadgenDrivesTheServerCleanly)
{
    auto server = startServer();
    LoadgenOptions options;
    options.port = server->port();
    options.connections = 2;
    options.seconds = 0.3;
    RecommendRequest request;
    request.model = "alexnet";
    options.requests = {request};
    LoadgenResult result;
    std::string error;
    ASSERT_TRUE(runLoadgen(options, &result, &error)) << error;
    EXPECT_GT(result.succeeded, 0);
    EXPECT_EQ(result.transportErrors, 0);
    EXPECT_EQ(result.serverErrors, 0);
    EXPECT_GT(result.p50Us, 0.0);
    EXPECT_LE(result.p50Us, result.p999Us);
    EXPECT_GT(result.achievedQps, 0.0);
    server->stop();
    server->stop(); // Idempotent.
}

// --- Plan cache --------------------------------------------------------

/** A PlanEntry whose plan pointer carries no weight (the cache never
 *  dereferences it); @p bytes drives the accounting. */
PlanEntry
fakeEntry(std::uint64_t fingerprint, std::uint64_t generation,
          std::size_t bytes = 64)
{
    PlanEntry entry;
    entry.fingerprint = fingerprint;
    entry.generation = generation;
    entry.bytes = bytes;
    return entry;
}

TEST(PlanCacheTest, AccountsHitsAndMissesAcrossCallers)
{
    PlanCache cache(4, 1);
    int compiles = 0;
    const auto compile = [&] {
        ++compiles;
        return fakeEntry(7, 1);
    };

    // Cold: tryGet declines without charging a miss; getOrCompile
    // compiles and charges exactly one.
    EXPECT_EQ(cache.tryGet(7, 1), nullptr);
    EXPECT_EQ(cache.stats().misses, 0u);
    const auto first = cache.getOrCompile(7, 1, compile);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(compiles, 1);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);

    // Warm: both paths hit and share the same pinned entry —
    // a second "session" asking for the same graph compiles nothing.
    const auto hit = cache.tryGet(7, 1);
    EXPECT_EQ(hit.get(), first.get());
    EXPECT_EQ(cache.getOrCompile(7, 1, compile).get(), first.get());
    EXPECT_EQ(compiles, 1);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().bytes, 64u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsedUnderTinyCap)
{
    PlanCache cache(2, 1);
    const auto compileFor = [](std::uint64_t fp) {
        return [fp] { return fakeEntry(fp, 1); };
    };
    cache.getOrCompile(1, 1, compileFor(1));
    cache.getOrCompile(2, 1, compileFor(2));
    // Touch 1 so 2 becomes the LRU victim.
    EXPECT_NE(cache.tryGet(1, 1), nullptr);
    cache.getOrCompile(3, 1, compileFor(3));

    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.tryGet(2, 1), nullptr);
    EXPECT_NE(cache.tryGet(1, 1), nullptr);
    EXPECT_NE(cache.tryGet(3, 1), nullptr);
}

TEST(PlanCacheTest, StaleGenerationMissesButKeepsPinnedEntries)
{
    PlanCache cache(4, 1);
    int compiles = 0;
    const auto old_entry = cache.getOrCompile(5, 1, [&] {
        ++compiles;
        return fakeEntry(5, 1);
    });

    // After a hot reload (generation 2) the old entry is invisible...
    EXPECT_EQ(cache.tryGet(5, 2), nullptr);
    const auto fresh = cache.getOrCompile(5, 2, [&] {
        ++compiles;
        return fakeEntry(5, 2);
    });
    EXPECT_EQ(compiles, 2);
    EXPECT_EQ(fresh->generation, 2u);

    // ...but an in-flight request that pinned it before the reload
    // still holds a valid generation-1 entry.
    EXPECT_EQ(old_entry->generation, 1u);
    EXPECT_EQ(old_entry->fingerprint, 5u);
}

TEST(PlanCacheTest, ConcurrentRequestsCompileExactlyOnce)
{
    PlanCache cache(8, 4);
    std::atomic<int> compiles{0};
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const PlanEntry>> results(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&cache, &compiles, &results, i] {
            results[static_cast<std::size_t>(i)] =
                cache.getOrCompile(42, 1, [&compiles] {
                    compiles.fetch_add(1);
                    // Widen the race window: every other thread must
                    // wait on the shard cv, not re-compile.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    return fakeEntry(42, 1);
                });
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(compiles.load(), 1);
    EXPECT_EQ(cache.stats().misses, 1u);
    for (const auto &result : results) {
        ASSERT_NE(result, nullptr);
        EXPECT_EQ(result.get(), results[0].get());
    }
}

TEST(ServeServerTest, PlanCacheIsSharedAcrossSessions)
{
    auto server = startServer();
    RecommendRequest request;
    request.model = "alexnet";

    // Two independent connections ask for the same graph: the second
    // session must reuse the first session's compiled plan.
    for (int i = 0; i < 2; ++i) {
        ServeClient client;
        std::string error;
        ASSERT_TRUE(client.tryConnect("127.0.0.1", server->port(),
                                      30000, &error))
            << error;
        RecommendResponse response;
        ASSERT_TRUE(client.recommend(request, &response).ok);
        client.close();
    }

    const PlanCache::Stats stats = server->planCacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_GE(stats.hits, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(ServeServerTest, FreshConnectionReusesTheReactorFingerprintMemo)
{
    obs::ScopedEnable metrics(true);
    obs::resetMetrics();
    auto server = startServer(); // One reactor owns both sessions.
    RecommendRequest request;
    request.model = "alexnet";
    const auto graph_builds = [] {
        return obs::snapshotMetrics().counterValue("serve.graph_builds");
    };

    ServeClient a;
    std::string error;
    ASSERT_TRUE(
        a.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;
    RecommendResponse response;
    ASSERT_TRUE(a.recommend(request, &response).ok);
    EXPECT_EQ(graph_builds(), 1u);

    // A new connection asking for the same model:batch hits the
    // reactor's memo and the shared plan cache: no graph is built.
    ServeClient b;
    ASSERT_TRUE(
        b.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;
    std::string raw;
    ASSERT_TRUE(b.recommend(request, &response, &raw).ok);
    EXPECT_EQ(raw, localReplyBytes(request));
    EXPECT_EQ(graph_builds(), 1u)
        << "a fresh connection rebuilt a graph the reactor had hashed";
}

TEST(ServeServerTest, PipelinedBurstRepliesInOrder)
{
    auto server = startServer();
    // Model names of different lengths make payload sizes that are not
    // multiples of 8, so later frames in the burst sit at misaligned
    // offsets of the session buffer.
    const std::vector<std::string> models = {"alexnet", "vgg_19",
                                             "inception_v3",
                                             "inception_resnet_v2"};
    std::vector<std::string> frames;
    std::vector<std::string> expected;
    bool odd_payload = false;
    for (const std::string &model : models) {
        RecommendRequest request;
        request.model = model;
        const std::string payload = encodeRecommendRequest(request);
        odd_payload = odd_payload || payload.size() % 8 != 0;
        frames.push_back(buildFrame(FrameType::Request, payload));
        expected.push_back(localReplyBytes(request));
    }
    ASSERT_TRUE(odd_payload)
        << "every payload is 8-byte sized; the burst tests no "
           "misaligned frame";

    constexpr std::size_t kRequests = 256;
    std::string burst;
    for (std::size_t i = 0; i < kRequests; ++i)
        burst += frames[i % frames.size()];
    burst += buildFrame(FrameType::Ping, "");

    Fd fd = rawConnect(server->port());
    std::string error;
    ASSERT_TRUE(sendAll(fd.get(), burst.data(), burst.size(), &error))
        << error;
    for (std::size_t i = 0; i < kRequests; ++i) {
        FrameHeader header;
        std::string payload;
        ASSERT_TRUE(readFrame(fd.get(), &header, &payload))
            << "reply " << i;
        ASSERT_EQ(header.type, FrameType::Response) << "reply " << i;
        ASSERT_EQ(payload, expected[i % expected.size()])
            << "reply " << i;
    }
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(readFrame(fd.get(), &header, &payload));
    EXPECT_EQ(header.type, FrameType::Pong);
}

// --- Multi-reactor -----------------------------------------------------

/** Byte-identity across several concurrent connections against
 *  @p options (the caller picks the reactor count). */
void
expectIdenticalRepliesAcrossConnections(ServerOptions options)
{
    auto server = startServer(options);
    RecommendRequest request;
    request.model = "alexnet";
    const std::string expected = localReplyBytes(request);

    // More connections than reactors so every reactor serves at least
    // one session.
    constexpr int kConnections = 5;
    std::vector<std::unique_ptr<ServeClient>> clients;
    for (int i = 0; i < kConnections; ++i) {
        auto client = std::make_unique<ServeClient>();
        std::string error;
        ASSERT_TRUE(client->tryConnect("127.0.0.1", server->port(),
                                       30000, &error))
            << error;
        clients.push_back(std::move(client));
    }
    for (auto &client : clients) {
        RecommendResponse response;
        std::string raw;
        ASSERT_TRUE(client->recommend(request, &response, &raw).ok);
        EXPECT_EQ(raw, expected);
    }
    server->stop();
}

TEST(ServeServerTest, MultiReactorRepliesMatchInProcessRecommend)
{
    ServerOptions options;
    options.reactors = 2;
    expectIdenticalRepliesAcrossConnections(options);
}

TEST(ServeServerTest, ParallelSweepsOnTwoReactorsMatchUnderConcurrency)
{
    // Two reactors each widen their requests' candidate sweep onto the
    // shared pool, so concurrent clients on both reactors enter
    // ThreadPool::shared().parallelForRange at the same time.
    ServerOptions options;
    options.reactors = 2;
    options.sweepThreads = 2;
    auto server = startServer(options);

    const std::vector<std::string> models = {"alexnet", "vgg_19",
                                             "resnet_50",
                                             "inception_v3"};
    std::vector<RecommendRequest> requests;
    std::vector<std::string> expected;
    for (const std::string &model : models) {
        RecommendRequest request;
        request.model = model;
        requests.push_back(request);
        expected.push_back(localReplyBytes(request));
    }

    constexpr int kClients = 4;
    constexpr int kRounds = 8;
    const int port = server->port();
    std::vector<std::string> failures(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            ServeClient client;
            std::string error;
            if (!client.tryConnect("127.0.0.1", port, 30000, &error)) {
                failures[c] = "connect: " + error;
                return;
            }
            for (int round = 0; round < kRounds; ++round) {
                const std::size_t pick =
                    static_cast<std::size_t>(c + round) % models.size();
                RecommendResponse response;
                std::string raw;
                const CallOutcome outcome =
                    client.recommend(requests[pick], &response, &raw);
                if (!outcome.ok) {
                    failures[c] = "recommend: " + outcome.errorMessage;
                    return;
                }
                if (raw != expected[pick]) {
                    failures[c] = "reply for " + models[pick] +
                                  " differs from in-process recommend";
                    return;
                }
            }
        });
    }
    for (std::thread &client : clients)
        client.join();
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(failures[c], "") << "client " << c;
    server->stop();
}

TEST(ServeServerTest, MultiReactorHotReloadKeepsReplies)
{
    ServerOptions options;
    options.reactors = 2;
    auto server = startServer(options);
    RecommendRequest request;
    request.model = "alexnet";

    ServeClient a;
    ServeClient b;
    std::string error;
    ASSERT_TRUE(
        a.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;
    ASSERT_TRUE(
        b.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;
    RecommendResponse response;
    std::string before_a;
    std::string before_b;
    ASSERT_TRUE(a.recommend(request, &response, &before_a).ok);
    ASSERT_TRUE(b.recommend(request, &response, &before_b).ok);
    EXPECT_EQ(before_a, before_b);

    const std::string path = "serve_test_reactor_reload.tmp.txt";
    {
        std::ofstream out(path);
        cheapModel().save(out);
    }
    std::uint64_t generation = 0;
    const CallOutcome outcome = a.reload(path, &generation);
    std::remove(path.c_str());
    ASSERT_TRUE(outcome.ok) << outcome.errorMessage;
    EXPECT_EQ(generation, 2u);

    // Both sessions — including the one on the reactor that did NOT
    // process the reload — must serve identical bytes afterwards.
    std::string after_a;
    std::string after_b;
    ASSERT_TRUE(a.recommend(request, &response, &after_a).ok);
    ASSERT_TRUE(b.recommend(request, &response, &after_b).ok);
    EXPECT_EQ(after_a, before_a);
    EXPECT_EQ(after_b, before_b);
}

TEST(ServeServerTest, MultiReactorStopsCleanlyUnderLoad)
{
    ServerOptions options;
    options.reactors = 2;
    auto server = startServer(options);
    LoadgenOptions load;
    load.port = server->port();
    load.connections = 3;
    load.seconds = 0.3;
    RecommendRequest request;
    request.model = "alexnet";
    load.requests = {request};
    LoadgenResult result;
    std::string error;
    ASSERT_TRUE(runLoadgen(load, &result, &error)) << error;
    EXPECT_GT(result.succeeded, 0);
    EXPECT_EQ(result.transportErrors, 0);
    server->stop();
    server->stop(); // Idempotent with reactors too.
}

// --- Percentile resolvability ------------------------------------------

TEST(ServeLoadgenTest, PercentileResolvableNeedsEnoughSamples)
{
    // n * (1 - q) >= 1: the sample must be able to place at least one
    // observation above the quantile.
    EXPECT_FALSE(percentileResolvable(0, 0.50));
    EXPECT_TRUE(percentileResolvable(2, 0.50));
    EXPECT_TRUE(percentileResolvable(76, 0.90));
    // The BENCH_serve regression: 76 samples cannot resolve p99, so
    // p99 == p999 == max was a reporting artifact, not a latency fact.
    EXPECT_FALSE(percentileResolvable(76, 0.99));
    EXPECT_FALSE(percentileResolvable(76, 0.999));
    EXPECT_TRUE(percentileResolvable(100, 0.99));
    EXPECT_FALSE(percentileResolvable(999, 0.999));
    EXPECT_TRUE(percentileResolvable(1000, 0.999));
}

TEST(ServeLoadgenTest, WarmupIsExcludedFromTimedPercentiles)
{
    auto server = startServer();
    LoadgenOptions options;
    options.port = server->port();
    options.connections = 1;
    options.seconds = 0.2;
    options.warmupRequests = 3;
    RecommendRequest request;
    request.model = "alexnet";
    options.requests = {request};
    LoadgenResult result;
    std::string error;
    ASSERT_TRUE(runLoadgen(options, &result, &error)) << error;

    EXPECT_EQ(result.warmupRequests, 3);
    EXPECT_GT(result.warmupMeanUs, 0.0);
    EXPECT_GE(result.warmupMaxUs, result.warmupMeanUs);
    // The timed phase reports only its own samples: the cold-start
    // compile landed in the warmup fields, not the percentile pool.
    EXPECT_EQ(static_cast<std::int64_t>(result.latenciesUs.size()),
              result.succeeded);
}

} // namespace
} // namespace serve
} // namespace ceer
