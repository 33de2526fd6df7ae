/**
 * @file
 * ceerd: a persistent recommendation server.
 *
 * The server runs `reactors` reactor threads (default 1). Each
 * reactor owns its sessions outright — their sockets, frame assembly,
 * poll set and wake pipe — so reactors share no per-session state.
 * Reactor 0 owns the one listener and deals accepted connections to
 * the reactors round-robin through a mutex-guarded per-reactor inbox;
 * round-robin balances by construction, whatever the peers' ports.
 *
 * Every request executes INLINE on the reactor that owns its session:
 * no handoff, no wake-pipe round trip, no task allocation. Request
 * parallelism comes from running one reactor per core; `sweepThreads`
 * only widens each request's candidate sweep, which the reactor runs
 * through util::ThreadPool::shared(). A session therefore has at most
 * one request executing, and a reactor executes one at a time, so the
 * request scratch and the model:batch fingerprint memo live on the
 * reactor and are shared by all of its sessions.
 *
 * Compiled plans live in one process-wide sharded PlanCache
 * (plan_cache.h) keyed by structural graph fingerprint: identical
 * graphs arriving on different connections compile exactly once, and
 * a hot reload invalidates entries lazily by engine generation while
 * in-flight requests keep their pinned entry.
 *
 * The steady-state request path performs no heap allocation: frames
 * are decoded in place from the session's input buffer (CBF view
 * parse), the candidate sweep writes into per-reactor reusable
 * scratch, and the reply frame is written in one pass into a reusable
 * output buffer — the catalog's name and price columns are encoded
 * once per Server and borrowed by every reply. bench/micro_serve
 * enforces this with an operator-new counting gate.
 *
 * Admission control is a bounded queue: once `maxQueueDepth` requests
 * are admitted and not yet answered (across all reactors), further
 * requests are refused with a typed `overloaded` Error frame
 * (backpressure the client can see, never a silent drop). Slow-loris
 * clients that stall mid-frame past `readTimeoutMs` get
 * `read_timeout` and are disconnected.
 *
 * Model hot-reload swaps an atomically published
 * `shared_ptr<const Engine>`; in-flight requests finish on the
 * engine they started with, so a reload never drops work.
 */

#ifndef CEER_SERVE_SERVER_H
#define CEER_SERVE_SERVER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cloud/instances.h"
#include "core/ceer_model.h"
#include "core/predictor.h"
#include "serve/plan_cache.h"
#include "serve/protocol.h"

namespace ceer {
namespace serve {

/** ceerd configuration. */
struct ServerOptions
{
    std::string host = "127.0.0.1"; ///< Bind address.
    int port = 0;                   ///< 0 = kernel-assigned port.
    int backlog = 64;               ///< listen(2) backlog.

    /**
     * Reactor threads. Each owns its sessions and executes their
     * requests, so this is the request-parallelism knob (one per core
     * is the intended production shape).
     */
    int reactors = 1;

    /**
     * Admission bound: maximum requests admitted (queued or
     * executing) at once across all reactors. Beyond it new requests
     * are refused with an `overloaded` Error frame. 0 refuses
     * everything (useful in tests).
     */
    std::size_t maxQueueDepth = 64;

    /** Payloads larger than this are refused before buffering. */
    std::size_t maxPayloadBytes = 1 << 20;

    /**
     * A connection stalled mid-frame longer than this is disconnected
     * with `read_timeout`. <= 0 disables the guard.
     */
    int readTimeoutMs = 5000;

    /**
     * Candidate-sweep parallelism per request, passed to
     * core::recommendInto by the reactor executing the request. 1
     * (default) sweeps on the reactor thread alone.
     */
    int sweepThreads = 1;

    /** Shared plan cache: total entry cap across shards. */
    std::size_t planCacheCapacity = 256;
};

/** A persistent recommendation server over the ceerd protocol. */
class Server
{
  public:
    /**
     * @param model   Trained model served to clients.
     * @param catalog Candidate instances for every recommendation.
     * @param options Server configuration.
     */
    Server(core::CeerModel model, cloud::InstanceCatalog catalog,
           ServerOptions options = {});

    /** Stops the server (drains in-flight requests). */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Binds, listens and starts the reactor threads. False with
     * @p error when the sockets cannot be set up.
     */
    bool tryStart(std::string *error);

    /** The bound port (after tryStart); useful with port 0. */
    int port() const { return port_; }

    /**
     * Graceful shutdown: stop accepting, close idle connections,
     * finish every admitted request, then return. Idempotent.
     */
    void stop();

    /**
     * Hot-swaps the served model from @p model_path (either model
     * dialect; see CeerModel::tryLoadFile). In-flight requests keep
     * the engine they started with. False with @p error on a load
     * failure, in which case the old model keeps serving.
     */
    bool tryReload(const std::string &model_path, std::string *error);

    /** Engine generation currently serving (starts at 1). */
    std::uint64_t generation() const;

    /** Shared plan cache counters (hits/misses/evictions/bytes). */
    PlanCache::Stats planCacheStats() const
    {
        return planCache_.stats();
    }

  private:
    /** An immutable predictor + its generation, swapped on reload. */
    struct Engine
    {
        core::CeerPredictor predictor;
        std::uint64_t generation = 1;

        Engine(core::CeerModel model, std::uint64_t gen)
            : predictor(std::move(model)), generation(gen)
        {
        }
    };

    /** Per-connection state, owned by exactly one reactor. */
    struct Session
    {
        std::uint64_t id = 0;
        int fd = -1;
        std::string inBuf;
        std::chrono::steady_clock::time_point lastActivity;

        ~Session();
    };

    /** One reactor thread and everything it owns. */
    struct Reactor
    {
        std::size_t index = 0;
        int wakeRead = -1;
        int wakeWrite = -1;
        std::thread thread;

        /** Guards inbox — the only state other threads touch. */
        std::mutex mutex;
        /** Accepted fds dealt to this reactor by reactor 0. */
        std::vector<int> inbox;

        /** Everything below is reactor-thread-private. */
        std::unordered_map<std::uint64_t, Session> sessions;

        /** Fingerprint memo keyed by "model:batch" request key, shared
         *  by every session on this reactor — avoids rebuilding the
         *  graph just to hash it. */
        std::unordered_map<std::string, std::uint64_t> requestKeys;

        /**
         * Reusable request-path scratch, used by one request at a time
         * (the reactor executes its sessions' requests one by one).
         * Once warm, a recommend request allocates nothing.
         */
        std::vector<std::uint64_t> alignedPayload; ///< Aligned copy.
        RecommendRequest requestScratch;           ///< Decoded request.
        io::CbfFile requestFile;                   ///< View-parse scratch.
        core::Recommendation sweepScratch;         ///< Candidate sweep.
        ResponseFrameScratch replyScratch;         ///< Reply columns.
        std::string frameScratch;                  ///< Outgoing frame.
        std::string keyScratch;                    ///< "model:batch" key.
    };

    void reactorLoop(Reactor &reactor);
    void wake(Reactor &reactor);
    void adoptSession(Reactor &reactor, int fd);
    bool processSession(Reactor &reactor, Session &session);
    bool readSession(Reactor &reactor, Session &session);
    /** Runs one admitted frame; returns false when the session must
     *  close. */
    bool dispatch(Reactor &reactor, Session &session, FrameType type,
                  const char *payload, std::size_t size);
    bool handleRequest(Reactor &reactor, Session &session,
                       const char *payload, std::size_t size);
    bool handleReload(Session &session, const char *payload,
                      std::size_t size);
    std::shared_ptr<const Engine> currentEngine() const;

    ServerOptions options_;
    std::vector<cloud::GpuInstance> candidates_;
    /**
     * candidates_'s reply columns, encoded once. Neither changes for
     * the server's lifetime (a reload swaps only the engine), so the
     * cache is never invalidated.
     */
    const ResponseCatalogColumns catalogColumns_;

    mutable std::mutex engineMutex_;
    std::shared_ptr<const Engine> engine_;

    /** Shared across all sessions and reactors. */
    mutable PlanCache planCache_;

    std::vector<std::unique_ptr<Reactor>> reactors_;
    /** The one listener; polled by reactor 0 only. */
    int listenFd_ = -1;
    int port_ = 0;
    std::atomic<bool> stopping_{false};
    bool started_ = false;

    std::atomic<std::uint64_t> nextSessionId_{1};
    /** Accept round-robin cursor; reactor 0 only. */
    std::uint64_t nextReactorRR_ = 0;

    /** Admitted (queued or executing) requests, all reactors. */
    std::atomic<std::size_t> inFlight_{0};
};

} // namespace serve
} // namespace ceer

#endif // CEER_SERVE_SERVER_H
