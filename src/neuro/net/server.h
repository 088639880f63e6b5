/**
 * @file
 * Epoll-based binary-protocol server over a ServeFrontend: the wire
 * of the serving runtime (docs/serving.md, "Network protocol").
 *
 * One event-loop thread owns every socket: it accepts non-blocking
 * connections, reads request bytes into per-connection FrameDecoders
 * (partial-frame reassembly across reads), routes complete frames
 * through the front end, and writes queued response bytes back,
 * falling to EPOLLOUT when a socket's send buffer fills. Inference
 * completion callbacks run on the serve dispatcher threads; they only
 * serialize the response into the connection's outbox and wake the
 * event loop through an eventfd, so backend compute never blocks on a
 * slow client and the loop never blocks on a backend.
 *
 * Shutdown is drain-first: stop() closes the listen socket, drains
 * every per-model queue through the front end (all in-flight
 * requests fulfilled → all responses serialized), flushes the
 * outboxes to the peers that are still reading, then closes the
 * connections and joins the loop. requestStop() is the
 * async-signal-safe half: it only sets a flag and writes the eventfd,
 * letting a SIGINT/SIGTERM handler ask for exactly that sequence from
 * the main thread (see `neurocmp serve --listen`).
 *
 * Telemetry: net.{accepted,closed,frames_rx,frames_tx,bad_frames,
 * bytes_rx,bytes_tx} counters and the net.connections gauge
 * (docs/observability.md).
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "neuro/common/mutex.h"
#include "neuro/net/frontend.h"
#include "neuro/net/protocol.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {
namespace net {

/** Listen address of a NetServer. The transport caps (connections,
 *  frame and outbox bytes, drain time) are constants of server.cc. */
struct NetServerConfig
{
    std::string host = "127.0.0.1"; ///< bind address (IPv4 dotted).
    uint16_t port = 0;              ///< 0 = ephemeral; see port().
};

/** Epoll event loop serving the binary protocol over TCP. */
class NetServer
{
  public:
    NetServer(ServeFrontend &frontend, NetServerConfig config = {});

    /** Stops and drains (see stop()). */
    ~NetServer();

    NetServer(const NetServer &) = delete;
    NetServer &operator=(const NetServer &) = delete;

    /**
     * Bind, listen and start the event loop.
     * @return false with @p error set when the socket setup fails
     *         (address in use, bad host, fd limits).
     */
    bool start(std::string *error = nullptr);

    /** @return the bound port (the kernel's pick when config.port=0);
     *  0 before start(). */
    uint16_t port() const
    {
        return port_.load(std::memory_order_acquire);
    }

    /**
     * Drain-first shutdown: stop accepting, drain the front end's
     * queues (every in-flight request fulfilled), flush pending
     * responses for a bounded time, close every
     * connection and join the loop. Idempotent.
     */
    void stop();

    /**
     * Async-signal-safe stop request: sets a flag and wakes the event
     * loop, which immediately closes the listen socket. The actual
     * drain must then be driven by a normal-context thread observing
     * stopRequested() and calling stop().
     */
    void requestStop();

    /** @return true once requestStop() (or stop()) was called. */
    bool stopRequested() const
    {
        return stopRequested_.load(std::memory_order_acquire);
    }

    /** @return currently open connections. */
    std::size_t connectionCount() const;

  private:
    /** Per-connection transport state. The event-loop thread owns fd
     *  and decoder; the outbox crosses threads (completion callbacks
     *  append, the loop flushes) under the connection mutex. */
    struct Connection
    {
        int fd = -1;
        FrameDecoder decoder;
        /** Requests routed but not yet answered into the outbox. */
        std::atomic<int64_t> inflight{0};
        /** Outbox exceeded its byte cap; the loop disconnects. */
        std::atomic<bool> overflowed{false};
        /** Peer half-closed (read EOF); flush, then close. */
        bool peerClosed = false;          // event-loop thread only.
        /** Protocol error seen; close once the outbox flushes. */
        bool closeAfterFlush = false;     // event-loop thread only.
        bool wantWrite = false;           // EPOLLOUT armed.
        Mutex mutex;
        /** Serialized response bytes awaiting write. */
        std::vector<uint8_t> outbox NEURO_GUARDED_BY(mutex);
        std::size_t outboxPos NEURO_GUARDED_BY(mutex) = 0;
        /** fd closed; late completions drop their response. */
        bool dropped NEURO_GUARDED_BY(mutex) = false;
    };

    /** Outcome of one flushConnection() attempt. */
    enum class FlushState
    {
        Flushed, ///< outbox fully written.
        Pending, ///< send buffer full; EPOLLOUT armed.
        Dead,    ///< transport error; caller must close.
    };

    void eventLoop();
    void acceptReady();
    void handleReadable(const std::shared_ptr<Connection> &conn,
                        bool discard);
    void processFrames(const std::shared_ptr<Connection> &conn);
    void queueResponse(const std::shared_ptr<Connection> &conn,
                       const ResponseFrame &response);
    FlushState flushConnection(const std::shared_ptr<Connection> &conn);
    /** Flush + close-if-done bookkeeping after any state change. */
    void serviceConnection(const std::shared_ptr<Connection> &conn);
    void flushDirty();
    void closeConnection(const std::shared_ptr<Connection> &conn);
    void closeListenSocket();
    void wake();
    /** @return true when no connection still owes the peer bytes. */
    bool allFlushed();

    ServeFrontend &frontend_;
    NetServerConfig config_;

    int listenFd_ = -1; ///< event-loop thread after start().
    int epollFd_ = -1;
    int wakeFd_ = -1;
    std::atomic<uint16_t> port_{0};
    std::atomic<bool> stopRequested_{false};
    std::atomic<bool> finishFlush_{false}; ///< stop(): flush and exit.
    /** Written by stop() before the finishFlush_ release-store. */
    std::chrono::steady_clock::time_point flushDeadline_;
    /** Serializes start()/stop() lifecycle transitions. */
    Mutex lifecycleMutex_;
    bool started_ NEURO_GUARDED_BY(lifecycleMutex_) = false;
    bool stopped_ NEURO_GUARDED_BY(lifecycleMutex_) = false;
    std::thread loop_;

    mutable Mutex connMutex_;
    std::map<int, std::shared_ptr<Connection>>
        connections_ NEURO_GUARDED_BY(connMutex_);

    /** Connections with freshly queued responses, handed from the
     *  completion callbacks to the event loop. */
    Mutex dirtyMutex_;
    std::vector<std::shared_ptr<Connection>>
        dirty_ NEURO_GUARDED_BY(dirtyMutex_);

    /** Registry-owned telemetry handles (docs/observability.md). */
    struct Telemetry
    {
        std::shared_ptr<telemetry::Counter> accepted;
        std::shared_ptr<telemetry::Counter> refused;
        std::shared_ptr<telemetry::Counter> closed;
        std::shared_ptr<telemetry::Counter> framesRx;
        std::shared_ptr<telemetry::Counter> framesTx;
        std::shared_ptr<telemetry::Counter> badFrames;
        std::shared_ptr<telemetry::Counter> bytesRx;
        std::shared_ptr<telemetry::Counter> bytesTx;
        std::shared_ptr<telemetry::Gauge> connections;
    };
    Telemetry tm_;
};

} // namespace net
} // namespace neuro
