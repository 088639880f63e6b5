#include "neuro/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#include "neuro/common/logging.h"

namespace neuro {
namespace net {

namespace {

/** listen(2) backlog. */
constexpr int kBacklog = 128;
/** Accept cap; connections past it are refused (net.refused). */
constexpr std::size_t kMaxConnections = 256;
/** Per-connection bound on buffered response bytes: a client that
 *  stops reading while still sending gets disconnected instead of
 *  growing the outbox without bound. */
constexpr std::size_t kMaxOutboxBytes = 16U << 20;
/** stop() bound on flushing responses to slow peers. */
constexpr std::chrono::milliseconds kDrainTimeout{5000};

/** @return "<syscall>: <strerror>" for error strings. */
std::string
sysError(const char *what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

} // namespace

NetServer::NetServer(ServeFrontend &frontend, NetServerConfig config)
    : frontend_(frontend), config_(std::move(config))
{
    auto &reg = telemetry::MetricRegistry::instance();
    tm_.accepted = reg.counter("net.accepted");
    tm_.refused = reg.counter("net.refused");
    tm_.closed = reg.counter("net.closed");
    tm_.framesRx = reg.counter("net.frames_rx");
    tm_.framesTx = reg.counter("net.frames_tx");
    tm_.badFrames = reg.counter("net.bad_frames");
    tm_.bytesRx = reg.counter("net.bytes_rx");
    tm_.bytesTx = reg.counter("net.bytes_tx");
    tm_.connections = reg.gauge("net.connections");
}

NetServer::~NetServer() { stop(); }

bool
NetServer::start(std::string *error)
{
    auto fail = [&](const std::string &what) {
        if (error != nullptr)
            *error = what;
        if (listenFd_ >= 0)
            ::close(listenFd_);
        if (epollFd_ >= 0)
            ::close(epollFd_);
        if (wakeFd_ >= 0)
            ::close(wakeFd_);
        listenFd_ = epollFd_ = wakeFd_ = -1;
        return false;
    };

    MutexGuard lock(lifecycleMutex_);
    NEURO_ASSERT(!started_, "net: start() called twice");

    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK |
                                      SOCK_CLOEXEC,
                         0);
    if (listenFd_ < 0)
        return fail(sysError("socket"));
    const int one = 1;
    (void)::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1)
        return fail("bad listen address '" + config_.host + "'");
    if (::bind(listenFd_, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0)
        return fail(sysError("bind"));
    if (::listen(listenFd_, kBacklog) != 0)
        return fail(sysError("listen"));

    sockaddr_in bound{};
    socklen_t boundLen = sizeof bound;
    if (::getsockname(listenFd_,
                      reinterpret_cast<sockaddr *>(&bound),
                      &boundLen) != 0)
        return fail(sysError("getsockname"));
    port_.store(ntohs(bound.sin_port), std::memory_order_release);

    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd_ < 0)
        return fail(sysError("epoll_create1"));
    wakeFd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wakeFd_ < 0)
        return fail(sysError("eventfd"));

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev) != 0)
        return fail(sysError("epoll_ctl(listen)"));
    ev.data.fd = wakeFd_;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev) != 0)
        return fail(sysError("epoll_ctl(wake)"));

    started_ = true;
    loop_ = std::thread([this] { eventLoop(); });
    return true;
}

void
NetServer::stop()
{
    {
        MutexGuard lock(lifecycleMutex_);
        if (!started_ || stopped_)
            return;
        stopped_ = true;
    }
    // 1. Close the doors: the loop drops the listen socket on the
    //    next wakeup, so no new connections join the drain.
    stopRequested_.store(true, std::memory_order_release);
    wake();
    // 2. Drain the serving queues: blocks until every in-flight
    //    request is fulfilled, i.e. every response the server will
    //    ever produce sits serialized in a connection outbox. The
    //    event loop keeps running (and flushing) throughout.
    frontend_.stop();
    // 3. Flush the tail to peers that are still reading, bounded so a
    //    wedged client cannot hold shutdown hostage, then tear down.
    flushDeadline_ = std::chrono::steady_clock::now() + kDrainTimeout;
    finishFlush_.store(true, std::memory_order_release);
    wake();
    if (loop_.joinable())
        loop_.join();
    if (epollFd_ >= 0)
        ::close(epollFd_);
    if (wakeFd_ >= 0)
        ::close(wakeFd_);
    epollFd_ = wakeFd_ = -1;
}

void
NetServer::requestStop()
{
    // Async-signal-safe: one lock-free store and one write(2); the
    // drain itself is run by whichever normal-context thread watches
    // stopRequested() and calls stop().
    stopRequested_.store(true, std::memory_order_release);
    if (wakeFd_ >= 0) {
        const uint64_t one = 1;
        ssize_t ignored = ::write(wakeFd_, &one, sizeof one);
        (void)ignored;
    }
}

std::size_t
NetServer::connectionCount() const
{
    MutexGuard lock(connMutex_);
    return connections_.size();
}

void
NetServer::wake()
{
    const uint64_t one = 1;
    ssize_t ignored = ::write(wakeFd_, &one, sizeof one);
    (void)ignored;
}

void
NetServer::closeListenSocket()
{
    if (listenFd_ < 0)
        return;
    (void)::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
    ::close(listenFd_);
    listenFd_ = -1;
}

void
NetServer::eventLoop()
{
    std::array<epoll_event, 64> events;
    for (;;) {
        const bool finishing =
            finishFlush_.load(std::memory_order_acquire);
        const int timeoutMs = finishing ? 50 : -1;
        const int n = ::epoll_wait(epollFd_, events.data(),
                                   static_cast<int>(events.size()),
                                   timeoutMs);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn("net: %s", sysError("epoll_wait").c_str());
            break;
        }
        for (int i = 0; i < n; ++i) {
            const int fd = events[static_cast<std::size_t>(i)].data.fd;
            const uint32_t mask =
                events[static_cast<std::size_t>(i)].events;
            if (fd == wakeFd_) {
                uint64_t drained = 0;
                while (::read(wakeFd_, &drained, sizeof drained) > 0) {
                }
                continue;
            }
            if (fd == listenFd_) {
                acceptReady();
                continue;
            }
            std::shared_ptr<Connection> conn;
            {
                MutexGuard lock(connMutex_);
                const auto it = connections_.find(fd);
                if (it != connections_.end())
                    conn = it->second;
            }
            if (conn == nullptr)
                continue; // closed earlier in this batch.
            if ((mask & (EPOLLHUP | EPOLLERR)) != 0 &&
                (mask & EPOLLIN) == 0) {
                closeConnection(conn);
                continue;
            }
            if ((mask & EPOLLIN) != 0)
                handleReadable(conn, finishing);
            if (conn->fd >= 0 && (mask & EPOLLOUT) != 0)
                serviceConnection(conn);
        }
        flushDirty();
        if (stopRequested_.load(std::memory_order_acquire))
            closeListenSocket();
        if (finishing &&
            (allFlushed() ||
             std::chrono::steady_clock::now() >= flushDeadline_))
            break;
    }
    // Tear down whatever is left; stop() owns the epoll/wake fds.
    std::vector<std::shared_ptr<Connection>> remaining;
    {
        MutexGuard lock(connMutex_);
        remaining.reserve(connections_.size());
        for (const auto &entry : connections_)
            remaining.push_back(entry.second);
    }
    for (const std::shared_ptr<Connection> &conn : remaining)
        closeConnection(conn);
    closeListenSocket();
}

void
NetServer::acceptReady()
{
    for (;;) {
        const int fd = ::accept4(listenFd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK)
                warn("net: %s", sysError("accept4").c_str());
            return;
        }
        if (connectionCount() >= kMaxConnections) {
            ::close(fd);
            tm_.refused->inc();
            continue;
        }
        const int one = 1;
        (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                           sizeof one);
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        {
            MutexGuard lock(connMutex_);
            connections_[fd] = conn;
        }
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            warn("net: %s", sysError("epoll_ctl(add)").c_str());
            closeConnection(conn);
            continue;
        }
        tm_.accepted->inc();
        tm_.connections->set(
            static_cast<double>(connectionCount()));
    }
}

void
NetServer::handleReadable(const std::shared_ptr<Connection> &conn,
                          bool discard)
{
    uint8_t buf[16384];
    for (;;) {
        const ssize_t r = ::recv(conn->fd, buf, sizeof buf, 0);
        if (r > 0) {
            tm_.bytesRx->inc(static_cast<uint64_t>(r));
            // While finishing a drain the server no longer executes
            // requests; bytes are consumed (to notice EOF) but not
            // decoded.
            if (!discard)
                conn->decoder.feed(buf, static_cast<std::size_t>(r));
            continue;
        }
        if (r == 0) {
            conn->peerClosed = true;
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        conn->peerClosed = true;
        conn->closeAfterFlush = true;
        break;
    }
    if (!discard)
        processFrames(conn);
    serviceConnection(conn);
}

void
NetServer::processFrames(const std::shared_ptr<Connection> &conn)
{
    std::vector<uint8_t> payload;
    for (;;) {
        const FrameDecoder::Result res = conn->decoder.next(&payload);
        if (res == FrameDecoder::Result::NeedMore)
            return;
        if (res == FrameDecoder::Result::Error) {
            // Corrupt length prefix: the stream cannot resynchronize.
            // Best-effort BadFrame response, then close once flushed.
            tm_.badFrames->inc();
            warn("net: dropping connection: %s",
                 conn->decoder.error().c_str());
            ResponseFrame response;
            response.status = FrameStatus::BadFrame;
            conn->inflight.fetch_add(1, std::memory_order_relaxed);
            queueResponse(conn, response);
            conn->closeAfterFlush = true;
            return;
        }
        tm_.framesRx->inc();
        RequestFrame frame;
        if (!parseRequest(payload.data(), payload.size(), &frame,
                          nullptr)) {
            // The length prefix was sane, so the frame boundary is
            // intact: answer BadFrame and keep the connection.
            tm_.badFrames->inc();
            ResponseFrame response;
            response.id = frame.id;
            response.status = FrameStatus::BadFrame;
            conn->inflight.fetch_add(1, std::memory_order_relaxed);
            queueResponse(conn, response);
            continue;
        }
        conn->inflight.fetch_add(1, std::memory_order_relaxed);
        frontend_.submit(
            std::move(frame),
            [this, conn](ResponseFrame &&response) {
                queueResponse(conn, response);
            });
    }
}

void
NetServer::queueResponse(const std::shared_ptr<Connection> &conn,
                         const ResponseFrame &response)
{
    // Runs on serve dispatcher threads for executed requests, and on
    // the event-loop thread for synchronous dispositions (unknown
    // model, bad frame, admission rejection).
    bool dropped = false;
    {
        MutexGuard lock(conn->mutex);
        if (conn->dropped) {
            dropped = true;
        } else {
            encodeResponse(response, &conn->outbox);
            if (conn->outbox.size() - conn->outboxPos > kMaxOutboxBytes)
                conn->overflowed.store(true,
                                       std::memory_order_relaxed);
        }
    }
    conn->inflight.fetch_sub(1, std::memory_order_release);
    if (dropped)
        return;
    tm_.framesTx->inc();
    {
        MutexGuard lock(dirtyMutex_);
        dirty_.push_back(conn);
    }
    wake();
}

NetServer::FlushState
NetServer::flushConnection(const std::shared_ptr<Connection> &conn)
{
    if (conn->fd < 0)
        return FlushState::Flushed;
    MutexGuard lock(conn->mutex);
    while (conn->outboxPos < conn->outbox.size()) {
        const ssize_t w = ::send(
            conn->fd, conn->outbox.data() + conn->outboxPos,
            conn->outbox.size() - conn->outboxPos, MSG_NOSIGNAL);
        if (w > 0) {
            conn->outboxPos += static_cast<std::size_t>(w);
            tm_.bytesTx->inc(static_cast<uint64_t>(w));
            continue;
        }
        if (w < 0 && errno == EINTR)
            continue;
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (!conn->wantWrite) {
                epoll_event ev{};
                ev.events = EPOLLIN | EPOLLOUT;
                ev.data.fd = conn->fd;
                (void)::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn->fd,
                                  &ev);
                conn->wantWrite = true;
            }
            return FlushState::Pending;
        }
        return FlushState::Dead; // peer reset mid-response.
    }
    conn->outbox.clear();
    conn->outboxPos = 0;
    if (conn->wantWrite) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = conn->fd;
        (void)::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn->fd, &ev);
        conn->wantWrite = false;
    }
    return FlushState::Flushed;
}

void
NetServer::serviceConnection(const std::shared_ptr<Connection> &conn)
{
    if (conn->fd < 0)
        return;
    // Sample inflight BEFORE flushing: queueResponse() appends to the
    // outbox and only then decrements inflight (release), so a zero
    // read here (acquire) proves every response is already in the
    // outbox the flush below writes. Checking in the other order
    // races: a completion landing between the flush and the check
    // would have its bytes thrown away by the close.
    const bool drained =
        conn->inflight.load(std::memory_order_acquire) == 0;
    const FlushState state = flushConnection(conn);
    if (state == FlushState::Dead ||
        conn->overflowed.load(std::memory_order_relaxed)) {
        closeConnection(conn);
        return;
    }
    // A half-closed or errored peer is torn down only after its final
    // responses have drained out of the serving pipeline and socket.
    if ((conn->peerClosed || conn->closeAfterFlush) && drained &&
        state == FlushState::Flushed)
        closeConnection(conn);
}

void
NetServer::flushDirty()
{
    std::vector<std::shared_ptr<Connection>> dirty;
    {
        MutexGuard lock(dirtyMutex_);
        dirty.swap(dirty_);
    }
    for (const std::shared_ptr<Connection> &conn : dirty)
        serviceConnection(conn);
}

void
NetServer::closeConnection(const std::shared_ptr<Connection> &conn)
{
    if (conn->fd < 0)
        return;
    (void)::epoll_ctl(epollFd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    {
        MutexGuard lock(conn->mutex);
        conn->dropped = true;
        conn->outbox.clear();
        conn->outboxPos = 0;
    }
    ::close(conn->fd);
    {
        MutexGuard lock(connMutex_);
        connections_.erase(conn->fd);
    }
    conn->fd = -1;
    tm_.closed->inc();
    tm_.connections->set(static_cast<double>(connectionCount()));
}

bool
NetServer::allFlushed()
{
    MutexGuard lock(connMutex_);
    for (const auto &entry : connections_) {
        Connection &conn = *entry.second;
        if (conn.inflight.load(std::memory_order_acquire) != 0)
            return false;
        MutexGuard connLock(conn.mutex);
        if (conn.outboxPos < conn.outbox.size())
            return false;
    }
    return true;
}

} // namespace net
} // namespace neuro
