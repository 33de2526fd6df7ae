#include "serve/net.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "util/strings.h"

namespace ceer {
namespace serve {

namespace {

bool
fillAddress(const std::string &host, int port, sockaddr_in *addr,
            std::string *error)
{
    std::memset(addr, 0, sizeof *addr);
    addr->sin_family = AF_INET;
    addr->sin_port = htons(static_cast<std::uint16_t>(port));
    // Numeric IPv4 only (plus the "localhost" spelling): ceerd is a
    // loopback/intranet daemon and must not block on DNS inside its
    // I/O thread.
    const std::string numeric =
        host.empty() || host == "localhost" ? "127.0.0.1" : host;
    if (inet_pton(AF_INET, numeric.c_str(), &addr->sin_addr) != 1) {
        if (error)
            *error = "cannot parse host '" + host +
                     "' (numeric IPv4 or 'localhost' only)";
        return false;
    }
    return true;
}

std::string
errnoText(const char *what)
{
    return util::format("%s: %s", what, std::strerror(errno));
}

} // namespace

int
listenTcp(const std::string &host, int port, int backlog,
          int *bound_port, std::string *error)
{
    sockaddr_in addr;
    if (!fillAddress(host, port, &addr, error))
        return -1;
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd) {
        if (error)
            *error = errnoText("socket");
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd.get(), reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0) {
        if (error)
            *error = errnoText("bind");
        return -1;
    }
    if (::listen(fd.get(), backlog) != 0) {
        if (error)
            *error = errnoText("listen");
        return -1;
    }
    if (bound_port) {
        sockaddr_in bound;
        socklen_t len = sizeof bound;
        if (::getsockname(fd.get(),
                          reinterpret_cast<sockaddr *>(&bound),
                          &len) != 0) {
            if (error)
                *error = errnoText("getsockname");
            return -1;
        }
        *bound_port = ntohs(bound.sin_port);
    }
    return fd.release();
}

int
connectTcp(const std::string &host, int port, std::string *error)
{
    sockaddr_in addr;
    if (!fillAddress(host, port, &addr, error))
        return -1;
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd) {
        if (error)
            *error = errnoText("socket");
        return -1;
    }
    while (::connect(fd.get(),
                     reinterpret_cast<const sockaddr *>(&addr),
                     sizeof addr) != 0) {
        if (errno == EINTR)
            continue;
        if (error)
            *error = errnoText("connect");
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd.release();
}

int
acceptRetry(int listen_fd, bool *again, std::string *error)
{
    *again = false;
    while (true) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof one);
            return fd;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            *again = true;
            return -1;
        }
        if (error)
            *error = errnoText("accept");
        return -1;
    }
}

bool
sendAll(int fd, const void *data, std::size_t size, std::string *error)
{
    const char *p = static_cast<const char *>(data);
    std::size_t sent = 0;
    while (sent < size) {
        // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not
        // kill the server with SIGPIPE.
        const ssize_t n =
            ::send(fd, p + sent, size - sent, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // Non-blocking socket with a full buffer: wait for
            // writability instead of failing the connection.
            pollfd pfd{fd, POLLOUT, 0};
            const int ready = ::poll(&pfd, 1, 10000);
            if (ready > 0 || (ready < 0 && errno == EINTR))
                continue;
            if (error)
                *error = ready == 0 ? "send timed out"
                                    : errnoText("poll");
            return false;
        }
        if (error)
            *error = errnoText("send");
        return false;
    }
    return true;
}

bool
recvAll(int fd, void *data, std::size_t size, std::string *error)
{
    char *p = static_cast<char *>(data);
    std::size_t got = 0;
    while (got < size) {
        const ssize_t n = ::recv(fd, p + got, size - got, 0);
        if (n > 0) {
            got += static_cast<std::size_t>(n);
            continue;
        }
        if (n == 0) {
            if (error)
                *error = "connection closed by peer";
            return false;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            if (error)
                *error = "read timed out";
            return false;
        }
        if (error)
            *error = errnoText("recv");
        return false;
    }
    return true;
}

bool
setRecvTimeoutMs(int fd, int ms, std::string *error)
{
    timeval tv;
    tv.tv_sec = ms > 0 ? ms / 1000 : 0;
    tv.tv_usec = ms > 0 ? (ms % 1000) * 1000 : 0;
    if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) !=
        0) {
        if (error)
            *error = errnoText("setsockopt(SO_RCVTIMEO)");
        return false;
    }
    return true;
}

bool
setNonBlocking(int fd, std::string *error)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        if (error)
            *error = errnoText("fcntl(O_NONBLOCK)");
        return false;
    }
    return true;
}

void
closeFd(int fd)
{
    if (fd < 0)
        return;
    // POSIX leaves the fd state unspecified on EINTR from close();
    // retrying risks closing a recycled descriptor, so close once and
    // ignore the return value.
    ::close(fd);
}

} // namespace serve
} // namespace ceer
