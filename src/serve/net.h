/**
 * @file
 * Minimal POSIX TCP helpers for ceerd and its clients.
 *
 * All helpers retry on EINTR and send with MSG_NOSIGNAL, so a peer
 * that disappears mid-write surfaces as an EPIPE error return instead
 * of a process-killing SIGPIPE. Errors are reported through
 * `std::string *error` out-params in the repo's try* idiom; no helper
 * throws.
 */

#ifndef CEER_SERVE_NET_H
#define CEER_SERVE_NET_H

#include <cstddef>
#include <string>

namespace ceer {
namespace serve {

/**
 * Opens a listening TCP socket on @p host:@p port (port 0 binds an
 * ephemeral port). Returns the fd, or -1 with @p error set. The
 * kernel-assigned port is written to @p bound_port.
 *
 * @p host must be a numeric IPv4 address or "localhost".
 */
int listenTcp(const std::string &host, int port, int backlog,
              int *bound_port, std::string *error);

/** Connects to @p host:@p port; returns the fd or -1 with @p error. */
int connectTcp(const std::string &host, int port, std::string *error);

/** accept(2) with EINTR retry; returns fd, or -1 (EAGAIN => *again). */
int acceptRetry(int listen_fd, bool *again, std::string *error);

/**
 * Writes all @p size bytes (EINTR-safe, MSG_NOSIGNAL). False with
 * @p error on any unrecoverable send failure.
 */
bool sendAll(int fd, const void *data, std::size_t size,
             std::string *error);

/**
 * Reads exactly @p size bytes (EINTR-safe, blocking). False with
 * @p error on EOF, timeout (SO_RCVTIMEO) or any socket error.
 */
bool recvAll(int fd, void *data, std::size_t size, std::string *error);

/** Sets SO_RCVTIMEO; ms <= 0 means block forever. */
bool setRecvTimeoutMs(int fd, int ms, std::string *error);

/** Puts @p fd into non-blocking mode. */
bool setNonBlocking(int fd, std::string *error);

/** close(2) with EINTR tolerance; safe on -1. */
void closeFd(int fd);

/** Move-only RAII wrapper closing the fd on destruction. */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { closeFd(fd_); }

    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    Fd(Fd &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Fd &
    operator=(Fd &&other) noexcept
    {
        if (this != &other) {
            closeFd(fd_);
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }

    /** The wrapped descriptor (-1 when empty). */
    int get() const { return fd_; }

    /** True when a descriptor is held. */
    explicit operator bool() const { return fd_ >= 0; }

    /** Releases ownership without closing. */
    int
    release()
    {
        const int fd = fd_;
        fd_ = -1;
        return fd;
    }

    /** Closes the held descriptor now. */
    void
    reset(int fd = -1)
    {
        closeFd(fd_);
        fd_ = fd;
    }

  private:
    int fd_ = -1;
};

} // namespace serve
} // namespace ceer

#endif // CEER_SERVE_NET_H
