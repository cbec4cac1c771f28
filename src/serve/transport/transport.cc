#include "serve/transport/transport.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

namespace laperm {
namespace serve {

namespace {

/** Pending connections a listener queues before accept() takes them. */
constexpr int kListenBacklog = 64;

bool
fillUnixAddr(const std::string &path, sockaddr_un &addr, std::string &err)
{
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
        err = "socket path empty or too long (max " +
              std::to_string(sizeof(addr.sun_path) - 1) + " bytes): '" +
              path + "'";
        return false;
    }
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

/**
 * Resolve the textual host of a tcp: endpoint. Numeric IPv4 via
 * inet_pton plus the one name every smoke test uses; full resolver
 * integration (getaddrinfo) would drag wall-clock DNS into a layer the
 * tests need deterministic.
 */
bool
fillTcpAddr(const Endpoint &ep, sockaddr_in &addr, std::string &err)
{
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    // Explicit host->network byte-order conversion: the port is the
    // one multi-byte integer this transport ever puts on the wire.
    addr.sin_port = htons(ep.port);
    std::string host = ep.host;
    if (host == "localhost")
        host = "127.0.0.1";
    if (host == "*" || host == "0.0.0.0") {
        addr.sin_addr.s_addr = htonl(INADDR_ANY);
        return true;
    }
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        err = "cannot resolve host '" + ep.host +
              "' (use an IPv4 address, 'localhost', or '*')";
        return false;
    }
    return true;
}

int
unixConnectFd(const std::string &path, std::string &err)
{
    sockaddr_un addr;
    if (!fillUnixAddr(path, addr, err))
        return -1;
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        err = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        err = std::string("connect '") + path +
              "': " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

class FdListener : public Listener
{
  public:
    FdListener(int fd, Endpoint bound, bool unlinkOnClose)
        : fd_(fd), bound_(std::move(bound)),
          unlinkOnClose_(unlinkOnClose)
    {
    }

    ~FdListener() override
    {
        if (fd_ >= 0)
            ::close(fd_);
        if (unlinkOnClose_)
            ::unlink(bound_.path.c_str());
    }

    std::unique_ptr<Connection> accept() override
    {
        for (;;) {
            const int fd = ::accept(fd_, nullptr, nullptr);
            if (fd >= 0)
                return std::make_unique<Connection>(fd);
            if (errno == EINTR)
                continue;
            return nullptr; // woken or fatal
        }
    }

    void wake() override
    {
        // shutdown() forces accept() to return even where a plain
        // close() would leave it blocked.
        ::shutdown(fd_, SHUT_RDWR);
    }

    const Endpoint &boundEndpoint() const override { return bound_; }

  private:
    int fd_;
    Endpoint bound_;
    bool unlinkOnClose_;
};

std::unique_ptr<Listener>
unixListen(const Endpoint &ep, std::string &err)
{
    sockaddr_un addr;
    if (!fillUnixAddr(ep.path, addr, err))
        return nullptr;
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        err = std::string("socket: ") + std::strerror(errno);
        return nullptr;
    }
    bool bound =
        ::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) ==
        0;
    if (!bound && errno == EADDRINUSE) {
        // Distinguish a live daemon from a stale file: only a refused
        // connection proves nobody is listening.
        std::string probeErr;
        int probe = unixConnectFd(ep.path, probeErr);
        if (probe >= 0) {
            ::close(probe);
            ::close(fd);
            err = "socket '" + ep.path + "' already has a listener";
            return nullptr;
        }
        ::unlink(ep.path.c_str());
        bound = ::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr)) == 0;
    }
    if (!bound) {
        err = std::string("bind '") + ep.path +
              "': " + std::strerror(errno);
        ::close(fd);
        return nullptr;
    }
    if (::listen(fd, kListenBacklog) < 0) {
        err = std::string("listen: ") + std::strerror(errno);
        ::close(fd);
        ::unlink(ep.path.c_str());
        return nullptr;
    }
    return std::make_unique<FdListener>(fd, ep, /*unlinkOnClose=*/true);
}

std::unique_ptr<Listener>
tcpListen(const Endpoint &ep, std::string &err)
{
    sockaddr_in addr;
    if (!fillTcpAddr(ep, addr, err))
        return nullptr;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        err = std::string("socket: ") + std::strerror(errno);
        return nullptr;
    }
    // A restarted daemon must rebind its port without waiting out the
    // previous incarnation's TIME_WAIT sockets.
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
        0) {
        err = "bind '" + ep.toString() + "': " + std::strerror(errno);
        ::close(fd);
        return nullptr;
    }
    if (::listen(fd, kListenBacklog) < 0) {
        err = std::string("listen: ") + std::strerror(errno);
        ::close(fd);
        return nullptr;
    }
    // Report the port the kernel actually assigned (ephemeral binds
    // pass port 0); network->host conversion is again explicit.
    Endpoint bound = ep;
    sockaddr_in actual;
    socklen_t len = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&actual), &len) ==
        0) {
        bound.port = ntohs(actual.sin_port);
    }
    return std::make_unique<FdListener>(fd, std::move(bound),
                                        /*unlinkOnClose=*/false);
}

} // namespace

Connection::Connection(int fd) : fd_(fd) {}

Connection::~Connection()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
Connection::writeAll(const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd_, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
Connection::readLine(std::string &line)
{
    while (!frameTooLong_) {
        const std::size_t nl = carry_.find('\n');
        // Without a terminator yet, the frame is at least carry_ long.
        if ((nl == std::string::npos ? carry_.size() : nl) >
            kMaxFrameBytes) {
            frameTooLong_ = true;
            std::string().swap(carry_); // release the buffer
            break;
        }
        if (nl != std::string::npos) {
            line = carry_.substr(0, nl);
            carry_.erase(0, nl + 1);
            return true;
        }
        char buf[4096];
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false; // includes recv-timeout (EAGAIN)
        }
        if (n == 0)
            return false; // EOF mid-frame
        carry_.append(buf, static_cast<std::size_t>(n));
    }
    return false;
}

bool
Connection::setRecvTimeout(std::uint64_t ms)
{
    timeval tv;
    tv.tv_sec = static_cast<time_t>(ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    return ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) ==
           0;
}

void
Connection::shutdownBoth()
{
    ::shutdown(fd_, SHUT_RDWR);
}

std::unique_ptr<Listener>
listenOn(const Endpoint &ep, std::string &err)
{
    if (ep.kind == Endpoint::Kind::Unix)
        return unixListen(ep, err);
    return tcpListen(ep, err);
}

std::unique_ptr<Connection>
connectTo(const Endpoint &ep, std::string &err)
{
    if (ep.kind == Endpoint::Kind::Unix) {
        const int fd = unixConnectFd(ep.path, err);
        return fd < 0 ? nullptr : std::make_unique<Connection>(fd);
    }
    sockaddr_in addr;
    if (!fillTcpAddr(ep, addr, err))
        return nullptr;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        err = std::string("socket: ") + std::strerror(errno);
        return nullptr;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        err = "connect '" + ep.toString() +
              "': " + std::strerror(errno);
        ::close(fd);
        return nullptr;
    }
    // Request/response frames are small; never batch them behind
    // Nagle's algorithm.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return std::make_unique<Connection>(fd);
}

} // namespace serve
} // namespace laperm
