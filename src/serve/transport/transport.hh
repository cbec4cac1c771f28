/**
 * @file
 * Transport layer of the serving stack (DESIGN.md §15.1): byte streams
 * and connection lifecycle, nothing else. A Connection moves
 * newline-delimited frames; a Listener accepts Connections; listenOn /
 * connectTo turn an Endpoint into either. The layer knows no protocol
 * verbs and no service types — sessions (serve/session) and services
 * (serve/service) stack on top, and sim-lint's layering pass enforces
 * that this directory never includes them.
 *
 * Framing note: every frame is one line of 7-bit-clean JSON terminated
 * by '\n', so frames are self-delimiting byte streams with no
 * multi-byte wire integers — there is nothing to byte-swap. The only
 * place host byte order can leak onto the network is the TCP
 * address/port pair, which is converted explicitly (htons/htonl) in
 * transport.cc.
 *
 * All functions report failure via return value + @p err instead of
 * throwing; SIGPIPE is avoided with MSG_NOSIGNAL so callers never need
 * signal handlers.
 */

#ifndef LAPERM_SERVE_TRANSPORT_TRANSPORT_HH
#define LAPERM_SERVE_TRANSPORT_TRANSPORT_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/transport/endpoint.hh"

namespace laperm {
namespace serve {

/**
 * Largest frame readLine() accepts, terminator excluded. The largest
 * legitimate frame is a few KB (an inline machine TOML, a tenant-mix
 * TSV payload); the cap keeps one unterminated stream from growing a
 * peer's buffer without bound.
 */
constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;

/**
 * One accepted or established stream connection. Owns the fd; the
 * destructor closes it. Thread-compatible: one reader and one writer
 * at a time (the session layer serializes request/response per
 * connection).
 */
class Connection
{
  public:
    explicit Connection(int fd);
    ~Connection();

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    int fd() const { return fd_; }

    /** Send all of @p data (handles partial writes, no SIGPIPE). */
    bool writeAll(const std::string &data);

    /**
     * Read one '\n'-terminated frame into @p line (terminator
     * stripped). Bytes past the frame stay buffered for the next
     * call. False on EOF/error with no complete frame buffered, and
     * for a frame longer than kMaxFrameBytes (see frameTooLong()).
     */
    bool readLine(std::string &line);

    /**
     * True once readLine() has met a frame over kMaxFrameBytes. The
     * stream cannot be resynchronized past it, so every later
     * readLine() fails too; the owner answers (if it can) and closes.
     */
    bool frameTooLong() const { return frameTooLong_; }

    /** Bound the time a read may block (0 = no timeout). */
    bool setRecvTimeout(std::uint64_t ms);

    /**
     * Force any blocked reader/writer on this connection to return
     * (shutdown(2) both directions); the fd stays valid until the
     * destructor closes it.
     */
    void shutdownBoth();

  private:
    int fd_ = -1;
    std::string carry_; ///< bytes received past the last frame
    bool frameTooLong_ = false;
};

/**
 * A bound, listening endpoint. accept() blocks until a connection
 * arrives; wake() forces a blocked accept() to return null so an
 * owning thread can be joined. The destructor closes the socket and,
 * for Unix listeners, unlinks the socket file.
 */
class Listener
{
  public:
    virtual ~Listener() = default;

    /** Blocks; null on wake()/close or fatal accept error. */
    virtual std::unique_ptr<Connection> accept() = 0;

    /** Unblock a pending accept() permanently. */
    virtual void wake() = 0;

    /**
     * The endpoint actually bound. For tcp:HOST:0 this carries the
     * kernel-assigned port, so tests and benches can listen on an
     * ephemeral port and hand the real address to clients.
     */
    virtual const Endpoint &boundEndpoint() const = 0;
};

/**
 * Bind and listen on @p ep. Unix endpoints recover stale socket files
 * (a file nobody accepts on is unlinked and rebound; a live listener
 * yields an "already has a listener" error). TCP endpoints set
 * SO_REUSEADDR so a restarted daemon rebinds without waiting out
 * TIME_WAIT. Returns null with @p err set on failure.
 */
std::unique_ptr<Listener> listenOn(const Endpoint &ep, int backlog,
                                   std::string &err);

/** Connect to @p ep. Returns null with @p err set on failure. */
std::unique_ptr<Connection> connectTo(const Endpoint &ep,
                                      std::string &err);

} // namespace serve
} // namespace laperm

#endif // LAPERM_SERVE_TRANSPORT_TRANSPORT_HH
