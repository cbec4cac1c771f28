/**
 * @file
 * Client for the laperm_served protocol (DESIGN.md §10.2): connects to
 * the daemon's endpoint (UDS or TCP, serve/transport), sends one JSON
 * line per call, reads one JSON line back. callWithRetry() layers
 * deterministic exponential backoff on top for `overloaded` responses
 * and transport errors, so laperm_submit degrades gracefully when the
 * daemon sheds load.
 */

#ifndef LAPERM_SERVE_CLIENT_HH
#define LAPERM_SERVE_CLIENT_HH

#include <cstdint>
#include <memory>
#include <string>

#include "serve/service/protocol.hh"
#include "serve/transport/transport.hh"

namespace laperm {
namespace serve {

struct ClientOptions
{
    Endpoint endpoint = Endpoint::unixAt("laperm_served.sock");
    std::uint64_t backoffMs = 50;    ///< initial retry backoff
    std::uint64_t recvTimeoutMs = 0; ///< 0 = wait forever
    unsigned overloadRetries = 5;    ///< callWithRetry budget
};

class Client
{
  public:
    explicit Client(ClientOptions opts);
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect once. False on failure; callWithRetry reconnects. */
    bool connect(std::string &err);

    bool connected() const { return conn_ != nullptr; }
    void close();

    /**
     * Send @p request as one line and parse the one-line response
     * into @p response. False on transport or parse failure.
     */
    bool call(const std::string &request, JsonObject &response,
              std::string &err);

    /**
     * call(), but on an `overloaded` status (or a dropped connection or
     * a failed connect) sleep an exponentially growing backoff, capped
     * at 2 s — seeded from the response's retry_ms when present —
     * reconnect if needed, and try again, up to overloadRetries times.
     * The final response (of any status) lands in @p response.
     */
    bool callWithRetry(const std::string &request, JsonObject &response,
                       std::string &err);

  private:
    ClientOptions opts_;
    std::unique_ptr<Connection> conn_;
};

} // namespace serve
} // namespace laperm

#endif // LAPERM_SERVE_CLIENT_HH
