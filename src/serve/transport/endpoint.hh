/**
 * @file
 * Serve-layer endpoint addresses (DESIGN.md §15.1). One Endpoint names
 * one place a listener can bind or a client can connect:
 *
 *   unix:PATH            Unix-domain stream socket
 *   tcp:HOST:PORT        TCP socket (IPv4 dotted quad or "localhost")
 *
 * A bare string with no scheme is accepted as a Unix path, so
 * `--listen laperm_served.sock` names a socket file. Parsing is
 * checked: a malformed endpoint is reported, never half-applied (same
 * stance as tools/cli_parse.hh).
 */

#ifndef LAPERM_SERVE_TRANSPORT_ENDPOINT_HH
#define LAPERM_SERVE_TRANSPORT_ENDPOINT_HH

#include <cstdint>
#include <string>

namespace laperm {
namespace serve {

struct Endpoint
{
    enum class Kind
    {
        Unix,
        Tcp,
    };

    Kind kind = Kind::Unix;
    std::string path;       ///< Unix socket path (Kind::Unix)
    std::string host;       ///< TCP host (Kind::Tcp)
    std::uint16_t port = 0; ///< TCP port; 0 = ephemeral (tests/bench)

    /** Canonical "unix:PATH" / "tcp:HOST:PORT" spelling. */
    std::string toString() const;

    /** Convenience constructors. */
    static Endpoint unixAt(std::string p);
    static Endpoint tcpAt(std::string host, std::uint16_t port);

    bool operator==(const Endpoint &o) const
    {
        return kind == o.kind && path == o.path && host == o.host &&
               port == o.port;
    }
};

/**
 * Parse "unix:PATH", "tcp:HOST:PORT", or a bare Unix path into @p out.
 * False with a diagnostic in @p err on malformed input (empty path,
 * missing or non-numeric port, port > 65535, empty host).
 */
bool parseEndpoint(const std::string &text, Endpoint &out,
                   std::string &err);

} // namespace serve
} // namespace laperm

#endif // LAPERM_SERVE_TRANSPORT_ENDPOINT_HH
