#include "serve/transport/endpoint.hh"

#include "common/parse_uint.hh"

namespace laperm {
namespace serve {

std::string
Endpoint::toString() const
{
    if (kind == Kind::Unix)
        return "unix:" + path;
    return "tcp:" + host + ":" + std::to_string(port);
}

Endpoint
Endpoint::unixAt(std::string p)
{
    Endpoint e;
    e.kind = Kind::Unix;
    e.path = std::move(p);
    return e;
}

Endpoint
Endpoint::tcpAt(std::string host, std::uint16_t port)
{
    Endpoint e;
    e.kind = Kind::Tcp;
    e.host = std::move(host);
    e.port = port;
    return e;
}

bool
parseEndpoint(const std::string &text, Endpoint &out, std::string &err)
{
    if (text.empty()) {
        err = "empty endpoint";
        return false;
    }
    if (text.rfind("unix:", 0) == 0) {
        const std::string path = text.substr(5);
        if (path.empty()) {
            err = "endpoint '" + text + "': empty unix path";
            return false;
        }
        out = Endpoint::unixAt(path);
        return true;
    }
    if (text.rfind("tcp:", 0) == 0) {
        const std::string rest = text.substr(4);
        const std::size_t colon = rest.rfind(':');
        if (colon == std::string::npos) {
            err = "endpoint '" + text + "': expected tcp:HOST:PORT";
            return false;
        }
        const std::string host = rest.substr(0, colon);
        const std::string portStr = rest.substr(colon + 1);
        if (host.empty()) {
            err = "endpoint '" + text + "': empty host";
            return false;
        }
        std::uint64_t port = 0;
        if (!parseUInt(portStr, 65535, port)) {
            err = "endpoint '" + text + "': bad port '" + portStr +
                  "' (need 0-65535)";
            return false;
        }
        out = Endpoint::tcpAt(host, static_cast<std::uint16_t>(port));
        return true;
    }
    if (text.find(':') != std::string::npos &&
        text.find('/') == std::string::npos) {
        // "tpc:host:80" and friends: a colon with no scheme and no
        // path separator is almost certainly a typo'd scheme, not a
        // Unix socket literally named that.
        err = "endpoint '" + text +
              "': unknown scheme (use unix:PATH or tcp:HOST:PORT)";
        return false;
    }
    out = Endpoint::unixAt(text); // bare path: legacy --socket spelling
    return true;
}

} // namespace serve
} // namespace laperm
