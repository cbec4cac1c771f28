/**
 * @file
 * Simulation-serving daemon (DESIGN.md §10, §15): listens on a Unix or
 * TCP endpoint, runs simulation requests on a thread pool behind the
 * result store the sweep harness shares (a memory tier over the
 * fingerprint-gated disk tier), and answers with canonical result
 * records. Pair with laperm_submit.
 *
 * Usage:
 *   laperm_served [options]
 *     --listen ENDPOINT    unix:PATH | tcp:HOST:PORT | bare path
 *                          (default unix:laperm_served.sock)
 *     --jobs N             worker threads, at most 1024 (default 0:
 *                          LAPERM_JOBS, else hardware)
 *     --queue-capacity N   admission bound before shedding (default 64)
 *     --timeout-ms N       per-request waiter bound (default 120000)
 *     --cache-dir DIR      result cache root (default $LAPERM_CACHE_DIR
 *                          or ./cache)
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/log.hh"
#include "common/parse_uint.hh"
#include "harness/thread_pool.hh"
#include "serve/service/service_handler.hh"
#include "serve/session/server.hh"

using namespace laperm;
using namespace laperm::serve;

namespace {

std::atomic<bool> g_interrupted{false};

void
onSignal(int)
{
    g_interrupted.store(true);
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--listen ENDPOINT] [--jobs N] "
                 "[--queue-capacity N] [--timeout-ms N] "
                 "[--cache-dir DIR]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    SessionOptions session;
    ServiceOptions service;

    auto next_arg = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    auto parse_uint = [&](int &i, std::uint64_t max) {
        const char *flag = argv[i];
        const char *s = next_arg(i);
        std::uint64_t v = 0;
        if (!parseUInt(s, max, v)) {
            std::fprintf(stderr, "bad %s value '%s'\n", flag, s);
            std::exit(2);
        }
        return v;
    };

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--listen")) {
            std::string err;
            if (!parseEndpoint(next_arg(i), session.endpoint, err)) {
                std::fprintf(stderr, "laperm_served: %s\n",
                             err.c_str());
                return 2;
            }
        } else if (!std::strcmp(a, "--jobs")) {
            service.jobs =
                static_cast<unsigned>(parse_uint(i, ThreadPool::kMaxJobs));
        } else if (!std::strcmp(a, "--queue-capacity")) {
            service.queueCapacity =
                static_cast<std::size_t>(parse_uint(i, UINT32_MAX));
        } else if (!std::strcmp(a, "--timeout-ms")) {
            service.timeoutMs = parse_uint(i, UINT64_MAX);
        } else if (!std::strcmp(a, "--cache-dir")) {
            service.cacheDir = next_arg(i);
        } else {
            usage(argv[0]);
        }
    }
    if (service.queueCapacity == 0) {
        std::fprintf(stderr, "--queue-capacity must be >= 1\n");
        return 2;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    ServiceHandler handler(std::move(service));
    Server server(session, handler);
    std::string err;
    if (!server.start(err)) {
        std::fprintf(stderr, "laperm_served: %s\n", err.c_str());
        return 1;
    }
    // stdout marker the smoke scripts and operators wait for.
    std::printf("laperm_served listening on %s (fingerprint %s)\n",
                server.boundEndpoint().toString().c_str(),
                handler.service().fingerprint().c_str());
    std::fflush(stdout);

    // Poll so an OS signal (flag set by the handler) and a protocol
    // shutdown verb both end the same wait loop.
    while (!server.waitShutdown(200)) {
        if (g_interrupted.load())
            server.requestShutdown();
    }
    server.stop();

    const ServiceMetrics m = handler.service().metrics();
    std::fprintf(stderr, "laperm_served: shut down cleanly\n%s",
                 m.toTsv().c_str());
    return 0;
}
