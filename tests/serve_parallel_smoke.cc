/**
 * @file
 * Plain-main concurrency smoke for the serving stack, the second binary
 * the ThreadSanitizer CTest configuration runs (see scripts/verify.sh).
 * Like harness_parallel_smoke it avoids gtest, so every linked object
 * is TSan-instrumented.
 *
 * An in-process Server + ServiceHandler at 2 jobs answers 4 client
 * threads over a Unix socket. The clients send a seeded Zipf stream
 * over 12 tiny keys, and all four open with the same key, so memory
 * hits, joins of a running execution and executions overlap. That
 * shares the result store's mutex, the single-flight map and the
 * metrics atomics between connection threads. Every payload must
 * equal a direct runOneRecord of its key, and each key runs once.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/log.hh"
#include "common/rng.hh"
#include "harness/experiment.hh"
#include "serve/client.hh"
#include "serve/service/protocol.hh"
#include "serve/service/service_handler.hh"
#include "serve/service/sim_request.hh"
#include "serve/session/server.hh"
#include "workloads/registry.hh"

using namespace laperm;
using namespace laperm::serve;

namespace {

constexpr unsigned kClients = 4;
constexpr std::size_t kRequests = 240;

/** The 12 request lines: 3 fast tiny workloads x 2 models x 2 policies. */
std::vector<std::string>
requestLines()
{
    std::vector<std::string> lines;
    for (const char *workload : {"clr-cage", "regx-darpa", "regx-strings"}) {
        for (const char *model : {"cdp", "dtbl"}) {
            for (const char *policy : {"rr", "adaptive"}) {
                lines.push_back(logFormat(
                    "{\"op\":\"run\",\"workload\":\"%s\",\"model\":\"%s\","
                    "\"policy\":\"%s\",\"scale\":\"tiny\",\"seed\":1}",
                    workload, model, policy));
            }
        }
    }
    return lines;
}

/** The record a direct run of @p line gives; "" after a failure. */
std::string
directPayload(const std::string &line)
{
    JsonObject obj;
    SimRequest req;
    std::string err;
    if (!parseJsonObject(line, obj, err) ||
        !SimRequest::fromJson(obj, req, err) || !req.validate(err)) {
        std::fprintf(stderr, "FAIL: %s: %s\n", line.c_str(), err.c_str());
        return std::string();
    }
    auto w = createWorkload(req.workload);
    w->setup(req.scale, req.seed);
    return runOneRecord(*w, req.cfg, std::string()).encode();
}

} // namespace

int
main()
{
    const std::vector<std::string> lines = requestLines();
    std::vector<std::string> direct;
    for (const std::string &line : lines) {
        direct.push_back(directPayload(line));
        if (direct.back().empty())
            return 1;
    }

    // The stream: all clients open with key 0, so three of the first
    // four requests join its execution; the rest are Zipf(1.1) draws.
    Rng rng(26);
    std::vector<std::size_t> draws(kClients, 0);
    while (draws.size() < kRequests)
        draws.push_back(static_cast<std::size_t>(
            rng.nextZipf(lines.size(), 1.1)));
    std::vector<bool> drawn(lines.size(), false);
    for (const std::size_t ix : draws)
        drawn[ix] = true;
    const auto distinct = static_cast<std::uint64_t>(
        std::count(drawn.begin(), drawn.end(), true));

    const std::string tag = std::to_string(::getpid());
    const std::filesystem::path tmp =
        std::filesystem::temp_directory_path();
    const std::string store =
        (tmp / ("laperm_serve_smoke_store." + tag)).string();
    std::filesystem::remove_all(store);
    ServiceOptions so;
    so.jobs = 2;
    so.cacheDir = store;
    so.fingerprint = "serve-parallel-smoke";
    // Long enough that the opening requests for key 0 arrive while
    // its execution runs.
    so.testExecDelayMs = 20;
    ServiceHandler handler(so);
    SessionOptions sopts;
    sopts.endpoint =
        Endpoint::unixAt((tmp / ("laperm_serve_smoke." + tag + ".sock"))
                             .string());
    Server server(sopts, handler);
    std::string err;
    if (!server.start(err)) {
        std::fprintf(stderr, "FAIL: server did not start: %s\n",
                     err.c_str());
        return 1;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<unsigned> failures{0};
    std::mutex mu; // guards the first failure message
    std::string firstFailure;
    const auto fail = [&](const std::string &why) {
        if (failures.fetch_add(1) == 0) {
            std::lock_guard<std::mutex> lock(mu);
            firstFailure = why;
        }
    };
    const auto client = [&] {
        ClientOptions copts;
        copts.endpoint = sopts.endpoint;
        Client c(copts);
        std::string cerr;
        if (!c.connect(cerr)) {
            fail("connect: " + cerr);
            return;
        }
        for (std::size_t i = next++; i < draws.size(); i = next++) {
            JsonObject reply;
            std::string status, result;
            if (!c.call(lines[draws[i]], reply, cerr)) {
                fail(logFormat("request %zu: %s", i, cerr.c_str()));
                return;
            }
            getString(reply, "status", status);
            getString(reply, "result", result);
            if (status != kStatusOk || result != direct[draws[i]]) {
                fail(logFormat("request %zu: status %s, payload %s", i,
                               status.c_str(),
                               result == direct[draws[i]] ? "equal"
                                                          : "differs"));
            }
        }
    };
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c)
        clients.emplace_back(client);
    for (std::thread &t : clients)
        t.join();
    server.stop();

    const ServiceMetrics m = handler.service().metrics();
    std::filesystem::remove_all(store);
    if (failures.load() != 0) {
        std::fprintf(stderr, "FAIL: %u requests failed; first: %s\n",
                     failures.load(), firstFailure.c_str());
        return 1;
    }
    if (m.requests != draws.size() || m.executed != distinct ||
        m.cacheMemHits + m.deduped + m.executed != m.requests ||
        m.cacheMemHits == 0 || m.deduped == 0) {
        std::fprintf(stderr,
                     "FAIL: %llu requests, %llu executed for %llu keys, "
                     "%llu memory hits, %llu joins\n",
                     static_cast<unsigned long long>(m.requests),
                     static_cast<unsigned long long>(m.executed),
                     static_cast<unsigned long long>(distinct),
                     static_cast<unsigned long long>(m.cacheMemHits),
                     static_cast<unsigned long long>(m.deduped));
        return 1;
    }
    std::printf("serve_parallel_smoke: ok (%zu requests: %llu memory "
                "hits, %llu joins, %llu executions)\n",
                draws.size(),
                static_cast<unsigned long long>(m.cacheMemHits),
                static_cast<unsigned long long>(m.deduped),
                static_cast<unsigned long long>(m.executed));
    return 0;
}
