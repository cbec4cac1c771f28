/**
 * @file
 * Client for laperm_served (DESIGN.md §10): builds a canonical
 * simulation request from laperm_sim-style flags, submits it over the
 * daemon's Unix or TCP endpoint, and renders the returned record
 * through the same formatter laperm_sim --csv uses — served output is
 * byte-identical to a direct run.
 *
 * Usage:
 *   laperm_submit [options]
 *     --connect ENDPOINT  unix:PATH | tcp:HOST:PORT | bare path
 *                         (default unix:laperm_served.sock)
 *     --workload NAME   bfs-citation, join-gaussian, ...
 *     --policy P        rr | tbpri | smxbind | adaptive (default rr)
 *     --model M         cdp | dtbl (default dtbl)
 *     --scale S         tiny | small | full | huge (default small)
 *     --seed N          input-generator seed (default 1)
 *     --preset NAME     hardware preset (k20c | gtx1080 | p100 | v100)
 *     --config FILE     machine TOML applied on top of the preset
 *     --smx N           override SMX count
 *     --l1-kb N         override L1 size
 *     --l2-kb N         override L2 size
 *     --levels N        max priority levels L
 *     --cdp-latency N   CDP launch latency in cycles
 *     --dtbl-latency N  DTBL launch latency in cycles
 *     --warp-sched W    gto | lrr | tbaware
 *     --tenants MIX     run a builtin multi-tenant mix server-side and
 *                       print the tenant-sweep TSV (same bytes as
 *                       laperm_sim --tenants MIX --tenants-tsv)
 *     --trace-dir DIR   server-side observability artifact directory
 *     --batch FILE      submit one JSON request per line of FILE and
 *                       print the sweep-format TSV (input order)
 *     --stats           print service metrics as "metric\tvalue" TSV
 *     --ping            liveness check; prints daemon fingerprint
 *     --shutdown        ask the daemon to exit
 *     --retries N       overload/transport retry budget (default 5)
 *     --backoff-ms N    initial retry backoff (default 50)
 *     --timeout-ms N    client receive timeout, 0 = none (default 0)
 *
 * The run flags, --workload through --tenants, are laperm_sim's: one
 * run-field table (harness/run_spec.hh) parses them, in command-line
 * order, and a bad value exits 2.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/parse_uint.hh"
#include "harness/result_cache.hh"
#include "serve/client.hh"
#include "serve/service/sim_request.hh"

using namespace laperm;
using namespace laperm::serve;

namespace {

enum class Mode
{
    Run,
    Batch,
    Stats,
    Ping,
    Shutdown,
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--connect ENDPOINT] [--workload NAME] "
        "[--policy rr|tbpri|smxbind|adaptive] [--model cdp|dtbl] "
        "[--scale tiny|small|full|huge] [--seed N] [--preset NAME] "
        "[--config FILE] [--smx N] [--l1-kb N] "
        "[--l2-kb N] [--levels N] [--cdp-latency N] [--dtbl-latency N] "
        "[--warp-sched gto|lrr|tbaware] [--tenants MIX] [--trace-dir DIR] "
        "[--batch FILE] "
        "[--stats] [--ping] [--shutdown] [--retries N] "
        "[--backoff-ms N] [--timeout-ms N]\n",
        argv0);
    std::exit(2);
}

int
fail(const std::string &msg)
{
    std::fprintf(stderr, "laperm_submit: %s\n", msg.c_str());
    return 1;
}

/** Non-ok responses share one rendering across all modes. */
int
failResponse(const JsonObject &response)
{
    std::string status;
    std::string message;
    getString(response, "status", status);
    getString(response, "message", message);
    return fail("status=" + status +
                (message.empty() ? "" : ": " + message));
}

/**
 * Submit one run request and decode the canonical record out of the
 * response. Returns false (with @p err set) on any failure.
 */
bool
submitRun(Client &client, const SimRequest &req, ResultRecord &rec,
          std::string &err)
{
    JsonObject response;
    if (!client.callWithRetry(req.toJson(), response, err))
        return false;
    std::string status;
    getString(response, "status", status);
    if (status != kStatusOk) {
        std::string message;
        getString(response, "message", message);
        err = "status=" + status +
              (message.empty() ? "" : ": " + message);
        return false;
    }
    std::string payload;
    if (!getString(response, "result", payload)) {
        err = "response missing 'result'";
        return false;
    }
    if (!ResultRecord::decode(payload, rec)) {
        err = "malformed result payload: " + payload;
        return false;
    }
    return true;
}

int
runBatch(Client &client, const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return fail("cannot open batch file '" + path + "'");

    std::vector<RunResult> rows;
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        JsonObject obj;
        std::string err;
        if (!parseJsonObject(line, obj, err)) {
            return fail(logFormat("%s:%zu: %s", path.c_str(), lineNo,
                                  err.c_str()));
        }
        SimRequest req;
        if (!SimRequest::fromJson(obj, req, err)) {
            return fail(logFormat("%s:%zu: %s", path.c_str(), lineNo,
                                  err.c_str()));
        }
        // Validate locally before submitting so a bad batch line (e.g.
        // an unknown workload) fails with the structured known-names
        // error instead of a server round-trip per bad line.
        if (!req.validate(err)) {
            return fail(logFormat("%s:%zu: %s", path.c_str(), lineNo,
                                  err.c_str()));
        }
        ResultRecord rec;
        if (!submitRun(client, req, rec, err)) {
            return fail(logFormat("%s:%zu: %s", path.c_str(), lineNo,
                                  err.c_str()));
        }
        rows.push_back(rec.toRunResult());
    }
    // The legacy sweep-harness table, rendered from the records.
    std::fputs(encodeSweepTsv(rows).c_str(), stdout);
    return 0;
}

int
runStats(Client &client)
{
    JsonObject response;
    std::string err;
    if (!client.callWithRetry("{\"op\":\"stats\"}", response, err))
        return fail(err);
    std::string status;
    getString(response, "status", status);
    if (status != kStatusOk)
        return failResponse(response);

    std::string fingerprint;
    getString(response, "fingerprint", fingerprint);
    std::printf("fingerprint\t%s\n", fingerprint.c_str());
    // Field order mirrors ServiceMetrics::toTsv().
    static const char *kMetrics[] = {
        "requests",   "executed", "cache_hits",  "cache_misses",
        "cache_mem_hits", "cache_shared_hits",
        "deduped",    "shed",     "timeouts",    "errors",
        "queue_depth", "queue_depth_peak", "queue_us", "exec_us",
        "total_us",
    };
    for (const char *name : kMetrics) {
        std::uint64_t v = 0;
        getU64(response, name, v);
        std::printf("%s\t%llu\n", name,
                    static_cast<unsigned long long>(v));
    }
    return 0;
}

int
runPing(Client &client)
{
    JsonObject response;
    std::string err;
    if (!client.callWithRetry("{\"op\":\"ping\"}", response, err))
        return fail(err);
    std::string status;
    getString(response, "status", status);
    if (status != kStatusOk)
        return failResponse(response);
    std::string fingerprint;
    std::uint64_t protocol = 0;
    getString(response, "fingerprint", fingerprint);
    getU64(response, "protocol", protocol);
    std::printf("ok fingerprint=%s protocol=%llu\n", fingerprint.c_str(),
                static_cast<unsigned long long>(protocol));
    return 0;
}

int
runShutdown(Client &client)
{
    JsonObject response;
    std::string err;
    if (!client.call("{\"op\":\"shutdown\"}", response, err))
        return fail(err);
    std::string status;
    getString(response, "status", status);
    if (status != kStatusOk)
        return failResponse(response);
    std::printf("shutdown acknowledged\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ClientOptions copts;
    SimRequest req;
    Mode mode = Mode::Run;
    std::string batchPath;

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
            std::fprintf(stderr, "laperm_submit: %s: bad value '%s'\n",
                         flag, s);
            std::exit(2);
        }
        return v;
    };

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (const RunField *field = findRunFlag(a)) {
            std::string err;
            if (!applyRunFlag(req, *field, next_arg(i), err)) {
                std::fprintf(stderr, "laperm_submit: %s\n", err.c_str());
                return 2;
            }
        } else if (!std::strcmp(a, "--connect")) {
            std::string ep_err;
            if (!parseEndpoint(next_arg(i), copts.endpoint, ep_err)) {
                std::fprintf(stderr, "laperm_submit: %s\n",
                             ep_err.c_str());
                return 2;
            }
        } else if (!std::strcmp(a, "--trace-dir")) {
            req.traceDir = next_arg(i);
        } else if (!std::strcmp(a, "--batch")) {
            mode = Mode::Batch;
            batchPath = next_arg(i);
        } else if (!std::strcmp(a, "--stats")) {
            mode = Mode::Stats;
        } else if (!std::strcmp(a, "--ping")) {
            mode = Mode::Ping;
        } else if (!std::strcmp(a, "--shutdown")) {
            mode = Mode::Shutdown;
        } else if (!std::strcmp(a, "--retries")) {
            copts.overloadRetries =
                static_cast<unsigned>(parse_uint(i, UINT32_MAX));
        } else if (!std::strcmp(a, "--backoff-ms")) {
            copts.backoffMs = parse_uint(i, UINT64_MAX);
        } else if (!std::strcmp(a, "--timeout-ms")) {
            copts.recvTimeoutMs = parse_uint(i, UINT64_MAX);
        } else {
            usage(argv[0]);
        }
    }

    Client client(copts);
    std::string err;
    if (!client.connect(err))
        return fail(err);

    switch (mode) {
    case Mode::Batch:
        return runBatch(client, batchPath);
    case Mode::Stats:
        return runStats(client);
    case Mode::Ping:
        return runPing(client);
    case Mode::Shutdown:
        return runShutdown(client);
    case Mode::Run:
        break;
    }

    if (!req.tenants.empty()) {
        // Tenant payloads are a complete TSV document, not a record
        // line: print the raw bytes (they already end in a newline) so
        // the output cmp-matches laperm_sim --tenants-tsv.
        JsonObject response;
        if (!client.callWithRetry(req.toJson(), response, err))
            return fail(err);
        std::string status;
        getString(response, "status", status);
        if (status != kStatusOk)
            return failResponse(response);
        std::string payload;
        if (!getString(response, "result", payload))
            return fail("response missing 'result'");
        std::fputs(payload.c_str(), stdout);
        return 0;
    }

    ResultRecord rec;
    if (!submitRun(client, req, rec, err))
        return fail(err);
    // Byte-identical to `laperm_sim --csv`: non-default machines get
    // the config column, default machines the legacy 13 columns.
    if (rec.customMachine()) {
        std::printf("%s\n%s\n", statsCsvHeaderWithConfig(),
                    rec.csvRowWithConfig().c_str());
    } else {
        std::printf("%s\n%s\n", statsCsvHeader(), rec.csvRow().c_str());
    }
    return 0;
}
