/**
 * @file
 * serve-mixed: a closed loop of kJobs client connections against an
 * in-process laperm-serve stack (Server + ServiceHandler + SimService)
 * over a Unix-domain socket. Requests are Zipf(1.1) draws over a
 * shuffle of 512 tiny keys, sent in a seeded order, so most requests
 * repeat a key and cache reads run beside the executions that fill the
 * cache.
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "common/log.hh"
#include "common/rng.hh"
#include "gpu/gpu.hh"
#include "harness/thread_pool.hh"
#include "layers.hh"
#include "serve/client.hh"
#include "serve/service/service_handler.hh"
#include "serve/service/sim_request.hh"
#include "serve/session/server.hh"
#include "sim/config_loader.hh"
#include "spans.hh"
#include "workloads/registry.hh"

using namespace laperm;
using namespace laperm::serve;

namespace perfbench {

namespace {

constexpr std::size_t kRequests = 1200; ///< per pass
constexpr double kZipfExponent = 1.1;
constexpr std::uint64_t kInputSeeds = 4;
constexpr std::uint64_t kDrawSeed = 1;

struct Key
{
    std::string workload;
    DynParModel model = DynParModel::CDP;
    TbPolicy policy = TbPolicy::RR;
    std::uint64_t seed = 1;

    std::string id() const
    {
        return logFormat("serve/%s/%s/%s/seed%llu", workload.c_str(),
                         toString(model), toString(policy),
                         static_cast<unsigned long long>(seed));
    }
    SimRequest request() const
    {
        SimRequest req;
        req.workload = workload;
        req.model = model;
        req.policy = policy;
        req.scale = kScale;
        req.seed = seed;
        req.cfg = cellConfig(model, policy, seed);
        return req;
    }
};

/** The request stream: key universe plus the index drawn per request. */
struct Stream
{
    std::vector<Key> universe;
    std::vector<std::size_t> draws;     ///< index into universe
    std::vector<std::string> json;      ///< wire request per universe key
    std::vector<std::size_t> distinct;  ///< drawn keys, first-draw order
    std::size_t distinctInputs = 0;     ///< distinct (workload, seed)
};

Stream
makeStream(std::uint64_t seed)
{
    Stream s;
    for (const std::string &name : workloadNames()) {
        for (DynParModel m : {DynParModel::CDP, DynParModel::DTBL}) {
            for (TbPolicy p : {TbPolicy::RR, TbPolicy::TbPri,
                               TbPolicy::SmxBind, TbPolicy::AdaptiveBind}) {
                for (std::uint64_t k = 1; k <= kInputSeeds; ++k)
                    s.universe.push_back({name, m, p, k});
            }
        }
    }
    // The shuffle and the draws are fixed and --seed orders the requests:
    // every seed executes the same keys, so a pass costs the same host
    // work whatever the seed, and the seed moves which requests meet a
    // cold key, a running execution or a cached result.
    Rng draw(kDrawSeed);
    for (std::size_t i = s.universe.size() - 1; i > 0; --i)
        std::swap(s.universe[i], s.universe[draw.nextBounded(i + 1)]);
    for (const Key &k : s.universe)
        s.json.push_back(k.request().toJson());
    for (std::size_t i = 0; i < kRequests; ++i)
        s.draws.push_back(static_cast<std::size_t>(
            draw.nextZipf(s.universe.size(), kZipfExponent)));
    Rng order(seed);
    for (std::size_t i = s.draws.size() - 1; i > 0; --i)
        std::swap(s.draws[i], s.draws[order.nextBounded(i + 1)]);

    std::vector<bool> seen(s.universe.size(), false);
    std::vector<std::string> inputs;
    for (std::size_t ix : s.draws) {
        if (!seen[ix]) {
            seen[ix] = true;
            s.distinct.push_back(ix);
            const std::string input = logFormat(
                "%s/%llu", s.universe[ix].workload.c_str(),
                static_cast<unsigned long long>(s.universe[ix].seed));
            if (std::find(inputs.begin(), inputs.end(), input) ==
                inputs.end())
                inputs.push_back(input);
        }
    }
    s.distinctInputs = inputs.size();
    return s;
}

/** Everything one pass measured. */
struct ServePass
{
    double wallS = 0.0; ///< stack construction until the last reply
    std::vector<double> latencyS, missLatencyS, hitLatencyS;
    std::vector<std::string> payload; ///< per request, "" on failure
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    JsonObject stats; ///< the service's `stats` answer after the loop
};

std::uint64_t
statU64(const JsonObject &stats, const char *field)
{
    std::uint64_t v = 0;
    getU64(stats, field, v);
    return v;
}

/**
 * One in-process serving stack (ServiceHandler + Server on a fresh
 * cache directory) and a control connection. start() returns once the
 * stack has answered a ping: from then on a request can be served.
 */
class Stack
{
  public:
    Stack(const Options &opt, unsigned id)
        : cacheDir_(logFormat("%s/serve-cache-%u", opt.tmpDir.c_str(), id))
    {
        sopts_.endpoint = Endpoint::unixAt(opt.tmpDir + "/serve.sock");
        copts_.endpoint = sopts_.endpoint;
        std::filesystem::remove_all(cacheDir_);
    }
    ~Stack() { stop(); }
    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    bool start(std::string &err)
    {
        ServiceOptions so;
        so.jobs = kJobs;
        so.cacheDir = cacheDir_;
        handler_ = std::make_unique<ServiceHandler>(so);
        server_ = std::make_unique<Server>(sopts_, *handler_);
        control_ = std::make_unique<Client>(copts_);
        JsonObject pong;
        return server_->start(err) && control_->connect(err) &&
               control_->call(R"({"op":"ping"})", pong, err);
    }

    bool stats(JsonObject &out, std::string &err)
    {
        return control_->call(R"({"op":"stats"})", out, err);
    }

    void stop()
    {
        control_.reset();
        if (server_)
            server_->stop();
        server_.reset();
        handler_.reset();
        std::filesystem::remove_all(cacheDir_);
    }

    const ClientOptions &clientOptions() const { return copts_; }

  private:
    std::string cacheDir_;
    SessionOptions sopts_;
    ClientOptions copts_;
    std::unique_ptr<ServiceHandler> handler_;
    std::unique_ptr<Server> server_; ///< declared after what it borrows
    std::unique_ptr<Client> control_;
};

ServePass
servePass(const Stream &s, const Options &opt, unsigned pass, SpanLog &log)
{
    ServePass p;
    p.payload.resize(s.draws.size());
    Stack stack(opt, pass);
    const ClientOptions &copts = stack.clientOptions();

    Scope root(log, "serve.pass", -1, pass);
    const Clock::time_point t0 = Clock::now();
    {
        Scope start(log, "serve.start", root.index());
        std::string err;
        if (!stack.start(err)) {
            p.failed = s.draws.size();
            p.errors.push_back("serve stack did not start: " + err);
            return p;
        }
    }

    std::atomic<std::size_t> next{0};
    std::mutex mu; // guards p.latency*, p.failed, p.errors
    auto client = [&](int parent) {
        Client c(copts);
        std::string err;
        const bool up = c.connect(err);
        for (std::size_t i = next++; i < s.draws.size(); i = next++) {
            const auto id = static_cast<std::int64_t>(i);
            Scope span(log, "client.request", parent, id);
            JsonObject resp;
            const Clock::time_point t = Clock::now();
            const bool ok = up && c.call(s.json[s.draws[i]], resp, err);
            const double lat = secondsSince(t);
            std::string status, result;
            getString(resp, "status", status);
            getString(resp, "result", result);
            const auto cached = resp.find("cached");
            const bool hit = cached != resp.end() && cached->second.boolean;
            std::lock_guard<std::mutex> lock(mu);
            if (!ok || status != kStatusOk) {
                ++p.failed;
                if (p.errors.size() < 4)
                    p.errors.push_back(logFormat(
                        "request %zu: %s", i,
                        ok ? ("status " + status).c_str() : err.c_str()));
                continue;
            }
            p.payload[i] = std::move(result);
            p.latencyS.push_back(lat);
            (hit ? p.hitLatencyS : p.missLatencyS).push_back(lat);
        }
    };
    {
        Scope load(log, "serve.load", root.index());
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kJobs; ++c)
            clients.emplace_back(client, load.index());
        for (std::thread &t : clients)
            t.join();
    }
    p.wallS = secondsSince(t0);

    std::string err;
    if (!stack.stats(p.stats, err))
        p.errors.push_back("stats: " + err);
    return p;
}

/** Direct runs of the drawn keys, the reference the served bytes meet. */
struct DirectRuns
{
    std::vector<std::string> payload; ///< per universe index
    LayerReport report;
};

DirectRuns
directRuns(const Stream &s, SpanLog &log, Outcome &out)
{
    DirectRuns d;
    d.payload.resize(s.universe.size());
    std::vector<std::unique_ptr<Workload>> inputs(s.universe.size());
    std::vector<CellCounts> counts(s.universe.size());
    const Clock::time_point t0 = Clock::now();
    {
        Scope phase(log, "harness.cell_phase");
        ThreadPool pool(kJobs);
        for (std::size_t ix : s.distinct) {
            pool.submit([&, ix, parent = phase.index()] {
                const Key &k = s.universe[ix];
                const SimRequest req = k.request();
                const auto id = static_cast<std::int64_t>(ix);
                Scope cell(log, "harness.cell", parent, id);
                {
                    Scope st(log, "workloads.setup", cell.index(), id);
                    inputs[ix] = createWorkload(k.workload);
                    inputs[ix]->setup(req.scale, req.seed);
                }
                Scope run(log, "gpu.run", cell.index(), id);
                if (!log.enabled()) {
                    d.payload[ix] =
                        runOneRecord(*inputs[ix], req.cfg, std::string())
                            .encode();
                    inputs[ix].reset();
                    return;
                }
                Gpu gpu(req.cfg);
                gpu.runWaves(inputs[ix]->waves());
                counts[ix] = CellCounts::from(gpu.stats());
                d.payload[ix] = ResultRecord::fromStats(
                                    k.workload, k.model, k.policy,
                                    gpu.stats(), machineHash(req.cfg))
                                    .encode();
            });
        }
        pool.wait();
    }
    if (!log.enabled())
        return d;
    const double cellPhaseS = secondsSince(t0);

    std::vector<FrontEndCounts> fe(s.universe.size());
    {
        ThreadPool pool(kJobs);
        for (std::size_t ix : s.distinct) {
            pool.submit([&, ix] {
                Scope rp(log, "kernels.replay", -1,
                         static_cast<std::int64_t>(ix));
                fe[ix] = replayFrontEnd(*inputs[ix]);
            });
        }
        pool.wait();
    }

    LayerReport &r = d.report;
    for (std::size_t ix : s.distinct) {
        checkCell(out, s.universe[ix].id(), fe[ix], counts[ix]);
        r.cells.add(counts[ix]);
        r.frontEnd.add(fe[ix]);
        r.footprintBytes += static_cast<double>(inputs[ix]->footprintBytes());
    }
    r.setupS = log.selfSeconds("workloads.setup");
    r.replayS = log.selfSeconds("kernels.replay");
    r.runS = log.selfSeconds("gpu.run");
    const std::vector<double> cells = log.durations("harness.cell");
    r.harnessCells = static_cast<double>(cells.size());
    r.harnessSetupPhaseS = r.setupS;
    r.harnessCellP50S = median(cells);
    r.harnessSlowestCellS = *std::max_element(cells.begin(), cells.end());
    r.harnessBusyFrac = log.totalSeconds("harness.cell") /
                        (static_cast<double>(kJobs) * cellPhaseS);
    return d;
}

/**
 * Wall time to generate the input of every execution on the service's
 * kJobs-thread pool: the set-up work the stream's cold path pays. (Bringing
 * the stack up takes about 0.2 ms and counts in wall_s.)
 */
double
timedInputSetup(const Stream &s)
{
    const Clock::time_point t0 = Clock::now();
    ThreadPool pool(kJobs);
    for (std::size_t ix : s.distinct) {
        pool.submit([&, ix] {
            const Key &k = s.universe[ix];
            createWorkload(k.workload)->setup(kScale, k.seed);
        });
    }
    pool.wait();
    return secondsSince(t0);
}

/** Apply the serving gates to one pass. */
void
checkPass(Outcome &out, const Stream &s, const ServePass &p,
          const DirectRuns &direct)
{
    out.attempted += s.draws.size();
    for (const std::string &e : p.errors)
        out.fail(e, 0);
    out.failed += p.failed;
    for (std::size_t i = 0; i < s.draws.size(); ++i) {
        const std::size_t ix = s.draws[i];
        if (!p.payload[i].empty() && p.payload[i] != direct.payload[ix])
            out.fail("served payload differs from direct run: " +
                     s.universe[ix].id());
    }
    const std::uint64_t executed = statU64(p.stats, "executed");
    if (executed != s.distinct.size()) {
        out.fail(logFormat("service executed %llu simulations for %zu "
                           "distinct keys",
                           static_cast<unsigned long long>(executed),
                           s.distinct.size()));
    }
}

} // namespace

Outcome
runServeMixed(const Options &opt)
{
    Outcome out;
    std::filesystem::create_directories(opt.tmpDir);
    const Stream stream = makeStream(opt.seed);
    SpanLog off(false);
    std::vector<ServePass> passes;
    unsigned n = 0;
    double rssMb = 0.0; // after the first pass: later passes add nothing
    repeatFor(untracedSeconds(opt), out, [&] {
        passes.push_back(servePass(stream, opt, n++, off));
        if (passes.size() == 1)
            rssMb = peakRssMb();
    });

    SpanLog log(opt.trace);
    const DirectRuns direct = directRuns(stream, log, out);
    for (const ServePass &p : passes)
        checkPass(out, stream, p, direct);
    for (std::size_t ix : stream.distinct)
        out.records.push_back(stream.universe[ix].id() + "\t" +
                              direct.payload[ix]);
    std::sort(out.records.begin(), out.records.end());

    if (!opt.trace) {
        EndToEnd e;
        for (int i = 0; i < kSetupRepeats; ++i)
            e.setupS.push_back(timedInputSetup(stream));
        for (const ServePass &p : passes) {
            e.wallS.push_back(p.wallS);
            e.latencyS.push_back(p.latencyS);
            e.missLatencyS.push_back(p.missLatencyS);
        }
        e.opsPerPass = static_cast<double>(kRequests);
        e.peakRssMb = rssMb;
        putEndToEnd(out, e);
        return out;
    }

    // Traced pass, measured against the untraced pass above.
    const ServePass traced = servePass(stream, opt, n++, log);
    checkPass(out, stream, traced, direct);
    LayerReport r = direct.report;
    const JsonObject &st = traced.stats;
    const double executed = static_cast<double>(statU64(st, "executed"));
    r.serviceExecuted = executed;
    r.serviceHitFrac =
        static_cast<double>(statU64(st, "cache_hits")) /
        static_cast<double>(std::max<std::uint64_t>(statU64(st, "requests"),
                                                    1));
    r.serviceDeduped = static_cast<double>(statU64(st, "deduped"));
    r.serviceShed = static_cast<double>(statU64(st, "shed"));
    if (executed > 0) {
        r.serviceQueueMsMean =
            static_cast<double>(statU64(st, "queue_us")) / executed / 1e3;
        r.serviceExecMsMean =
            static_cast<double>(statU64(st, "exec_us")) / executed / 1e3;
        r.serviceInputReuseFrac =
            1.0 - static_cast<double>(stream.distinctInputs) / executed;
    }
    r.sessionHitRttP50Us = 1e6 * median(traced.hitLatencyS);
    std::vector<double> walls;
    for (const ServePass &p : passes)
        walls.push_back(p.wallS);
    r.traceOverheadFrac = traced.wallS / median(walls) - 1.0;
    putLayerMetrics(out, r);
    out.samples["hit_rtt"] = traced.hitLatencyS.size();
    if (!opt.spansPath.empty() && !log.writeChromeTrace(opt.spansPath))
        out.fail("cannot write spans to " + opt.spansPath);
    return out;
}

} // namespace perfbench
