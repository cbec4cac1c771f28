/**
 * @file
 * Serving-subsystem tests (DESIGN.md §10): protocol parsing, request
 * canonicalization, and the service/server behaviors the issue pins
 * down — cold/cached/direct byte-identity, single-flight dedup,
 * bounded admission with structured shedding, fingerprint
 * invalidation, and an 8-client socket smoke.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "harness/tenant_sweep.hh"
#include "serve/client.hh"
#include "serve/service/protocol.hh"
#include "serve/service/service.hh"
#include "serve/service/service_handler.hh"
#include "serve/service/sim_request.hh"
#include "serve/session/server.hh"
#include "sim/config_loader.hh"
#include "sim/presets.hh"
#include "tenant/mixes.hh"
#include "tenant/tenant_manager.hh"
#include "workloads/registry.hh"

using namespace laperm;
using namespace laperm::serve;

namespace {

std::string
tempDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "laperm_serve_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Tiny-scale request every service test uses; seed varies identity. */
SimRequest
tinyRequest(std::uint64_t seed)
{
    SimRequest req;
    req.workload = "bfs-cage";
    req.scale = Scale::Tiny;
    req.seed = seed;
    req.cfg = paperConfig();
    req.cfg.dynParModel = req.model;
    req.cfg.tbPolicy = req.policy;
    req.cfg.seed = seed;
    return req;
}

/** The payload a direct (daemon-free) run of @p req produces. */
std::string
directPayload(const SimRequest &req)
{
    auto w = createWorkload(req.workload);
    w->setup(req.scale, req.seed);
    return runOneRecord(*w, req.cfg, std::string()).encode();
}

ServiceOptions
testServiceOptions(const std::string &cacheDir)
{
    ServiceOptions o;
    o.jobs = 2;
    o.cacheDir = cacheDir;
    o.fingerprint = "fp-test";
    return o;
}

/** The presets the shared-hit tests sweep. */
constexpr const char *kSweptPresets[] = {"k20c", "v100"};

/** The request one wire line parses to. */
SimRequest
requestOf(const std::string &line)
{
    JsonObject obj;
    std::string err;
    SimRequest req;
    EXPECT_TRUE(parseJsonObject(line, obj, err)) << err;
    EXPECT_TRUE(SimRequest::fromJson(obj, req, err)) << err;
    return req;
}

/** The keys of the records stored under @p cacheDir. */
std::set<std::string>
storedKeys(const std::string &cacheDir)
{
    std::set<std::string> keys;
    for (const auto &e :
         std::filesystem::directory_iterator(cacheDir + "/results"))
        keys.insert(e.path().stem().string());
    return keys;
}

/** Every file of @p dir, by name. */
std::map<std::string, std::string>
dirContents(const std::string &dir)
{
    std::map<std::string, std::string> out;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(e.path(), std::ios::binary);
        out[e.path().filename().string()] =
            std::string(std::istreambuf_iterator<char>(in), {});
    }
    return out;
}

bool
waitFor(const std::function<bool()> &pred, int deadlineMs = 10000)
{
    for (int i = 0; i < deadlineMs; ++i) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
}

} // namespace

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, ParsesFlatObjects)
{
    JsonObject obj;
    std::string err;
    ASSERT_TRUE(parseJsonObject(
        R"({"op":"run","seed":42,"b":true,"n":null,"s":"a\"b\n"})", obj,
        err))
        << err;
    EXPECT_EQ(obj.size(), 5u);
    std::string s;
    EXPECT_TRUE(getString(obj, "op", s));
    EXPECT_EQ(s, "run");
    std::uint64_t v = 0;
    EXPECT_TRUE(getU64(obj, "seed", v));
    EXPECT_EQ(v, 42u);
    EXPECT_TRUE(getString(obj, "s", s));
    EXPECT_EQ(s, "a\"b\n");
    EXPECT_EQ(obj.at("b").type, JsonValue::Type::Bool);
    EXPECT_TRUE(obj.at("b").boolean);
    EXPECT_EQ(obj.at("n").type, JsonValue::Type::Null);
}

TEST(ServeProtocol, RejectsNonFlatAndMalformed)
{
    JsonObject obj;
    std::string err;
    EXPECT_FALSE(parseJsonObject(R"({"a":{"b":1}})", obj, err));
    EXPECT_FALSE(parseJsonObject(R"({"a":[1]})", obj, err));
    EXPECT_FALSE(parseJsonObject(R"({"a":1,"a":2})", obj, err));
    EXPECT_FALSE(parseJsonObject(R"({"a":1} junk)", obj, err));
    EXPECT_FALSE(parseJsonObject("not json", obj, err));
    EXPECT_FALSE(parseJsonObject("", obj, err));
    EXPECT_FALSE(parseJsonObject(R"({"a":1)", obj, err));
}

TEST(ServeProtocol, U64RejectsNonIntegers)
{
    JsonObject obj;
    std::string err;
    ASSERT_TRUE(parseJsonObject(
        R"({"neg":-1,"frac":1.5,"exp":1e3,"str":"7","ok":7})", obj, err))
        << err;
    std::uint64_t v = 0;
    EXPECT_FALSE(getU64(obj, "neg", v));
    EXPECT_FALSE(getU64(obj, "frac", v));
    EXPECT_FALSE(getU64(obj, "exp", v));
    EXPECT_FALSE(getU64(obj, "str", v));
    EXPECT_FALSE(getU64(obj, "missing", v));
    EXPECT_TRUE(getU64(obj, "ok", v));
    EXPECT_EQ(v, 7u);
}

TEST(ServeProtocol, EscapeRoundTrips)
{
    const std::string raw = "line1\nline2\t\"quoted\" \\slash\\";
    JsonObject obj;
    std::string err;
    ASSERT_TRUE(parseJsonObject("{\"s\":\"" + jsonEscape(raw) + "\"}",
                                obj, err))
        << err;
    std::string back;
    ASSERT_TRUE(getString(obj, "s", back));
    EXPECT_EQ(back, raw);
}

// ------------------------------------------------------------- sim request

TEST(ServeRequest, DefaultsMaterializeSoEquivalentRequestsShareAKey)
{
    JsonObject sparse, full;
    std::string err;
    ASSERT_TRUE(parseJsonObject(R"({"op":"run"})", sparse, err));
    SimRequest a;
    ASSERT_TRUE(SimRequest::fromJson(sparse, a, err)) << err;

    // The same simulation, every default spelled out.
    ASSERT_TRUE(parseJsonObject(a.toJson(), full, err)) << err;
    SimRequest b;
    ASSERT_TRUE(SimRequest::fromJson(full, b, err)) << err;
    EXPECT_EQ(a.canonical(), b.canonical());
    EXPECT_EQ(a.key(), b.key());

    SimRequest c = a;
    c.seed = a.seed + 1;
    EXPECT_NE(a.key(), c.key());
}

TEST(ServeRequest, RejectsUnknownFieldsAndBadValues)
{
    JsonObject obj;
    std::string err;
    ASSERT_TRUE(parseJsonObject(R"({"op":"run","workloat":"x"})", obj,
                                err));
    SimRequest r;
    EXPECT_FALSE(SimRequest::fromJson(obj, r, err));
    EXPECT_NE(err.find("workloat"), std::string::npos);

    ASSERT_TRUE(
        parseJsonObject(R"({"op":"run","model":"sideways"})", obj, err));
    EXPECT_FALSE(SimRequest::fromJson(obj, r, err));

    ASSERT_TRUE(parseJsonObject(R"({"op":"run","seed":-3})", obj, err));
    EXPECT_FALSE(SimRequest::fromJson(obj, r, err));
}

TEST(ServeRequest, PresetAndInlineConfigSpellingsShareAKey)
{
    // The same v100 machine, three spellings: the preset name, the
    // full emitted TOML, and the preset request round-tripped through
    // its own wire form. All must canonicalize to one cache key.
    JsonObject obj;
    std::string err;
    ASSERT_TRUE(
        parseJsonObject(R"({"op":"run","preset":"v100"})", obj, err));
    SimRequest byPreset;
    ASSERT_TRUE(SimRequest::fromJson(obj, byPreset, err)) << err;

    const std::string toml = emitMachineToml(presetConfig("v100"));
    ASSERT_TRUE(parseJsonObject(
        R"({"op":"run","config":")" + jsonEscape(toml) + "\"}", obj,
        err))
        << err;
    SimRequest byToml;
    ASSERT_TRUE(SimRequest::fromJson(obj, byToml, err)) << err;

    ASSERT_TRUE(parseJsonObject(byPreset.toJson(), obj, err)) << err;
    SimRequest byWire;
    ASSERT_TRUE(SimRequest::fromJson(obj, byWire, err)) << err;

    EXPECT_EQ(byPreset.canonical(), byToml.canonical());
    EXPECT_EQ(byPreset.key(), byToml.key());
    EXPECT_EQ(byPreset.key(), byWire.key());

    // ...and a default-machine request keys differently.
    ASSERT_TRUE(parseJsonObject(R"({"op":"run"})", obj, err));
    SimRequest k20c;
    ASSERT_TRUE(SimRequest::fromJson(obj, k20c, err)) << err;
    EXPECT_NE(k20c.key(), byPreset.key());
}

TEST(ServeRequest, ConfigOverlaysPresetAndShortcutsOverlayConfig)
{
    // Documented precedence: preset, then config TOML, then the
    // legacy shortcut fields — regardless of JSON key order.
    JsonObject obj;
    std::string err;
    ASSERT_TRUE(parseJsonObject(
        R"({"op":"run","smx":4,"preset":"v100","config":"l2_banks = 4\n"})",
        obj, err));
    SimRequest r;
    ASSERT_TRUE(SimRequest::fromJson(obj, r, err)) << err;
    EXPECT_EQ(r.cfg.numSmx, 4u);         // shortcut wins over preset
    EXPECT_EQ(r.cfg.l2Banks, 4u);        // config TOML applied
    EXPECT_EQ(r.cfg.l2Size, 6144u * 1024u); // rest is still v100
}

TEST(ServeRequest, BadPresetAndBadConfigAreStructuredErrors)
{
    JsonObject obj;
    std::string err;
    SimRequest r;

    ASSERT_TRUE(parseJsonObject(R"({"op":"run","preset":"k40"})", obj,
                                err));
    EXPECT_FALSE(SimRequest::fromJson(obj, r, err));
    EXPECT_NE(err.find("k20c"), std::string::npos) << err; // names list

    ASSERT_TRUE(parseJsonObject(
        R"({"op":"run","config":"warp_count = 9\n"})", obj, err));
    EXPECT_FALSE(SimRequest::fromJson(obj, r, err));
    EXPECT_NE(err.find("config"), std::string::npos) << err;
    EXPECT_NE(err.find("warp_count"), std::string::npos) << err;
}

TEST(ServeRequest, ValidateCatchesSemanticErrors)
{
    SimRequest r = tinyRequest(1);
    std::string err;
    EXPECT_TRUE(r.validate(err)) << err;

    r.workload = "no-such-workload";
    EXPECT_FALSE(r.validate(err));
    EXPECT_NE(err.find("no-such-workload"), std::string::npos);

    r = tinyRequest(1);
    r.cfg.numSmx = 0;
    EXPECT_FALSE(r.validate(err));
}

TEST(ServeRequest, TenantsFieldRoundTripsAndExtendsTheKey)
{
    JsonObject obj;
    std::string err;
    ASSERT_TRUE(parseJsonObject(R"({"op":"run","tenants":"duo"})", obj,
                                err));
    SimRequest mix;
    ASSERT_TRUE(SimRequest::fromJson(obj, mix, err)) << err;
    EXPECT_EQ(mix.tenants, "duo");
    ASSERT_TRUE(mix.validate(err)) << err;

    // The canonical form names the mix and the preset label (the TSV
    // payload carries a preset column, so the label is identity)...
    EXPECT_NE(mix.canonical().find("tenants=duo tpreset=k20c"),
              std::string::npos)
        << mix.canonical();
    // ...while a plain request's canonical bytes stay exactly as
    // before the field existed — pre-existing cache keys must survive.
    ASSERT_TRUE(parseJsonObject(R"({"op":"run"})", obj, err));
    SimRequest plain;
    ASSERT_TRUE(SimRequest::fromJson(obj, plain, err)) << err;
    EXPECT_EQ(plain.canonical().find("tenants="), std::string::npos);
    EXPECT_NE(plain.key(), mix.key());

    // Wire round trip preserves the key; mix and preset vary it.
    ASSERT_TRUE(parseJsonObject(mix.toJson(), obj, err)) << err;
    SimRequest back;
    ASSERT_TRUE(SimRequest::fromJson(obj, back, err)) << err;
    EXPECT_EQ(back.key(), mix.key());

    ASSERT_TRUE(parseJsonObject(
        R"({"op":"run","tenants":"quad"})", obj, err));
    SimRequest quad;
    ASSERT_TRUE(SimRequest::fromJson(obj, quad, err)) << err;
    EXPECT_NE(quad.key(), mix.key());

    ASSERT_TRUE(parseJsonObject(
        R"({"op":"run","tenants":"duo","preset":"v100"})", obj, err));
    SimRequest onV100;
    ASSERT_TRUE(SimRequest::fromJson(obj, onV100, err)) << err;
    EXPECT_NE(onV100.key(), mix.key());
}

TEST(ServeRequest, TenantsValidationRejectsUnknownMixAndTraceDir)
{
    JsonObject obj;
    std::string err;
    ASSERT_TRUE(parseJsonObject(
        R"({"op":"run","tenants":"nonsuch"})", obj, err));
    SimRequest r;
    ASSERT_TRUE(SimRequest::fromJson(obj, r, err)) << err;
    EXPECT_FALSE(r.validate(err));
    EXPECT_NE(err.find("nonsuch"), std::string::npos) << err;
    EXPECT_NE(err.find("duo"), std::string::npos) << err; // names list

    ASSERT_TRUE(parseJsonObject(
        R"({"op":"run","tenants":"duo","trace_dir":"/tmp/t"})", obj,
        err));
    ASSERT_TRUE(SimRequest::fromJson(obj, r, err)) << err;
    EXPECT_FALSE(r.validate(err));
    EXPECT_NE(err.find("trace_dir"), std::string::npos) << err;
}

TEST(ServeRequest, TenantKeyIgnoresWorkloadAndScale)
{
    // A mix names its own workloads and scales, so tenant requests
    // that differ only there are one simulation and one store entry.
    JsonObject obj;
    std::string err;
    SimRequest plain, otherWorkload, otherScale;
    ASSERT_TRUE(parseJsonObject(R"({"op":"run","tenants":"duo"})", obj,
                                err));
    ASSERT_TRUE(SimRequest::fromJson(obj, plain, err)) << err;
    ASSERT_TRUE(parseJsonObject(
        R"({"op":"run","tenants":"duo","workload":"join-uniform"})", obj,
        err));
    ASSERT_TRUE(SimRequest::fromJson(obj, otherWorkload, err)) << err;
    ASSERT_TRUE(parseJsonObject(
        R"({"op":"run","tenants":"duo","scale":"tiny"})", obj, err));
    ASSERT_TRUE(SimRequest::fromJson(obj, otherScale, err)) << err;

    EXPECT_EQ(plain.key(), otherWorkload.key());
    EXPECT_EQ(plain.key(), otherScale.key());
}

// ---------------------------------------------------------------- service

TEST(ServeService, ColdCachedAndDirectResultsAreByteIdentical)
{
    // Every distinct request executes once and every repeat is a hit,
    // both with the bytes of a direct run.
    const std::vector<std::uint64_t> seeds = {7, 8, 9, 10};
    SimService svc(testServiceOptions(tempDir("identity")));
    std::vector<std::string> direct;
    for (const std::uint64_t seed : seeds) {
        const SimRequest req = tinyRequest(seed);
        direct.push_back(directPayload(req));
        const RunOutcome cold = svc.run(req);
        ASSERT_EQ(cold.status, RunStatus::Ok) << cold.error;
        EXPECT_FALSE(cold.cached);
        EXPECT_EQ(cold.payload, direct.back());
    }
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        const RunOutcome warm = svc.run(tinyRequest(seeds[i]));
        ASSERT_EQ(warm.status, RunStatus::Ok) << warm.error;
        EXPECT_TRUE(warm.cached);
        EXPECT_EQ(warm.payload, direct[i]);

        // And the rendered CSV row matches what laperm_sim --csv prints.
        ResultRecord recDirect, recServed;
        ASSERT_TRUE(ResultRecord::decode(direct[i], recDirect));
        ASSERT_TRUE(ResultRecord::decode(warm.payload, recServed));
        EXPECT_EQ(recDirect.csvRow(), recServed.csvRow());
    }

    const ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.executed, seeds.size());
    EXPECT_EQ(m.cacheMisses, seeds.size());
    EXPECT_EQ(m.cacheHits, seeds.size());
}

TEST(ServeService, TenantMixPayloadMatchesADirectMixStudy)
{
    // A tenants request serves the same TSV laperm_sim --tenants MIX
    // --tenants-tsv writes: reconstruct it from a direct runMixStudy
    // with the identical row mapping and byte-compare.
    SimRequest req;
    req.tenants = "duo";
    req.cfg = paperConfig();
    req.cfg.dynParModel = req.model;
    req.cfg.tbPolicy = req.policy;
    std::string err;
    ASSERT_TRUE(req.validate(err)) << err;

    const tenant::MixSpec mix = tenant::builtinMix(req.tenants);
    const tenant::MixStudy study = tenant::runMixStudy(mix, req.cfg);
    std::vector<TenantSweepRow> rows;
    for (const tenant::TenantMetrics &tm : study.metrics.perTenant) {
        TenantSweepRow r;
        r.mix = mix.name;
        r.preset = req.presetName;
        r.policy = req.cfg.tbPolicy;
        r.tenant = tm.name;
        r.tenantId = tm.tenant;
        r.jobs = tm.jobs;
        r.antt = tm.antt;
        r.p50 = tm.p50;
        r.p95 = tm.p95;
        r.p99 = tm.p99;
        r.retiredTbs = tm.retiredTbs;
        r.mixAntt = study.metrics.antt;
        r.mixStp = study.metrics.stp;
        r.mixJain = study.metrics.jain;
        r.makespan = study.metrics.makespan;
        rows.push_back(std::move(r));
    }
    const std::string direct = encodeTenantSweepTsv(rows);

    SimService svc(testServiceOptions(tempDir("tenant_mix")));
    const RunOutcome cold = svc.run(req);
    ASSERT_EQ(cold.status, RunStatus::Ok) << cold.error;
    EXPECT_FALSE(cold.cached);
    EXPECT_EQ(cold.payload, direct);

    const RunOutcome warm = svc.run(req);
    ASSERT_EQ(warm.status, RunStatus::Ok) << warm.error;
    EXPECT_TRUE(warm.cached);
    EXPECT_EQ(warm.payload, direct);
}

TEST(ServeService, CacheHitMetricsDistinguishMemoryAndSharedTiers)
{
    const std::string dir = tempDir("tier_metrics");
    const SimRequest req = tinyRequest(71);
    {
        SimService svc(testServiceOptions(dir));
        ASSERT_EQ(svc.run(req).status, RunStatus::Ok);
        const RunOutcome warm = svc.run(req);
        ASSERT_EQ(warm.status, RunStatus::Ok);
        EXPECT_TRUE(warm.cached);
        const ServiceMetrics m = svc.metrics();
        EXPECT_EQ(m.cacheHits, 1u);
        EXPECT_EQ(m.cacheMemHits, 1u);
        EXPECT_EQ(m.cacheSharedHits, 0u);
    }
    {
        // A fresh service on the same cache dir models another worker
        // (or a restarted one): its hit comes off the shared tier.
        SimService svc(testServiceOptions(dir));
        const RunOutcome hit = svc.run(req);
        ASSERT_EQ(hit.status, RunStatus::Ok) << hit.error;
        EXPECT_TRUE(hit.cached);
        ServiceMetrics m = svc.metrics();
        EXPECT_EQ(m.executed, 0u);
        EXPECT_EQ(m.cacheSharedHits, 1u);
        EXPECT_EQ(m.cacheMemHits, 0u);

        // dropMemoryCache (what a worker restart does to L1) sends the
        // NEXT hit back to the shared tier; a hit after that is L1.
        svc.dropMemoryCache();
        ASSERT_EQ(svc.run(req).status, RunStatus::Ok);
        EXPECT_EQ(svc.metrics().cacheSharedHits, 2u);
        ASSERT_EQ(svc.run(req).status, RunStatus::Ok);
        m = svc.metrics();
        EXPECT_EQ(m.cacheSharedHits, 2u);
        EXPECT_EQ(m.cacheMemHits, 1u);
    }
}

TEST(ServeService, SweepCellIsASharedHitForTheMatchingRequest)
{
    // The sweep and the daemon share one store: every cell the sweep
    // simulated is stored under the matching request's key, and the
    // request is a shared hit with a direct run's bytes.
    const std::string dir = tempDir("sweep_cell");
    setenv("LAPERM_CACHE_DIR", dir.c_str(), 1);
    unsetenv("LAPERM_NO_CACHE");
    for (const char *preset : kSweptPresets)
        ASSERT_EQ(runMatrixPreset({"bfs-cage"}, preset, Scale::Tiny, 3)
                      .size(),
                  8u);
    unsetenv("LAPERM_CACHE_DIR");

    std::vector<SimRequest> reqs;
    std::set<std::string> keys;
    for (const char *preset : kSweptPresets) {
        for (DynParModel model : kDynParModels) {
            for (TbPolicy policy : kTbPolicies) {
                reqs.push_back(requestOf(logFormat(
                    R"({"op":"run","workload":"bfs-cage","scale":"tiny",)"
                    R"("seed":3,"preset":"%s","model":"%s","policy":"%s"})",
                    preset, wireName(model), wireName(policy))));
                keys.insert(reqs.back().key());
            }
        }
    }
    EXPECT_EQ(storedKeys(dir), keys);

    ServiceOptions opts = testServiceOptions(dir);
    opts.fingerprint.clear(); // the sweep stored under the real one
    SimService svc(opts);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const RunOutcome hit = svc.run(reqs[i]);
        ASSERT_EQ(hit.status, RunStatus::Ok) << hit.error;
        EXPECT_TRUE(hit.cached) << i;
        EXPECT_EQ(hit.payload, directPayload(reqs[i])) << i;
    }
    const ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.executed, 0u);
    EXPECT_EQ(m.cacheSharedHits, reqs.size());
}

TEST(ServeService, TenantSweepCellIsASharedHitForTheMatchingRequest)
{
    const std::string dir = tempDir("tenant_cell");
    setenv("LAPERM_CACHE_DIR", dir.c_str(), 1);
    unsetenv("LAPERM_NO_CACHE");
    const std::vector<TenantSweepRow> swept =
        runTenantSweep({"duo"}, {"k20c", "v100"}, 1);
    unsetenv("LAPERM_CACHE_DIR");

    std::vector<SimRequest> reqs;
    std::vector<std::string> want;
    std::set<std::string> keys;
    for (const char *preset : kSweptPresets) {
        for (TbPolicy policy : kTbPolicies) {
            reqs.push_back(requestOf(logFormat(
                R"({"op":"run","tenants":"duo","preset":"%s",)"
                R"("policy":"%s","seed":1})",
                preset, wireName(policy))));
            keys.insert(reqs.back().key());
            std::vector<TenantSweepRow> rows;
            for (const TenantSweepRow &r : swept) {
                if (r.preset == preset && r.policy == policy)
                    rows.push_back(r);
            }
            ASSERT_FALSE(rows.empty()) << preset << toString(policy);
            want.push_back(encodeTenantSweepTsv(rows));
        }
    }
    EXPECT_EQ(storedKeys(dir), keys);

    ServiceOptions opts = testServiceOptions(dir);
    opts.fingerprint.clear(); // the sweep stored under the real one
    SimService svc(opts);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const RunOutcome hit = svc.run(reqs[i]);
        ASSERT_EQ(hit.status, RunStatus::Ok) << hit.error;
        EXPECT_TRUE(hit.cached) << i;
        EXPECT_EQ(hit.payload, want[i]) << i;
    }
    const ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.executed, 0u);
    EXPECT_EQ(m.cacheSharedHits, reqs.size());
}

TEST(ServeService, TracedRequestWritesWhatEveryTracedRunWrites)
{
    // A trace_dir request writes the five DESIGN.md §8 artifacts
    // through the harness's one traced run: the bytes runOneRecord and
    // laperm_sim --trace-dir write for the same cell. Tracing leaves
    // the payload as the untraced request's.
    const std::string dir = tempDir("traced");
    SimRequest req = tinyRequest(5);
    req.traceDir = dir + "/served";
    SimService svc(testServiceOptions(dir + "/cache"));
    const RunOutcome traced = svc.run(req);
    ASSERT_EQ(traced.status, RunStatus::Ok) << traced.error;
    EXPECT_FALSE(traced.cached);
    EXPECT_EQ(traced.payload, directPayload(tinyRequest(5)));

    auto w = createWorkload(req.workload);
    w->setup(req.scale, req.seed);
    (void)runOneRecord(*w, req.cfg, dir + "/direct");

    const std::string cli = std::string(LAPERM_SIM_BIN) +
                            " --workload bfs-cage --scale tiny --seed 5"
                            " --model dtbl --policy rr --csv --trace-dir " +
                            dir + "/cli > " + dir + "/cli.csv";
    ASSERT_EQ(std::system(cli.c_str()), 0) << cli;

    const std::map<std::string, std::string> served =
        dirContents(dir + "/served");
    EXPECT_EQ(served.size(), 5u);
    EXPECT_EQ(served, dirContents(dir + "/direct"));
    EXPECT_EQ(served, dirContents(dir + "/cli"));
}

TEST(ServeService, UnwritableTraceDirAnswersErrorAndStoresNothing)
{
    // A trace_dir below a regular file cannot be written: the request
    // answers error, and its record is not stored, so a retry runs
    // (and fails) again rather than hit a result whose trace was lost.
    const std::string dir = tempDir("untraceable");
    std::ofstream(dir + "/file") << "not a directory\n";
    SimRequest req = tinyRequest(6);
    req.traceDir = dir + "/file/sub";
    SimService svc(testServiceOptions(dir + "/cache"));
    const RunOutcome out = svc.run(req);
    EXPECT_EQ(out.status, RunStatus::Error);
    EXPECT_NE(out.error.find("could not write trace artifacts"),
              std::string::npos)
        << out.error;
    EXPECT_EQ(svc.metrics().errors, 1u);
    const std::string results = dir + "/cache/results";
    EXPECT_TRUE(!std::filesystem::exists(results) ||
                std::filesystem::is_empty(results));
}

TEST(LapermSim, UnwritableTraceDirExitsOne)
{
    const std::string dir = tempDir("untraceable_cli");
    std::ofstream(dir + "/file") << "not a directory\n";
    const std::string cli = std::string(LAPERM_SIM_BIN) +
                            " --workload bfs-cage --scale tiny --csv"
                            " --trace-dir " +
                            dir + "/file/sub > " + dir + "/out.csv 2> " +
                            dir + "/err.txt";
    const int status = std::system(cli.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cli;
    EXPECT_EQ(WEXITSTATUS(status), 1) << cli;
    std::ifstream err(dir + "/err.txt");
    const std::string text(std::istreambuf_iterator<char>(err), {});
    EXPECT_NE(text.find("could not write trace artifacts"), std::string::npos)
        << text;
}

TEST(ServeService, IdenticalInFlightRequestsAreSingleFlighted)
{
    ServiceOptions opts = testServiceOptions(tempDir("dedup"));
    opts.testExecDelayMs = 100;
    SimService svc(opts);

    const SimRequest req = tinyRequest(11);
    RunOutcome a, b;
    std::thread ta([&] { a = svc.run(req); });
    std::thread tb([&] { b = svc.run(req); });
    ta.join();
    tb.join();

    ASSERT_EQ(a.status, RunStatus::Ok) << a.error;
    ASSERT_EQ(b.status, RunStatus::Ok) << b.error;
    EXPECT_EQ(a.payload, b.payload);
    const ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.executed, 1u); // one simulation served both callers
    EXPECT_EQ(m.deduped, 1u);
    EXPECT_TRUE(a.deduped || b.deduped);
}

TEST(ServeService, AdmissionBoundShedsInsteadOfQueueingUnbounded)
{
    ServiceOptions opts = testServiceOptions(tempDir("shed"));
    opts.jobs = 1;
    opts.queueCapacity = 1;
    opts.testExecDelayMs = 300;
    SimService svc(opts);

    RunOutcome slow;
    std::thread occupant([&] { slow = svc.run(tinyRequest(21)); });
    ASSERT_TRUE(
        waitFor([&] { return svc.metrics().queueDepth == 1; }));

    const RunOutcome rejected = svc.run(tinyRequest(22));
    EXPECT_EQ(rejected.status, RunStatus::Shed);
    EXPECT_TRUE(rejected.payload.empty());
    occupant.join();
    ASSERT_EQ(slow.status, RunStatus::Ok) << slow.error;

    const ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.shed, 1u);
    EXPECT_EQ(m.executed, 1u);
    EXPECT_EQ(m.queueDepthPeak, 1u);

    // A concurrent burst of distinct requests: every caller gets an
    // answer, a result or a shed, and the bound sheds at least one.
    std::vector<RunStatus> status(8, RunStatus::Error);
    std::vector<std::thread> burst;
    for (std::size_t i = 0; i < status.size(); ++i)
        burst.emplace_back(
            [&, i] { status[i] = svc.run(tinyRequest(100 + i)).status; });
    for (std::thread &t : burst)
        t.join();
    const auto ok = std::count(status.begin(), status.end(), RunStatus::Ok);
    const auto shed =
        std::count(status.begin(), status.end(), RunStatus::Shed);
    EXPECT_EQ(ok + shed, 8);
    EXPECT_GE(shed, 1);
    EXPECT_EQ(svc.metrics().executed, 1u + static_cast<std::uint64_t>(ok));
    EXPECT_EQ(svc.metrics().queueDepthPeak, 1u);
}

TEST(ServeService, WaiterTimeoutDoesNotAbortExecution)
{
    ServiceOptions opts = testServiceOptions(tempDir("timeout"));
    opts.timeoutMs = 1;
    opts.testExecDelayMs = 100;
    SimService svc(opts);

    const SimRequest req = tinyRequest(31);
    const RunOutcome out = svc.run(req);
    EXPECT_EQ(out.status, RunStatus::Timeout);

    // The execution keeps going and still populates the cache.
    ASSERT_TRUE(waitFor([&] { return svc.metrics().executed == 1; }));
    ASSERT_TRUE(
        waitFor([&] { return svc.metrics().cacheMisses == 1; }));
    const RunOutcome retry = svc.run(req);
    ASSERT_EQ(retry.status, RunStatus::Ok) << retry.error;
    EXPECT_TRUE(retry.cached);
    EXPECT_EQ(retry.payload, directPayload(req));
}

TEST(ServeService, FingerprintBumpInvalidatesCachedResults)
{
    const std::string dir = tempDir("fp_bump");
    const SimRequest req = tinyRequest(41);

    ServiceOptions oldBuild = testServiceOptions(dir);
    oldBuild.fingerprint = "fp-old";
    {
        SimService svc(oldBuild);
        const RunOutcome out = svc.run(req);
        ASSERT_EQ(out.status, RunStatus::Ok) << out.error;
        EXPECT_FALSE(out.cached);
    }
    {
        // Same cache directory, new simulator build: must re-execute.
        ServiceOptions newBuild = testServiceOptions(dir);
        newBuild.fingerprint = "fp-new";
        SimService svc(newBuild);
        const RunOutcome out = svc.run(req);
        ASSERT_EQ(out.status, RunStatus::Ok) << out.error;
        EXPECT_FALSE(out.cached);
        EXPECT_EQ(svc.metrics().executed, 1u);
    }
    {
        // The re-execution overwrote the entry under the new
        // fingerprint: new builds now hit, the old build misses again.
        ServiceOptions newBuild = testServiceOptions(dir);
        newBuild.fingerprint = "fp-new";
        SimService svc(newBuild);
        const RunOutcome out = svc.run(req);
        ASSERT_EQ(out.status, RunStatus::Ok) << out.error;
        EXPECT_TRUE(out.cached);
    }
    {
        SimService svc(oldBuild);
        const RunOutcome out = svc.run(req);
        ASSERT_EQ(out.status, RunStatus::Ok) << out.error;
        EXPECT_FALSE(out.cached);
    }
}

TEST(ServeService, InvalidRequestsErrorWithoutExecuting)
{
    SimService svc(testServiceOptions(tempDir("invalid")));
    SimRequest req = tinyRequest(51);
    req.workload = "no-such-workload";
    const RunOutcome out = svc.run(req);
    EXPECT_EQ(out.status, RunStatus::Error);
    EXPECT_NE(out.error.find("no-such-workload"), std::string::npos);
    const ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.errors, 1u);
    EXPECT_EQ(m.executed, 0u);
}

TEST(ServeService, ZeroSizedCacheIsAStructuredError)
{
    // A zero-sized L1 or L2 divides evenly by assoc*line, so check()
    // used to pass it and the Cache constructor aborted the daemon.
    ServiceHandler handler(testServiceOptions(tempDir("zero_cache")));
    JsonObject resp;
    std::string err, status;
    for (const char *bad :
         {R"({"op":"run","workload":"bfs-cage","scale":"tiny","l1_kb":0})",
          R"({"op":"run","workload":"bfs-cage","scale":"tiny",)"
          R"("config":"l2_size = 0\n"})"}) {
        ASSERT_TRUE(parseJsonObject(handler.handleLine(bad).frame, resp, err))
            << err;
        ASSERT_TRUE(getString(resp, "status", status));
        EXPECT_EQ(status, kStatusError) << bad;
    }
    ASSERT_TRUE(parseJsonObject(
        handler
            .handleLine(
                R"({"op":"run","workload":"bfs-cage","scale":"tiny"})")
            .frame,
        resp, err))
        << err;
    ASSERT_TRUE(getString(resp, "status", status));
    EXPECT_EQ(status, kStatusOk);
}

TEST(ServeService, UndersizedMachinesAreStructuredErrors)
{
    // bfs-cage's host TBs hold 64 threads of 32 registers. A machine
    // that cannot hold one used to end the daemon (too few threads) or
    // spin it to the cycle cap (too few registers); both now answer
    // status=error before simulating, and the daemon keeps serving.
    ServiceHandler handler(testServiceOptions(tempDir("undersized")));
    JsonObject resp;
    std::string err, status, message;
    for (const char *bad :
         {R"({"op":"run","workload":"bfs-cage","scale":"tiny",)"
          R"("config":"max_threads_per_smx = 32\n"})",
          R"({"op":"run","workload":"bfs-cage","scale":"tiny",)"
          R"("config":"regs_per_smx = 64\n"})"}) {
        ASSERT_TRUE(parseJsonObject(handler.handleLine(bad).frame, resp, err))
            << err;
        ASSERT_TRUE(getString(resp, "status", status));
        EXPECT_EQ(status, kStatusError) << bad;
        ASSERT_TRUE(getString(resp, "message", message));
        EXPECT_NE(message.find("exceeds the SMX limit"), std::string::npos)
            << message;
    }
    ASSERT_TRUE(parseJsonObject(
        handler
            .handleLine(
                R"({"op":"run","workload":"bfs-cage","scale":"tiny"})")
            .frame,
        resp, err))
        << err;
    ASSERT_TRUE(getString(resp, "status", status));
    EXPECT_EQ(status, kStatusOk);
    ASSERT_TRUE(parseJsonObject(
                    handler.handleLine(R"({"op":"stats"})").frame, resp, err))
        << err;
    std::uint64_t n = 0;
    ASSERT_TRUE(getU64(resp, "errors", n));
    EXPECT_EQ(n, 2u);
    ASSERT_TRUE(getU64(resp, "executed", n));
    EXPECT_EQ(n, 3u);
}

// ----------------------------------------------------------------- server

TEST(ServeServer, HandleLineDispatchesAndSurvivesBadInput)
{
    // handleLine needs no socket: the service handler is the whole
    // brain, the session layer only feeds it frames.
    ServiceHandler handler(testServiceOptions(tempDir("dispatch")));

    JsonObject resp;
    std::string err, s;

    // Malformed / unknown inputs produce structured errors, not exits.
    for (const char *bad :
         {"garbage", "{\"seed\":1}", R"({"op":"fly"})",
          R"({"op":"run","bogus_field":1})",
          R"({"op":"run","workload":"no-such-workload"})"}) {
        ASSERT_TRUE(
            parseJsonObject(handler.handleLine(bad).frame, resp, err))
            << err;
        ASSERT_TRUE(getString(resp, "status", s));
        EXPECT_EQ(s, kStatusError) << bad;
    }

    // ...and the very same handler still answers real requests.
    ASSERT_TRUE(parseJsonObject(
                    handler.handleLine(R"({"op":"ping"})").frame, resp, err))
        << err;
    ASSERT_TRUE(getString(resp, "status", s));
    EXPECT_EQ(s, kStatusOk);
    ASSERT_TRUE(getString(resp, "fingerprint", s));
    EXPECT_EQ(s, "fp-test");
    std::uint64_t proto = 0;
    ASSERT_TRUE(getU64(resp, "protocol", proto));
    EXPECT_EQ(proto, static_cast<std::uint64_t>(kProtocolVersion));

    ASSERT_TRUE(parseJsonObject(
                    handler.handleLine(R"({"op":"stats"})").frame, resp, err))
        << err;
    std::uint64_t n = 0;
    ASSERT_TRUE(getU64(resp, "errors", n));
    EXPECT_EQ(n, 1u); // only the semantically-invalid run counted
}

TEST(ServeServer, EightConcurrentClientsAllGetByteIdenticalResults)
{
    const std::string sockPath =
        ::testing::TempDir() + "laperm_smoke.sock";
    SessionOptions opts;
    opts.endpoint = Endpoint::unixAt(sockPath);
    ServiceHandler handler(testServiceOptions(tempDir("smoke")));
    Server server(opts, handler);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    constexpr int kClients = 8;
    std::vector<std::string> payloads(kClients);
    std::vector<std::string> errors(kClients);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            ClientOptions copts;
            copts.endpoint = opts.endpoint;
            Client client(copts);
            std::string cerr;
            if (!client.connect(cerr)) {
                errors[static_cast<std::size_t>(i)] = cerr;
                return;
            }
            // Half the clients share seed 1 (exercises dedup/cache
            // under concurrency); the rest are distinct simulations.
            const SimRequest req = tinyRequest(
                i < kClients / 2 ? 1 : static_cast<std::uint64_t>(i));
            JsonObject resp;
            if (!client.callWithRetry(req.toJson(), resp, cerr)) {
                errors[static_cast<std::size_t>(i)] = cerr;
                return;
            }
            std::string status;
            getString(resp, "status", status);
            if (status != kStatusOk) {
                errors[static_cast<std::size_t>(i)] =
                    "status=" + status;
                return;
            }
            getString(resp, "result",
                      payloads[static_cast<std::size_t>(i)]);
        });
    }
    for (auto &t : clients)
        t.join();

    for (int i = 0; i < kClients; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        EXPECT_TRUE(errors[idx].empty()) << "client " << i << ": "
                                         << errors[idx];
        ASSERT_FALSE(payloads[idx].empty()) << "client " << i;
    }
    // Shared-seed clients converge on one set of bytes, equal to the
    // daemon-free run.
    const std::string direct = directPayload(tinyRequest(1));
    for (int i = 0; i < kClients / 2; ++i)
        EXPECT_EQ(payloads[static_cast<std::size_t>(i)], direct);

    // Shutdown over the protocol terminates the wait loop.
    {
        ClientOptions copts;
        copts.endpoint = opts.endpoint;
        Client client(copts);
        ASSERT_TRUE(client.connect(err)) << err;
        JsonObject resp;
        ASSERT_TRUE(client.call(R"({"op":"shutdown"})", resp, err))
            << err;
        std::string status;
        ASSERT_TRUE(getString(resp, "status", status));
        EXPECT_EQ(status, kStatusOk);
    }
    EXPECT_TRUE(server.waitShutdown(10000));
    server.stop();
    EXPECT_FALSE(std::filesystem::exists(sockPath));
}

TEST(ServeServer, ShutdownReplyIsSentBeforeTheServerStops)
{
    // The embedder stops the server as soon as the hook signals, and
    // stop() shuts every connection down. This hook then sleeps, so the
    // sockets are shut before it returns: the reply to the shutdown
    // must already be on the wire by the time the hook fires.
    SessionOptions opts;
    opts.endpoint =
        Endpoint::unixAt(::testing::TempDir() + "laperm_shutdown.sock");
    ServiceHandler handler(testServiceOptions(tempDir("shutdown")));
    Server server(opts, handler);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;
    handler.setShutdownHook([&server] {
        server.requestShutdown();
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    });
    std::thread embedder([&server] {
        server.waitShutdown();
        server.stop();
    });

    ClientOptions copts;
    copts.endpoint = opts.endpoint;
    Client client(copts);
    const bool connected = client.connect(err);
    JsonObject resp;
    const bool answered =
        connected && client.call(R"({"op":"shutdown"})", resp, err);
    if (!connected)
        server.requestShutdown();
    embedder.join();

    ASSERT_TRUE(answered) << err;
    std::string status, op;
    ASSERT_TRUE(getString(resp, "status", status));
    EXPECT_EQ(status, kStatusOk);
    ASSERT_TRUE(getString(resp, "op", op));
    EXPECT_EQ(op, "shutdown");
}

TEST(ServeServer, OverloadIsStructuredAndRetryRecovers)
{
    SessionOptions opts;
    opts.endpoint =
        Endpoint::unixAt(::testing::TempDir() + "laperm_overload.sock");
    ServiceOptions svcOpts = testServiceOptions(tempDir("overload"));
    svcOpts.jobs = 1;
    svcOpts.queueCapacity = 1;
    svcOpts.testExecDelayMs = 300;
    ServiceHandler handler(std::move(svcOpts));
    Server server(opts, handler);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    // Occupy the single admission slot.
    std::string slowStatus;
    std::thread occupant([&] {
        ClientOptions copts;
        copts.endpoint = opts.endpoint;
        Client client(copts);
        std::string cerr;
        JsonObject resp;
        if (client.connect(cerr) &&
            client.call(tinyRequest(61).toJson(), resp, cerr)) {
            getString(resp, "status", slowStatus);
        }
    });
    ASSERT_TRUE(waitFor(
        [&] { return handler.service().metrics().queueDepth == 1; }));

    // A no-retry client sees the structured overload response...
    {
        ClientOptions copts;
        copts.endpoint = opts.endpoint;
        copts.overloadRetries = 0;
        Client client(copts);
        ASSERT_TRUE(client.connect(err)) << err;
        JsonObject resp;
        ASSERT_TRUE(client.call(tinyRequest(62).toJson(), resp, err))
            << err;
        std::string status;
        ASSERT_TRUE(getString(resp, "status", status));
        EXPECT_EQ(status, kStatusOverloaded);
        std::uint64_t retryMs = 0;
        EXPECT_TRUE(getU64(resp, "retry_ms", retryMs));
        EXPECT_GT(retryMs, 0u);
    }

    // ...and a retrying client rides out the overload window.
    {
        ClientOptions copts;
        copts.endpoint = opts.endpoint;
        copts.overloadRetries = 20;
        copts.backoffMs = 50;
        Client client(copts);
        ASSERT_TRUE(client.connect(err)) << err;
        JsonObject resp;
        ASSERT_TRUE(
            client.callWithRetry(tinyRequest(63).toJson(), resp, err))
            << err;
        std::string status;
        ASSERT_TRUE(getString(resp, "status", status));
        EXPECT_EQ(status, kStatusOk);
    }

    occupant.join();
    EXPECT_EQ(slowStatus, kStatusOk);
    EXPECT_GE(handler.service().metrics().shed, 1u);
    server.stop();
}
