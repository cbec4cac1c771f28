/**
 * @file
 * A record read off the store's disk tier counts only if it describes
 * the cell it is stored under (DESIGN.md §15.3). A foreign record (one
 * cell's bytes under another cell's key) or a garbled one is a miss
 * for both readers, the sweep and the service: the cell is recomputed
 * and its file overwritten. The same holds for tenant-mix cells, whose
 * records are tenant-sweep rows, for an empty mix record, which would
 * otherwise decode as zero rows, and for a mix record spelled in any
 * way encodeTenantSweepTsv would not write it.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "harness/run_spec.hh"
#include "harness/tenant_sweep.hh"
#include "serve/service/service.hh"
#include "serve/service/sim_request.hh"
#include "sim/presets.hh"
#include "tenant/mixes.hh"
#include "tenant/tenant_manager.hh"
#include "workloads/registry.hh"

using namespace laperm;

namespace {

constexpr std::uint64_t kSeed = 1;
constexpr const char kGarbage[] = "v1 workload=join-uniform ipc=oops";

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "laperm_valid_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** The machine of a k20c sweep cell, with the cell's coordinates. */
GpuConfig
cellConfig(DynParModel model, TbPolicy policy)
{
    GpuConfig cfg = presetConfig("k20c");
    cfg.tickMode = paperConfig().tickMode;
    cfg.dynParModel = model;
    cfg.tbPolicy = policy;
    cfg.seed = kSeed;
    return cfg;
}

/** The encoded record of @p workload run directly on @p cfg. */
std::string
directRecord(const std::string &workload, const GpuConfig &cfg)
{
    auto w = createWorkload(workload);
    w->setup(Scale::Tiny, kSeed);
    return runOneRecord(*w, cfg, std::string()).encode();
}

/**
 * Plant @p payload under join-uniform CDP/RR's sweep key, sweep
 * join-uniform through the store, and expect the true cell back and on
 * disk.
 */
void
expectSweepRecomputes(const std::string &payload, const std::string &name)
{
    const std::string dir = freshDir(name);
    const GpuConfig cfg = cellConfig(DynParModel::CDP, TbPolicy::RR);
    const std::string key = sweepCell({{"workload", "join-uniform"},
                                       {"model", "cdp"},
                                       {"policy", "rr"},
                                       {"scale", "tiny"},
                                       {"seed", "1"}})
                                .key();
    ASSERT_TRUE(ResultCache(dir).store(key, payload));

    setenv("LAPERM_CACHE_DIR", dir.c_str(), 1);
    unsetenv("LAPERM_NO_CACHE");
    const std::vector<RunResult> swept =
        runMatrix({"join-uniform"}, Scale::Tiny, kSeed, true, 2);
    unsetenv("LAPERM_CACHE_DIR");
    const std::vector<RunResult> fresh =
        runMatrix({"join-uniform"}, Scale::Tiny, kSeed, false, 2);
    ASSERT_EQ(swept.size(), 8u);
    EXPECT_EQ(swept[0].workload, "join-uniform");
    EXPECT_EQ(swept, fresh);

    // The planted file now holds the cell's own record.
    std::string stored;
    ResultRecord rec;
    ASSERT_EQ(ResultCache(dir).probe(key, stored), ResultCache::Tier::Shared);
    EXPECT_TRUE(decodeCellRecord(stored, "join-uniform", cfg, rec));
    EXPECT_EQ(stored, directRecord("join-uniform", cfg));
}

/** A bfs-cage request and the service options of these tests. */
serve::SimRequest
bfsRequest()
{
    serve::SimRequest req;
    req.workload = "bfs-cage";
    req.scale = Scale::Tiny;
    req.seed = kSeed;
    req.cfg = paperConfig();
    req.cfg.dynParModel = req.model;
    req.cfg.tbPolicy = req.policy;
    req.cfg.seed = kSeed;
    return req;
}

serve::ServiceOptions
serviceOptions(const std::string &dir)
{
    serve::ServiceOptions o;
    o.jobs = 1;
    o.cacheDir = dir;
    o.fingerprint = "fp-valid";
    return o;
}

/**
 * Plant @p payload under a bfs-cage request's key; the service must
 * simulate the request, answer with the true record, and leave it on
 * disk for the next incarnation.
 */
void
expectServiceRecomputes(const std::string &payload, const std::string &name)
{
    const std::string dir = freshDir(name);
    const serve::SimRequest req = bfsRequest();
    ASSERT_TRUE(ResultCache(dir, "fp-valid").store(req.key(), payload));
    const std::string want = directRecord(req.workload, req.cfg);
    {
        serve::SimService svc(serviceOptions(dir));
        const serve::RunOutcome out = svc.run(req);
        ASSERT_EQ(out.status, serve::RunStatus::Ok) << out.error;
        EXPECT_FALSE(out.cached);
        EXPECT_EQ(out.payload, want);
        const serve::ServiceMetrics m = svc.metrics();
        EXPECT_EQ(m.executed, 1u);
        EXPECT_EQ(m.cacheHits, 0u);
    }
    {
        serve::SimService svc(serviceOptions(dir));
        const serve::RunOutcome out = svc.run(req);
        ASSERT_EQ(out.status, serve::RunStatus::Ok) << out.error;
        EXPECT_TRUE(out.cached);
        EXPECT_EQ(out.payload, want);
        EXPECT_EQ(svc.metrics().cacheSharedHits, 1u);
    }
}

/** The machine of a k20c tenant-sweep cell under @p policy. */
GpuConfig
mixConfig(TbPolicy policy)
{
    GpuConfig cfg = presetConfig("k20c");
    cfg.tickMode = paperConfig().tickMode;
    cfg.tbPolicy = policy;
    cfg.seed = kSeed;
    return cfg;
}

/** The encoded record of @p mix on k20c under @p policy, run directly. */
std::string
directMixRecord(const std::string &mix, TbPolicy policy)
{
    const GpuConfig cfg = mixConfig(policy);
    const tenant::MixStudy study =
        tenant::runMixStudy(tenant::builtinMix(mix), cfg);
    return encodeTenantSweepTsv(
        tenantSweepRows(mix, "k20c", policy, study.metrics));
}

/** The key of duo's k20c tenant-sweep cell under RR. */
std::string
duoCellKey()
{
    return sweepCell({{"tenants", "duo"}, {"policy", "rr"}, {"seed", "1"}})
        .key();
}

/**
 * Plant @p payload under duo/k20c/RR's tenant-sweep key, sweep duo on
 * k20c through the store, and expect the true cell back and on disk.
 */
void
expectMixSweepRecomputes(const std::string &payload,
                         const std::string &name)
{
    const std::string dir = freshDir(name);
    const std::string key = duoCellKey();
    ASSERT_TRUE(ResultCache(dir).store(key, payload));

    setenv("LAPERM_CACHE_DIR", dir.c_str(), 1);
    unsetenv("LAPERM_NO_CACHE");
    const std::vector<TenantSweepRow> swept =
        runTenantSweep({"duo"}, {"k20c"}, kSeed, true, 2);
    unsetenv("LAPERM_CACHE_DIR");
    const std::vector<TenantSweepRow> fresh =
        runTenantSweep({"duo"}, {"k20c"}, kSeed, false, 2);
    ASSERT_EQ(swept.size(), 8u); // 2 tenants x 4 policies
    EXPECT_EQ(encodeTenantSweepTsv(swept), encodeTenantSweepTsv(fresh));

    std::string stored;
    ASSERT_EQ(ResultCache(dir).probe(key, stored), ResultCache::Tier::Shared);
    EXPECT_EQ(stored, directMixRecord("duo", TbPolicy::RR));
}

/** A served `tenants` request for duo under RR. */
serve::SimRequest
duoRequest()
{
    serve::SimRequest req;
    req.tenants = "duo";
    req.seed = kSeed;
    req.cfg = paperConfig();
    req.cfg.dynParModel = req.model;
    req.cfg.tbPolicy = req.policy;
    req.cfg.seed = kSeed;
    return req;
}

/**
 * Plant @p payload under the duo request's key; the service must
 * simulate the mix, answer with the true record, and leave it on disk
 * for the next incarnation.
 */
void
expectMixServiceRecomputes(const std::string &payload,
                           const std::string &name)
{
    const std::string dir = freshDir(name);
    const serve::SimRequest req = duoRequest();
    std::string err;
    ASSERT_TRUE(req.validate(err)) << err;
    ASSERT_TRUE(ResultCache(dir, "fp-valid").store(req.key(), payload));
    const std::string want = directMixRecord("duo", TbPolicy::RR);
    {
        serve::SimService svc(serviceOptions(dir));
        const serve::RunOutcome out = svc.run(req);
        ASSERT_EQ(out.status, serve::RunStatus::Ok) << out.error;
        EXPECT_FALSE(out.cached);
        EXPECT_EQ(out.payload, want);
        EXPECT_EQ(svc.metrics().executed, 1u);
    }
    {
        serve::SimService svc(serviceOptions(dir));
        const serve::RunOutcome out = svc.run(req);
        ASSERT_EQ(out.status, serve::RunStatus::Ok) << out.error;
        EXPECT_TRUE(out.cached);
        EXPECT_EQ(out.payload, want);
        EXPECT_EQ(svc.metrics().cacheSharedHits, 1u);
    }
}

/** The records planted under duo/k20c/RR's key, by test-name suffix. */
struct MixPlant
{
    const char *name;
    std::string payload;
};

std::vector<MixPlant>
mixPlants()
{
    return {
        {"other_mix", directMixRecord("quad", TbPolicy::RR)},
        {"other_policy", directMixRecord("duo", TbPolicy::TbPri)},
        {"garbage", kGarbage},
        {"empty", ""},
    };
}

/**
 * duo/k20c/RR's own rows, each spelled in a way encodeTenantSweepTsv
 * would not write them; the rows still parse field by field.
 */
std::vector<MixPlant>
respelledMixPlants()
{
    const std::string rec = directMixRecord("duo", TbPolicy::RR);
    const std::size_t header = rec.find('\n') + 1;
    const std::size_t rowEnd = rec.find('\n', header);
    const std::string row = rec.substr(header, rowEnd - header);
    const std::string rest = rec.substr(rowEnd);
    // Field 5 is the tenant's job count.
    std::size_t jobs = header;
    for (int i = 0; i < 5; ++i)
        jobs = rec.find(' ', jobs) + 1;
    std::string tabbed = row;
    tabbed[tabbed.find(' ')] = '\t';
    return {
        {"trailing_junk", rec.substr(0, rowEnd) + " junk" + rest},
        {"no_header", rec.substr(header)},
        {"tab", rec.substr(0, header) + tabbed + rest},
        {"leading_zero", rec.substr(0, jobs) + "0" + rec.substr(jobs)},
        {"comment_and_blank",
         rec.substr(0, header) + "# note\n\n" + rec.substr(header)},
    };
}

} // namespace

TEST(RecordValidation, DecodeCellRecordChecksEveryCoordinate)
{
    const GpuConfig cfg = cellConfig(DynParModel::DTBL, TbPolicy::SmxBind);
    const std::string rec = directRecord("bfs-cage", cfg);
    ResultRecord out;
    EXPECT_TRUE(decodeCellRecord(rec, "bfs-cage", cfg, out));
    EXPECT_FALSE(decodeCellRecord(rec, "bfs-citation", cfg, out));
    GpuConfig other = cfg;
    other.dynParModel = DynParModel::CDP;
    EXPECT_FALSE(decodeCellRecord(rec, "bfs-cage", other, out));
    other = cfg;
    other.tbPolicy = TbPolicy::TbPri;
    EXPECT_FALSE(decodeCellRecord(rec, "bfs-cage", other, out));
    other = presetConfig("v100");
    other.dynParModel = cfg.dynParModel;
    other.tbPolicy = cfg.tbPolicy;
    EXPECT_FALSE(decodeCellRecord(rec, "bfs-cage", other, out));
    EXPECT_FALSE(decodeCellRecord(kGarbage, "join-uniform", cfg, out));
}

TEST(RecordValidation, SweepRecomputesAForeignRecord)
{
    expectSweepRecomputes(
        directRecord("bfs-cage",
                     cellConfig(DynParModel::CDP, TbPolicy::RR)),
        "sweep_foreign");
}

// A sweep over a store that only the disk tier holds (each sweep
// starts with an empty memory tier) reads every cell back as the cold
// sweep computed it, and rewrites no record.
TEST(RecordValidation, DiskOnlySweepEqualsColdSweep)
{
    const std::string dir = freshDir("sweep_disk_only");
    const std::vector<std::string> names = {"join-uniform", "bfs-cage"};
    setenv("LAPERM_CACHE_DIR", dir.c_str(), 1);
    unsetenv("LAPERM_NO_CACHE");
    const std::vector<RunResult> cold =
        runMatrix(names, Scale::Tiny, kSeed, true, 2);
    std::map<std::string, std::filesystem::file_time_type> written;
    for (const auto &e :
         std::filesystem::directory_iterator(dir + "/results")) {
        written[e.path().string()] = e.last_write_time();
    }
    const std::vector<RunResult> warm =
        runMatrix(names, Scale::Tiny, kSeed, true, 2);
    unsetenv("LAPERM_CACHE_DIR");
    ASSERT_EQ(cold.size(), 16u);
    ASSERT_EQ(written.size(), 16u);
    EXPECT_EQ(warm, cold);
    EXPECT_EQ(runMatrix(names, Scale::Tiny, kSeed, false, 2), cold);
    for (const auto &[path, time] : written)
        EXPECT_EQ(std::filesystem::last_write_time(path), time) << path;
}

TEST(RecordValidation, SweepRecomputesAGarbageRecord)
{
    expectSweepRecomputes(kGarbage, "sweep_garbage");
}

TEST(RecordValidation, ServiceRecomputesAForeignRecord)
{
    const serve::SimRequest req = bfsRequest();
    expectServiceRecomputes(directRecord("join-uniform", req.cfg),
                            "service_foreign");
}

TEST(RecordValidation, ServiceRecomputesAGarbageRecord)
{
    expectServiceRecomputes(kGarbage, "service_garbage");
}

TEST(RecordValidation, DecodeMixRecordChecksEveryRow)
{
    const tenant::MixSpec duo = tenant::builtinMix("duo");
    const std::string rec = directMixRecord("duo", TbPolicy::RR);
    std::vector<TenantSweepRow> rows;
    ASSERT_TRUE(decodeMixRecord(rec, duo, "k20c", TbPolicy::RR, rows));
    EXPECT_EQ(rows.size(), duo.tenants.size());
    EXPECT_FALSE(decodeMixRecord(rec, duo, "v100", TbPolicy::RR, rows));
    EXPECT_FALSE(decodeMixRecord(rec, duo, "k20c", TbPolicy::TbPri, rows));
    EXPECT_FALSE(decodeMixRecord(rec, tenant::builtinMix("quad"), "k20c",
                                 TbPolicy::RR, rows));
    // One row short, or the rows out of tenant order.
    const std::size_t nl = rec.rfind('\n', rec.size() - 2);
    EXPECT_FALSE(decodeMixRecord(rec.substr(0, nl + 1), duo, "k20c",
                                 TbPolicy::RR, rows));
    const std::size_t header = rec.find('\n') + 1;
    const std::string swapped = rec.substr(0, header) +
                                rec.substr(nl + 1) +
                                rec.substr(header, nl + 1 - header);
    EXPECT_FALSE(
        decodeMixRecord(swapped, duo, "k20c", TbPolicy::RR, rows));
    EXPECT_FALSE(decodeMixRecord(kGarbage, duo, "k20c", TbPolicy::RR, rows));
    EXPECT_FALSE(decodeMixRecord("", duo, "k20c", TbPolicy::RR, rows));
}

TEST(RecordValidation, MixSweepRecomputesForeignGarbageAndEmptyRecords)
{
    for (const MixPlant &p : mixPlants()) {
        SCOPED_TRACE(p.name);
        expectMixSweepRecomputes(p.payload,
                                 std::string("mix_sweep_") + p.name);
    }
}

TEST(RecordValidation, MixServiceRecomputesForeignGarbageAndEmptyRecords)
{
    for (const MixPlant &p : mixPlants()) {
        SCOPED_TRACE(p.name);
        expectMixServiceRecomputes(p.payload,
                                   std::string("mix_service_") + p.name);
    }
}

TEST(RecordValidation, MixRecordDecodesOnlyAsEncodeWritesIt)
{
    const tenant::MixSpec duo = tenant::builtinMix("duo");
    std::vector<TenantSweepRow> rows;
    ASSERT_TRUE(decodeMixRecord(directMixRecord("duo", TbPolicy::RR), duo,
                                "k20c", TbPolicy::RR, rows));
    for (const MixPlant &p : respelledMixPlants()) {
        EXPECT_FALSE(decodeTenantSweepTsv(p.payload, rows)) << p.name;
        EXPECT_FALSE(
            decodeMixRecord(p.payload, duo, "k20c", TbPolicy::RR, rows))
            << p.name;
    }
}

TEST(RecordValidation, MixSweepRecomputesRespelledRecords)
{
    for (const MixPlant &p : respelledMixPlants()) {
        SCOPED_TRACE(p.name);
        expectMixSweepRecomputes(p.payload,
                                 std::string("mix_sweep_") + p.name);
    }
}

TEST(RecordValidation, MixServiceRecomputesRespelledRecords)
{
    for (const MixPlant &p : respelledMixPlants()) {
        SCOPED_TRACE(p.name);
        expectMixServiceRecomputes(p.payload,
                                   std::string("mix_service_") + p.name);
    }
}

// The canonical record is a hit: the sweep reads it back and leaves
// the file as it was.
TEST(RecordValidation, MixSweepHitsTheCanonicalRecord)
{
    const std::string dir = freshDir("mix_sweep_canonical");
    const std::string key = duoCellKey();
    ASSERT_TRUE(
        ResultCache(dir).store(key, directMixRecord("duo", TbPolicy::RR)));
    const std::string path = dir + "/results/" + key + ".rec";
    const auto written = std::filesystem::last_write_time(path);

    setenv("LAPERM_CACHE_DIR", dir.c_str(), 1);
    unsetenv("LAPERM_NO_CACHE");
    const std::vector<TenantSweepRow> swept =
        runTenantSweep({"duo"}, {"k20c"}, kSeed, true, 2);
    unsetenv("LAPERM_CACHE_DIR");
    EXPECT_EQ(encodeTenantSweepTsv(swept),
              encodeTenantSweepTsv(
                  runTenantSweep({"duo"}, {"k20c"}, kSeed, false, 2)));
    EXPECT_EQ(std::filesystem::last_write_time(path), written);
}
