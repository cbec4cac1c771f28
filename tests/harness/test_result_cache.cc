#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "sim/config_loader.hh"
#include "sim/presets.hh"

using namespace laperm;

namespace {

std::string
tempDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "laperm_rc_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

ResultRecord
sampleRecord()
{
    ResultRecord r;
    r.workload = "bfs-cage";
    r.model = DynParModel::DTBL;
    r.policy = TbPolicy::AdaptiveBind;
    r.cycles = 123456789ull;
    r.launches = 42;
    r.dynamicTbs = 1000;
    r.bound = 987;
    r.overflows = 3;
    r.kduStalls = 17;
    // Deliberately awkward doubles: full-precision %.17g must
    // round-trip them bit-exactly.
    r.ipc = 1.0 / 3.0;
    r.l1 = 0.1 + 0.2;
    r.l2 = 0.87654321987654321;
    r.util = 2.0 / 7.0;
    r.imbalance = 1e-17;
    return r;
}

} // namespace

TEST(ResultRecordTest, EncodeDecodeRoundTripIsBitExact)
{
    const ResultRecord a = sampleRecord();
    ResultRecord b;
    ASSERT_TRUE(ResultRecord::decode(a.encode(), b));
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.launches, b.launches);
    EXPECT_EQ(a.dynamicTbs, b.dynamicTbs);
    EXPECT_EQ(a.bound, b.bound);
    EXPECT_EQ(a.overflows, b.overflows);
    EXPECT_EQ(a.kduStalls, b.kduStalls);
    // Bit-exact, not approximately equal: the determinism contract.
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.l1, b.l1);
    EXPECT_EQ(a.l2, b.l2);
    EXPECT_EQ(a.util, b.util);
    EXPECT_EQ(a.imbalance, b.imbalance);
    // And therefore every derived rendering matches byte-for-byte.
    EXPECT_EQ(a.csvRow(), b.csvRow());
    EXPECT_EQ(a.encode(), b.encode());
}

TEST(ResultRecordTest, ConfigHashTravelsThroughEncodeAndCsv)
{
    // A default-machine record: encode spells out the default hash,
    // decode recovers it, and the record renders as a legacy row.
    ResultRecord plain = sampleRecord();
    EXPECT_FALSE(plain.customMachine());
    ResultRecord back;
    ASSERT_TRUE(ResultRecord::decode(plain.encode(), back));
    EXPECT_FALSE(back.customMachine());
    EXPECT_EQ(back.csvRow(), plain.csvRow());

    // A v100 record: the machine hash survives the round trip and the
    // extended CSV row carries it as the last column.
    ResultRecord v100 = sampleRecord();
    v100.config = machineHash(presetConfig("v100"));
    EXPECT_TRUE(v100.customMachine());
    ASSERT_TRUE(ResultRecord::decode(v100.encode(), back));
    EXPECT_EQ(back.config, v100.config);
    EXPECT_TRUE(back.customMachine());
    EXPECT_EQ(back.csvRowWithConfig(),
              back.csvRow() + "," + v100.config);
    EXPECT_NE(plain.encode(), v100.encode()); // hashes differ on wire

    // The extended header has exactly one extra column.
    EXPECT_EQ(statsCsvHeaderWithConfig(),
              std::string(statsCsvHeader()) + ",config");
}

TEST(ResultRecordTest, DecodeRejectsMalformedLines)
{
    ResultRecord r;
    EXPECT_FALSE(ResultRecord::decode("", r));
    EXPECT_FALSE(ResultRecord::decode("v2 workload=x", r));
    EXPECT_FALSE(ResultRecord::decode("v1 workload=x", r)); // missing
    std::string full = sampleRecord().encode();
    EXPECT_FALSE(ResultRecord::decode(full + " extra=1", r));
}

TEST(ResultCacheTest, ContentKeyIsStableAndSensitive)
{
    const std::string k1 = contentKey("w=a m=1 p=0 seed=1");
    EXPECT_EQ(k1.size(), 32u); // 128-bit hex
    EXPECT_EQ(k1, contentKey("w=a m=1 p=0 seed=1"));
    EXPECT_NE(k1, contentKey("w=a m=1 p=0 seed=2"));
    EXPECT_NE(k1, contentKey("w=b m=1 p=0 seed=1"));
}

TEST(ResultCacheTest, StoreLoadByContentKey)
{
    const std::string dir = tempDir("keyed");
    ResultCache cache(dir, "fp-test");
    const std::string key = contentKey("some request");
    const std::string payload = sampleRecord().encode();

    std::string out;
    EXPECT_EQ(cache.probe(key, out), ResultCache::Tier::Miss);
    ASSERT_TRUE(cache.store(key, payload));
    ASSERT_NE(cache.probe(key, out), ResultCache::Tier::Miss);
    EXPECT_EQ(out, payload);
}

TEST(ResultCacheTest, FingerprintMismatchIsAMiss)
{
    const std::string dir = tempDir("fp");
    const std::string key = contentKey("req");
    const std::string payload = sampleRecord().encode();

    ResultCache writer(dir, "fp-old");
    ASSERT_TRUE(writer.store(key, payload));

    // Same directory, different simulator build: must self-invalidate.
    ResultCache reader(dir, "fp-new");
    std::string out;
    EXPECT_EQ(reader.probe(key, out), ResultCache::Tier::Miss);

    // The original build still hits, off disk too.
    std::string again;
    ResultCache sameBuild(dir, "fp-old");
    ASSERT_EQ(sameBuild.probe(key, again), ResultCache::Tier::Shared);
    EXPECT_EQ(again, payload);
}

TEST(ResultCacheTest, SweepTsvRoundTrip)
{
    std::vector<RunResult> rows(2);
    rows[0].workload = std::string("bfs-cage");
    rows[0].model = DynParModel::CDP;
    rows[0].policy = TbPolicy::RR;
    rows[0].ipc = 1.0 / 3.0;
    rows[0].l1HitRate = 0.5;
    rows[0].l2HitRate = 0.25;
    rows[0].cycles = 1e6;
    rows[0].smxUtilization = 0.75;
    rows[0].smxImbalance = 0.125;
    rows[0].boundFraction = 0.5;
    rows[0].queueOverflows = 2;
    rows[0].kduFullStalls = 3;
    rows[1] = rows[0];
    rows[1].workload = std::string("bfs-citation");
    rows[1].model = DynParModel::DTBL;
    rows[1].policy = TbPolicy::AdaptiveBind;
    rows[1].ipc = 0.87654321987654321;

    // The laperm_submit --batch table: legacy header, ostream default
    // float formatting (6 significant digits), one row per cell.
    EXPECT_EQ(encodeSweepTsv(rows),
              "# workload model policy ipc l1 l2 cycles util imbalance "
              "bound overflows kduStalls\n"
              "bfs-cage 0 0 0.333333 0.5 0.25 1e+06 0.75 0.125 0.5 2 3\n"
              "bfs-citation 1 3 0.876543 0.5 0.25 1e+06 0.75 0.125 0.5 "
              "2 3\n");
}

TEST(ResultCacheTest, EnvOverridesFingerprintAndDir)
{
    setenv("LAPERM_SIM_FINGERPRINT", "deadbeef", 1);
    EXPECT_EQ(simFingerprint(), "deadbeef");
    unsetenv("LAPERM_SIM_FINGERPRINT");
    EXPECT_NE(simFingerprint(), "deadbeef");
    EXPECT_FALSE(simFingerprint().empty());

    setenv("LAPERM_CACHE_DIR", "/tmp/laperm_rc_env", 1);
    EXPECT_EQ(cacheRootDir(), "/tmp/laperm_rc_env");
    unsetenv("LAPERM_CACHE_DIR");
    EXPECT_EQ(cacheRootDir(), "cache");
}

// -------------------------------------------------------- memory tier

TEST(ResultCacheTest, ProbeDistinguishesMemoryAndSharedTiers)
{
    const std::string dir = tempDir("tiered_probe");
    ResultCache cache(dir, "fp-tier");

    std::string payload;
    EXPECT_EQ(cache.probe("k1", payload), ResultCache::Tier::Miss);

    // A store in THIS process lands in both tiers: hits are Memory.
    ASSERT_TRUE(cache.store("k1", "bytes-1"));
    EXPECT_EQ(cache.probe("k1", payload), ResultCache::Tier::Memory);
    EXPECT_EQ(payload, "bytes-1");
    EXPECT_EQ(cache.memorySize(), 1u);

    // A second cache on the same directory simulates another worker:
    // its first probe comes off disk (Shared) and promotes to memory...
    ResultCache other(dir, "fp-tier");
    payload.clear();
    EXPECT_EQ(other.probe("k1", payload), ResultCache::Tier::Shared);
    EXPECT_EQ(payload, "bytes-1");
    // ...so the SECOND probe is a Memory hit.
    EXPECT_EQ(other.probe("k1", payload), ResultCache::Tier::Memory);
}

TEST(ResultCacheTest, DropMemoryExposesTheSharedTier)
{
    ResultCache cache(tempDir("tiered_drop"), "fp-tier");
    ASSERT_TRUE(cache.store("k1", "payload"));
    ASSERT_EQ(cache.memorySize(), 1u);

    // dropMemory models a worker restart: memory gone, disk intact.
    cache.dropMemory();
    EXPECT_EQ(cache.memorySize(), 0u);
    std::string payload;
    EXPECT_EQ(cache.probe("k1", payload), ResultCache::Tier::Shared);
    EXPECT_EQ(payload, "payload");
}

TEST(ResultCacheTest, FingerprintGatesTheSharedTierOnly)
{
    const std::string dir = tempDir("tiered_fp");
    {
        ResultCache oldBuild(dir, "fp-old");
        ASSERT_TRUE(oldBuild.store("k1", "old-bytes"));
    }
    // A new build's probe must MISS the stale disk entry, not serve it
    // as a Shared hit.
    ResultCache newBuild(dir, "fp-new");
    std::string payload;
    EXPECT_EQ(newBuild.probe("k1", payload), ResultCache::Tier::Miss);
}
