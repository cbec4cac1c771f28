/**
 * @file
 * The bytes of a served cache hit (DESIGN.md §15.3): the content key of
 * a canonical string, the canonical spelling of a machine's doubles,
 * three requests' keys, and the `ok` frame of a stored payload that
 * needs escaping. Each expected value is either a literal or an
 * oracle kept here: the byte-serial two-pass FNV-1a and the "%.*g"
 * loop the program used before it wrote these strings without printf.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "harness/result_cache.hh"
#include "harness/tenant_sweep.hh"
#include "serve/service/protocol.hh"
#include "serve/service/service_handler.hh"
#include "serve/service/sim_request.hh"
#include "sim/config_loader.hh"
#include "tenant/mixes.hh"

using namespace laperm;
using namespace laperm::serve;

namespace {

/** contentKey as two byte-serial FNV-1a passes and printf. */
std::string
twoPassKey(const std::string &s)
{
    std::uint64_t h[2] = {0xcbf29ce484222325ull, 0x9ae16a3b2f90404full};
    for (std::uint64_t &v : h) {
        for (const char c : s) {
            v ^= static_cast<std::uint8_t>(c);
            v *= 0x100000001b3ull;
        }
    }
    return logFormat("%016llx%016llx", static_cast<unsigned long long>(h[0]),
                     static_cast<unsigned long long>(h[1]));
}

/** The smallest "%.*g" precision that round-trips through strtod. */
std::string
printfDouble(double v)
{
    char s[40];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(s, sizeof s, "%.*g", prec, v);
        char *end = nullptr;
        const double back = std::strtod(s, &end);
        if (*end == '\0' && std::isfinite(back) && back == v)
            return s;
    }
    std::snprintf(s, sizeof s, "%.17g", v);
    return s;
}

/** The value after "<key><sep>" in @p text, up to @p stop. */
std::string
valueOf(const std::string &text, const std::string &key, const char *sep,
        char stop)
{
    const std::size_t at = text.find(key + sep);
    if (at == std::string::npos)
        return "<missing " + key + ">";
    const std::size_t from = at + key.size() + std::strlen(sep);
    return text.substr(from, text.find(stop, from) - from);
}

/**
 * The doubles the check runs through the machine renderers: every
 * power of two and its neighbours, zeros, extremes and non-finite
 * values, short decimals, subnormals and random bit patterns.
 */
std::vector<double>
doublesToCheck(std::size_t randomCount)
{
    std::vector<double> out;
    const double extremes[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::epsilon(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        0.9,
        0.7,
        0.1 + 0.2,
    };
    out.insert(out.end(), std::begin(extremes), std::end(extremes));
    for (std::uint64_t sign = 0; sign < 2; ++sign) {
        for (std::uint64_t e = 0; e < 2047; ++e) {
            const std::uint64_t bits = sign << 63 | e << 52;
            out.push_back(std::bit_cast<double>(bits));
            out.push_back(std::bit_cast<double>(bits + 1));
            out.push_back(std::bit_cast<double>(bits - 1));
        }
    }
    // Weighted toward the kinds a config holds: printf of a random bit
    // pattern or a subnormal, at up to 17 precisions, is slow.
    Rng rng(27);
    while (out.size() < randomCount) {
        const std::uint64_t kind = rng.nextBounded(20);
        if (kind == 0) { // any bit pattern
            out.push_back(std::bit_cast<double>(rng.next()));
        } else if (kind == 1) { // a subnormal
            out.push_back(std::bit_cast<double>(
                rng.next() & ((std::uint64_t{1} << 52) - 1)));
        } else if (kind < 7) { // a fraction in [0, 1), as a miss rate is
            out.push_back(rng.nextDouble());
        } else { // a short decimal, as a config file spells one
            out.push_back(static_cast<double>(rng.nextBounded(100000)) /
                          std::pow(10.0, static_cast<double>(
                                             rng.nextBounded(9))));
        }
    }
    return out;
}

/** Parse a request line as the service does. */
SimRequest
requestOf(const std::string &line)
{
    JsonObject obj;
    SimRequest req;
    std::string err;
    EXPECT_TRUE(parseJsonObject(line, obj, err)) << err;
    EXPECT_TRUE(SimRequest::fromJson(obj, req, err)) << err;
    EXPECT_TRUE(req.validate(err)) << err;
    return req;
}

} // namespace

TEST(HitPath, ContentKeyEqualsTwoPassFnv)
{
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
        std::string s(rng.nextBounded(2001), '\0');
        for (char &c : s)
            c = static_cast<char>(rng.nextBounded(256));
        const std::string want = twoPassKey(s);
        ASSERT_EQ(contentKey(s), want) << "length " << s.size();
    }
    EXPECT_EQ(contentKey(""), "cbf29ce4842223259ae16a3b2f90404f");
}

TEST(HitPath, MachineDoublesAreSpelledAsThePrintfLoopSpellsThem)
{
    const std::vector<double> values = doublesToCheck(1000000);
    ASSERT_GE(values.size(), 1000000u);
    GpuConfig cfg;
    for (std::size_t i = 0; i < values.size(); i += 2) {
        cfg.throttleHighMiss = values[i];
        cfg.throttleLowMiss = values[(i + 1) % values.size()];
        const std::string high = printfDouble(cfg.throttleHighMiss);
        const std::string low = printfDouble(cfg.throttleLowMiss);
        const std::string canonical = canonicalMachine(cfg);
        ASSERT_EQ(valueOf(canonical, "throttle_high_miss", "=", ' '), high);
        ASSERT_EQ(valueOf(canonical, "throttle_low_miss", "=", ' '), low);
        const std::string toml = emitMachineToml(cfg);
        ASSERT_EQ(valueOf(toml, "throttle_high_miss", " = ", '\n'), high);
        ASSERT_EQ(valueOf(toml, "throttle_low_miss", " = ", '\n'), low);
    }
}

TEST(HitPath, RequestKeysArePinned)
{
    EXPECT_EQ(requestOf(R"({"op":"run","workload":"bfs-citation"})").key(),
              "c5d800b9548f1a7495ece9023cdc2046");
    EXPECT_EQ(requestOf(R"({"op":"run","workload":"sssp-cage","model":)"
                        R"("dtbl","policy":"adaptive","scale":"small",)"
                        R"("seed":7,"preset":"v100","l1_kb":64})")
                  .key(),
              "b99261c62f10972c999f6c9514c7f456");
    EXPECT_EQ(requestOf(R"({"op":"run","tenants":"duo","policy":"tbpri",)"
                        R"("seed":3})")
                  .key(),
              "6cf8f10d3bc90620d29784be924c8a5a");
}

// A stored payload that needs escaping comes back in one exact frame,
// from the disk tier and then from the memory tier, and the client's
// parse of that frame gives back the payload byte for byte. The
// payload is a duo mix record, spelled as encodeTenantSweepTsv writes
// it (any other spelling fails the service's check of a disk-tier
// record), so its newlines are the bytes the frame escapes; the
// escapes of the other bytes the writer rewrites are pinned on
// appendJsonEscaped's own output.
TEST(HitPath, OkFrameOfAnEscapedPayloadIsPinned)
{
    const std::string dir =
        ::testing::TempDir() + "laperm_hit_path_frame";
    std::filesystem::remove_all(dir);
    const std::string line =
        R"({"op":"run","tenants":"duo","policy":"rr","seed":1})";
    const SimRequest req = requestOf(line);

    std::vector<TenantSweepRow> rows;
    const tenant::MixSpec duo = tenant::builtinMix("duo");
    for (std::size_t i = 0; i < duo.tenants.size(); ++i) {
        TenantSweepRow r;
        r.mix = duo.name;
        r.tenant = duo.tenants[i].name;
        r.tenantId = static_cast<std::uint32_t>(i);
        r.antt = 1.0 / 3.0;
        rows.push_back(r);
    }
    const std::string payload = encodeTenantSweepTsv(rows);
    ASSERT_TRUE(ResultCache(dir, "fp-hit-path").store(req.key(), payload));

    ServiceOptions opts;
    opts.jobs = 1;
    opts.cacheDir = dir;
    opts.fingerprint = "fp-hit-path";
    ServiceHandler handler(opts);
    const std::string want =
        R"({"status":"ok","cached":true,"deduped":false,)"
        R"("key":"976d1950a4b5f8479ea4e0d87e12b475","result":")"
        R"(# mix preset policy tenant tenantId jobs ANTT p50 p95 p99 )"
        R"(retiredTbs mixANTT STP Jain makespan\n)"
        R"(duo k20c 0 graph 0 0 0.33333333333333331 0 0 0 0 0 0 0 0\n)"
        R"(duo k20c 0 batch 1 0 0.33333333333333331 0 0 0 0 0 0 0 0\n"})";
    for (const char *tier : {"disk", "memory"}) {
        const std::string frame = handler.handleLine(line).frame;
        EXPECT_EQ(frame, want) << tier;
        JsonObject reply;
        std::string err, result;
        ASSERT_TRUE(parseJsonObject(frame, reply, err)) << err;
        ASSERT_TRUE(getString(reply, "result", result));
        EXPECT_EQ(result, payload) << tier;
    }
    const ServiceMetrics m = handler.service().metrics();
    EXPECT_EQ(m.cacheSharedHits, 1u);
    EXPECT_EQ(m.cacheMemHits, 1u);
    EXPECT_EQ(m.executed, 0u);
    std::filesystem::remove_all(dir);

    std::string escaped;
    appendJsonEscaped(escaped, "# \"quoted\" back\\slash\r\ttab\n");
    EXPECT_EQ(escaped, R"(# \"quoted\" back\\slash\r\ttab\n)");
}
