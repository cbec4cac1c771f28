#include "sim/config_loader.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <string_view>

#include "common/hash.hh"
#include "common/log.hh"
#include "common/parse_uint.hh"
#include "common/text.hh"

namespace laperm {
namespace {

// ---------------------------------------------------------------------
// Checked scalar parsers. The config surface is user-supplied (files,
// service requests), so every conversion rejects junk and overflow
// instead of truncating the way a bare strtoul would (integers go
// through common/parse_uint.hh).
// ---------------------------------------------------------------------

bool
parseDoubleChecked(const std::string &raw, double &out)
{
    if (raw.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(raw.c_str(), &end);
    if (end != raw.c_str() + raw.size())
        return false;
    if (!std::isfinite(v))
        return false;
    out = v;
    return true;
}

// ---------------------------------------------------------------------
// Value writers. Each writes a canonical spelling into the caller's
// buffer and returns its end, so no value becomes a string of its own
// and printf formats none of them.
// ---------------------------------------------------------------------

/**
 * Most characters a value writer writes: 20 digits of a 64-bit
 * integer, or 24 of a double ("-2.2250738585072014e-308").
 */
constexpr std::size_t kMaxValueChars = 32;

char *
writeText(char *p, const char *text)
{
    const std::size_t n = std::strlen(text);
    std::memcpy(p, text, n);
    return p + n;
}

/** The decimal digits of @p v (std::to_string's spelling). */
char *
writeUInt(char *p, std::uint64_t v)
{
    return std::to_chars(p, p + kMaxValueChars, v).ptr;
}

/**
 * The shortest decimal spelling that round-trips exactly through
 * strtod: "0.9" rather than "0.90000000000000002", so emit -> parse ->
 * emit is a byte-identity. It is the "%.*g" of the smallest precision
 * that round-trips; the shortest round-trip form of to_chars
 * (scientific) has that many digits. A power of two is the exception:
 * its rounding interval is narrower below it than above, so the
 * nearest decimal of that many digits may not round-trip, and the
 * precision grows until it does.
 */
char *
writeCanonicalDouble(char *p, double v)
{
    char *const end = p + kMaxValueChars;
    char *q = std::to_chars(p, end, v, std::chars_format::scientific).ptr;
    int digits = 0;
    for (const char *c = p; c != q && *c != 'e'; ++c)
        digits += *c >= '0' && *c <= '9';
    q = std::to_chars(p, end, v, std::chars_format::general, digits).ptr;
    int exp = 0;
    if (std::isnormal(v) && std::fabs(std::frexp(v, &exp)) == 0.5) {
        double back = 0.0;
        std::from_chars(p, q, back);
        while (back != v && digits < 17) {
            q = std::to_chars(p, end, v, std::chars_format::general,
                              ++digits)
                    .ptr;
            std::from_chars(p, q, back);
        }
    }
    return q;
}

std::string
badValue(const char *key, const char *expect, const std::string &raw)
{
    return logFormat("'%s': expected %s, got '%s'", key, expect,
                     raw.c_str());
}

// ---------------------------------------------------------------------
// Field registry. One row per machine field; the macros keep each row a
// single declaration so docs_check/grep can see the whole key list.
// ---------------------------------------------------------------------

struct FieldDef
{
    std::string_view key;
    const char *doc;
    bool quoted; ///< string-valued in TOML emission (enums, bools stay bare)
    bool (*set)(GpuConfig &, const std::string &, std::string &);
    /**
     * Write the value's canonical spelling, unquoted, at the pointer
     * (at most kMaxValueChars) and return its end. The one formatter
     * of machine values: canonicalMachine() and emitMachineToml()
     * both spell a value through it.
     */
    char *(*write)(const GpuConfig &, char *);
};

#define LAPERM_FIELD_U32(KEY, MEMBER, DOC)                                   \
    {KEY, DOC, false,                                                        \
     [](GpuConfig &c, const std::string &raw, std::string &err) {            \
         std::uint64_t v = 0;                                                \
         if (!parseUInt(raw, UINT32_MAX, v)) {                               \
             err = badValue(KEY, "unsigned 32-bit integer", raw);            \
             return false;                                                   \
         }                                                                   \
         c.MEMBER = static_cast<std::uint32_t>(v);                           \
         return true;                                                        \
     },                                                                      \
     [](const GpuConfig &c, char *p) { return writeUInt(p, c.MEMBER); }}

#define LAPERM_FIELD_U64(KEY, MEMBER, DOC)                                   \
    {KEY, DOC, false,                                                        \
     [](GpuConfig &c, const std::string &raw, std::string &err) {            \
         std::uint64_t v = 0;                                                \
         if (!parseUInt(raw, UINT64_MAX, v)) {                               \
             err = badValue(KEY, "unsigned 64-bit integer", raw);            \
             return false;                                                   \
         }                                                                   \
         c.MEMBER = v;                                                       \
         return true;                                                        \
     },                                                                      \
     [](const GpuConfig &c, char *p) { return writeUInt(p, c.MEMBER); }}

#define LAPERM_FIELD_DBL(KEY, MEMBER, DOC)                                   \
    {KEY, DOC, false,                                                        \
     [](GpuConfig &c, const std::string &raw, std::string &err) {            \
         double v = 0.0;                                                     \
         if (!parseDoubleChecked(raw, v)) {                                  \
             err = badValue(KEY, "finite real number", raw);                 \
             return false;                                                   \
         }                                                                   \
         c.MEMBER = v;                                                       \
         return true;                                                        \
     },                                                                      \
     [](const GpuConfig &c, char *p) {                                       \
         return writeCanonicalDouble(p, c.MEMBER);                           \
     }}

#define LAPERM_FIELD_BOOL(KEY, MEMBER, DOC)                                  \
    {KEY, DOC, false,                                                        \
     [](GpuConfig &c, const std::string &raw, std::string &err) {            \
         if (raw == "true") {                                                \
             c.MEMBER = true;                                                \
             return true;                                                    \
         }                                                                   \
         if (raw == "false") {                                               \
             c.MEMBER = false;                                               \
             return true;                                                    \
         }                                                                   \
         err = badValue(KEY, "true|false", raw);                             \
         return false;                                                       \
     },                                                                      \
     [](const GpuConfig &c, char *p) {                                       \
         return writeText(p, c.MEMBER ? "true" : "false");                   \
     }}

constexpr FieldDef kFields[] = {
    // --- Compute resources ---
    LAPERM_FIELD_U32("num_smx", numSmx, "streaming multiprocessors"),
    LAPERM_FIELD_U32("max_threads_per_smx", maxThreadsPerSmx,
                     "resident thread limit per SMX"),
    LAPERM_FIELD_U32("max_tbs_per_smx", maxTbsPerSmx,
                     "resident thread-block limit per SMX"),
    LAPERM_FIELD_U32("regs_per_smx", regsPerSmx, "register file entries"),
    LAPERM_FIELD_U32("smem_per_smx", smemPerSmx, "shared memory bytes"),
    LAPERM_FIELD_U32("warp_schedulers_per_smx", warpSchedulersPerSmx,
                     "warp schedulers per SMX"),
    {"warp_sched", "warp scheduling policy: gto|lrr|tbaware", true,
     [](GpuConfig &c, const std::string &raw, std::string &err) {
         if (parseWireName(raw, c.warpPolicy))
             return true;
         err = badValue("warp_sched", wireNameList<WarpPolicy>().c_str(),
                        raw);
         return false;
     },
     [](const GpuConfig &c, char *p) {
         return writeText(p, wireName(c.warpPolicy));
     }},
    LAPERM_FIELD_U32("smx_per_cluster", smxPerCluster,
                     "SMXs sharing one L1 cluster"),

    // --- Memory hierarchy ---
    LAPERM_FIELD_U32("l1_size", l1Size, "L1 data cache bytes per cluster"),
    LAPERM_FIELD_U32("l1_assoc", l1Assoc, "L1 associativity"),
    LAPERM_FIELD_U64("l1_hit_latency", l1HitLatency, "L1 hit cycles"),
    LAPERM_FIELD_U32("l2_size", l2Size, "shared L2 cache bytes"),
    LAPERM_FIELD_U32("l2_assoc", l2Assoc, "L2 associativity"),
    LAPERM_FIELD_U32("l2_banks", l2Banks, "L2 banks"),
    LAPERM_FIELD_U64("l2_hit_latency", l2HitLatency,
                     "load-to-use cycles on L1 miss / L2 hit"),
    LAPERM_FIELD_U64("l2_service_interval", l2ServiceInterval,
                     "per-bank occupancy cycles per L2 access"),
    LAPERM_FIELD_U32("dram_channels", dramChannels, "DRAM channels"),
    LAPERM_FIELD_U32("dram_banks_per_channel", dramBanksPerChannel,
                     "DRAM banks per channel"),
    LAPERM_FIELD_U64("dram_latency", dramLatency,
                     "extra cycles beyond L2 on miss"),
    LAPERM_FIELD_U64("dram_service_interval", dramServiceInterval,
                     "per-bank occupancy cycles per 128B access"),
    LAPERM_FIELD_U64("mshr_trim_interval", mshrTrimInterval,
                     "cycles between MSHR garbage-collection sweeps"),
    LAPERM_FIELD_U32("mshr_trim_watermark", mshrTrimWatermark,
                     "MSHR count below which a trim sweep is skipped"),

    // --- Kernel management and execution timing ---
    LAPERM_FIELD_U32("kdu_entries", kduEntries,
                     "kernel distributor entries (max concurrent kernels)"),
    LAPERM_FIELD_U64("bar_latency", barLatency,
                     "TB barrier release cycles"),
    LAPERM_FIELD_U64("launch_issue_cycles", launchIssueCycles,
                     "SMX-side cost of issuing a device launch"),
    LAPERM_FIELD_U32("warp_mlp_window", warpMlpWindow,
                     "independent loads issued before a warp stalls"),

    // --- Dynamic parallelism launch costs ---
    LAPERM_FIELD_U64("cdp_launch_latency", cdpLaunchLatency,
                     "CDP device-kernel launch cycles"),
    LAPERM_FIELD_U64("dtbl_launch_latency", dtblLaunchLatency,
                     "DTBL TB-group launch cycles"),

    // --- LaPerm scheduler hardware ---
    LAPERM_FIELD_U32("max_priority_levels", maxPriorityLevels,
                     "nested-launch priority level clamp L"),
    LAPERM_FIELD_U32("onchip_queue_entries", onchipQueueEntries,
                     "on-chip priority-queue entries per SMX"),
    LAPERM_FIELD_U32("shared_queue_entries", sharedQueueEntries,
                     "shared level-0 queue entries"),
    LAPERM_FIELD_U64("overflow_fetch_latency", overflowFetchLatency,
                     "cycles to fetch an overflowed queue entry"),
    {"backup_policy", "Adaptive-Bind stage-3 policy: recorded|random", true,
     [](GpuConfig &c, const std::string &raw, std::string &err) {
         if (raw == "recorded") {
             c.backupPolicy = BackupPolicy::Recorded;
             return true;
         }
         if (raw == "random") {
             c.backupPolicy = BackupPolicy::Random;
             return true;
         }
         err = badValue("backup_policy", "recorded|random", raw);
         return false;
     },
     [](const GpuConfig &c, char *p) {
         return writeText(p, c.backupPolicy == BackupPolicy::Random
                                 ? "random"
                                 : "recorded");
     }},

    // --- Contention-based TB throttling ---
    LAPERM_FIELD_BOOL("tb_throttle", tbThrottleEnabled,
                      "enable L1-contention TB throttling"),
    LAPERM_FIELD_U64("throttle_window", throttleWindow,
                     "L1 accesses between throttle evaluations"),
    LAPERM_FIELD_DBL("throttle_high_miss", throttleHighMiss,
                     "miss rate above which residency shrinks"),
    LAPERM_FIELD_DBL("throttle_low_miss", throttleLowMiss,
                     "miss rate below which residency grows back"),
    LAPERM_FIELD_U32("throttle_min_tbs", throttleMinTbs,
                     "floor on throttled TB residency"),
};

#undef LAPERM_FIELD_U32
#undef LAPERM_FIELD_U64
#undef LAPERM_FIELD_DBL
#undef LAPERM_FIELD_BOOL

/** Room for canonicalMachine(): each key, '=', a value and a space. */
constexpr std::size_t kCanonicalChars = [] {
    std::size_t n = 0;
    for (const FieldDef &f : kFields)
        n += f.key.size() + 2 + kMaxValueChars;
    return n;
}();

const FieldDef *
findField(const std::string &key)
{
    for (const FieldDef &f : kFields)
        if (key == f.key)
            return &f;
    return nullptr;
}

} // namespace

std::vector<MachineFieldInfo>
machineFields()
{
    std::vector<MachineFieldInfo> out;
    for (const FieldDef &f : kFields)
        out.push_back(MachineFieldInfo{f.key.data(), f.doc});
    return out;
}

bool
setMachineField(GpuConfig &cfg, const std::string &key,
                const std::string &raw, std::string &err)
{
    const FieldDef *f = findField(key);
    if (!f) {
        err = logFormat("unknown machine config key '%s'", key.c_str());
        return false;
    }
    return f->set(cfg, raw, err);
}

bool
parseMachineToml(const std::string &text, GpuConfig &cfg, std::string &err)
{
    GpuConfig scratch = cfg;
    std::set<std::string> seen;
    const auto entry = [&](const TomlLine &line, std::string &why) {
        if (line.header) {
            if (line.key == "machine")
                return true;
            why = "unknown section [" + line.key +
                  "] (only [machine] is recognized)";
            return false;
        }
        if (!seen.insert(line.key).second) {
            why = "duplicate key '" + line.key + "'";
            return false;
        }
        return setMachineField(scratch, line.key, line.value, why);
    };
    if (!forEachTomlLine(text, entry, err))
        return false;
    cfg = scratch;
    return true;
}

std::string
emitMachineToml(const GpuConfig &cfg)
{
    std::string out = "# laperm machine configuration (canonical form)\n"
                      "[machine]\n";
    for (const FieldDef &f : kFields) {
        char value[kMaxValueChars];
        out += f.key;
        out += f.quoted ? " = \"" : " = ";
        out.append(value, f.write(cfg, value));
        out += f.quoted ? "\"\n" : "\n";
    }
    return out;
}

void
appendCanonicalMachine(std::string &out, const GpuConfig &cfg)
{
    // Written on the stack and appended once: a std::string append is
    // a call into the library, and three per field cost more than the
    // digits do.
    char buf[kCanonicalChars];
    char *p = buf;
    for (const FieldDef &f : kFields) {
        if (p != buf)
            *p++ = ' ';
        p = std::copy(f.key.begin(), f.key.end(), p);
        *p++ = '=';
        p = f.write(cfg, p);
    }
    out.append(buf, p);
}

std::string
canonicalMachine(const GpuConfig &cfg)
{
    std::string out;
    appendCanonicalMachine(out, cfg);
    return out;
}

std::string
machineHash(const GpuConfig &cfg)
{
    return contentKey(canonicalMachine(cfg));
}

const std::string &
defaultMachineHash()
{
    static const std::string hash = machineHash(GpuConfig());
    return hash;
}

} // namespace laperm
