#include "sim/config_loader.hh"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <sstream>

#include "common/hash.hh"
#include "common/log.hh"
#include "common/parse_uint.hh"

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

/**
 * Shortest decimal spelling that round-trips exactly through strtod.
 * Gives "0.9" rather than "0.90000000000000002" while still keeping
 * emit -> parse -> emit a byte-identity.
 */
std::string
canonicalDouble(double v)
{
    for (int prec = 1; prec <= 17; ++prec) {
        const std::string s = logFormat("%.*g", prec, v);
        double back = 0.0;
        if (parseDoubleChecked(s, back) && back == v)
            return s;
    }
    return logFormat("%.17g", v);
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
    const char *key;
    const char *doc;
    bool quoted; ///< string-valued in TOML emission (enums, bools stay bare)
    bool (*set)(GpuConfig &, const std::string &, std::string &);
    std::string (*get)(const GpuConfig &);
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
     [](const GpuConfig &c) { return std::to_string(c.MEMBER); }}

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
     [](const GpuConfig &c) { return std::to_string(c.MEMBER); }}

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
     [](const GpuConfig &c) { return canonicalDouble(c.MEMBER); }}

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
     [](const GpuConfig &c) {                                                \
         return std::string(c.MEMBER ? "true" : "false");                    \
     }}

const FieldDef kFields[] = {
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
     [](const GpuConfig &c) { return std::string(wireName(c.warpPolicy)); }},
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
     [](const GpuConfig &c) {
         return std::string(
             c.backupPolicy == BackupPolicy::Random ? "random" : "recorded");
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

const FieldDef *
findField(const std::string &key)
{
    for (const FieldDef &f : kFields)
        if (key == f.key)
            return &f;
    return nullptr;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** Strip one layer of double quotes; false on an unterminated quote. */
bool
unquote(std::string &v)
{
    if (v.size() >= 1 && v[0] == '"') {
        if (v.size() < 2 || v[v.size() - 1] != '"')
            return false;
        v = v.substr(1, v.size() - 2);
    }
    return true;
}

bool
validKey(const std::string &k)
{
    if (k.empty())
        return false;
    for (const char c : k) {
        if (!(c == '_' || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')))
            return false;
    }
    return !(k[0] >= '0' && k[0] <= '9');
}

} // namespace

std::vector<MachineFieldInfo>
machineFields()
{
    std::vector<MachineFieldInfo> out;
    for (const FieldDef &f : kFields)
        out.push_back(MachineFieldInfo{f.key, f.doc});
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

std::string
machineFieldValue(const GpuConfig &cfg, const std::string &key)
{
    const FieldDef *f = findField(key);
    return f ? f->get(cfg) : std::string();
}

bool
parseMachineToml(const std::string &text, GpuConfig &cfg, std::string &err)
{
    GpuConfig scratch = cfg;
    std::set<std::string> seen;
    std::istringstream in(text);
    std::string raw_line;
    int lineno = 0;
    while (std::getline(in, raw_line)) {
        ++lineno;
        // Comments run to end of line; values never contain '#'.
        const std::size_t hash = raw_line.find('#');
        if (hash != std::string::npos)
            raw_line = raw_line.substr(0, hash);
        const std::string line = trim(raw_line);
        if (line.empty())
            continue;
        if (line[0] == '[') {
            if (line != "[machine]") {
                err = logFormat("line %d: unknown section %s (only "
                                "[machine] is recognized)",
                                lineno, line.c_str());
                return false;
            }
            continue;
        }
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos) {
            err = logFormat("line %d: expected 'key = value'", lineno);
            return false;
        }
        const std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        if (!validKey(key)) {
            err = logFormat("line %d: malformed key '%s'", lineno,
                            key.c_str());
            return false;
        }
        if (!seen.insert(key).second) {
            err = logFormat("line %d: duplicate key '%s'", lineno,
                            key.c_str());
            return false;
        }
        if (!unquote(value)) {
            err = logFormat("line %d: unterminated string for '%s'",
                            lineno, key.c_str());
            return false;
        }
        std::string field_err;
        if (!setMachineField(scratch, key, value, field_err)) {
            err = logFormat("line %d: %s", lineno, field_err.c_str());
            return false;
        }
    }
    cfg = scratch;
    return true;
}

std::string
emitMachineToml(const GpuConfig &cfg)
{
    std::string out = "# laperm machine configuration (canonical form)\n"
                      "[machine]\n";
    for (const FieldDef &f : kFields) {
        out += f.key;
        out += " = ";
        if (f.quoted) {
            out += '"';
            out += f.get(cfg);
            out += '"';
        } else {
            out += f.get(cfg);
        }
        out += '\n';
    }
    return out;
}

std::string
canonicalMachine(const GpuConfig &cfg)
{
    std::string out;
    for (const FieldDef &f : kFields) {
        if (!out.empty())
            out += ' ';
        out += f.key;
        out += '=';
        out += f.get(cfg);
    }
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
