#include "harness/run_spec.hh"

#include <fstream>
#include <sstream>

#include "common/log.hh"
#include "common/parse_uint.hh"
#include "harness/result_cache.hh"
#include "sim/config_loader.hh"
#include "sim/presets.hh"

namespace laperm {

namespace {

bool
expected(std::string &err, const std::string &what, const std::string &raw)
{
    err = "expected " + what + ", got '" + raw + "'";
    return false;
}

/** Checked `[0-9]+` no greater than @p max, stored times @p unit. */
template <typename T>
bool
setUInt(const std::string &raw, std::uint64_t max, std::uint64_t unit,
        T &out, std::string &err)
{
    std::uint64_t v = 0;
    if (!parseUInt(raw, max, v)) {
        return expected(
            err,
            logFormat("an integer in 0..%llu",
                      static_cast<unsigned long long>(max)),
            raw);
    }
    out = static_cast<T>(v * unit);
    return true;
}

constexpr std::uint64_t kMaxKb = UINT32_MAX / 1024; // bytes fit a u32

// One row per run coordinate; each row is one declaration starting
// `{"key",` so scripts/docs_check.sh can read the flag list.
const RunField kFields[] = {
    {"workload", false,
     [](RunSpec &s, const std::string &raw, std::string &) {
         s.workload = raw;
         return true;
     }},
    {"model", false,
     [](RunSpec &s, const std::string &raw, std::string &err) {
         return parseWireName(raw, s.model) ||
                expected(err, wireNameList<DynParModel>(), raw);
     }},
    {"policy", false,
     [](RunSpec &s, const std::string &raw, std::string &err) {
         return parseWireName(raw, s.policy) ||
                expected(err, wireNameList<TbPolicy>(), raw);
     }},
    {"scale", false,
     [](RunSpec &s, const std::string &raw, std::string &err) {
         return parseScale(raw, s.scale) ||
                expected(err, scaleNameList(), raw);
     }},
    {"seed", true,
     [](RunSpec &s, const std::string &raw, std::string &err) {
         return setUInt(raw, UINT64_MAX, 1, s.seed, err);
     }},
    {"preset", false,
     [](RunSpec &s, const std::string &raw, std::string &err) {
         GpuConfig machine;
         if (!findPreset(raw, machine))
             return expected(err, "one of " + presetNameList(), raw);
         // Whole-machine replacement; the tick mode is a simulator
         // strategy, not machine geometry, so it survives.
         machine.tickMode = s.cfg.tickMode;
         s.cfg = machine;
         s.presetName = raw;
         return true;
     }},
    {"config", false,
     [](RunSpec &s, const std::string &raw, std::string &err) {
         return parseMachineToml(raw, s.cfg, err);
     }},
    {"smx", true,
     [](RunSpec &s, const std::string &raw, std::string &err) {
         return setUInt(raw, UINT32_MAX, 1, s.cfg.numSmx, err);
     }},
    {"l1_kb", true,
     [](RunSpec &s, const std::string &raw, std::string &err) {
         return setUInt(raw, kMaxKb, 1024, s.cfg.l1Size, err);
     }},
    {"l2_kb", true,
     [](RunSpec &s, const std::string &raw, std::string &err) {
         return setUInt(raw, kMaxKb, 1024, s.cfg.l2Size, err);
     }},
    {"levels", true,
     [](RunSpec &s, const std::string &raw, std::string &err) {
         return setUInt(raw, UINT32_MAX, 1, s.cfg.maxPriorityLevels, err);
     }},
    {"cdp_latency", true,
     [](RunSpec &s, const std::string &raw, std::string &err) {
         return setUInt(raw, UINT64_MAX, 1, s.cfg.cdpLaunchLatency, err);
     }},
    {"dtbl_latency", true,
     [](RunSpec &s, const std::string &raw, std::string &err) {
         return setUInt(raw, UINT64_MAX, 1, s.cfg.dtblLaunchLatency, err);
     }},
    {"warp_sched", false,
     [](RunSpec &s, const std::string &raw, std::string &err) {
         return parseWireName(raw, s.cfg.warpPolicy) ||
                expected(err, wireNameList<WarpPolicy>(), raw);
     }},
    {"tenants", false,
     [](RunSpec &s, const std::string &raw, std::string &) {
         s.tenants = raw;
         return true;
     }},
};

/** Set one field, then copy the run coordinates into the machine. */
bool
apply(RunSpec &spec, const RunField &field, const std::string &raw,
      std::string &err)
{
    if (!field.set(spec, raw, err))
        return false;
    spec.cfg.dynParModel = spec.model;
    spec.cfg.tbPolicy = spec.policy;
    spec.cfg.seed = spec.seed;
    return true;
}

} // namespace

std::string
RunSpec::canonical() const
{
    if (!tenants.empty())
        return mixCellCanonical(tenants, presetName, model, policy, seed,
                                cfg);
    return appCellCanonical(workload, model, policy, scale, seed, cfg);
}

std::string
RunSpec::key() const
{
    return contentKey(canonical());
}

std::span<const RunField>
runFields()
{
    return kFields;
}

std::string
runFlagName(const RunField &field)
{
    std::string flag = std::string("--") + field.key;
    for (char &c : flag)
        if (c == '_')
            c = '-';
    return flag;
}

const RunField *
findRunField(const std::string &key)
{
    for (const RunField &f : kFields)
        if (key == f.key)
            return &f;
    return nullptr;
}

const RunField *
findRunFlag(const std::string &flag)
{
    for (const RunField &f : kFields)
        if (flag == runFlagName(f))
            return &f;
    return nullptr;
}

bool
applyRunField(RunSpec &spec, const RunField &field, const std::string &raw,
              std::string &err)
{
    if (apply(spec, field, raw, err))
        return true;
    err = logFormat("'%s': %s", field.key, err.c_str());
    return false;
}

bool
applyRunFlag(RunSpec &spec, const RunField &field, const std::string &value,
             std::string &err)
{
    std::string raw = value;
    std::string where = runFlagName(field);
    if (where == "--config") {
        std::ifstream in(value, std::ios::binary);
        if (!in) {
            err = "--config: cannot read '" + value + "'";
            return false;
        }
        std::ostringstream text;
        text << in.rdbuf();
        raw = text.str();
        where += " " + value;
    }
    if (apply(spec, field, raw, err))
        return true;
    err = where + ": " + err;
    return false;
}

} // namespace laperm
