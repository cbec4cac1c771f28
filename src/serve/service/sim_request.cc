#include "serve/service/sim_request.hh"

#include <algorithm>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "sim/config_loader.hh"
#include "sim/presets.hh"
#include "tenant/mixes.hh"
#include "workloads/registry.hh"

namespace laperm {
namespace serve {

namespace {

// Wire spellings match the laperm_sim CLI so a request is a mechanical
// translation of a command line (and vice versa in serve_smoke.sh).

bool
parseModel(const std::string &s, DynParModel &out)
{
    if (s == "cdp") {
        out = DynParModel::CDP;
        return true;
    }
    if (s == "dtbl") {
        out = DynParModel::DTBL;
        return true;
    }
    return false;
}

bool
parsePolicy(const std::string &s, TbPolicy &out)
{
    if (s == "rr") {
        out = TbPolicy::RR;
        return true;
    }
    if (s == "tbpri") {
        out = TbPolicy::TbPri;
        return true;
    }
    if (s == "smxbind") {
        out = TbPolicy::SmxBind;
        return true;
    }
    if (s == "adaptive" || s == "laperm") {
        out = TbPolicy::AdaptiveBind;
        return true;
    }
    return false;
}

bool
parseScale(const std::string &s, Scale &out)
{
    if (s == "tiny") {
        out = Scale::Tiny;
        return true;
    }
    if (s == "small") {
        out = Scale::Small;
        return true;
    }
    if (s == "full") {
        out = Scale::Full;
        return true;
    }
    if (s == "huge") {
        out = Scale::Huge;
        return true;
    }
    return false;
}

bool
parseWarp(const std::string &s, WarpPolicy &out)
{
    if (s == "gto") {
        out = WarpPolicy::GTO;
        return true;
    }
    if (s == "lrr") {
        out = WarpPolicy::LRR;
        return true;
    }
    if (s == "tbaware") {
        out = WarpPolicy::TbAware;
        return true;
    }
    return false;
}

const char *
wireModel(DynParModel m)
{
    return m == DynParModel::CDP ? "cdp" : "dtbl";
}

const char *
wirePolicy(TbPolicy p)
{
    switch (p) {
    case TbPolicy::RR:
        return "rr";
    case TbPolicy::TbPri:
        return "tbpri";
    case TbPolicy::SmxBind:
        return "smxbind";
    case TbPolicy::AdaptiveBind:
        return "adaptive";
    }
    return "rr";
}

const char *
wireScale(Scale s)
{
    switch (s) {
    case Scale::Tiny:
        return "tiny";
    case Scale::Small:
        return "small";
    case Scale::Full:
        return "full";
    case Scale::Huge:
        return "huge";
    }
    return "small";
}

bool
getU32(const JsonObject &obj, const std::string &key, std::uint32_t &out,
       std::string &err)
{
    std::uint64_t v;
    if (!getU64(obj, key, v) || v > 0xFFFFFFFFull) {
        err = "bad value for '" + key + "'";
        return false;
    }
    out = static_cast<std::uint32_t>(v);
    return true;
}

} // namespace

bool
SimRequest::fromJson(const JsonObject &obj, SimRequest &out,
                     std::string &err)
{
    SimRequest r;
    r.cfg = paperConfig();

    // Machine fields apply in fixed precedence — preset, then config
    // TOML, then single-field shortcuts — independent of JSON field
    // order (JsonObject iterates alphabetically, which would otherwise
    // interleave them).
    std::string s;
    if (obj.count("preset")) {
        const TickMode tick = r.cfg.tickMode;
        if (!getString(obj, "preset", s) || !findPreset(s, r.cfg)) {
            err = "'preset' must be one of: " + presetNameList();
            return false;
        }
        r.cfg.tickMode = tick; // LAPERM_TICK_MODE override survives
        r.presetName = s;
    }
    if (obj.count("config")) {
        if (!getString(obj, "config", s)) {
            err = "'config' must be a string of machine TOML";
            return false;
        }
        std::string toml_err;
        if (!parseMachineToml(s, r.cfg, toml_err)) {
            err = "bad 'config': " + toml_err;
            return false;
        }
    }

    for (const auto &[key, value] : obj) {
        if (key == "op" || key == "preset" || key == "config") {
            continue; // dispatched / already applied above
        } else if (key == "workload") {
            if (!getString(obj, key, r.workload)) {
                err = "'workload' must be a string";
                return false;
            }
        } else if (key == "model") {
            if (!getString(obj, key, s) || !parseModel(s, r.model)) {
                err = "'model' must be cdp|dtbl";
                return false;
            }
        } else if (key == "policy") {
            if (!getString(obj, key, s) || !parsePolicy(s, r.policy)) {
                err = "'policy' must be rr|tbpri|smxbind|adaptive";
                return false;
            }
        } else if (key == "scale") {
            if (!getString(obj, key, s) || !parseScale(s, r.scale)) {
                err = "'scale' must be tiny|small|full|huge";
                return false;
            }
        } else if (key == "warp_sched") {
            if (!getString(obj, key, s) ||
                !parseWarp(s, r.cfg.warpPolicy)) {
                err = "'warp_sched' must be gto|lrr|tbaware";
                return false;
            }
        } else if (key == "trace_dir") {
            if (!getString(obj, key, r.traceDir)) {
                err = "'trace_dir' must be a string";
                return false;
            }
        } else if (key == "tenants") {
            if (!getString(obj, key, r.tenants)) {
                err = "'tenants' must be a string";
                return false;
            }
        } else if (key == "seed") {
            if (!getU64(obj, key, r.seed)) {
                err = "bad value for 'seed'";
                return false;
            }
        } else if (key == "smx") {
            if (!getU32(obj, key, r.cfg.numSmx, err))
                return false;
        } else if (key == "l1_kb") {
            std::uint32_t kb = 0;
            if (!getU32(obj, key, kb, err) || kb > 0x3FFFFFu) {
                err = "bad value for 'l1_kb'";
                return false;
            }
            r.cfg.l1Size = kb * 1024;
        } else if (key == "l2_kb") {
            std::uint32_t kb = 0;
            if (!getU32(obj, key, kb, err) || kb > 0x3FFFFFu) {
                err = "bad value for 'l2_kb'";
                return false;
            }
            r.cfg.l2Size = kb * 1024;
        } else if (key == "levels") {
            if (!getU32(obj, key, r.cfg.maxPriorityLevels, err))
                return false;
        } else if (key == "cdp_latency") {
            if (!getU64(obj, key, r.cfg.cdpLaunchLatency)) {
                err = "bad value for 'cdp_latency'";
                return false;
            }
        } else if (key == "dtbl_latency") {
            if (!getU64(obj, key, r.cfg.dtblLaunchLatency)) {
                err = "bad value for 'dtbl_latency'";
                return false;
            }
        } else {
            err = "unknown request field '" + key + "'";
            return false;
        }
        (void)value;
    }

    r.cfg.dynParModel = r.model;
    r.cfg.tbPolicy = r.policy;
    r.cfg.seed = r.seed;
    out = std::move(r);
    return true;
}

bool
SimRequest::validate(std::string &err) const
{
    if (!tenants.empty()) {
        if (!tenant::isBuiltinMix(tenants)) {
            err = "unknown mix '" + tenants +
                  "' (builtin: " + tenant::mixNameList() + ")";
            return false;
        }
        if (!traceDir.empty()) {
            err = "'trace_dir' is not supported with 'tenants'";
            return false;
        }
        // The mix names its own workloads; the single-app coordinates
        // below still validate so defaults stay sane.
    }
    const std::vector<std::string> &names = workloadNames();
    if (std::find(names.begin(), names.end(), workload) == names.end()) {
        err = "unknown workload '" + workload + "' (known: " +
              workloadNameList() + ")";
        return false;
    }
    const std::string cfgErr = cfg.check();
    if (!cfgErr.empty()) {
        err = cfgErr;
        return false;
    }
    return true;
}

std::string
SimRequest::canonical() const
{
    // The same strings the sweep harness keys its cells by, so a sweep
    // cell and the served request for it are one store entry.
    if (!tenants.empty())
        return mixCellCanonical(tenants, presetName, model, policy, seed,
                                cfg);
    return appCellCanonical(workload, model, policy, scale, seed, cfg);
}

std::string
SimRequest::key() const
{
    return contentKey(canonical());
}

std::string
SimRequest::toJson() const
{
    // The machine travels as one embedded TOML document instead of the
    // legacy per-field shortcuts: lossless for every machine field the
    // shortcuts cannot reach (the parser still accepts the shortcuts
    // from older clients). Default machines skip the field entirely.
    std::string out = logFormat(
        "{\"op\":\"run\",\"workload\":\"%s\",\"model\":\"%s\","
        "\"policy\":\"%s\",\"scale\":\"%s\",\"seed\":%llu",
        jsonEscape(workload).c_str(), wireModel(model),
        wirePolicy(policy), wireScale(scale),
        static_cast<unsigned long long>(seed));
    // Preset travels by name (it is a label in tenant TSV rows) and
    // the machine still travels as TOML: fromJson applies preset first,
    // then config, so a round-trip reproduces both cfg and the label.
    if (presetName != "k20c")
        out += ",\"preset\":\"" + jsonEscape(presetName) + "\"";
    if (machineHash(cfg) != defaultMachineHash())
        out += ",\"config\":\"" + jsonEscape(emitMachineToml(cfg)) + "\"";
    if (!traceDir.empty())
        out += ",\"trace_dir\":\"" + jsonEscape(traceDir) + "\"";
    if (!tenants.empty())
        out += ",\"tenants\":\"" + jsonEscape(tenants) + "\"";
    out += "}";
    return out;
}

} // namespace serve
} // namespace laperm
