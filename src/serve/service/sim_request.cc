#include "serve/service/sim_request.hh"

#include <algorithm>

#include "common/log.hh"
#include "sim/config_loader.hh"
#include "tenant/mixes.hh"
#include "workloads/registry.hh"

namespace laperm {
namespace serve {

bool
SimRequest::fromJson(const JsonObject &obj, SimRequest &out,
                     std::string &err)
{
    SimRequest r;
    auto apply = [&](const std::string &key, const JsonValue &value) {
        const RunField *field = findRunField(key);
        if (!field) {
            err = "unknown request field '" + key + "'";
            return false;
        }
        const JsonValue::Type want = field->number
                                         ? JsonValue::Type::Number
                                         : JsonValue::Type::String;
        if (value.type != want) {
            err = "'" + key + "' must be a " +
                  (field->number ? "number" : "string");
            return false;
        }
        return applyRunField(r, *field, value.str, err);
    };

    // Machine fields apply in fixed precedence — preset, then config
    // TOML, then single-field shortcuts — independent of JSON field
    // order (JsonObject iterates alphabetically, which would otherwise
    // interleave them).
    for (const char *first : {"preset", "config"}) {
        const auto it = obj.find(first);
        if (it != obj.end() && !apply(it->first, it->second))
            return false;
    }
    for (const auto &[key, value] : obj) {
        if (key == "op" || key == "preset" || key == "config")
            continue; // dispatched / already applied above
        if (key == "trace_dir") {
            if (!getString(obj, key, r.traceDir)) {
                err = "'trace_dir' must be a string";
                return false;
            }
        } else if (!apply(key, value)) {
            return false;
        }
    }
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
SimRequest::toJson() const
{
    // The machine travels as one embedded TOML document instead of the
    // legacy per-field shortcuts: lossless for every machine field the
    // shortcuts cannot reach (the parser still accepts the shortcuts
    // from older clients). Default machines skip the field entirely.
    std::string out = logFormat(
        "{\"op\":\"run\",\"workload\":\"%s\",\"model\":\"%s\","
        "\"policy\":\"%s\",\"scale\":\"%s\",\"seed\":%llu",
        jsonEscape(workload).c_str(), wireName(model), wireName(policy),
        toString(scale), static_cast<unsigned long long>(seed));
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
