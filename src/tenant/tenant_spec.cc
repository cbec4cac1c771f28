#include "tenant/tenant_spec.hh"

#include <cctype>
#include <cstdint>

#include "common/parse_uint.hh"
#include "common/text.hh"
#include "workloads/registry.hh"

namespace laperm {
namespace tenant {

namespace {

/** A tenant name: `[tenant.<name>]`. */
bool
validName(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s) {
        if (!std::islower(static_cast<unsigned char>(c)) &&
            !std::isdigit(static_cast<unsigned char>(c)) && c != '_' &&
            c != '-') {
            return false;
        }
    }
    return true;
}

/** Enter the section named by a header line. */
bool
enterSection(const std::string &sec, MixSpec &mix, bool &inMix,
             std::string &why)
{
    inMix = sec == "mix";
    if (inMix)
        return true;
    if (sec.rfind("tenant.", 0) != 0) {
        why = "unknown section " + sec +
              " (only [mix] and [tenant.<name>] are recognized)";
        return false;
    }
    const std::string name = sec.substr(7);
    if (!validName(name)) {
        why = "bad tenant name '" + name + "'";
        return false;
    }
    for (const TenantSpec &t : mix.tenants) {
        if (t.name == name) {
            why = "duplicate tenant '" + name + "'";
            return false;
        }
    }
    mix.tenants.emplace_back();
    mix.tenants.back().name = name;
    return true;
}

bool
setMixKey(MixSpec &mix, const std::string &key, const std::string &value,
          std::string &why)
{
    std::uint64_t v = 0;
    if (key == "name") {
        mix.name = value;
    } else if (key == "quantum") {
        if (!parseUInt(value, UINT64_MAX, v) || v == 0) {
            why = "quantum must be a positive cycle count";
            return false;
        }
        mix.quantum = v;
    } else if (key == "admission_threshold_pct") {
        if (!parseUInt(value, 100, v) || v == 0) {
            why = "admission_threshold_pct must be in 1..100";
            return false;
        }
        mix.admissionThresholdPct = static_cast<std::uint32_t>(v);
    } else if (key == "ewma_shift") {
        if (!parseUInt(value, 16, v)) {
            why = "ewma_shift must be in 0..16";
            return false;
        }
        mix.ewmaShift = static_cast<std::uint32_t>(v);
    } else {
        why = "unknown [mix] key '" + key + "'";
        return false;
    }
    return true;
}

bool
setTenantKey(TenantSpec &t, const std::string &key, const std::string &value,
             std::string &why)
{
    std::uint64_t v = 0;
    if (key == "workload") {
        if (!isKnownWorkload(value)) {
            why = "unknown workload '" + value +
                  "' (known: " + workloadNameList() + ")";
            return false;
        }
        t.workload = value;
    } else if (key == "scale") {
        if (!parseScale(value, t.scale)) {
            why = std::string("scale must be ") + scaleNameList();
            return false;
        }
    } else if (key == "priority") {
        if (!parseUInt(value, 255, v)) {
            why = "priority must be in 0..255";
            return false;
        }
        t.priority = static_cast<std::uint32_t>(v);
    } else if (key == "arrival") {
        if (!parseUInt(value, UINT64_MAX, v)) {
            why = "arrival must be a cycle count";
            return false;
        }
        t.firstArrival = v;
    } else if (key == "period") {
        if (!parseUInt(value, UINT64_MAX, v)) {
            why = "period must be a cycle count";
            return false;
        }
        t.period = v;
    } else if (key == "jobs") {
        if (!parseUInt(value, UINT32_MAX, v) || v == 0) {
            why = "jobs must be a positive 32-bit count";
            return false;
        }
        t.jobs = static_cast<std::uint32_t>(v);
    } else {
        why = "unknown [tenant] key '" + key + "'";
        return false;
    }
    return true;
}

} // namespace

bool
parseMixToml(const std::string &text, MixSpec &out, std::string &err)
{
    // Scratch-then-commit (config_loader discipline): @p out is only
    // written once the whole spec parsed and validated. A key given
    // twice keeps its last value.
    MixSpec mix;
    bool sawHeader = false;
    bool inMix = false;
    const auto entry = [&](const TomlLine &line, std::string &why) {
        if (line.header) {
            sawHeader = true;
            return enterSection(line.key, mix, inMix, why);
        }
        if (!sawHeader) {
            why = "key outside any section";
            return false;
        }
        return inMix ? setMixKey(mix, line.key, line.value, why)
                     : setTenantKey(mix.tenants.back(), line.key,
                                    line.value, why);
    };
    if (!forEachTomlLine(text, entry, err))
        return false;

    if (mix.tenants.empty()) {
        err = "mix has no [tenant.<name>] sections";
        return false;
    }
    for (const TenantSpec &t : mix.tenants) {
        if (t.workload.empty()) {
            err = "tenant '" + t.name + "' has no workload";
            return false;
        }
        if (t.jobs > 1 && t.period == 0) {
            err = "tenant '" + t.name +
                  "' has multiple jobs but no period";
            return false;
        }
    }
    out = std::move(mix);
    return true;
}

bool
loadMixToml(const std::string &path, MixSpec &out, std::string &err)
{
    std::string text;
    if (!readFile(path, text)) {
        err = "cannot open mix spec '" + path + "'";
        return false;
    }
    if (!parseMixToml(text, out, err)) {
        err = path + ": " + err;
        return false;
    }
    if (out.name.empty()) {
        // A file spec without an explicit name inherits its path stem.
        auto slash = path.find_last_of('/');
        std::string stem =
            slash == std::string::npos ? path : path.substr(slash + 1);
        auto dot = stem.rfind(".toml");
        if (dot != std::string::npos)
            stem = stem.substr(0, dot);
        out.name = stem;
    }
    return true;
}

} // namespace tenant
} // namespace laperm
