#include "tenant/tenant_spec.hh"

#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/log.hh"
#include "common/parse_uint.hh"
#include "workloads/registry.hh"

namespace laperm {
namespace tenant {

namespace {

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** Strip an optional matched pair of double quotes. */
std::string
unquote(const std::string &s)
{
    if (s.size() >= 2 && s.front() == '"' && s.back() == '"')
        return s.substr(1, s.size() - 2);
    return s;
}

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

std::string
lineErr(int line, const std::string &msg)
{
    return "line " + std::to_string(line) + ": " + msg;
}

} // namespace

bool
parseMixToml(const std::string &text, MixSpec &out, std::string &err)
{
    // Scratch-then-commit (config_loader discipline): @p out is only
    // written once the whole spec parsed and validated.
    MixSpec mix;
    enum class Section
    {
        None,
        Mix,
        Tenant,
    };
    Section section = Section::None;
    TenantSpec *cur = nullptr;
    bool sawPeriod = false;

    std::istringstream in(text);
    std::string raw;
    int lineNo = 0;
    while (std::getline(in, raw)) {
        ++lineNo;
        std::string line = raw;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;

        if (line.front() == '[') {
            if (line.back() != ']') {
                err = lineErr(lineNo, "unterminated section header");
                return false;
            }
            std::string sec = trim(line.substr(1, line.size() - 2));
            if (sec == "mix") {
                section = Section::Mix;
                cur = nullptr;
                continue;
            }
            if (sec.rfind("tenant.", 0) == 0) {
                std::string name = sec.substr(7);
                if (!validName(name)) {
                    err = lineErr(lineNo,
                                  "bad tenant name '" + name + "'");
                    return false;
                }
                for (const TenantSpec &t : mix.tenants) {
                    if (t.name == name) {
                        err = lineErr(lineNo, "duplicate tenant '" +
                                                  name + "'");
                        return false;
                    }
                }
                mix.tenants.emplace_back();
                cur = &mix.tenants.back();
                cur->name = name;
                section = Section::Tenant;
                sawPeriod = false;
                continue;
            }
            err = lineErr(lineNo, "unknown section " + sec +
                                      " (only [mix] and [tenant.<name>] "
                                      "are recognized)");
            return false;
        }

        auto eq = line.find('=');
        if (eq == std::string::npos) {
            err = lineErr(lineNo, "expected key = value");
            return false;
        }
        const std::string key = trim(line.substr(0, eq));
        const std::string value = unquote(trim(line.substr(eq + 1)));
        if (!validName(key)) {
            err = lineErr(lineNo, "bad key '" + key + "'");
            return false;
        }

        if (section == Section::Mix) {
            std::uint64_t v = 0;
            if (key == "name") {
                mix.name = value;
            } else if (key == "quantum") {
                if (!parseUInt(value, UINT64_MAX, v) || v == 0) {
                    err = lineErr(lineNo, "quantum must be a positive "
                                          "cycle count");
                    return false;
                }
                mix.quantum = v;
            } else if (key == "admission_threshold_pct") {
                if (!parseUInt(value, 100, v) || v == 0) {
                    err = lineErr(lineNo, "admission_threshold_pct must "
                                          "be in 1..100");
                    return false;
                }
                mix.admissionThresholdPct =
                    static_cast<std::uint32_t>(v);
            } else if (key == "ewma_shift") {
                if (!parseUInt(value, 16, v)) {
                    err = lineErr(lineNo, "ewma_shift must be in 0..16");
                    return false;
                }
                mix.ewmaShift = static_cast<std::uint32_t>(v);
            } else {
                err = lineErr(lineNo, "unknown [mix] key '" + key + "'");
                return false;
            }
        } else if (section == Section::Tenant) {
            std::uint64_t v = 0;
            if (key == "workload") {
                if (!isKnownWorkload(value)) {
                    err = lineErr(lineNo, "unknown workload '" + value +
                                              "' (known: " +
                                              workloadNameList() + ")");
                    return false;
                }
                cur->workload = value;
            } else if (key == "scale") {
                if (!parseScale(value, cur->scale)) {
                    err = lineErr(lineNo, std::string("scale must be ") +
                                              scaleNameList());
                    return false;
                }
            } else if (key == "priority") {
                if (!parseUInt(value, 255, v)) {
                    err = lineErr(lineNo, "priority must be in 0..255");
                    return false;
                }
                cur->priority = static_cast<std::uint32_t>(v);
            } else if (key == "arrival") {
                if (!parseUInt(value, UINT64_MAX, v)) {
                    err = lineErr(lineNo, "arrival must be a cycle "
                                          "count");
                    return false;
                }
                cur->firstArrival = v;
            } else if (key == "period") {
                if (!parseUInt(value, UINT64_MAX, v)) {
                    err = lineErr(lineNo, "period must be a cycle "
                                          "count");
                    return false;
                }
                cur->period = v;
                sawPeriod = true;
            } else if (key == "jobs") {
                if (!parseUInt(value, UINT32_MAX, v) || v == 0) {
                    err = lineErr(lineNo, "jobs must be a positive "
                                          "32-bit count");
                    return false;
                }
                cur->jobs = static_cast<std::uint32_t>(v);
            } else {
                err = lineErr(lineNo,
                              "unknown [tenant] key '" + key + "'");
                return false;
            }
        } else {
            err = lineErr(lineNo, "key outside any section");
            return false;
        }
    }

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
    (void)sawPeriod;
    out = std::move(mix);
    return true;
}

bool
loadMixToml(const std::string &path, MixSpec &out, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open mix spec '" + path + "'";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!parseMixToml(buf.str(), out, err)) {
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
