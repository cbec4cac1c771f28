#include "harness/result_cache.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "sim/config_loader.hh"

#include "sim_fingerprint.hh"

namespace laperm {

namespace {

constexpr const char kHeaderPrefix[] = "# laperm-cache fingerprint=";

/** File backing a content key: "<dir>/results/<key>.rec". */
std::string
entryPath(const std::string &dir, const std::string &key)
{
    return dir + "/results/" + key + ".rec";
}

} // namespace

std::string
simFingerprint()
{
    const char *env = std::getenv("LAPERM_SIM_FINGERPRINT");
    if (env && *env)
        return env;
    return LAPERM_SIM_FINGERPRINT;
}

std::string
cacheRootDir()
{
    const char *dir = std::getenv("LAPERM_CACHE_DIR");
    return dir && *dir ? dir : "cache";
}

ResultRecord
ResultRecord::fromStats(const std::string &workload, DynParModel model,
                        TbPolicy policy, const GpuStats &stats,
                        const std::string &config_hash)
{
    ResultRecord r;
    r.workload = workload;
    r.config = config_hash;
    r.model = model;
    r.policy = policy;
    r.cycles = stats.cycles;
    r.launches = stats.deviceLaunches;
    r.dynamicTbs = stats.dynamicTbs;
    r.bound = stats.boundDispatches;
    r.overflows = stats.queueOverflows;
    r.kduStalls = stats.kduFullStalls;
    r.ipc = stats.ipc();
    r.l1 = stats.l1Total().hitRate();
    r.l2 = stats.l2.hitRate();
    r.util = stats.avgSmxUtilization();
    r.imbalance = stats.smxImbalance();
    return r;
}

std::string
ResultRecord::encode() const
{
    const std::string &cfg =
        config.empty() ? defaultMachineHash() : config;
    return logFormat(
        "v1 workload=%s config=%s model=%d policy=%d cycles=%llu "
        "launches=%llu "
        "dynamicTbs=%llu bound=%llu overflows=%llu kduStalls=%llu "
        "ipc=%.17g l1=%.17g l2=%.17g util=%.17g imbalance=%.17g",
        workload.c_str(), cfg.c_str(), static_cast<int>(model),
        static_cast<int>(policy),
        static_cast<unsigned long long>(cycles),
        static_cast<unsigned long long>(launches),
        static_cast<unsigned long long>(dynamicTbs),
        static_cast<unsigned long long>(bound),
        static_cast<unsigned long long>(overflows),
        static_cast<unsigned long long>(kduStalls), ipc, l1, l2, util,
        imbalance);
}

bool
ResultRecord::decode(const std::string &line, ResultRecord &out)
{
    std::istringstream ls(line);
    std::string tok;
    if (!(ls >> tok) || tok != "v1")
        return false;

    ResultRecord r;
    // Bitmask of the 15 required fields, in encode() order.
    unsigned seen = 0;
    auto mark = [&seen](unsigned bit) { seen |= 1u << bit; };

    while (ls >> tok) {
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos)
            return false;
        const std::string k = tok.substr(0, eq);
        const std::string v = tok.substr(eq + 1);
        char *end = nullptr;
        if (k == "workload") {
            r.workload = v;
            mark(0);
            continue;
        }
        if (k == "config") {
            r.config = v;
            mark(14);
            continue;
        }
        if (k == "model") {
            r.model = static_cast<DynParModel>(
                std::strtol(v.c_str(), &end, 10));
            mark(1);
        } else if (k == "policy") {
            r.policy =
                static_cast<TbPolicy>(std::strtol(v.c_str(), &end, 10));
            mark(2);
        } else if (k == "cycles") {
            r.cycles = std::strtoull(v.c_str(), &end, 10);
            mark(3);
        } else if (k == "launches") {
            r.launches = std::strtoull(v.c_str(), &end, 10);
            mark(4);
        } else if (k == "dynamicTbs") {
            r.dynamicTbs = std::strtoull(v.c_str(), &end, 10);
            mark(5);
        } else if (k == "bound") {
            r.bound = std::strtoull(v.c_str(), &end, 10);
            mark(6);
        } else if (k == "overflows") {
            r.overflows = std::strtoull(v.c_str(), &end, 10);
            mark(7);
        } else if (k == "kduStalls") {
            r.kduStalls = std::strtoull(v.c_str(), &end, 10);
            mark(8);
        } else if (k == "ipc") {
            r.ipc = std::strtod(v.c_str(), &end);
            mark(9);
        } else if (k == "l1") {
            r.l1 = std::strtod(v.c_str(), &end);
            mark(10);
        } else if (k == "l2") {
            r.l2 = std::strtod(v.c_str(), &end);
            mark(11);
        } else if (k == "util") {
            r.util = std::strtod(v.c_str(), &end);
            mark(12);
        } else if (k == "imbalance") {
            r.imbalance = std::strtod(v.c_str(), &end);
            mark(13);
        } else {
            return false; // unknown field: format drift, reject
        }
        if (end == v.c_str() || *end != '\0')
            return false;
    }
    if (seen != (1u << 15) - 1)
        return false;
    out = std::move(r);
    return true;
}

std::string
ResultRecord::csvRow() const
{
    return logFormat(
        "%s,%s,%s,%llu,%.4f,%.4f,%.4f,%.4f,%.4f,%llu,%llu,%llu,%llu",
        workload.c_str(), toString(model), toString(policy),
        static_cast<unsigned long long>(cycles), ipc, l1, l2, util,
        imbalance, static_cast<unsigned long long>(launches),
        static_cast<unsigned long long>(dynamicTbs),
        static_cast<unsigned long long>(bound),
        static_cast<unsigned long long>(overflows));
}

std::string
ResultRecord::csvRowWithConfig() const
{
    const std::string &cfg =
        config.empty() ? defaultMachineHash() : config;
    return csvRow() + "," + cfg;
}

bool
ResultRecord::customMachine() const
{
    return !config.empty() && config != defaultMachineHash();
}

RunResult
ResultRecord::toRunResult() const
{
    RunResult r;
    r.workload = workload;
    r.model = model;
    r.policy = policy;
    r.ipc = ipc;
    r.l1HitRate = l1;
    r.l2HitRate = l2;
    r.cycles = static_cast<double>(cycles);
    r.smxUtilization = util;
    r.smxImbalance = imbalance;
    r.boundFraction = dynamicTbs ? static_cast<double>(bound) /
                                       static_cast<double>(dynamicTbs)
                                 : 0.0;
    r.queueOverflows = static_cast<double>(overflows);
    r.kduFullStalls = static_cast<double>(kduStalls);
    return r;
}

const char *
statsCsvHeader()
{
    return "workload,model,policy,cycles,ipc,l1,l2,util,"
           "imbalance,launches,dynamicTbs,bound,overflows";
}

const char *
statsCsvHeaderWithConfig()
{
    return "workload,model,policy,cycles,ipc,l1,l2,util,"
           "imbalance,launches,dynamicTbs,bound,overflows,config";
}

std::string
encodeSweepTsv(const std::vector<RunResult> &rows)
{
    std::ostringstream out;
    out << "# workload model policy ipc l1 l2 cycles util imbalance "
           "bound overflows kduStalls\n";
    for (const auto &r : rows) {
        out << r.workload << ' ' << static_cast<int>(r.model) << ' '
            << static_cast<int>(r.policy) << ' ' << r.ipc << ' '
            << r.l1HitRate << ' ' << r.l2HitRate << ' ' << r.cycles
            << ' ' << r.smxUtilization << ' ' << r.smxImbalance << ' '
            << r.boundFraction << ' ' << r.queueOverflows << ' '
            << r.kduFullStalls << '\n';
    }
    return out.str();
}

std::string
appCellCanonical(const std::string &workload, DynParModel model,
                 TbPolicy policy, Scale scale, std::uint64_t seed,
                 const GpuConfig &cfg)
{
    return logFormat("w=%s m=%d p=%d sc=%d seed=%llu ", workload.c_str(),
                     static_cast<int>(model), static_cast<int>(policy),
                     static_cast<int>(scale),
                     static_cast<unsigned long long>(seed)) +
           canonicalMachine(cfg);
}

std::string
mixCellCanonical(const std::string &mix, const std::string &preset,
                 DynParModel model, TbPolicy policy, std::uint64_t seed,
                 const GpuConfig &cfg)
{
    return logFormat("m=%d p=%d seed=%llu ", static_cast<int>(model),
                     static_cast<int>(policy),
                     static_cast<unsigned long long>(seed)) +
           canonicalMachine(cfg) +
           logFormat(" tenants=%s tpreset=%s", mix.c_str(),
                     preset.c_str());
}

ResultCache::ResultCache(std::string dir, std::string fingerprint)
    : dir_(dir.empty() ? cacheRootDir() : std::move(dir)),
      fingerprint_(fingerprint.empty() ? simFingerprint()
                                       : std::move(fingerprint))
{
}

ResultCache::Tier
ResultCache::probe(const std::string &key, std::string &payload)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = mem_.find(key);
        if (it != mem_.end()) {
            payload = it->second;
            return Tier::Memory;
        }
    }
    std::ifstream in(entryPath(dir_, key), std::ios::binary);
    std::string header;
    if (!in || !std::getline(in, header) ||
        header != kHeaderPrefix + fingerprint_) {
        return Tier::Miss; // absent, or written by another simulator
    }
    std::ostringstream body;
    body << in.rdbuf();
    payload = body.str();
    // Promote: the next probe of this key is a memory hit, and the
    // Shared tier is only ever credited once per key per incarnation.
    std::lock_guard<std::mutex> lock(mu_);
    mem_.emplace(key, payload);
    return Tier::Shared;
}

bool
ResultCache::store(const std::string &key, const std::string &payload)
{
    namespace fs = std::filesystem;
    const std::string path = entryPath(dir_, key);
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    // Write-then-rename so a concurrent reader never sees a truncated
    // file. The temp name carries the pid and a per-process sequence
    // number: a daemon and a sweep may share one directory, and a sweep
    // stores from several threads at once.
    static std::atomic<std::uint64_t> seq{0};
    const std::string tmp = logFormat(
        "%s.tmp.%ld.%llu", path.c_str(), static_cast<long>(::getpid()),
        static_cast<unsigned long long>(seq.fetch_add(1)));
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << kHeaderPrefix << fingerprint_ << '\n' << payload;
    out.close();
    bool ok = !out.fail();
    if (ok)
        fs::rename(tmp, path, ec);
    if (!ok || ec) {
        fs::remove(tmp, ec);
        ok = false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    mem_[key] = payload;
    return ok;
}

void
ResultCache::dropMemory()
{
    std::lock_guard<std::mutex> lock(mu_);
    mem_.clear();
}

std::size_t
ResultCache::memorySize() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return mem_.size();
}

} // namespace laperm
