#include "harness/result_cache.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
    // Read the fields in encode() order, then keep the record only if
    // encode() writes the same bytes back: a reordered field, a leading
    // zero or a trailing space is not a record this build wrote.
    ResultRecord r;
    std::uint64_t model = 0;
    std::uint64_t policy = 0;
    const char *s = line.c_str();
    const auto tag = [&s](const char *text) {
        const std::size_t n = std::strlen(text);
        const bool ok = std::strncmp(s, text, n) == 0;
        s += ok ? n : 0;
        return ok;
    };
    const auto word = [&s](std::string &v) {
        v.assign(s, std::strcspn(s, " "));
        s += v.size();
        return true;
    };
    const auto u64 = [&s](std::uint64_t &v) {
        char *end = nullptr;
        v = std::strtoull(s, &end, 10);
        s = end;
        return true;
    };
    const auto dbl = [&s](double &v) {
        char *end = nullptr;
        v = std::strtod(s, &end);
        s = end;
        return true;
    };
    if (!(tag("v1 workload=") && word(r.workload) && tag(" config=") &&
          word(r.config) && tag(" model=") && u64(model) &&
          tag(" policy=") && u64(policy) && tag(" cycles=") &&
          u64(r.cycles) && tag(" launches=") && u64(r.launches) &&
          tag(" dynamicTbs=") && u64(r.dynamicTbs) && tag(" bound=") &&
          u64(r.bound) && tag(" overflows=") && u64(r.overflows) &&
          tag(" kduStalls=") && u64(r.kduStalls) && tag(" ipc=") &&
          dbl(r.ipc) && tag(" l1=") && dbl(r.l1) && tag(" l2=") &&
          dbl(r.l2) && tag(" util=") && dbl(r.util) &&
          tag(" imbalance=") && dbl(r.imbalance))) {
        return false;
    }
    r.model = static_cast<DynParModel>(model);
    r.policy = static_cast<TbPolicy>(policy);
    if (r.encode() != line)
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

bool
decodeCellRecord(const std::string &payload, const std::string &workload,
                 const GpuConfig &cfg, ResultRecord &out)
{
    return ResultRecord::decode(payload, out) && out.workload == workload &&
           out.model == cfg.dynParModel && out.policy == cfg.tbPolicy &&
           out.config == machineHash(cfg);
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

ResultCache::ResultCache(std::string dir, std::string fingerprint)
    : dir_(dir.empty() ? cacheRootDir() : std::move(dir)),
      fingerprint_(fingerprint.empty() ? simFingerprint()
                                       : std::move(fingerprint))
{
}

ResultCache::Tier
ResultCache::probe(const std::string &key, std::string &payload,
                   const std::function<bool(const std::string &)> &accept)
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
    if (accept && !accept(payload))
        return Tier::Miss;
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
