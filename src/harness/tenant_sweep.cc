#include "harness/tenant_sweep.hh"

#include <cstdlib>
#include <optional>
#include <sstream>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "harness/thread_pool.hh"
#include "sim/presets.hh"
#include "tenant/mixes.hh"
#include "tenant/tenant_manager.hh"

namespace laperm {

namespace {

constexpr TbPolicy kPolicies[] = {TbPolicy::RR, TbPolicy::TbPri,
                                  TbPolicy::SmxBind,
                                  TbPolicy::AdaptiveBind};
constexpr std::size_t kNumPolicies = std::size(kPolicies);

} // namespace

std::vector<TenantSweepRow>
tenantSweepRows(const std::string &mix, const std::string &preset,
                TbPolicy policy, const tenant::MixMetrics &m)
{
    std::vector<TenantSweepRow> rows;
    for (const tenant::TenantMetrics &tm : m.perTenant) {
        TenantSweepRow r;
        r.mix = mix;
        r.preset = preset;
        r.policy = policy;
        r.tenant = tm.name;
        r.tenantId = tm.tenant;
        r.jobs = tm.jobs;
        r.antt = tm.antt;
        r.p50 = tm.p50;
        r.p95 = tm.p95;
        r.p99 = tm.p99;
        r.retiredTbs = tm.retiredTbs;
        r.mixAntt = m.antt;
        r.mixStp = m.stp;
        r.mixJain = m.jain;
        r.makespan = m.makespan;
        rows.push_back(std::move(r));
    }
    return rows;
}

std::string
encodeTenantSweepTsv(const std::vector<TenantSweepRow> &rows)
{
    std::ostringstream out;
    out << "# mix preset policy tenant tenantId jobs ANTT p50 p95 p99 "
           "retiredTbs mixANTT STP Jain makespan\n";
    for (const TenantSweepRow &r : rows) {
        out << r.mix << ' ' << r.preset << ' '
            << static_cast<int>(r.policy) << ' ' << r.tenant << ' '
            << r.tenantId << ' ' << r.jobs << ' '
            << logFormat("%.17g", r.antt) << ' ' << r.p50 << ' '
            << r.p95 << ' ' << r.p99 << ' ' << r.retiredTbs << ' '
            << logFormat("%.17g", r.mixAntt) << ' '
            << logFormat("%.17g", r.mixStp) << ' '
            << logFormat("%.17g", r.mixJain) << ' ' << r.makespan
            << '\n';
    }
    return out.str();
}

bool
decodeTenantSweepTsv(const std::string &tsv,
                     std::vector<TenantSweepRow> &out)
{
    std::istringstream in(tsv);
    std::vector<TenantSweepRow> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        TenantSweepRow r;
        int pi;
        if (!(ls >> r.mix >> r.preset >> pi >> r.tenant >> r.tenantId >>
              r.jobs >> r.antt >> r.p50 >> r.p95 >> r.p99 >>
              r.retiredTbs >> r.mixAntt >> r.mixStp >> r.mixJain >>
              r.makespan)) {
            return false;
        }
        r.policy = static_cast<TbPolicy>(pi);
        rows.push_back(std::move(r));
    }
    out = std::move(rows);
    return true;
}

std::vector<TenantSweepRow>
runTenantSweep(const std::vector<std::string> &mixes,
               const std::vector<std::string> &presets,
               std::uint64_t seed, bool use_cache, unsigned jobs)
{
    const char *no_cache = std::getenv("LAPERM_NO_CACHE");
    if (no_cache && *no_cache == '1')
        use_cache = false;
    if (jobs == 0)
        jobs = ThreadPool::defaultJobs();

    // Resolve every axis value up front so a typo dies with the
    // structured known-names error before any simulation runs.
    struct Group
    {
        tenant::MixSpec mix;
        std::string preset;
    };
    std::vector<Group> groups;
    for (const std::string &mix_name : mixes) {
        const tenant::MixSpec mix = tenant::builtinMix(mix_name);
        for (const std::string &preset : presets) {
            presetConfig(preset); // fatal on unknown preset
            groups.push_back({mix, preset});
        }
    }

    // One job per (group x policy) cell, each owning its device and
    // workload instances and writing a preassigned slot, so the output
    // is byte-identical at any worker count.
    std::vector<std::vector<TenantSweepRow>> cells(groups.size() *
                                                   kNumPolicies);
    std::optional<ResultCache> store;
    if (use_cache)
        store.emplace();
    {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(jobs, cells.size())));
        for (std::size_t slot = 0; slot < cells.size(); ++slot) {
            pool.submit([&, slot] {
                const Group &g = groups[slot / kNumPolicies];
                GpuConfig cfg = presetConfig(g.preset);
                cfg.tickMode = paperConfig().tickMode;
                cfg.tbPolicy = kPolicies[slot % kNumPolicies];
                cfg.seed = seed;
                std::string key, payload;
                if (store) {
                    key = contentKey(mixCellCanonical(
                        g.mix.name, g.preset, cfg.dynParModel,
                        cfg.tbPolicy, seed, cfg));
                    if (store->probe(key, payload) !=
                            ResultCache::Tier::Miss &&
                        decodeTenantSweepTsv(payload, cells[slot])) {
                        return;
                    }
                }
                const tenant::MixStudy study =
                    tenant::runMixStudy(g.mix, cfg);
                cells[slot] = tenantSweepRows(g.mix.name, g.preset,
                                              cfg.tbPolicy, study.metrics);
                if (store)
                    store->store(key, encodeTenantSweepTsv(cells[slot]));
                laperm_inform(
                    "mix %s %s/%s: ANTT=%.2f STP=%.2f Jain=%.3f",
                    g.mix.name.c_str(), g.preset.c_str(),
                    toString(cfg.tbPolicy), study.metrics.antt,
                    study.metrics.stp, study.metrics.jain);
            });
        }
        pool.wait();
    }

    std::vector<TenantSweepRow> out;
    for (std::vector<TenantSweepRow> &rows : cells) {
        for (TenantSweepRow &r : rows)
            out.push_back(std::move(r));
    }
    return out;
}

} // namespace laperm
