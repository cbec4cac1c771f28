/**
 * @file
 * Multi-tenant contention study (EXPERIMENTS.md): the builtin mixes
 * (duo/quad/octo) under all four TB policies on the smallest and
 * largest presets (k20c, v100). Per cell the study reports ANTT, STP
 * and Jain fairness against per-tenant solo baselines plus the worst
 * p99 wave-completion latency across tenants; BENCH_multitenant.json
 * captures every per-tenant row for tooling.
 *
 * Environment:
 *   LAPERM_TENANT_MIXES    comma-separated mix subset (smoke tests)
 *   LAPERM_TENANT_PRESETS  comma-separated preset subset
 *   LAPERM_JOBS            sweep worker threads (results identical)
 *
 * Every (mix, preset, policy) cell is a record in the result store, so
 * reruns are free.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "harness/table.hh"
#include "harness/tenant_sweep.hh"
#include "tenant/mixes.hh"

using namespace laperm;

namespace {

constexpr TbPolicy kPolicies[] = {TbPolicy::RR, TbPolicy::TbPri,
                                  TbPolicy::SmxBind,
                                  TbPolicy::AdaptiveBind};

std::vector<std::string>
envList(const char *var, std::vector<std::string> def)
{
    const char *v = std::getenv(var);
    if (!v || !*v)
        return def;
    std::vector<std::string> out;
    std::string cur;
    for (const char *p = v;; ++p) {
        if (*p == ',' || *p == '\0') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
            if (*p == '\0')
                break;
        } else {
            cur += *p;
        }
    }
    return out;
}

/** Rows of one (mix, preset, policy) cell, in tenant order. */
std::vector<const TenantSweepRow *>
cellOf(const std::vector<TenantSweepRow> &rows, const std::string &mix,
       const std::string &preset, TbPolicy policy)
{
    std::vector<const TenantSweepRow *> out;
    for (const TenantSweepRow &r : rows) {
        if (r.mix == mix && r.preset == preset && r.policy == policy)
            out.push_back(&r);
    }
    return out;
}

} // namespace

int
main()
{
    setVerbose(true);
    const std::uint64_t seed = 1;
    const std::vector<std::string> mixes =
        envList("LAPERM_TENANT_MIXES", tenant::mixNames());
    const std::vector<std::string> presetNames =
        envList("LAPERM_TENANT_PRESETS", {"k20c", "v100"});

    const std::vector<TenantSweepRow> rows =
        runTenantSweep(mixes, presetNames, seed);
    setVerbose(false);

    std::printf("\nMulti-tenant contention study (%zu mixes x %zu "
                "presets x %zu policies)\n",
                mixes.size(), presetNames.size(), std::size(kPolicies));

    std::ofstream json("BENCH_multitenant.json");
    json << "{\n"
         << "  \"bench\": \"multitenant\",\n"
         << "  \"seed\": " << seed << ",\n"
         << "  \"cells\": [\n";
    bool first = true;

    for (const std::string &preset : presetNames) {
        std::printf("\npreset %s — mix-level ANTT / STP / Jain "
                    "(worst p99 in cycles):\n",
                    preset.c_str());
        Table t({"mix", "policy", "ANTT", "STP", "Jain", "worst p99"});
        for (const std::string &mix : mixes) {
            for (TbPolicy p : kPolicies) {
                const auto cell = cellOf(rows, mix, preset, p);
                if (cell.empty())
                    laperm_fatal("sweep returned no rows for %s/%s/%s",
                                 mix.c_str(), preset.c_str(),
                                 toString(p));
                std::uint64_t worstP99 = 0;
                for (const TenantSweepRow *r : cell)
                    worstP99 = std::max(worstP99, r->p99);
                t.addRow({mix, toString(p), fmtF(cell[0]->mixAntt),
                          fmtF(cell[0]->mixStp), fmtF(cell[0]->mixJain),
                          std::to_string(worstP99)});
                for (const TenantSweepRow *r : cell) {
                    if (!first)
                        json << ",\n";
                    first = false;
                    json << "    {\"mix\": \"" << r->mix
                         << "\", \"preset\": \"" << r->preset
                         << "\", \"policy\": \"" << toString(r->policy)
                         << "\", \"tenant\": \"" << r->tenant
                         << "\", \"jobs\": " << r->jobs
                         << ", \"ANTT\": " << r->antt
                         << ", \"p50\": " << r->p50
                         << ", \"p95\": " << r->p95
                         << ", \"p99\": " << r->p99
                         << ", \"retired_tbs\": " << r->retiredTbs
                         << ", \"mix_ANTT\": " << r->mixAntt
                         << ", \"STP\": " << r->mixStp
                         << ", \"Jain\": " << r->mixJain
                         << ", \"makespan\": " << r->makespan << "}";
                }
            }
        }
        t.print();
    }

    json << "\n  ]\n}\n";
    json.close();
    std::printf("\nwrote BENCH_multitenant.json\n");
    return 0;
}
