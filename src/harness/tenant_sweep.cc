#include "harness/tenant_sweep.hh"

#include <iterator>
#include <sstream>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/run_spec.hh"

namespace laperm {

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
    // Only encodeTenantSweepTsv's own spelling of the rows counts.
    if (encodeTenantSweepTsv(rows) != tsv)
        return false;
    out = std::move(rows);
    return true;
}

bool
decodeMixRecord(const std::string &payload, const tenant::MixSpec &mix,
                const std::string &preset, TbPolicy policy,
                std::vector<TenantSweepRow> &out)
{
    if (!decodeTenantSweepTsv(payload, out) ||
        out.size() != mix.tenants.size()) {
        return false;
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
        const TenantSweepRow &r = out[i];
        if (r.mix != mix.name || r.preset != preset || r.policy != policy ||
            r.tenant != mix.tenants[i].name || r.tenantId != i) {
            return false;
        }
    }
    return true;
}

std::vector<TenantSweepRow>
runTenantSweep(const std::vector<std::string> &mixes,
               const std::vector<std::string> &presets,
               std::uint64_t seed, bool use_cache, unsigned jobs)
{
    // Every cell is built as a served `tenants` request is parsed, and
    // all of them before any runs, so a typo dies with the structured
    // known-names error before any simulation spends cycles.
    std::vector<RunSpec> specs;
    for (const std::string &mix : mixes) {
        for (const std::string &preset : presets) {
            for (TbPolicy policy : kTbPolicies) {
                specs.push_back(sweepCell({{"preset", preset},
                                           {"tenants", mix},
                                           {"policy", wireName(policy)},
                                           {"seed", std::to_string(seed)}}));
            }
        }
    }
    std::vector<TenantSweepRow> out;
    for (const std::string &payload : runCells(specs, use_cache, jobs)) {
        std::vector<TenantSweepRow> rows;
        if (!decodeTenantSweepTsv(payload, rows))
            laperm_panic("unreadable mix record");
        out.insert(out.end(), std::make_move_iterator(rows.begin()),
                   std::make_move_iterator(rows.end()));
    }
    return out;
}

} // namespace laperm
