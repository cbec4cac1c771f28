/**
 * @file
 * Canonical simulation request (DESIGN.md §10.3): the serve-layer
 * equivalent of a laperm_sim invocation. Parsing materializes every
 * default (paper Table I config + driver defaults), so two requests
 * that mean the same simulation always canonicalize — and therefore
 * hash — identically, regardless of which fields the client spelled
 * out.
 */

#ifndef LAPERM_SERVE_SERVICE_SIM_REQUEST_HH
#define LAPERM_SERVE_SERVICE_SIM_REQUEST_HH

#include <cstdint>
#include <string>

#include "serve/service/protocol.hh"
#include "sim/config.hh"
#include "workloads/workload.hh"

namespace laperm {
namespace serve {

/**
 * One simulation request. `cfg` is fully materialized: paperConfig()
 * plus protocol overrides plus model/policy/seed, exactly what
 * laperm_sim would hand to Gpu.
 */
struct SimRequest
{
    std::string workload = "bfs-citation";
    DynParModel model = DynParModel::DTBL;
    TbPolicy policy = TbPolicy::RR;
    Scale scale = Scale::Small;
    std::uint64_t seed = 1;
    GpuConfig cfg;

    /**
     * Server-side directory for observability artifacts (DESIGN.md
     * §8). Not part of the canonical key: tracing never changes stats.
     * A trace request bypasses the cache read (a hit would produce no
     * artifacts) but still stores its result.
     */
    std::string traceDir;

    /**
     * Builtin multi-tenant mix name (tenant/mixes.hh), empty for a
     * single-app run. When set, the service routes the request through
     * tenant::runMixStudy and the payload is the tenant-sweep TSV
     * (harness/tenant_sweep.hh) instead of a ResultRecord line —
     * byte-identical to `laperm_sim --tenants MIX --tenants-tsv`.
     * Builtin names only: the daemon never reads client-named files.
     */
    std::string tenants;

    /**
     * Label of the last applied preset ("k20c" when none was named).
     * Pure labeling — the machine itself is fully described by cfg —
     * but tenant TSV rows carry a preset column, so for tenant
     * requests it joins the canonical string.
     */
    std::string presetName = "k20c";

    /**
     * Build from a parsed protocol object. Accepted fields: workload,
     * model, policy, scale, warp_sched, trace_dir, preset, config
     * (strings); seed, smx, l1_kb, l2_kb, levels, cdp_latency,
     * dtbl_latency (numbers). Unknown fields are rejected so a typo
     * cannot silently run the default simulation. Does not validate
     * semantics; see validate().
     *
     * Machine fields layer in a fixed precedence regardless of the
     * JSON field order: preset (named machine, sim/presets.hh), then
     * config (machine-TOML text, sim/config_loader.hh), then the
     * legacy single-field shortcuts (smx, l1_kb, ...). A malformed
     * preset or config is a parse error — the server answers with a
     * structured error response, never a default simulation.
     */
    static bool fromJson(const JsonObject &obj, SimRequest &out,
                         std::string &err);

    /** Semantic validation (workload exists, config sane); no fatal. */
    bool validate(std::string &err) const;

    /**
     * Deterministic canonical string covering every knob in the key:
     * appCellCanonical() for a single-app run, mixCellCanonical() for a
     * tenants request (harness/result_cache.hh). Any two spellings of
     * the same machine (preset name, TOML, shortcuts) share one cache
     * entry, and so do a sweep cell and the request for it.
     */
    std::string canonical() const;

    /** Content key of canonical() (harness/result_cache.hh). */
    std::string key() const;

    /** Full request line including "op":"run" (client side). */
    std::string toJson() const;
};

} // namespace serve
} // namespace laperm

#endif // LAPERM_SERVE_SERVICE_SIM_REQUEST_HH
