/**
 * @file
 * Declarative multi-tenant mix specs: N workload streams with open-loop
 * deterministic arrival schedules (simulated cycles, never wall clock),
 * priority classes, and the shared admission/preemption knobs. Parsed
 * from the TOML subset of common/text.hh, the one machine configs use,
 * and constructible from the builtin mix registry (mixes.hh).
 */

#ifndef LAPERM_TENANT_TENANT_SPEC_HH
#define LAPERM_TENANT_TENANT_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "workloads/workload.hh"

namespace laperm {
namespace tenant {

/** One workload stream. */
struct TenantSpec
{
    /** Stream name ([tenant.<name>] section header). */
    std::string name;
    /** Table II workload instance, e.g. "bfs-citation". */
    std::string workload;
    Scale scale = Scale::Tiny;
    /** Priority class: 0 = highest; preemption only crosses classes. */
    std::uint32_t priority = 0;
    /** Arrival of job 0 in simulated cycles. */
    Cycle firstArrival = 0;
    /** Open-loop inter-arrival period; job i arrives at
     *  firstArrival + i * period (a late-finishing job delays the next
     *  one: streams are serial). */
    Cycle period = 0;
    /** Jobs in the stream; each job is one full wave sequence. */
    std::uint32_t jobs = 1;
};

/** A complete mix: the tenants plus the shared scheduling knobs. */
struct MixSpec
{
    std::string name;
    std::vector<TenantSpec> tenants;
    /**
     * Warp-occupancy admission threshold in percent (the BEMPS-style
     * compute threshold): a tenant's next kernel is admitted only while
     * resident threads / device thread capacity stays below this, or
     * the device is empty.
     */
    std::uint32_t admissionThresholdPct = 90;
    /** EWMA shift of the TB-runtime predictor (predictor.hh). */
    std::uint32_t ewmaShift = 3;
    /** Scheduling quantum: decision points every this many cycles. */
    Cycle quantum = 2048;
};

/**
 * Parse a mix spec file. Grammar (common/text.hh TOML subset): one
 * [mix] section for the shared knobs, one [tenant.<name>] section per
 * stream; a key given twice keeps its last value. Unknown
 * sections/keys, duplicate tenants, unknown workload names (structured
 * error listing the valid names) and empty mixes all fail with
 * "line N: <reason>" in @p err.
 * @return false on error; @p out is only written on success.
 */
bool loadMixToml(const std::string &path, MixSpec &out, std::string &err);

/** As loadMixToml, but from an in-memory string (tests, builtins). */
bool parseMixToml(const std::string &text, MixSpec &out,
                  std::string &err);

} // namespace tenant
} // namespace laperm

#endif // LAPERM_TENANT_TENANT_SPEC_HH
