/**
 * @file
 * Canonical simulation request (DESIGN.md §10.3): the serve-layer
 * equivalent of a laperm_sim invocation. The run coordinates and their
 * parsing are the shared run-field table (harness/run_spec.hh), so a
 * request field and the matching CLI flag parse alike by construction.
 * Parsing materializes every default (paper Table I config + driver
 * defaults), so two requests that mean the same simulation always
 * canonicalize — and therefore hash — identically, regardless of
 * which fields the client spelled out.
 */

#ifndef LAPERM_SERVE_SERVICE_SIM_REQUEST_HH
#define LAPERM_SERVE_SERVICE_SIM_REQUEST_HH

#include <string>

#include "harness/run_spec.hh"
#include "serve/service/protocol.hh"

namespace laperm {
namespace serve {

/**
 * One simulation request: the run coordinates plus what only the
 * service understands. canonical(), key(), check() and accepts() are
 * RunSpec's.
 */
struct SimRequest : RunSpec
{
    /**
     * Server-side directory for observability artifacts (DESIGN.md
     * §8). Not part of the canonical key: tracing never changes stats.
     * A trace request bypasses the cache read (a hit would produce no
     * artifacts) but still stores its result.
     */
    std::string traceDir;

    /**
     * Fill the caller's fresh (default-constructed) @p out from a
     * parsed protocol object, in place; on false its contents are
     * unspecified. Every field but `op` and `trace_dir` is a row of the
     * run-field table: numbers for the numeric rows, strings for the
     * rest. Unknown fields are rejected so a typo cannot silently run
     * the default simulation. Does not validate semantics; see
     * validate().
     *
     * Machine fields layer in a fixed precedence regardless of the
     * JSON field order: preset (named machine, sim/presets.hh), then
     * config (machine-TOML text, sim/config_loader.hh), then the
     * single-field shortcuts (smx, l1_kb, ...). A malformed value is a
     * parse error — the server answers with a structured error
     * response, never a default simulation.
     */
    static bool fromJson(const JsonObject &obj, SimRequest &out,
                         std::string &err);

    /**
     * RunSpec::check(), plus the service's own rule that `trace_dir`
     * and `tenants` do not combine; no fatal. False with @p err set.
     */
    bool validate(std::string &err) const;

    /** Full request line including "op":"run" (client side). */
    std::string toJson() const;
};

} // namespace serve
} // namespace laperm

#endif // LAPERM_SERVE_SERVICE_SIM_REQUEST_HH
