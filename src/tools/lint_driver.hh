/**
 * @file
 * sim-lint driver (DESIGN.md §12.5): orchestrates the three analysis
 * passes over a file set, applies allow() suppressions and audits
 * them.
 *
 * Pipeline per run:
 *   1. load files (explicit list, or every source under <root>/src);
 *   2. token pass, layering pass (when a spec is present) and cycle-
 *      safety pass — each timed;
 *   3. suppression: drop findings covered by allow()/allow-file()
 *      markers; every marker that suppressed nothing becomes an
 *      unused-allow finding (waivers cannot rot silently);
 *   4. sort findings (path, line, rule).
 *
 * The driver is deterministic: same tree, same spec — byte-identical
 * output, independent of directory iteration order.
 */

#ifndef LAPERM_TOOLS_LINT_DRIVER_HH
#define LAPERM_TOOLS_LINT_DRIVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "tools/sim_lint.hh"

namespace laperm {
namespace simlint {

struct PassTiming
{
    std::string pass;          ///< "token", "layering", ...
    std::uint64_t micros = 0;  ///< wall time (reporting only)
    std::size_t findings = 0;  ///< raw findings before suppression
};

struct DriverOptions
{
    /** Repo root; files default to <root>/src when none are given. */
    std::string root = ".";
    /** Explicit file list; empty = scan root/src. */
    std::vector<std::string> files;
    /**
     * Layering spec path. Empty = use <root>/layering.toml when it
     * exists, else skip the layering pass.
     */
    std::string layeringSpec;
};

struct DriverResult
{
    /** Final findings, sorted by (path, line, rule). */
    std::vector<Finding> findings;
    std::vector<PassTiming> timings;
    std::size_t filesScanned = 0;
    /** Non-empty on configuration/IO error (CLI exit 2). */
    std::string error;
};

/** Run the full pipeline. */
DriverResult runDriver(const DriverOptions &opts);

} // namespace simlint
} // namespace laperm

#endif // LAPERM_TOOLS_LINT_DRIVER_HH
