/**
 * @file
 * Run coordinates (DESIGN.md §7.1, §10.2): the one grammar that
 * laperm_sim, laperm_submit and the wire protocol share. RunSpec holds
 * every coordinate of one simulation cell, and the field table in
 * run_spec.cc has one row per coordinate, keyed by its wire name. The
 * command-line flag is the key with '_' turned into '-' (`l1_kb` is
 * `--l1-kb`), so a flag and a request field are one row and parse
 * alike by construction.
 *
 * Only the per-field parse is shared, not the order of application:
 * the CLIs apply flags in command-line order, later flags overriding
 * earlier ones, while the wire applies preset, then config, then the
 * other fields, whatever the JSON order (serve/service/sim_request.hh).
 */

#ifndef LAPERM_HARNESS_RUN_SPEC_HH
#define LAPERM_HARNESS_RUN_SPEC_HH

#include <cstdint>
#include <span>
#include <string>

#include "harness/experiment.hh"
#include "sim/config.hh"
#include "workloads/workload.hh"

namespace laperm {

/** The coordinates of one simulation cell. */
struct RunSpec
{
    std::string workload = "bfs-citation";
    DynParModel model = DynParModel::DTBL;
    TbPolicy policy = TbPolicy::RR;
    Scale scale = Scale::Small;
    std::uint64_t seed = 1;

    /**
     * The machine to run. Applying any field copies model, policy and
     * seed into it, so it is exactly what Gpu runs.
     */
    GpuConfig cfg = paperConfig();

    /**
     * Multi-tenant mix, empty for a single-app run. Any name parses;
     * the service takes builtin mixes only, laperm_sim also a .toml.
     */
    std::string tenants;

    /**
     * Label of the last applied preset ("k20c" when none was named).
     * cfg describes the machine; the label is a column of tenant TSV
     * rows, so tenant keys include it.
     */
    std::string presetName = "k20c";

    /**
     * appCellCanonical() for a single-app run, mixCellCanonical() for a
     * tenants run (harness/result_cache.hh): every spelling of one
     * machine shares it, and so do a sweep cell and its request.
     */
    std::string canonical() const;

    /** Content key of canonical(). */
    std::string key() const;
};

/** One row of the run-field table. */
struct RunField
{
    const char *key; ///< wire key; the CLI flag is "--" + key, '_' -> '-'
    bool number;     ///< a JSON number on the wire, else a JSON string
    /** Parse @p raw into @p spec; false with "expected ..., got ..." */
    bool (*set)(RunSpec &spec, const std::string &raw, std::string &err);
};

/** Every run field, in table order. */
std::span<const RunField> runFields();

/** The CLI flag of @p field ("--l1-kb" for "l1_kb"). */
std::string runFlagName(const RunField &field);

/** The row named by wire key @p key, or nullptr. */
const RunField *findRunField(const std::string &key);

/** The row whose CLI flag is @p flag, or nullptr. */
const RunField *findRunFlag(const std::string &flag);

/**
 * Apply one wire field. On a bad value, false with @p err set to
 * "'key': expected ..., got '...'" and @p spec unchanged.
 */
bool applyRunField(RunSpec &spec, const RunField &field,
                   const std::string &raw, std::string &err);

/**
 * Apply one command-line flag and its value. `--config FILE` reads the
 * file and hands its text to the config row. On a bad value, false
 * with @p err set to "--flag: expected ..., got '...'"; both CLIs exit
 * 2 on it.
 */
bool applyRunFlag(RunSpec &spec, const RunField &field,
                  const std::string &value, std::string &err);

} // namespace laperm

#endif // LAPERM_HARNESS_RUN_SPEC_HH
