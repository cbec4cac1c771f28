/**
 * @file
 * Run coordinates (DESIGN.md §7.1, §10.2): the one grammar that
 * laperm_sim, laperm_submit and the wire protocol share, and the one
 * definition of a cell. RunSpec holds every coordinate of one
 * simulation cell, and the field table in run_spec.cc has one row per
 * coordinate, keyed by its wire name. The command-line flag is the key
 * with '_' turned into '-' (`l1_kb` is `--l1-kb`), so a flag and a
 * request field are one row and parse alike by construction.
 *
 * Only the per-field parse is shared, not the order of application:
 * the CLIs apply flags in command-line order, later flags overriding
 * earlier ones, while the wire applies preset, then config, then the
 * other fields, whatever the JSON order (serve/service/sim_request.hh).
 *
 * A cell's key, its check, its stored record and its run are
 * RunSpec's too: the sweeps build every cell through the rows
 * (sweepCell) and run their batches through runCells, the daemon
 * parses one per request and runs it through runCell, and both key and
 * check it here, so a sweep cell and its request are one record.
 */

#ifndef LAPERM_HARNESS_RUN_SPEC_HH
#define LAPERM_HARNESS_RUN_SPEC_HH

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

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
     * The run coordinates in fixed order, then canonicalMachine(cfg)
     * (sim/config_loader.hh): every spelling of one machine shares it,
     * and so do a sweep cell and its request. A tenants cell leaves
     * out the workload and scale, which the mix names itself, and adds
     * the mix and the preset label.
     */
    std::string canonical() const;

    /** Content key of canonical(): the cell's name in the store. */
    std::string key() const;

    /**
     * Why this cell cannot run, or an empty string: a workload the
     * registry does not know, a mix that is not builtin, or a machine
     * GpuConfig::check() rejects.
     */
    std::string check() const;

    /**
     * Whether @p payload is this cell's stored record: decodeCellRecord
     * for a single-app cell, decodeMixRecord for a mix. The cell must
     * pass check().
     */
    bool accepts(const std::string &payload) const;
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

/** One wire field of a sweep cell: its key and its raw value. */
struct CellField
{
    const char *key;
    std::string raw;
};

/**
 * The sweep cell that applying @p fields in order gives, as a served
 * request applies them. Fatal on a bad value or a cell check()
 * refuses, so a sweep that builds its cells first dies on a typo
 * before any simulation runs.
 */
RunSpec sweepCell(std::initializer_list<CellField> fields);

/**
 * Run either kind of cell and return what the store keeps under its
 * key. A single-app cell sets up its workload and returns
 * runOneRecord(...).encode(), writing the DESIGN.md §8 artifacts to a
 * non-empty @p trace_dir; a host TB no SMX can hold is fatal at its
 * launch (Launcher::hostLaunch). A mix returns the tenant-sweep rows of
 * runMixStudy (harness/tenant_sweep.hh); it takes no trace directory.
 * The cell must pass check().
 */
std::string runCell(const RunSpec &spec, const std::string &trace_dir);

/**
 * The one executor of a batch of cells, each of which must pass
 * check(): returns, in cell order, what the store keeps under each
 * cell's key, the same bytes runCell gives, at any worker count.
 *
 * An input is a run of consecutive single-app cells with one workload,
 * scale and seed; a mix cell is an input of its own. Phase 1 probes
 * each input's cells on the pool and sets up a single-app input only
 * if one of its cells is missing. Phase 2 runs each missing cell on
 * the pool: the missing cells of one input replay one shared trace
 * forest, which one builder thread builds ahead in the order the pool
 * takes them, and an input's last cell frees it. Single-app cells
 * trace into $LAPERM_TRACE_DIR when it is set. A cell that fails stops
 * the batch: no further cell starts, and its error is raised on the
 * calling thread (ThreadPool::wait) once the running cells finish.
 *
 * @param use_cache probe and store each cell as one record in the
 *        result store under $LAPERM_CACHE_DIR (default "cache/" in the
 *        working directory), the record a served request for the same
 *        cell reads and writes. LAPERM_NO_CACHE=1 disables it; when
 *        disabled no key is computed and the store is not touched.
 * @param jobs worker threads; 0 selects LAPERM_JOBS from the
 *        environment, falling back to hardware_concurrency().
 */
std::vector<std::string> runCells(const std::vector<RunSpec> &cells,
                                  bool use_cache = true, unsigned jobs = 0);

} // namespace laperm

#endif // LAPERM_HARNESS_RUN_SPEC_HH
