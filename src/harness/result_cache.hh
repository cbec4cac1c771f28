/**
 * @file
 * The one result store (DESIGN.md §15.3), shared by the sweep harness
 * (harness/experiment.cc, harness/tenant_sweep.cc) and the serving
 * subsystem (src/serve). Every sweep cell, tenant-sweep cell and
 * served request is one record under one content key.
 *
 * Four pieces:
 *
 *  - ResultRecord: the canonical single-line encoding of one
 *    simulation's statistics. Doubles are stored with %.17g so they
 *    round-trip bit-exactly; every consumer-facing rendering (the
 *    laperm_sim --csv row, the sweep-harness RunResult) regenerated
 *    from a record is byte-identical to one produced directly from the
 *    simulation. This is the determinism contract of the store.
 *
 *  - appCellCanonical() / mixCellCanonical(): the canonical strings of
 *    the two kinds of cell, hashed by contentKey(). A sweep cell and
 *    the served request that means the same simulation share a key.
 *
 *  - ResultCache: a per-process memory tier over payload files
 *    "<dir>/results/<key>.rec". Every file starts with a
 *    "# laperm-cache fingerprint=<hex>" line; a file whose fingerprint
 *    differs from the current simulator fingerprint is a miss, so
 *    entries written by an older binary self-invalidate instead of
 *    silently serving stale results.
 *
 *  - simFingerprint(): build-time content hash over the simulator
 *    sources (cmake/GenFingerprint.cmake), overridable through the
 *    LAPERM_SIM_FINGERPRINT environment variable for tests.
 */

#ifndef LAPERM_HARNESS_RESULT_CACHE_HH
#define LAPERM_HARNESS_RESULT_CACHE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/hash.hh" // fnv1a64 / contentKey, re-exported for callers
#include "sim/config.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

namespace laperm {

struct RunResult; // harness/experiment.hh

/** Build-time simulator fingerprint (env LAPERM_SIM_FINGERPRINT wins). */
std::string simFingerprint();

/** Cache directory: $LAPERM_CACHE_DIR, default "cache". */
std::string cacheRootDir();

/**
 * Canonical record of one simulation run: every counter both the
 * laperm_sim CSV report and the sweep harness RunResult derive from.
 */
struct ResultRecord
{
    std::string workload;
    DynParModel model = DynParModel::CDP;
    TbPolicy policy = TbPolicy::RR;

    /**
     * Machine-config content hash (sim/config_loader.hh machineHash).
     * Empty means "the default k20c machine"; encode() materializes
     * the default hash so every stored record is self-describing.
     */
    std::string config;

    std::uint64_t cycles = 0;
    std::uint64_t launches = 0;    ///< GpuStats::deviceLaunches
    std::uint64_t dynamicTbs = 0;
    std::uint64_t bound = 0;       ///< GpuStats::boundDispatches
    std::uint64_t overflows = 0;   ///< GpuStats::queueOverflows
    std::uint64_t kduStalls = 0;   ///< GpuStats::kduFullStalls
    double ipc = 0.0;
    double l1 = 0.0;
    double l2 = 0.0;
    double util = 0.0;
    double imbalance = 0.0;

    /** @p config_hash empty means the default (k20c) machine. */
    static ResultRecord fromStats(const std::string &workload,
                                  DynParModel model, TbPolicy policy,
                                  const GpuStats &stats,
                                  const std::string &config_hash =
                                      std::string());

    /** Single-line "v1 k=v ..." encoding; doubles round-trip exactly. */
    std::string encode() const;

    /** Parse encode() output; false on malformed/missing fields. */
    static bool decode(const std::string &line, ResultRecord &out);

    /** The laperm_sim --csv row (no trailing newline). */
    std::string csvRow() const;

    /**
     * csvRow() plus a trailing config-hash column; pairs with
     * statsCsvHeaderWithConfig(). Used only for non-default machines so
     * the default-config CSV stays byte-identical across releases.
     */
    std::string csvRowWithConfig() const;

    /** True when the record's machine differs from the k20c default. */
    bool customMachine() const;

    /** Convert to the sweep harness metric row. */
    RunResult toRunResult() const;
};

/** Header row matching ResultRecord::csvRow (no trailing newline). */
const char *statsCsvHeader();

/** Header row matching ResultRecord::csvRowWithConfig. */
const char *statsCsvHeaderWithConfig();

/**
 * Render sweep results as the legacy harness TSV (header comment + one
 * row per cell, ostream default float formatting), the table
 * laperm_submit --batch prints.
 */
std::string encodeSweepTsv(const std::vector<RunResult> &rows);

/**
 * Canonical string of one single-app cell: the run coordinates in
 * fixed order, then canonicalMachine(cfg), so every spelling of one
 * machine (preset name, TOML, shortcut fields) gives one string. The
 * model, policy and seed come from the arguments, not from @p cfg.
 */
std::string appCellCanonical(const std::string &workload,
                             DynParModel model, TbPolicy policy,
                             Scale scale, std::uint64_t seed,
                             const GpuConfig &cfg);

/**
 * Canonical string of one multi-tenant mix cell. The mix names its own
 * workloads and scales, so neither is part of the string; the preset
 * label is, because the tenant TSV payload carries it as a column.
 */
std::string mixCellCanonical(const std::string &mix,
                             const std::string &preset, DynParModel model,
                             TbPolicy policy, std::uint64_t seed,
                             const GpuConfig &cfg);

/**
 * The result store: a per-process memory tier over the
 * fingerprint-gated disk tier "<dir>/results/<key>.rec". The disk tier
 * is SHARED: every process pointed at the same directory sees it, so a
 * result computed by a sweep, another daemon or a previous incarnation
 * of this one is a (promoted) hit.
 *
 * probe() distinguishes where a hit came from: Memory means this
 * object stored or already promoted the entry; Shared means the bytes
 * came off disk. The serve layer counts the two as cache_mem_hits and
 * cache_shared_hits.
 *
 * Thread-safe. Disk writes go to a unique temp file that is renamed
 * into place, so concurrent writers of one key are last-writer-wins
 * and readers never see a torn entry.
 */
class ResultCache
{
  public:
    /** Empty dir/fingerprint select cacheRootDir()/simFingerprint(). */
    explicit ResultCache(std::string dir = std::string(),
                         std::string fingerprint = std::string());

    enum class Tier
    {
        Miss,
        Memory, ///< stored or promoted by this object
        Shared, ///< read off disk; the entry was promoted to memory
    };

    /** Look up @p key; fills @p payload unless Miss. */
    Tier probe(const std::string &key, std::string &payload);

    /** Write through: disk first, then the memory tier. */
    bool store(const std::string &key, const std::string &payload);

    /**
     * Drop the memory tier (what a daemon restart does to it). The disk
     * tier is untouched; the next probe of a stored key reports Shared.
     * Tests use this to measure cross-incarnation hits without
     * restarting a process.
     */
    void dropMemory();

    std::size_t memorySize() const;
    const std::string &fingerprint() const { return fingerprint_; }

  private:
    std::string dir_;
    std::string fingerprint_;
    mutable std::mutex mu_;
    std::map<std::string, std::string> mem_;
};

} // namespace laperm

#endif // LAPERM_HARNESS_RESULT_CACHE_HH
