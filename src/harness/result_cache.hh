/**
 * @file
 * Content-addressed, fingerprint-versioned result cache shared by the
 * sweep harness (harness/experiment.cc) and the serving subsystem
 * (src/serve).
 *
 * Three pieces:
 *
 *  - ResultRecord: the canonical single-line encoding of one
 *    simulation's statistics. Doubles are stored with %.17g so they
 *    round-trip bit-exactly; every consumer-facing rendering (the
 *    laperm_sim --csv row, the sweep-harness TSV row) regenerated from
 *    a record is byte-identical to one produced directly from the
 *    simulation. This is the determinism contract of the serve layer.
 *
 *  - ResultCache: payload files keyed either by an explicit path (the
 *    sweep TSV) or by a content key (served requests). Every file
 *    starts with a "# laperm-cache fingerprint=<hex>" line; a load
 *    whose fingerprint differs from the current simulator fingerprint
 *    is treated as a miss, so entries written by an older binary
 *    self-invalidate instead of silently serving stale results.
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

namespace laperm {

struct RunResult; // harness/experiment.hh

/** Build-time simulator fingerprint (env LAPERM_SIM_FINGERPRINT wins). */
std::string simFingerprint();

/** Cache directory: $LAPERM_CACHE_DIR, default "cache". */
std::string cacheRootDir();

/**
 * Canonical record of one simulation run: every counter both the
 * laperm_sim CSV report and the sweep harness TSV derive from.
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
 * Serialize sweep results in the harness TSV format (header comment +
 * one row per cell, ostream default float formatting — the format
 * cached under sweepCachePath() and printed by laperm_submit --batch).
 *
 * When every row's preset is "k20c" the legacy 12-column format is
 * emitted byte-identically to pre-preset releases; any other preset
 * switches the whole table to the extended format with a leading
 * "preset" column. decodeSweepTsv() accepts both.
 */
std::string encodeSweepTsv(const std::vector<RunResult> &rows);

/** Parse encodeSweepTsv output (either format); false on a bad row. */
bool decodeSweepTsv(const std::string &tsv, std::vector<RunResult> &out);

/**
 * Fingerprint-gated payload storage. Not itself thread-safe per entry;
 * writers use a write-temp-then-rename so readers never observe a
 * partial file (the serve layer additionally single-flights identical
 * keys, see serve/service.hh).
 */
class ResultCache
{
  public:
    /** Empty dir/fingerprint select cacheRootDir()/simFingerprint(). */
    explicit ResultCache(std::string dir = std::string(),
                         std::string fingerprint = std::string());

    const std::string &dir() const { return dir_; }
    const std::string &fingerprint() const { return fingerprint_; }

    /** File backing a content key: "<dir>/results/<key>.rec". */
    std::string entryPath(const std::string &key) const;

    /** Load a content-keyed payload; false on miss or stale entry. */
    bool load(const std::string &key, std::string &payload) const;

    /** Store a content-keyed payload (creates directories). */
    bool store(const std::string &key, const std::string &payload) const;

    /**
     * Load a payload from an explicit path, validating the embedded
     * fingerprint; false on miss, stale fingerprint, or bad header.
     */
    bool loadFile(const std::string &path, std::string &payload) const;

    /** Atomically write fingerprint header + payload to @p path. */
    bool storeFile(const std::string &path,
                   const std::string &payload) const;

  private:
    std::string dir_;
    std::string fingerprint_;
};

/**
 * Two-tier cache for the serve layer (DESIGN.md §15.3): a per-process
 * in-memory map (L1) in front of the fingerprint-gated on-disk
 * ResultCache (L2). The disk tier is SHARED — every process pointed at
 * the same directory sees it, so a result computed before a daemon
 * restart is a (promoted) hit afterwards.
 *
 * probe() distinguishes where a hit came from: Memory means this
 * process stored or already promoted the entry; Shared means the bytes
 * came off disk — i.e. another process (or a previous incarnation of
 * this one) paid for the run. That distinction is what the
 * cache_mem_hits / cache_shared_hits service metrics count.
 *
 * Thread-safe; disk writes go through ResultCache's unique-temp
 * rename, so concurrent writers of one key are last-writer-wins with
 * no torn reads.
 */
class TieredResultCache
{
  public:
    /** Empty dir/fingerprint select cacheRootDir()/simFingerprint(). */
    explicit TieredResultCache(std::string dir = std::string(),
                               std::string fingerprint = std::string());

    enum class Tier
    {
        Miss,
        Memory, ///< in-process L1
        Shared, ///< on-disk L2; entry was promoted to L1
    };

    /** Look up @p key; fills @p payload unless Miss. */
    Tier probe(const std::string &key, std::string &payload);

    /** Write through: disk first, then the in-memory tier. */
    bool store(const std::string &key, const std::string &payload);

    /**
     * Drop the in-memory tier (what a daemon restart does to L1). The
     * shared tier is untouched; the next probe of a stored key reports
     * Shared. Tests use this to measure cross-incarnation hits without
     * restarting a process.
     */
    void dropMemory();

    std::size_t memorySize() const;
    const std::string &fingerprint() const
    {
        return disk_.fingerprint();
    }
    const ResultCache &shared() const { return disk_; }

  private:
    ResultCache disk_;
    mutable std::mutex mu_;
    std::map<std::string, std::string> mem_;
};

} // namespace laperm

#endif // LAPERM_HARNESS_RESULT_CACHE_HH
