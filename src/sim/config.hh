/**
 * @file
 * GPU configuration modeled after the paper's Table I (NVIDIA K20c,
 * GK110, CUDA compute capability 3.5) plus the dynamic-parallelism and
 * LaPerm parameters from Sections II, IV and V.
 */

#ifndef LAPERM_SIM_CONFIG_HH
#define LAPERM_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace laperm {

/** Which dynamic-parallelism launch path the device models. */
enum class DynParModel
{
    CDP,  ///< CUDA Dynamic Parallelism: device kernels via KMU -> KDU.
    DTBL, ///< Dynamic Thread Block Launch: TB groups coalesced in KDU.
};

/** Thread-block scheduling policy (the subject of the paper). */
enum class TbPolicy
{
    RR,           ///< Baseline round-robin (Section III-B).
    TbPri,        ///< TB Prioritizing (Section IV-A).
    SmxBind,      ///< Prioritized SMX Binding (Section IV-B).
    AdaptiveBind, ///< Adaptive Prioritized SMX Binding (Section IV-C).
};

/** Warp scheduling discipline inside each SMX. */
enum class WarpPolicy
{
    GTO,     ///< Greedy-then-oldest (Table I default, [7]).
    LRR,     ///< Loose round-robin, for ablation.
    /**
     * TB-aware GTO: among ready warps, prefer those whose TB shares
     * the last-issued warp's direct parent (family grouping in the
     * spirit of [10]); the paper's Section IV-F notes LaPerm composes
     * with such warp schedulers.
     */
    TbAware,
};

/** Stage-3 stealing discipline for Adaptive-Bind (ablation knob). */
enum class BackupPolicy
{
    Recorded, ///< Paper's scheme: record and drain one backup SMX.
    Random,   ///< Steal from a random non-empty SMX each time.
};

/**
 * How the device advances simulated time (DESIGN.md §11). Both modes
 * produce byte-identical statistics and artifacts; Dense is kept as the
 * differential-testing reference for the event-driven hot path.
 */
enum class TickMode
{
    Dense, ///< Reference loop: poll every active component every cycle.
    Event, ///< Event-driven: skip to the next scheduled wakeup.
};

const char *toString(DynParModel model);
const char *toString(TbPolicy policy);
const char *toString(WarpPolicy policy);
const char *toString(TickMode mode);

/**
 * The one spelling of each run enum on the command line, on the wire
 * and in machine TOML (cdp, tbpri, tbaware, dense, ...). One table
 * per enum in config.cc holds it beside toString()'s display name,
 * which CSVs and tables print. parseWireName() accepts exactly these
 * spellings plus TbPolicy's laperm alias for Adaptive-Bind;
 * wireNameList<E>() joins the canonical ones as a|b|c for error
 * messages.
 */
const char *wireName(DynParModel model);
const char *wireName(TbPolicy policy);
const char *wireName(WarpPolicy policy);
const char *wireName(TickMode mode);
bool parseWireName(const std::string &s, DynParModel &out);
bool parseWireName(const std::string &s, TbPolicy &out);
bool parseWireName(const std::string &s, WarpPolicy &out);
bool parseWireName(const std::string &s, TickMode &out);
template <typename E> std::string wireNameList();

/**
 * Full device configuration. Defaults reproduce Table I.
 */
struct GpuConfig
{
    // --- Compute resources (Table I) ---
    std::uint32_t numSmx = 13;
    std::uint32_t maxThreadsPerSmx = 2048;
    std::uint32_t maxTbsPerSmx = 16;
    std::uint32_t regsPerSmx = 65536;
    std::uint32_t smemPerSmx = 32 * 1024;
    std::uint32_t warpSchedulersPerSmx = 4;
    WarpPolicy warpPolicy = WarpPolicy::GTO;

    /** SMXs sharing one L1 (Section IV-B cluster note); 1 = per-SMX L1. */
    std::uint32_t smxPerCluster = 1;

    // --- Memory hierarchy (Table I) ---
    std::uint32_t l1Size = 32 * 1024;
    std::uint32_t l1Assoc = 4;
    Cycle l1HitLatency = 28;

    std::uint32_t l2Size = 1536 * 1024;
    std::uint32_t l2Assoc = 16;
    std::uint32_t l2Banks = 6;
    Cycle l2HitLatency = 120;      ///< total load-to-use on L1 miss/L2 hit
    Cycle l2ServiceInterval = 2;   ///< per-bank occupancy per access

    std::uint32_t dramChannels = 5; ///< K20c: 5 x 64-bit GDDR5 controllers
    std::uint32_t dramBanksPerChannel = 8;
    Cycle dramLatency = 230;        ///< additional cycles beyond L2 on miss
    /**
     * Per-bank occupancy per 128B access. 40 banks / 18 cycles ~= 2.2
     * lines/cycle ~= 208 GB/s at the 706 MHz core clock (K20c GDDR5).
     */
    Cycle dramServiceInterval = 18;

    // --- Simulator maintenance (timing-invisible; DESIGN.md §11) ---
    /** Cycles between amortized MSHR garbage-collection sweeps. */
    Cycle mshrTrimInterval = 4096;
    /** MSHR entry count below which a trim sweep is skipped. */
    std::uint32_t mshrTrimWatermark = 16;

    // --- Kernel management (Section II-B) ---
    std::uint32_t kduEntries = 32; ///< max concurrent kernels

    // --- Execution timing ---
    Cycle barLatency = 4;      ///< cost of releasing a TB barrier
    Cycle launchIssueCycles = 40; ///< SMX-side cost of issuing a launch
    /**
     * Consecutive independent load instructions a warp issues before
     * stalling (compiler-scheduled memory-level parallelism).
     */
    std::uint32_t warpMlpWindow = 4;

    // --- Dynamic parallelism (Sections II-C, IV-D, V-A) ---
    DynParModel dynParModel = DynParModel::DTBL;
    /** Device-kernel launch latency for CDP (methodology of [15]/[16]). */
    Cycle cdpLaunchLatency = 5000;
    /** TB-group launch latency for DTBL (modeled in-simulator, [16]). */
    Cycle dtblLaunchLatency = 350;

    // --- TB scheduling / LaPerm (Section IV) ---
    TbPolicy tbPolicy = TbPolicy::RR;
    /** Maximum nested-launch priority level L (clamped beyond this). */
    std::uint32_t maxPriorityLevels = 4;
    /** On-chip SRAM priority-queue entries per SMX (3KB / 24B = 128). */
    std::uint32_t onchipQueueEntries = 128;
    /** Shared level-0 queue entries (768B / 24B = 32). */
    std::uint32_t sharedQueueEntries = 32;
    /** Extra latency to fetch an overflowed queue entry from DRAM. */
    Cycle overflowFetchLatency = 350;
    BackupPolicy backupPolicy = BackupPolicy::Recorded;

    // --- Contention-based TB throttling (Section IV-F, after [12]) ---
    /** Dynamically reduce resident TBs when the L1 thrashes. */
    bool tbThrottleEnabled = false;
    /** L1 accesses between throttle evaluations. */
    std::uint64_t throttleWindow = 4096;
    /** Miss rate above which residency shrinks by one TB. */
    double throttleHighMiss = 0.90;
    /** Miss rate below which residency grows back by one TB. */
    double throttleLowMiss = 0.70;
    /** Floor on the throttled TB residency. */
    std::uint32_t throttleMinTbs = 4;

    /** Deterministic seed forwarded to workload generators. */
    std::uint64_t seed = 1;

    /**
     * Simulation-core time-advance strategy (DESIGN.md §11). Not part
     * of the serving-layer request canonicalization: both modes yield
     * byte-identical results, so the cache key must not split on it.
     */
    TickMode tickMode = TickMode::Event;

    /** Effective on-chip queue capacity per SMX for the active model. */
    std::uint32_t effectiveOnchipEntries() const;

    /**
     * Describe the first configuration error, or return an empty
     * string when the configuration is valid. Non-fatal form used by
     * the serving layer, which must reject bad requests with an error
     * response instead of terminating the daemon.
     */
    std::string check() const;

    /** Sanity-check the configuration; fatal() on user error. */
    void validate() const;

    /**
     * Why a TB of @p threads threads needing @p regs registers and
     * @p smem bytes of shared memory can never be resident, even on an
     * empty SMX of this machine; an empty string when it fits. Such a
     * TB would wait for dispatch forever.
     */
    std::string tbMisfit(std::uint32_t threads, std::uint32_t regs,
                         std::uint32_t smem) const;

    /** One-line summary for logs. */
    std::string summary() const;
};

} // namespace laperm

#endif // LAPERM_SIM_CONFIG_HH
