/**
 * @file
 * The top-level device: wires the memory system, SMXs, KDU, KMU,
 * launcher and the selected TB scheduler into a cycle-driven simulator.
 */

#ifndef LAPERM_GPU_GPU_HH
#define LAPERM_GPU_GPU_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "dynpar/launcher.hh"
#include "gpu/kdu.hh"
#include "gpu/smx.hh"
#include "gpu/trace_forest.hh"
#include "mem/mem_system.hh"
#include "sim/observer.hh"
#include "sched/tb_scheduler.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace laperm {

/**
 * The most cycles one run call (Gpu::runToIdle, Gpu::runUntil) or one
 * multi-tenant run may simulate before it is taken for a livelock.
 */
inline constexpr Cycle kMaxRunCycles = Cycle(1) << 36;

/**
 * Host-side work of the timing core: deterministic counts of the
 * simulator's own operations, not of simulated events. They stay out
 * of GpuStats and every result artifact; a host-side optimisation
 * shows here as less work, not only less time.
 */
struct WorkCounters
{
    /** Steps of the run loop: the cycles visited, equal in both modes. */
    std::uint64_t batches = 0;
    /**
     * Of those, the steps at which nothing was admitted, dispatched,
     * issued or retired, equal in both modes.
     */
    std::uint64_t noProgressSteps = 0;
    /** Smx::tick calls, both tick modes. */
    std::uint64_t smxTicks = 0;
    /** In-flight fills recorded at eviction, over every cache. */
    std::uint64_t mshrInserts = 0;
    /**
     * TBs the simulation thread built at dispatch (TraceForest::ensure):
     * every TB of a private run without a builder thread, fewer beside
     * one; in a shared forest, those of the nodes neither its builder
     * nor another cell built first.
     */
    std::uint64_t tbsBuilt = 0;
    /** Thread ops the programs emitted for those builds. */
    std::uint64_t threadOps = 0;
    /** TBs dispatched, each replaying its launch's traces. */
    std::uint64_t tbsReplayed = 0;
};

/**
 * A simulated GPU. Usage:
 *
 *     Gpu gpu(cfg);
 *     gpu.launchHostKernel(wave0);
 *     gpu.runToIdle();
 *     gpu.launchHostKernel(wave1);  // next host wave
 *     gpu.runToIdle();
 *     const GpuStats &s = gpu.stats();
 */
class Gpu : public SmxCallbacks, public DispatchContext
{
  public:
    explicit Gpu(const GpuConfig &cfg);
    ~Gpu() override;

    Gpu(const Gpu &) = delete;
    Gpu &operator=(const Gpu &) = delete;

    /**
     * Enqueue a host kernel (models a <<<>>> launch + its grid). The
     * request, which has no traces, is adopted into this Gpu's own
     * private forest, whose nodes it builds at dispatch and frees once
     * they retire. To replay another forest, use runForest.
     */
    void launchHostKernel(const LaunchRequest &req);

    /**
     * Run until all launched work — including dynamically spawned
     * kernels/TB groups — has drained.
     */
    void runToIdle();

    /**
     * Run until the device is idle or the clock reaches @p stop,
     * whichever comes first (time-sliced execution for the multi-tenant
     * manager). Slice boundaries are timing-transparent: running
     * runUntil(a) then runUntil(b) is byte-identical to one
     * runUntil(b), and a fully sliced run matches runToIdle for
     * policies whose failed dispatch probes are side-effect-free.
     */
    void runUntil(Cycle stop);

    /**
     * Jump an idle device forward to @p cycle (the open-loop arrival
     * gap). Asserts idleness; a drained device has no SMX armed, so the
     * next slice starts from the new clock.
     */
    void advanceTo(Cycle cycle);

    /** Whether all launched work has drained. */
    bool isIdle() const { return idle(); }

    /** Threads resident across all SMXs (the occupancy numerator). */
    std::uint64_t residentThreads() const;

    /**
     * Gate @p tenant's dispatch (kNoTenant: none). Only legal between
     * run slices. A change may make a blocked unit dispatchable, so
     * memoized schedulers drop their failed-scan memo.
     */
    void setGatedTenant(std::uint32_t tenant)
    {
        gatedTenant_ = tenant;
        sched_->noteCapacityFreed();
    }

    /** Convenience: launch each wave and drain it before the next. */
    void runWaves(const std::vector<LaunchRequest> &waves);

    /**
     * Start a run of @p forest (TraceForest::start) and replay its
     * waves, each drained before the next. The Gpu builds each node no
     * other thread has built (ensure). A private forest's node is freed
     * once its last TB retires (retire); a shared forest's runs retire
     * nothing, so other Gpus may replay it at the same time. A builder
     * thread may run forest.buildAhead() meanwhile. The forest must
     * outlive the Gpu's run.
     */
    void runForest(TraceForest &forest);

    /** Finalized statistics (also flushes cache/SMX counters). */
    const GpuStats &stats();

    /** Host work done so far (see WorkCounters). */
    WorkCounters workCounters() const;

    Cycle now() const { return cycle_; }
    const GpuConfig &config() const { return cfg_; }
    const MemSystem &mem() const { return mem_; }
    const Kdu &kdu() const { return kdu_; }

    /** TBs dispatched and not yet finished. */
    std::uint64_t activeTbs() const { return activeTbs_; }
    /** TBs visible to the scheduler but not yet dispatched. */
    std::uint64_t undispatchedTbs() const { return undispatchedTbs_; }

    /** Attach-point for structured observers (DESIGN.md §8). */
    obs::ObserverHub &observers() override { return hub_; }

    /**
     * Attach locality-attribution counters; the memory system reports
     * every L1/L2 access to it. Pass nullptr to detach. The tracker
     * must outlive the run.
     */
    void setLocalityTracker(obs::MemObserver *tracker);

    // --- DispatchContext ---
    std::uint32_t numSmx() const override { return cfg_.numSmx; }
    bool fits(SmxId smx, const DispatchUnit &unit) const override;
    void dispatchTb(DispatchUnit &unit, SmxId smx, Cycle now) override;
    GpuStats &mutableStats() override { return stats_; }
    std::uint32_t gatedTenant() const override { return gatedTenant_; }

    // --- SmxCallbacks ---
    void deviceLaunch(const LaunchRequest &req, const ThreadBlock &parent,
                      Cycle now) override;
    void tbCompleted(ThreadBlock &tb, Cycle now) override;
    void dispatchCapacityFreed() override;

  private:
    /**
     * The run loop of both tick modes: step until idle or until the
     * clock reaches @p stop (kNoCycle: no stop). A call that runs past
     * kMaxRunCycles panics.
     */
    void run(Cycle stop);
    void step(); ///< visit cycle_, then move to the next visited cycle
    void trimMshrsIfDue(Cycle now);
    bool idle() const;
    void noteSmxBusy(SmxId id);
    void armSmx(SmxId id, Cycle cycle);

    GpuConfig cfg_;
    MemSystem mem_;
    Kdu kdu_;
    std::unique_ptr<TbScheduler> sched_;
    std::unique_ptr<Launcher> launcher_;
    std::vector<std::unique_ptr<Smx>> smxs_;

    /**
     * SMXs with resident TBs, ascending. The SMX phase scans only
     * these; most SMXs idle through the tail of a wave, so this keeps
     * the per-cycle cost proportional to live work. Kept sorted so tick
     * order matches the full 0..N-1 scan exactly.
     */
    std::vector<SmxId> activeSmxs_;
    std::vector<bool> smxActive_;

    /** Amortized MSHR garbage collection (see trimMshrsIfDue()). */
    Cycle nextMshrTrimAt_ = 0;

    /**
     * Event-mode SMX schedule: the cycle each SMX is armed for
     * (kNoCycle when unarmed). Arming only ever lowers an entry, and
     * smxNextAt_ caches the minimum of smxArmedAt_.
     */
    std::vector<Cycle> smxArmedAt_;
    Cycle smxNextAt_ = kNoCycle;

    /** Adopts host launches (launchHostKernel); made at the first. */
    std::unique_ptr<TraceForest> own_;
    /**
     * The forest this run replays: own_ or runForest's. The run builds
     * its unbuilt nodes at dispatch, and retires its nodes if it is
     * private. Null until the first launch.
     */
    TraceForest *forest_ = nullptr;
    /** ensure()'s build arrays, this Gpu's thread only. */
    TraceForest::Scratch scratch_;

    GpuStats stats_;
    WorkCounters work_;
    Cycle cycle_ = 0;
    TbUid nextTbUid_ = 0;
    std::uint64_t undispatchedTbs_ = 0;
    std::uint64_t activeTbs_ = 0;

    obs::ObserverHub hub_;
    std::uint32_t gatedTenant_ = kNoTenant;
};

} // namespace laperm

#endif // LAPERM_GPU_GPU_HH
