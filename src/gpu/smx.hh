/**
 * @file
 * A streaming multiprocessor: resource-limited TB residency plus the
 * per-cycle warp issue engine executing the op-trace ISA against the
 * memory hierarchy.
 */

#ifndef LAPERM_GPU_SMX_HH
#define LAPERM_GPU_SMX_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "gpu/thread_block.hh"
#include "gpu/warp_scheduler.hh"
#include "mem/mem_system.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace laperm {

/** Callbacks from an SMX into the device-level machinery. */
class SmxCallbacks
{
  public:
    virtual ~SmxCallbacks() = default;

    /** A warp executed a Launch op (one request per active lane). */
    virtual void deviceLaunch(const LaunchRequest &req,
                              const ThreadBlock &parent, Cycle now) = 0;

    /** A TB retired; resources are already freed. */
    virtual void tbCompleted(ThreadBlock &tb, Cycle now) = 0;

    /**
     * Dispatch capacity grew without a TB retiring (the contention
     * throttle raised effectiveMaxTbs). Lets the TB scheduler drop a
     * memoized scan failure; timing-neutral, so a no-op by default.
     */
    virtual void dispatchCapacityFreed() {}
};

/** One SMX. */
class Smx
{
  public:
    Smx(SmxId id, const GpuConfig &cfg, MemSystem &mem,
        SmxCallbacks &callbacks);

    /** Whether a TB with the given demands fits right now. */
    bool canAccommodate(std::uint32_t threads, std::uint32_t regs,
                        std::uint32_t smem) const;

    /**
     * Get a blank block from this SMX's arena (recycled from a completed
     * TB when possible) for the caller to build into before acceptTb.
     */
    ThreadBlock *acquireTb();

    /** Make an arena block built via acquireTb schedulable. */
    void acceptTb(ThreadBlock *tb, Cycle now);

    /**
     * Issue up to warpSchedulersPerSmx warp ops at @p now.
     * @return true if any progress was made (issue or retirement).
     */
    bool tick(Cycle now);

    /** No resident warps at all. */
    bool drained() const { return residentTbs_.empty(); }

    /**
     * Earliest future cycle at which this SMX can make progress;
     * kNoCycle when drained or everything is barrier-blocked.
     */
    Cycle nextEventAt(Cycle now) const;

    SmxId id() const { return id_; }
    const SmxStats &stats() const { return stats_; }

    /** Threads of all resident TBs (the occupancy numerator). */
    std::uint32_t threadsUsed() const { return threadsUsed_; }

  private:
    void executeOp(Warp &warp, Cycle now);
    void releaseBarrier(ThreadBlock &tb, Cycle now);
    void retireWarp(Warp &warp, Cycle now);
    void completeTb(ThreadBlock &tb, Cycle now);
    void evaluateThrottle();

    SmxId id_;
    const GpuConfig &cfg_;
    MemSystem &mem_;
    SmxCallbacks &callbacks_;
    WarpScheduler warpSched_;

    /**
     * TB storage: every block ever acquired lives in the arena for the
     * SMX's lifetime; completed blocks return to the free list and are
     * recycled (with their warp/op buffers) by the next acquireTb.
     */
    std::vector<std::unique_ptr<ThreadBlock>> tbArena_;
    std::vector<ThreadBlock *> tbFree_;
    std::vector<ThreadBlock *> residentTbs_;

    std::uint32_t threadsUsed_ = 0;
    std::uint32_t regsUsed_ = 0;
    std::uint32_t smemUsed_ = 0;

    std::uint64_t nextWarpAge_ = 0;
    SmxStats stats_;

    /** Contention-based TB throttle state (Section IV-F, [12]). */
    std::uint32_t effectiveMaxTbs_;
    std::uint64_t throttleLastAccesses_ = 0;
    std::uint64_t throttleLastHits_ = 0;
};

} // namespace laperm

#endif // LAPERM_GPU_SMX_HH
