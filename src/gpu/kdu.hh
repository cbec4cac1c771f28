/**
 * @file
 * Kernel Distributor Unit: the table of kernels currently executable on
 * the device (maximum 32 entries on Kepler). Owns kernel instances and
 * their dispatch units.
 */

#ifndef LAPERM_GPU_KDU_HH
#define LAPERM_GPU_KDU_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "common/types.hh"
#include "kernels/kernel_program.hh"
#include "sched/dispatch_unit.hh"

namespace laperm {

/** A kernel instance (grid) resident in the KDU. */
struct KernelInstance
{
    KernelId id = 0;
    std::uint32_t functionId = 0;
    std::uint32_t threadsPerTb = 0;
    /** Total TBs in the pool; grows when DTBL groups coalesce on. */
    std::uint32_t totalTbs = 0;
    std::uint32_t dispatchedTbs = 0;
    std::uint32_t finishedTbs = 0;
    bool isDevice = false;
    /** Owning tenant stream; children inherit their parent's tenant. */
    std::uint32_t tenant = 0;
    Cycle admitCycle = 0;

    bool complete() const
    {
        return finishedTbs == totalTbs && totalTbs > 0;
    }
};

/**
 * The KDU. Kernels are admitted in FCFS order (or KMU priority order
 * under LaPerm) and occupy an entry until all their TBs finish.
 */
class Kdu
{
  public:
    explicit Kdu(std::uint32_t entries);

    bool hasFreeEntry() const { return occupied_ < entries_; }
    std::uint32_t freeEntries() const { return entries_ - occupied_; }

    /**
     * Admit a new kernel of @p total_tbs TBs.
     * @return the kernel instance (stable pointer).
     */
    KernelInstance *admitKernel(std::uint32_t function_id,
                                std::uint32_t threads_per_tb,
                                std::uint32_t total_tbs, bool is_device,
                                Cycle now, std::uint32_t tenant = 0);

    /**
     * Append @p count TBs to @p kernel (DTBL coalescing).
     * @return first TB index of the appended range.
     */
    std::uint32_t coalesceTbs(KernelInstance *kernel, std::uint32_t count);

    /** Create a dispatch unit (stable pointer, owned by the KDU). */
    DispatchUnit *createUnit();

    /** Record a finished TB; frees the entry when the kernel completes. */
    void tbFinished(KernelInstance *kernel);

    /**
     * Find a running, still-coalescable kernel matching a DTBL group's
     * configuration and tenant; nullptr if none. Groups never coalesce
     * across tenants — accounting attributes every TB to one stream.
     */
    KernelInstance *findMatch(std::uint32_t function_id,
                              std::uint32_t threads_per_tb,
                              std::uint32_t tenant = 0) const;

    /** Kernels ever admitted (monotonic id source). */
    std::uint64_t kernelsAdmitted() const { return nextId_; }

  private:
    std::uint32_t entries_;
    std::uint32_t occupied_ = 0;
    KernelId nextId_ = 0;
    std::uint64_t nextUnitSeq_ = 0;
    std::deque<KernelInstance> kernels_; ///< stable storage
    std::deque<DispatchUnit> units_;     ///< stable storage
};

} // namespace laperm

#endif // LAPERM_GPU_KDU_HH
