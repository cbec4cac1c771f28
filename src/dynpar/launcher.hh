/**
 * @file
 * The dynamic-parallelism launch path: routes device-side launches
 * through the KMU with the model's launch latency and admits them into
 * the KDU — as new device kernels (CDP) or as TB groups coalesced onto
 * matching kernels (DTBL).
 */

#ifndef LAPERM_DYNPAR_LAUNCHER_HH
#define LAPERM_DYNPAR_LAUNCHER_HH

#include <cstdint>
#include <string>

#include "gpu/kdu.hh"
#include "gpu/kmu.hh"
#include "gpu/thread_block.hh"
#include "sim/observer.hh"
#include "sched/tb_scheduler.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace laperm {

/**
 * Why @p req's TBs can never be resident on an SMX of @p cfg
 * (GpuConfig::tbMisfit), or an empty string when they fit.
 */
std::string launchMisfit(const GpuConfig &cfg, const LaunchRequest &req);

/** CDP/DTBL launch handling (Sections II-C and IV). */
class Launcher
{
  public:
    Launcher(const GpuConfig &cfg, Kdu &kdu, TbScheduler &sched,
             GpuStats &stats, std::uint64_t &undispatched_tbs,
             obs::ObserverHub &hub);

    /** Admit a host-launched kernel immediately (needs a KDU entry). */
    void hostLaunch(const LaunchRequest &req, Cycle now);

    /** A warp executed a launch op; buffer it in the KMU. */
    void deviceLaunch(const LaunchRequest &req, const ThreadBlock &parent,
                      Cycle now);

    /**
     * Admit at most one pending launch whose latency has elapsed.
     * @return true if an admission happened (device made progress).
     */
    bool tick(Cycle now);

    /** No pending device launches buffered. */
    bool idle() const { return kmu_.empty(); }

    /**
     * Earliest *future* cycle a pending launch becomes ready; kNoCycle
     * if none (ready-but-blocked launches resume on TB completion).
     */
    Cycle nextReadyAt(Cycle now) const;

    const Kmu &kmu() const { return kmu_; }

  private:
    /** Build a dispatch unit for an admitted launch and enqueue it. */
    void makeUnit(KernelInstance *kernel, std::uint32_t first_tb,
                  const PendingLaunch &launch, Cycle now);

    const GpuConfig &cfg_;
    Kdu &kdu_;
    TbScheduler &sched_;
    GpuStats &stats_;
    std::uint64_t &undispatchedTbs_;
    obs::ObserverHub &hub_;
    Kmu kmu_;
};

} // namespace laperm

#endif // LAPERM_DYNPAR_LAUNCHER_HH
