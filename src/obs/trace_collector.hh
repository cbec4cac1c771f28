/**
 * @file
 * TraceCollector: the standard observer. Accumulates the full event
 * stream of a run and exports it as (a) Chrome-trace/Perfetto JSON for
 * timeline visualization, (b) a per-interval metrics TSV for
 * time-series plots, (c) launch-latency records and histograms for
 * the Section IV-D analysis, and (d) the flat dispatch CSV of every
 * traced run (harness/experiment.hh, runTraced). All outputs are
 * deterministic functions of the event stream: integer cycle
 * timestamps, fixed field order, no wall-clock reads. Each writer
 * returns false if its file cannot be opened or written.
 */

#ifndef LAPERM_OBS_TRACE_COLLECTOR_HH
#define LAPERM_OBS_TRACE_COLLECTOR_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/observer.hh"

namespace laperm {
namespace obs {

/** One launch's latency decomposition (Section IV-D). */
struct LaunchLatency
{
    KernelId kernel = 0;
    std::uint32_t priority = 0;
    bool isDevice = false;
    bool coalesced = false;
    Cycle queuedAt = 0;
    Cycle admittedAt = 0;
    /** First TB dispatch of this kernel at/after admission; kNoCycle
     *  if the kernel never dispatched (should not happen after a
     *  drained run). */
    Cycle firstDispatchAt = kNoCycle;

    /** KMU time: modeled launch latency + KDU-full stall. */
    Cycle queueCycles() const { return admittedAt - queuedAt; }
    /** Scheduler time: admission to first TB on an SMX. */
    Cycle dispatchCycles() const
    {
        return firstDispatchAt == kNoCycle ? 0
                                           : firstDispatchAt - admittedAt;
    }
    Cycle totalCycles() const
    {
        return queueCycles() + dispatchCycles();
    }
};

class TraceCollector : public SimObserver
{
  public:
    TraceCollector() = default;

    // --- SimObserver ---
    void onTbDispatch(const TbEvent &e) override;
    void onTbRetire(const TbEvent &e) override;
    void onLaunchQueued(const LaunchEvent &e) override;
    void onLaunchAdmitted(const LaunchEvent &e) override;
    void onSteal(const StealEvent &e) override;

    /** Raw accumulated events, in emission order. */
    const std::vector<TbEvent> &dispatches() const { return dispatches_; }
    const std::vector<TbEvent> &retires() const { return retires_; }
    const std::vector<StealEvent> &steals() const { return steals_; }

    /**
     * Per-launch latency decomposition, in admission order. For DTBL
     * groups coalesced onto a running kernel the first-dispatch match
     * is by kernel id, so a group's "first TB" may belong to a sibling
     * group admitted at the same cycle — an approximation documented
     * in DESIGN.md §8.
     */
    std::vector<LaunchLatency> launchLatencies() const;

    /**
     * Chrome-trace JSON (open in Perfetto / chrome://tracing). One
     * process per SMX; TBs are duration events on residency lanes,
     * per-SMX occupancy is a counter track, steals and admissions are
     * instant events on a device-level process. ts/dur are simulated
     * cycles (displayed as microseconds by the viewers).
     */
    bool writeChromeTrace(const std::string &path) const;

    /**
     * Per-interval metrics TSV: interval start, TB dispatches/retires,
     * kernel admissions, steals, and the occupancy integral
     * (TB-cycles) per interval — the raw material for time-series
     * plots of scheduler behaviour.
     */
    bool writeIntervalTsv(const std::string &path,
                          Cycle interval = 1000) const;

    /**
     * Launch-latency histogram TSV: power-of-two buckets over the
     * queue (KMU), dispatch (scheduler) and total components, plus a
     * trailing summary row with counts and means.
     */
    bool writeLaunchLatencyTsv(const std::string &path) const;

    /**
     * One CSV row per TB dispatch, in dispatch order:
     * "uid,kernel,tbIndex,smx,cycle,priority,dynamic,parent" (parent
     * is "-" for host TBs) — the raw material for Figure 4-style
     * placement timelines.
     */
    bool writeDispatchCsv(const std::string &path) const;

  private:
    std::vector<TbEvent> dispatches_;
    std::vector<TbEvent> retires_;
    std::vector<LaunchEvent> admitted_;
    std::vector<StealEvent> steals_;
    /** Dispatch cycles per kernel, ascending (emission order). Point
     *  lookups only — never iterated. */
    std::unordered_map<KernelId, std::vector<Cycle>> kernelDispatches_;
    SmxId maxSmx_ = 0;
    Cycle lastCycle_ = 0;

    void noteCycle(Cycle c) { lastCycle_ = c > lastCycle_ ? c : lastCycle_; }
};

} // namespace obs
} // namespace laperm

#endif // LAPERM_OBS_TRACE_COLLECTOR_HH
