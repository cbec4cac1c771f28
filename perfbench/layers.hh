/**
 * @file
 * Shared pieces of the benchmark workloads: the result a run reports,
 * the front-end replay, the per-cell counters read from GpuStats, and
 * the one function that fills every per-layer metric, so each workload
 * reports the same names (zero where it does not exercise a layer).
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "spans.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

namespace perfbench {

/**
 * Worker threads and client connections of the load. Half of the
 * reference machine's 4 cores: with all 4 busy, a pass's time follows
 * the shared host's scheduler (±10% run to run) more than the program
 * (±3–5% with 2).
 */
constexpr unsigned kJobs = 2;

/**
 * Problem scale of every simulated cell. `tiny` keeps a pass of each
 * workload to about a second, so a run holds tens of passes and its
 * medians hold still on a host whose speed drifts from second to second.
 */
constexpr laperm::Scale kScale = laperm::Scale::Tiny;

/** Times `setup_s` is measured in a run; it reports the median. */
constexpr int kSetupRepeats = 9;

/** Command-line settings of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string tmpDir;  ///< scratch for caches and the socket
    std::string spansPath; ///< where a traced run writes its spans
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors; ///< first few gate violations
    std::map<std::string, Metric> metrics;
    /** Sample count behind each timing, by metric name. */
    std::map<std::string, std::uint64_t> samples;
    /** "<cell id>\t<encoded result>" for every simulated cell. */
    std::vector<std::string> records;
    unsigned passes = 0;
    /** Wall time of every timed pass, in run order. */
    std::vector<double> passWallS;

    void set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = {value, unit};
    }
    /** Count @p ops failed operations and remember why. */
    void fail(const std::string &why, std::uint64_t ops = 1);
};

/** Work the functional front end does to rebuild every TB. */
struct FrontEndCounts
{
    std::uint64_t tbs = 0;
    std::uint64_t warpOps = 0;
    std::uint64_t lines = 0;    ///< coalesced line transactions
    std::uint64_t launches = 0; ///< device launches carried by warp ops

    void add(const FrontEndCounts &o, std::uint64_t times = 1)
    {
        tbs += o.tbs * times;
        warpOps += o.warpOps * times;
        lines += o.lines * times;
        launches += o.launches * times;
    }
};

/**
 * Rebuild every TB of every host wave with buildThreadBlockInto and
 * follow each WarpOp::launches entry recursively: the front-end work
 * of one simulation, without the timing core.
 */
FrontEndCounts replayFrontEnd(const laperm::Workload &workload);

/** Counters of one simulated cell, summed over SMXs and caches. */
struct CellCounts
{
    std::uint64_t cycles = 0;
    std::uint64_t warpInsts = 0;
    std::uint64_t tbsExecuted = 0;
    std::uint64_t l1Accesses = 0, l1Hits = 0, l1Misses = 0;
    std::uint64_t l2Accesses = 0, l2Hits = 0, l2Misses = 0;
    std::uint64_t dramAccesses = 0, dramQueueCycles = 0;
    std::uint64_t dynamicTbs = 0, boundDispatches = 0;
    std::uint64_t backupAdoptions = 0;
    std::uint64_t deviceLaunches = 0, kduFullStalls = 0;
    std::uint64_t queueOverflows = 0;

    static CellCounts from(const laperm::GpuStats &stats);
    void add(const CellCounts &other);
    /** Hits + misses equal accesses at L1 and at L2. */
    bool conserved() const;
};

/** Inputs of every per-layer metric; fields a workload skips stay 0. */
struct LayerReport
{
    double setupS = 0.0;
    double footprintBytes = 0.0;
    double replayS = 0.0;
    FrontEndCounts frontEnd;
    double runS = 0.0;
    CellCounts cells;
    double ipcGainAdaptiveVsRr = 0.0;
    double harnessCells = 0.0;
    double harnessSetupPhaseS = 0.0;
    double harnessCellP50S = 0.0;
    double harnessSlowestCellS = 0.0;
    double harnessBusyFrac = 0.0;
    double serviceExecuted = 0.0;
    double serviceHitFrac = 0.0;
    double serviceDeduped = 0.0;
    double serviceShed = 0.0;
    double serviceQueueMsMean = 0.0;
    double serviceExecMsMean = 0.0;
    double serviceInputReuseFrac = 0.0;
    double sessionHitRttP50Us = 0.0;
    double traceOverheadFrac = 0.0;
};

/** Write every per-layer metric of @p r into @p out. */
void putLayerMetrics(Outcome &out, const LayerReport &r);

/** Inputs of every end-to-end metric, one entry per timed pass. */
struct EndToEnd
{
    std::vector<double> wallS;
    std::vector<double> setupS;
    double opsPerPass = 0.0;
    double peakRssMb = 0.0; ///< read right after the first pass
    /** Per pass: the latency of every operation of that pass. */
    std::vector<std::vector<double>> latencyS;
    /** Per pass: those of its operations not served from a cache. */
    std::vector<std::vector<double>> missLatencyS;
};

/**
 * Write every end-to-end metric into @p out: medians over passes of
 * each pass's wall, set-up time and latency quantiles.
 */
void putEndToEnd(Outcome &out, const EndToEnd &e);

/** The process's peak resident set so far, in MB. */
double peakRssMb();

/** Median of @p v (0 when empty). */
double median(const std::vector<double> &v);

/** Check a traced cell: replay counts and cache conservation. */
void checkCell(Outcome &out, const std::string &cell,
               const FrontEndCounts &fe, const CellCounts &counts);

/** Full-precision one-line encoding of a sweep row. */
std::string encodeRunResult(const laperm::RunResult &r);

/** The Table I machine with the benchmark's model and policy. */
laperm::GpuConfig cellConfig(laperm::DynParModel model,
                             laperm::TbPolicy policy, std::uint64_t seed);

/**
 * Seconds of untraced passes a run times: all of --seconds, or half of
 * it before a traced pass, which the untraced median is the yardstick of.
 */
inline double
untracedSeconds(const Options &opt)
{
    return opt.trace ? opt.seconds / 2.0 : opt.seconds;
}

/** Run @p pass until @p seconds would be exceeded (at least once). */
template <class Pass>
void
repeatFor(double seconds, Outcome &out, Pass pass)
{
    const Clock::time_point start = Clock::now();
    double last = 0.0;
    do {
        const Clock::time_point t = Clock::now();
        pass();
        last = secondsSince(t);
        ++out.passes;
    } while (secondsSince(start) + last <= seconds);
}

Outcome runSuiteCold(const Options &opt);
Outcome runSweep(const Options &opt);
Outcome runServeMixed(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
