#include "layers.hh"

#include <sys/resource.h>

#include <algorithm>
#include <memory>

#include "common/log.hh"
#include "gpu/gpu.hh"
#include "gpu/thread_block.hh"
#include "harness/thread_pool.hh"
#include "sim/config_loader.hh"
#include "spans.hh"
#include "workloads/registry.hh"

using namespace laperm;

namespace perfbench {

void
Outcome::fail(const std::string &why, std::uint64_t ops)
{
    failed += ops;
    if (errors.size() < 16)
        errors.push_back(why);
}

FrontEndCounts
replayFrontEnd(const Workload &workload)
{
    FrontEndCounts c;
    ThreadBlock tb;
    std::vector<ThreadCtx> scratch;
    std::vector<LaunchRequest> pending(workload.waves().begin(),
                                       workload.waves().end());
    while (!pending.empty()) {
        const LaunchRequest req = std::move(pending.back());
        pending.pop_back();
        for (std::uint32_t ix = 0; ix < req.numTbs; ++ix) {
            buildThreadBlockInto(tb, *req.program, ix, req.threadsPerTb,
                                 req.numTbs, scratch);
            ++c.tbs;
            for (const Warp &warp : tb.warps) {
                c.warpOps += warp.ops.size();
                for (const WarpOp &op : warp.ops) {
                    c.lines += op.lines.size();
                    c.launches += op.launches.size();
                    pending.insert(pending.end(), op.launches.begin(),
                                   op.launches.end());
                }
            }
        }
    }
    return c;
}

CellCounts
CellCounts::from(const GpuStats &stats)
{
    CellCounts c;
    c.cycles = stats.cycles;
    for (const SmxStats &s : stats.smx) {
        c.warpInsts += s.warpInstructions;
        c.tbsExecuted += s.tbsExecuted;
    }
    const CacheStats l1 = stats.l1Total();
    c.l1Accesses = l1.accesses;
    c.l1Hits = l1.hits;
    c.l1Misses = l1.misses;
    c.l2Accesses = stats.l2.accesses;
    c.l2Hits = stats.l2.hits;
    c.l2Misses = stats.l2.misses;
    c.dramAccesses = stats.dram.reads + stats.dram.writes;
    c.dramQueueCycles = stats.dram.totalQueueCycles;
    c.dynamicTbs = stats.dynamicTbs;
    c.boundDispatches = stats.boundDispatches;
    c.backupAdoptions = stats.backupAdoptions;
    c.deviceLaunches = stats.deviceLaunches;
    c.kduFullStalls = stats.kduFullStalls;
    c.queueOverflows = stats.queueOverflows;
    return c;
}

void
CellCounts::add(const CellCounts &o)
{
    cycles += o.cycles;
    warpInsts += o.warpInsts;
    tbsExecuted += o.tbsExecuted;
    l1Accesses += o.l1Accesses;
    l1Hits += o.l1Hits;
    l1Misses += o.l1Misses;
    l2Accesses += o.l2Accesses;
    l2Hits += o.l2Hits;
    l2Misses += o.l2Misses;
    dramAccesses += o.dramAccesses;
    dramQueueCycles += o.dramQueueCycles;
    dynamicTbs += o.dynamicTbs;
    boundDispatches += o.boundDispatches;
    backupAdoptions += o.backupAdoptions;
    deviceLaunches += o.deviceLaunches;
    kduFullStalls += o.kduFullStalls;
    queueOverflows += o.queueOverflows;
}

bool
CellCounts::conserved() const
{
    return l1Hits + l1Misses == l1Accesses &&
           l2Hits + l2Misses == l2Accesses;
}

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return ratio(static_cast<double>(num), static_cast<double>(den));
}

} // namespace

void
putLayerMetrics(Outcome &out, const LayerReport &r)
{
    const CellCounts &c = r.cells;
    const auto fe = r.frontEnd;
    out.set("workloads.setup_s", r.setupS, "s");
    out.set("workloads.footprint_mb", r.footprintBytes / 1e6, "MB");
    out.set("kernels.replay_s", r.replayS, "s");
    out.set("kernels.tbs_built", static_cast<double>(fe.tbs), "count");
    out.set("kernels.warp_ops", static_cast<double>(fe.warpOps), "count");
    out.set("kernels.lines_coalesced", static_cast<double>(fe.lines),
            "count");
    out.set("kernels.launches", static_cast<double>(fe.launches), "count");
    out.set("kernels.ns_per_warp_op", 1e9 * ratio(r.replayS,
                                                  static_cast<double>(
                                                      fe.warpOps)),
            "ns");
    out.set("gpu.run_s", r.runS, "s");
    out.set("gpu.core_est_s", r.runS - r.replayS, "s");
    out.set("gpu.sim_cycles", static_cast<double>(c.cycles), "cycles");
    out.set("gpu.warp_insts", static_cast<double>(c.warpInsts), "count");
    out.set("gpu.tbs_executed", static_cast<double>(c.tbsExecuted),
            "count");
    out.set("gpu.ns_per_warp_inst",
            1e9 * ratio(r.runS, static_cast<double>(c.warpInsts)), "ns");
    out.set("mem.l1_accesses", static_cast<double>(c.l1Accesses), "count");
    out.set("mem.l1_hit_rate", ratio(c.l1Hits, c.l1Accesses), "ratio");
    out.set("mem.l2_accesses", static_cast<double>(c.l2Accesses), "count");
    out.set("mem.l2_hit_rate", ratio(c.l2Hits, c.l2Accesses), "ratio");
    out.set("mem.dram_accesses", static_cast<double>(c.dramAccesses),
            "count");
    out.set("mem.dram_queue_cycles_avg",
            ratio(c.dramQueueCycles, c.dramAccesses), "cycles");
    out.set("sched.bound_frac", ratio(c.boundDispatches, c.dynamicTbs),
            "ratio");
    out.set("sched.backup_adoptions", static_cast<double>(c.backupAdoptions),
            "count");
    out.set("sched.ipc_gain_adaptive_vs_rr", r.ipcGainAdaptiveVsRr, "x");
    out.set("dynpar.device_launches", static_cast<double>(c.deviceLaunches),
            "count");
    out.set("dynpar.kdu_full_stalls", static_cast<double>(c.kduFullStalls),
            "count");
    out.set("dynpar.queue_overflows", static_cast<double>(c.queueOverflows),
            "count");
    out.set("harness.cells", r.harnessCells, "count");
    out.set("harness.setup_phase_s", r.harnessSetupPhaseS, "s");
    out.set("harness.cell_s_p50", r.harnessCellP50S, "s");
    out.set("harness.slowest_cell_s", r.harnessSlowestCellS, "s");
    out.set("harness.pool_busy_frac", r.harnessBusyFrac, "ratio");
    out.set("service.executed", r.serviceExecuted, "count");
    out.set("service.hit_frac", r.serviceHitFrac, "ratio");
    out.set("service.deduped", r.serviceDeduped, "count");
    out.set("service.shed", r.serviceShed, "count");
    out.set("service.queue_ms_mean", r.serviceQueueMsMean, "ms");
    out.set("service.exec_ms_mean", r.serviceExecMsMean, "ms");
    out.set("service.input_reuse_frac", r.serviceInputReuseFrac, "ratio");
    out.set("session.hit_rtt_p50_us", r.sessionHitRttP50Us, "us");
    out.set("trace.overhead_frac", r.traceOverheadFrac, "ratio");
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
putEndToEnd(Outcome &out, const EndToEnd &e)
{
    // Host speed moves from second to second, so each figure is a
    // median over the run's passes, never one pooled tail.
    auto perPass = [](const std::vector<std::vector<double>> &passes,
                      double q) {
        std::vector<double> v;
        for (const std::vector<double> &pass : passes)
            v.push_back(quantile(pass, q));
        return median(v);
    };
    const double wall = median(e.wallS);
    out.set("wall_s", wall, "s");
    out.set("setup_s", median(e.setupS), "s");
    out.set("peak_rss_mb", e.peakRssMb, "MB");
    out.set("req_per_s", e.opsPerPass / wall, "1/s");
    out.set("latency_p50_ms", 1e3 * perPass(e.latencyS, 0.50), "ms");
    out.set("latency_p99_ms", 1e3 * perPass(e.latencyS, 0.99), "ms");
    out.set("miss_latency_p50_ms", 1e3 * perPass(e.missLatencyS, 0.50),
            "ms");
    std::uint64_t latency = 0, miss = 0;
    for (const std::vector<double> &pass : e.latencyS)
        latency += pass.size();
    for (const std::vector<double> &pass : e.missLatencyS)
        miss += pass.size();
    out.passWallS = e.wallS;
    out.samples["wall"] = e.wallS.size();
    out.samples["setup"] = e.setupS.size();
    out.samples["latency"] = latency;
    out.samples["miss_latency"] = miss;
}

void
checkCell(Outcome &out, const std::string &cell, const FrontEndCounts &fe,
          const CellCounts &counts)
{
    if (fe.tbs != counts.tbsExecuted || fe.warpOps != counts.warpInsts) {
        out.fail(logFormat("%s: replay built %llu TBs / %llu warp ops, "
                           "simulation ran %llu / %llu",
                           cell.c_str(),
                           static_cast<unsigned long long>(fe.tbs),
                           static_cast<unsigned long long>(fe.warpOps),
                           static_cast<unsigned long long>(
                               counts.tbsExecuted),
                           static_cast<unsigned long long>(
                               counts.warpInsts)));
    }
    if (!counts.conserved())
        out.fail(cell + ": cache hits + misses != accesses");
}

std::string
encodeRunResult(const RunResult &r)
{
    return logFormat("%s %s %s ipc=%.17g l1=%.17g l2=%.17g cycles=%.17g "
                     "util=%.17g imbalance=%.17g bound=%.17g "
                     "overflows=%.17g kduStalls=%.17g",
                     r.workload.c_str(), toString(r.model),
                     toString(r.policy), r.ipc, r.l1HitRate, r.l2HitRate,
                     r.cycles, r.smxUtilization, r.smxImbalance,
                     r.boundFraction, r.queueOverflows, r.kduFullStalls);
}

GpuConfig
cellConfig(DynParModel model, TbPolicy policy, std::uint64_t seed)
{
    GpuConfig cfg = paperConfig();
    cfg.dynParModel = model;
    cfg.tbPolicy = policy;
    cfg.seed = seed;
    cfg.validate();
    return cfg;
}

// ---------------------------------------------------------------- suite-cold

namespace {

std::string
suiteCellId(const std::string &name)
{
    return "suite-cold/" + name + "/DTBL/Adaptive-Bind";
}

/** One untraced suite: what `laperm_sim --workload all` does. */
struct SuitePass
{
    double wallS = 0.0;
    double setupS = 0.0;
    /** When each cell's result was ready, from the suite's start. */
    std::vector<double> doneS;
    std::vector<std::string> records;
};

SuitePass
suitePass(std::uint64_t seed)
{
    SuitePass p;
    const GpuConfig cfg =
        cellConfig(DynParModel::DTBL, TbPolicy::AdaptiveBind, seed);
    const Clock::time_point start = Clock::now();
    for (const std::string &name : workloadNames()) {
        const Clock::time_point t0 = Clock::now();
        auto w = createWorkload(name);
        w->setup(kScale, seed);
        p.setupS += secondsSince(t0);
        const ResultRecord rec = runOneRecord(*w, cfg, std::string());
        w.reset();
        p.doneS.push_back(secondsSince(start));
        p.records.push_back(suiteCellId(name) + "\t" + rec.encode());
    }
    p.wallS = secondsSince(start);
    return p;
}

/** Records of a later pass must repeat the first pass's bytes. */
void
checkRepeat(Outcome &out, const std::vector<std::string> &first,
            const std::vector<std::string> &again)
{
    for (std::size_t i = 0; i < first.size(); ++i) {
        if (i >= again.size() || again[i] != first[i])
            out.fail("record differs between passes: " + first[i]);
    }
}

} // namespace

Outcome
runSuiteCold(const Options &opt)
{
    Outcome out;
    std::vector<SuitePass> passes;
    double rssMb = 0.0; // after the first pass: later passes add nothing
    repeatFor(untracedSeconds(opt), out, [&] {
        passes.push_back(suitePass(opt.seed));
        if (passes.size() == 1)
            rssMb = peakRssMb();
    });
    for (const SuitePass &p : passes) {
        out.attempted += p.doneS.size();
        checkRepeat(out, passes.front().records, p.records);
    }
    out.records = passes.front().records;

    if (!opt.trace) {
        EndToEnd e;
        for (const SuitePass &p : passes) {
            e.wallS.push_back(p.wallS);
            e.setupS.push_back(p.setupS);
            // The caller asked for every cell when the suite started.
            e.latencyS.push_back(p.doneS);
        }
        e.opsPerPass = static_cast<double>(workloadNames().size());
        e.missLatencyS = e.latencyS; // no result cache: every op misses
        e.peakRssMb = rssMb;
        putEndToEnd(out, e);
        return out;
    }

    // Traced pass: the same suite with a span around every layer call,
    // plus the front-end replay of each workload beside its cell.
    SpanLog log(true);
    LayerReport r;
    const GpuConfig cfg =
        cellConfig(DynParModel::DTBL, TbPolicy::AdaptiveBind, opt.seed);
    const Clock::time_point start = Clock::now();
    {
        Scope root(log, "suite");
        for (std::size_t i = 0; i < workloadNames().size(); ++i) {
            const std::string &name = workloadNames()[i];
            const auto id = static_cast<std::int64_t>(i);
            std::unique_ptr<Workload> w;
            CellCounts counts;
            ResultRecord rec;
            {
                Scope cell(log, "harness.cell", root.index(), id);
                {
                    Scope s(log, "workloads.setup", cell.index(), id);
                    w = createWorkload(name);
                    w->setup(kScale, opt.seed);
                }
                {
                    Scope s(log, "gpu.run", cell.index(), id);
                    Gpu gpu(cfg);
                    gpu.runWaves(w->waves());
                    counts = CellCounts::from(gpu.stats());
                    rec = ResultRecord::fromStats(name, cfg.dynParModel,
                                                  cfg.tbPolicy, gpu.stats(),
                                                  machineHash(cfg));
                }
                r.footprintBytes += static_cast<double>(w->footprintBytes());
            }
            FrontEndCounts fe;
            {
                Scope s(log, "kernels.replay", root.index(), id);
                fe = replayFrontEnd(*w);
            }
            {
                Scope s(log, "workloads.teardown", root.index(), id);
                w.reset();
            }
            ++out.attempted;
            checkCell(out, suiteCellId(name), fe, counts);
            if (suiteCellId(name) + "\t" + rec.encode() != out.records[i])
                out.fail(suiteCellId(name) + ": traced record differs");
            r.frontEnd.add(fe);
            r.cells.add(counts);
        }
    }
    const double tracedWall = secondsSince(start);
    r.setupS = log.selfSeconds("workloads.setup");
    r.replayS = log.selfSeconds("kernels.replay");
    r.runS = log.selfSeconds("gpu.run");
    const std::vector<double> cells = log.durations("harness.cell");
    r.harnessCells = static_cast<double>(cells.size());
    r.harnessSetupPhaseS = r.setupS;
    r.harnessCellP50S = median(cells);
    r.harnessSlowestCellS = *std::max_element(cells.begin(), cells.end());
    r.harnessBusyFrac =
        log.totalSeconds("harness.cell") / (tracedWall - r.replayS);
    std::vector<double> walls;
    for (const SuitePass &p : passes)
        walls.push_back(p.wallS);
    r.traceOverheadFrac = (tracedWall - r.replayS) / median(walls) - 1.0;
    putLayerMetrics(out, r);
    if (!opt.spansPath.empty() && !log.writeChromeTrace(opt.spansPath))
        out.fail("cannot write spans to " + opt.spansPath);
    return out;
}

// --------------------------------------------------------------------- sweep

namespace {

constexpr DynParModel kModels[] = {DynParModel::CDP, DynParModel::DTBL};
constexpr TbPolicy kPolicies[] = {TbPolicy::RR, TbPolicy::TbPri,
                                  TbPolicy::SmxBind, TbPolicy::AdaptiveBind};

std::string
sweepCellId(const RunResult &r)
{
    return logFormat("sweep/%s/%s/%s", r.workload.c_str(),
                     toString(r.model), toString(r.policy));
}

/** Input generation for every workload on the pool, as runMatrix does. */
double
timedSetupPhase(std::uint64_t seed)
{
    const auto &names = workloadNames();
    std::vector<std::unique_ptr<Workload>> inputs(names.size());
    const Clock::time_point t0 = Clock::now();
    {
        ThreadPool pool(std::min<unsigned>(
            kJobs, static_cast<unsigned>(names.size())));
        for (std::size_t i = 0; i < names.size(); ++i) {
            pool.submit([&, i] {
                auto w = createWorkload(names[i]);
                w->setup(kScale, seed);
                inputs[i] = std::move(w);
            });
        }
        pool.wait();
    }
    return secondsSince(t0);
}

} // namespace

Outcome
runSweep(const Options &opt)
{
    Outcome out;
    std::vector<double> walls;
    std::vector<std::vector<RunResult>> passes;
    double rssMb = 0.0; // after the first pass: later passes add nothing
    repeatFor(untracedSeconds(opt), out, [&] {
        const Clock::time_point t0 = Clock::now();
        passes.push_back(runMatrix(workloadNames(), kScale, opt.seed,
                                   /*use_cache=*/false, kJobs));
        walls.push_back(secondsSince(t0));
        if (passes.size() == 1)
            rssMb = peakRssMb();
    });
    for (const auto &rows : passes) {
        std::vector<std::string> recs;
        for (const RunResult &r : rows)
            recs.push_back(sweepCellId(r) + "\t" + encodeRunResult(r));
        out.attempted += recs.size();
        if (out.records.empty())
            out.records = recs;
        checkRepeat(out, out.records, recs);
    }

    if (!opt.trace) {
        // Set-up is timed apart from runMatrix, whose first phase is the
        // same input generation, kSetupRepeats times.
        EndToEnd e;
        for (int i = 0; i < kSetupRepeats; ++i)
            e.setupS.push_back(timedSetupPhase(opt.seed));
        e.wallS = walls;
        e.opsPerPass = static_cast<double>(passes.front().size());
        // runMatrix hands every cell back when it returns, so each
        // cell's latency, as its caller sees it, is the sweep's wall.
        for (double w : walls)
            e.latencyS.emplace_back(passes.front().size(), w);
        e.missLatencyS = e.latencyS;
        e.peakRssMb = rssMb;
        putEndToEnd(out, e);
        return out;
    }

    // Traced sweep: the same two phases runMatrix runs, driven through
    // the public ThreadPool with a span around each layer call, then
    // the front-end replay of every workload on the same pool.
    SpanLog log(true);
    LayerReport r;
    const auto &names = workloadNames();
    const std::size_t perWorkload = std::size(kModels) * std::size(kPolicies);
    std::vector<std::unique_ptr<Workload>> inputs(names.size());
    std::vector<ResultRecord> recs(names.size() * perWorkload);
    std::vector<CellCounts> counts(recs.size());
    std::vector<FrontEndCounts> fe(names.size());
    const Clock::time_point start = Clock::now();
    double replayPhaseS = 0.0;
    double cellPhaseS = 0.0;
    {
        Scope root(log, "harness.sweep");
        {
            Scope phase(log, "harness.setup_phase", root.index());
            ThreadPool pool(std::min<unsigned>(
                kJobs, static_cast<unsigned>(names.size())));
            for (std::size_t i = 0; i < names.size(); ++i) {
                pool.submit([&, i, parent = phase.index()] {
                    Scope s(log, "workloads.setup", parent,
                            static_cast<std::int64_t>(i));
                    auto w = createWorkload(names[i]);
                    w->setup(kScale, opt.seed);
                    inputs[i] = std::move(w);
                });
            }
            pool.wait();
        }
        {
            const Clock::time_point t0 = Clock::now();
            Scope phase(log, "harness.cell_phase", root.index());
            ThreadPool pool(kJobs);
            for (std::size_t slot = 0; slot < recs.size(); ++slot) {
                pool.submit([&, slot, parent = phase.index()] {
                    const auto id = static_cast<std::int64_t>(slot);
                    const std::size_t i = slot / perWorkload;
                    const std::size_t k = slot % perWorkload;
                    const GpuConfig cfg =
                        cellConfig(kModels[k / std::size(kPolicies)],
                                   kPolicies[k % std::size(kPolicies)],
                                   opt.seed);
                    Scope cell(log, "harness.cell", parent, id);
                    Scope s(log, "gpu.run", cell.index(), id);
                    Gpu gpu(cfg);
                    gpu.runWaves(inputs[i]->waves());
                    counts[slot] = CellCounts::from(gpu.stats());
                    recs[slot] = ResultRecord::fromStats(
                        names[i], cfg.dynParModel, cfg.tbPolicy,
                        gpu.stats(), machineHash(cfg));
                });
            }
            pool.wait();
            cellPhaseS = secondsSince(t0);
        }
        {
            const Clock::time_point t0 = Clock::now();
            ThreadPool pool(kJobs);
            for (std::size_t i = 0; i < names.size(); ++i) {
                pool.submit([&, i, parent = root.index()] {
                    Scope s(log, "kernels.replay", parent,
                            static_cast<std::int64_t>(i));
                    fe[i] = replayFrontEnd(*inputs[i]);
                });
            }
            pool.wait();
            replayPhaseS = secondsSince(t0);
        }
    }
    const double tracedWall = secondsSince(start);

    std::vector<RunResult> adaptive, rr;
    for (std::size_t slot = 0; slot < recs.size(); ++slot) {
        const RunResult row = recs[slot].toRunResult();
        const std::string id = sweepCellId(row);
        ++out.attempted;
        checkCell(out, id, fe[slot / perWorkload], counts[slot]);
        if (id + "\t" + encodeRunResult(row) != out.records[slot])
            out.fail(id + ": traced record differs from runMatrix");
        r.cells.add(counts[slot]);
        if (row.model == DynParModel::DTBL &&
            row.policy == TbPolicy::AdaptiveBind)
            adaptive.push_back(row);
        if (row.model == DynParModel::DTBL && row.policy == TbPolicy::RR)
            rr.push_back(row);
    }
    double gain = 0.0;
    for (std::size_t i = 0; i < adaptive.size(); ++i)
        gain += rr[i].ipc > 0.0 ? adaptive[i].ipc / rr[i].ipc : 0.0;
    r.ipcGainAdaptiveVsRr = gain / static_cast<double>(adaptive.size());

    // The front end depends on neither model nor policy (the gate above
    // holds every cell to its workload's replay), so each workload is
    // replayed once and counted for each of its cells.
    const auto cellsPerInput = static_cast<double>(perWorkload);
    for (std::size_t i = 0; i < names.size(); ++i) {
        r.footprintBytes += static_cast<double>(inputs[i]->footprintBytes());
        r.frontEnd.add(fe[i], perWorkload);
    }
    r.setupS = log.selfSeconds("workloads.setup");
    r.replayS = cellsPerInput * log.selfSeconds("kernels.replay");
    r.runS = log.selfSeconds("gpu.run");
    const std::vector<double> cells = log.durations("harness.cell");
    r.harnessCells = static_cast<double>(cells.size());
    r.harnessSetupPhaseS = log.totalSeconds("harness.setup_phase");
    r.harnessCellP50S = median(cells);
    r.harnessSlowestCellS = *std::max_element(cells.begin(), cells.end());
    r.harnessBusyFrac = log.totalSeconds("harness.cell") /
                        (static_cast<double>(kJobs) * cellPhaseS);
    r.traceOverheadFrac = (tracedWall - replayPhaseS) / median(walls) - 1.0;
    putLayerMetrics(out, r);
    if (!opt.spansPath.empty() && !log.writeChromeTrace(opt.spansPath))
        out.fail("cannot write spans to " + opt.spansPath);
    return out;
}

} // namespace perfbench
