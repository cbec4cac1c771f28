/**
 * @file
 * Command-line simulator driver: run any Table II workload (or all of
 * them) under a chosen scheduler / dynamic-parallelism model and print
 * the full statistics record.
 *
 * Usage:
 *   laperm_sim [options]
 *     --workload NAME   bfs-citation, join-gaussian, ... or "all"
 *     --policy P        rr | tbpri | smxbind | adaptive (default rr)
 *     --model M         cdp | dtbl (default dtbl)
 *     --scale S         tiny | small | full | huge (default small)
 *     --seed N          input-generator seed (default 1)
 *     --preset NAME     hardware preset (k20c | gtx1080 | p100 | v100)
 *     --config FILE     machine TOML applied on top of the preset
 *     --list-presets    list preset names and exit
 *     --smx N           override SMX count
 *     --l1-kb N         override L1 size
 *     --l2-kb N         override L2 size
 *     --levels N        max priority levels L
 *     --cdp-latency N   CDP launch latency in cycles
 *     --dtbl-latency N  DTBL launch latency in cycles
 *     --warp-sched W    gto | lrr | tbaware
 *     --tick-mode T     event | dense (default event; dense is the
 *                       reference loop, byte-identical results)
 *     --csv             one CSV row per run instead of the report
 *                       (non-default machines append a config column)
 *     --list            list workload names and exit
 *
 * Multi-tenant mode (DESIGN.md §14) replaces the single-workload run:
 *     --tenants SPEC    builtin mix name (duo | quad | octo) or a
 *                       .toml mix spec file; runs the mix plus its
 *                       per-tenant solo baselines and prints ANTT,
 *                       STP, Jain fairness and p50/p95/p99 wave
 *                       latency per tenant. Workload scales come from
 *                       the spec (--scale does not apply); --policy,
 *                       --model, --seed and the machine flags do.
 *     --tenants-tsv FILE  also write the per-tenant rows as a TSV (a
 *                       file it cannot write is fatal)
 *
 * The run flags, --workload through --tenants, are the run-field table
 * shared with laperm_submit and the wire (harness/run_spec.hh); a bad
 * value exits 2. Machine flags apply in command-line order, later
 * flags overriding earlier ones: put --preset (whole-machine) first,
 * then --config (file of overrides), then single-field flags like
 * --smx.
 *
 * Observability outputs (DESIGN.md §8):
 *     --trace-dir DIR   write each run's five trace artifacts into DIR
 *                       as <workload>_<model>_<policy>.{dispatch.csv,
 *                       trace.json,intervals.tsv,latency.tsv,
 *                       locality.tsv}, as sweep cells and served
 *                       requests do (harness/experiment.hh runTraced)
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/text.hh"
#include "gpu/trace_forest.hh"
#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "harness/run_spec.hh"
#include "harness/thread_pool.hh"
#include "harness/trace_builder.hh"
#include "harness/tenant_sweep.hh"
#include "sim/config_loader.hh"
#include "sim/presets.hh"
#include "tenant/mixes.hh"
#include "tenant/tenant_manager.hh"
#include "workloads/registry.hh"

using namespace laperm;

namespace {

struct Options
{
    RunSpec run;
    bool csv = false;
    std::string traceDir;       ///< --trace-dir DIR
    std::string tenantsTsvPath; ///< --tenants-tsv FILE
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--workload NAME|all] [--policy "
                 "rr|tbpri|smxbind|adaptive] [--model cdp|dtbl] "
                 "[--scale tiny|small|full|huge] [--seed N] "
                 "[--preset NAME] [--config FILE] [--list-presets] "
                 "[--smx N] "
                 "[--l1-kb N] [--l2-kb N] [--levels N] "
                 "[--cdp-latency N] [--dtbl-latency N] "
                 "[--warp-sched gto|lrr|tbaware] [--tick-mode event|dense] "
                 "[--csv] [--list] [--trace-dir DIR] "
                 "[--tenants MIX|FILE.toml] [--tenants-tsv FILE]\n",
                 argv0);
    std::exit(2);
}

void
report(const Options &opt, const Workload &w, const GpuStats &s,
       std::string &out)
{
    const RunSpec &run = opt.run;
    if (opt.csv) {
        // Shared with the serving subsystem: laperm_submit renders the
        // same record through the same formatter, which is what makes
        // served results byte-identical to a direct run. Only a
        // non-default machine appends the config column, keeping the
        // default-machine CSV byte-identical across releases.
        const ResultRecord rec = ResultRecord::fromStats(
            w.fullName(), run.model, run.policy, s, machineHash(run.cfg));
        out += rec.customMachine() ? rec.csvRowWithConfig()
                                   : rec.csvRow();
        out += '\n';
        return;
    }
    out += logFormat("=== %s  (%s, %s, scale %s, seed %llu)\n",
                     w.fullName().c_str(), toString(run.model),
                     toString(run.policy), toString(run.scale),
                     static_cast<unsigned long long>(run.seed));
    if (machineHash(run.cfg) != defaultMachineHash())
        out += logFormat("  machine           %s  [%s]\n",
                         run.cfg.summary().c_str(),
                         machineHash(run.cfg).c_str());
    out += logFormat("  cycles            %llu\n",
                     static_cast<unsigned long long>(s.cycles));
    out += logFormat("  IPC               %.3f\n", s.ipc());
    out += logFormat("  L1 hit rate       %.2f%%  (%llu accesses)\n",
                     100.0 * s.l1Total().hitRate(),
                     static_cast<unsigned long long>(s.l1Total().accesses));
    out += logFormat("  L2 hit rate       %.2f%%  (%llu accesses)\n",
                     100.0 * s.l2.hitRate(),
                     static_cast<unsigned long long>(s.l2.accesses));
    out += logFormat("  DRAM reads/writes %llu / %llu (avg queue %.1f cyc)\n",
                     static_cast<unsigned long long>(s.dram.reads),
                     static_cast<unsigned long long>(s.dram.writes),
                     s.dram.avgQueueCycles());
    out += logFormat("  SMX utilization   %.2f%% (imbalance %.2f%%)\n",
                     100.0 * s.avgSmxUtilization(),
                     100.0 * s.smxImbalance());
    out += logFormat("  kernels launched  %llu (device launches %llu, "
                     "coalesced %llu)\n",
                     static_cast<unsigned long long>(s.kernelsLaunched),
                     static_cast<unsigned long long>(s.deviceLaunches),
                     static_cast<unsigned long long>(s.dtblCoalesced));
    out += logFormat("  dynamic TBs       %llu (bound %llu, stolen %llu)\n",
                     static_cast<unsigned long long>(s.dynamicTbs),
                     static_cast<unsigned long long>(s.boundDispatches),
                     static_cast<unsigned long long>(s.unboundDispatches));
    out += logFormat("  queue overflows   %llu, KDU-full stalls %llu\n",
                     static_cast<unsigned long long>(s.queueOverflows),
                     static_cast<unsigned long long>(s.kduFullStalls));
}

/**
 * --tenants mode: resolve the mix (builtin name or .toml file), run it
 * with solo baselines on the configured machine, print the per-tenant
 * metrics, and optionally dump the rows as a TSV. Output is a pure
 * function of the simulation, so dense/event runs byte-compare.
 */
int
runTenants(const Options &opt)
{
    const RunSpec &run = opt.run;
    tenant::MixSpec mix;
    if (tenant::isBuiltinMix(run.tenants)) {
        mix = tenant::builtinMix(run.tenants);
    } else if (run.tenants.rfind(".toml") != std::string::npos ||
               run.tenants.find('/') != std::string::npos) {
        std::string err;
        if (!tenant::loadMixToml(run.tenants, mix, err))
            laperm_fatal("%s", err.c_str());
    } else {
        laperm_fatal("unknown mix '%s' (builtin: %s; or pass a .toml "
                     "spec file)",
                     run.tenants.c_str(),
                     tenant::mixNameList().c_str());
    }

    const tenant::MixStudy study = tenant::runMixStudy(mix, run.cfg);

    std::printf("=== mix %s  (%s, %s, seed %llu, %zu tenants)\n",
                mix.name.c_str(), toString(run.cfg.dynParModel),
                toString(run.cfg.tbPolicy),
                static_cast<unsigned long long>(run.cfg.seed),
                mix.tenants.size());
    for (std::size_t i = 0; i < study.metrics.perTenant.size(); ++i) {
        const tenant::TenantMetrics &tm = study.metrics.perTenant[i];
        std::printf("  tenant %-10s %-16s prio %u  jobs %u  "
                    "ANTT %.3f  p50 %llu  p95 %llu  p99 %llu  "
                    "retiredTbs %llu\n",
                    tm.name.c_str(),
                    mix.tenants[i].workload.c_str(),
                    mix.tenants[i].priority, tm.jobs, tm.antt,
                    static_cast<unsigned long long>(tm.p50),
                    static_cast<unsigned long long>(tm.p95),
                    static_cast<unsigned long long>(tm.p99),
                    static_cast<unsigned long long>(tm.retiredTbs));
    }
    std::printf("  ANTT %.3f  STP %.3f  Jain %.4f  makespan %llu\n",
                study.metrics.antt, study.metrics.stp,
                study.metrics.jain,
                static_cast<unsigned long long>(study.metrics.makespan));

    if (!opt.tenantsTsvPath.empty()) {
        const std::string tsv = encodeTenantSweepTsv(tenantSweepRows(
            mix.name, run.presetName, run.cfg.tbPolicy, study.metrics));
        std::FILE *f = std::fopen(opt.tenantsTsvPath.c_str(), "wb");
        if (f)
            std::fwrite(tsv.data(), 1, tsv.size(), f);
        if (!f || !closeWritten(f))
            laperm_fatal("could not write tenants TSV '%s'",
                         opt.tenantsTsvPath.c_str());
        std::fprintf(stderr, "tenant metrics: %s\n",
                     opt.tenantsTsvPath.c_str());
    }
    return 0;
}

/** Run @p w beside a builder thread; return what the run prints. */
std::string
runWorkload(const Options &opt, const Workload &w)
{
    // Declared first, so the builder starts while the Gpu is set up and
    // the forest outlives the run.
    TraceForest forest(w.waves());
    TraceBuilder builder(forest);
    const GpuStats stats = runTraced(w, forest, opt.run.cfg, opt.traceDir);
    builder.finish();
    std::string out;
    report(opt, w, stats, out);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    Options opt;

    auto next_arg = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (const RunField *field = findRunFlag(a)) {
            std::string err;
            if (!applyRunFlag(opt.run, *field, next_arg(i), err)) {
                std::fprintf(stderr, "laperm_sim: %s\n", err.c_str());
                return 2;
            }
        } else if (!std::strcmp(a, "--list-presets")) {
            for (const auto &p : presets())
                std::printf("%s\t%s\n", p.name, p.description);
            return 0;
        } else if (!std::strcmp(a, "--tick-mode")) {
            if (!parseWireName(next_arg(i), opt.run.cfg.tickMode))
                usage(argv[0]);
        } else if (!std::strcmp(a, "--trace-dir")) {
            opt.traceDir = next_arg(i);
        } else if (!std::strcmp(a, "--tenants-tsv")) {
            opt.tenantsTsvPath = next_arg(i);
        } else if (!std::strcmp(a, "--csv")) {
            opt.csv = true;
        } else if (!std::strcmp(a, "--list")) {
            for (const auto &name : workloadNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else {
            usage(argv[0]);
        }
    }
    const RunSpec &run = opt.run;
    run.cfg.validate();

    if (!run.tenants.empty())
        return runTenants(opt);

    std::vector<std::string> names;
    if (run.workload == "all")
        names = workloadNames();
    else
        names.push_back(run.workload);

    if (opt.csv)
        std::printf("%s\n",
                    machineHash(run.cfg) != defaultMachineHash()
                        ? statsCsvHeaderWithConfig()
                        : statsCsvHeader());
    std::fflush(stdout);

    // The suite runs on the pool, one job per workload, and prints each
    // workload's output once every workload before it has printed, so
    // the output is the same at any job count. A fatal in a job stops
    // the pool and exits here, on this thread, once the running jobs
    // have finished.
    ThreadPool pool(static_cast<unsigned>(std::min<std::size_t>(
        ThreadPool::defaultJobs(), names.size())));
    std::vector<std::unique_ptr<Workload>> inputs(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        pool.submit([&, i] {
            inputs[i] = createWorkload(names[i]);
            inputs[i]->setup(run.scale, run.seed);
        });
    }
    pool.wait();

    // Longest first: the suite ends with its longest run, which must
    // not start last. A workload's simulated footprint stands in for
    // its cost; it needs no simulation.
    std::vector<std::size_t> order(names.size());
    std::iota(order.begin(), order.end(), std::size_t(0));
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return inputs[a]->footprintBytes() >
                                inputs[b]->footprintBytes();
                     });
    // Each workload's output is held back until every workload before
    // it has printed, so a suite run prints in registry order.
    std::mutex mu;
    std::vector<std::string> outputs(names.size());
    std::vector<char> done(names.size(), 0);
    std::size_t printed = 0;
    for (std::size_t i : order) {
        pool.submit([&, i] {
            std::string o = runWorkload(opt, *inputs[i]);
            inputs[i].reset();
            const std::lock_guard<std::mutex> lock(mu);
            outputs[i] = std::move(o);
            done[i] = 1;
            for (; printed < names.size() && done[printed]; ++printed) {
                std::fputs(outputs[printed].c_str(), stdout);
                std::fflush(stdout);
                outputs[printed] = std::string();
            }
        });
    }
    pool.wait();
    return 0;
}
