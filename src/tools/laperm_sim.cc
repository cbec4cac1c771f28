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
 *     --tenants-tsv FILE  also write the per-tenant rows as a TSV
 *
 * The run flags, --workload through --tenants, are the run-field table
 * shared with laperm_submit and the wire (harness/run_spec.hh); a bad
 * value exits 2. Machine flags apply in command-line order, later
 * flags overriding earlier ones: put --preset (whole-machine) first,
 * then --config (file of overrides), then single-field flags like
 * --smx.
 *
 * Observability outputs (DESIGN.md §8; any combination may be given):
 *     --trace FILE          dispatch-event CSV (legacy flat format)
 *     --trace-json FILE     Chrome-trace/Perfetto JSON timeline
 *     --trace-intervals FILE per-interval metrics TSV
 *     --interval N          interval length in cycles (default 1000)
 *     --latency-hist FILE   launch-latency histogram TSV (Sec. IV-D)
 *     --locality FILE       locality-attribution counter TSV
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/parse_uint.hh"
#include "gpu/gpu.hh"
#include "obs/locality.hh"
#include "obs/trace_collector.hh"
#include "harness/result_cache.hh"
#include "harness/run_spec.hh"
#include "harness/table.hh"
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
    std::string tracePath;     ///< --trace FILE: dispatch-event CSV
    std::string traceJsonPath; ///< --trace-json FILE
    std::string intervalsPath; ///< --trace-intervals FILE
    Cycle interval = 1000;     ///< --interval N
    std::string latencyPath;   ///< --latency-hist FILE
    std::string localityPath;  ///< --locality FILE
    std::string tenantsTsvPath; ///< --tenants-tsv FILE

    bool wantsCollector() const
    {
        return !tracePath.empty() || !traceJsonPath.empty() ||
               !intervalsPath.empty() || !latencyPath.empty();
    }
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
                 "[--csv] [--list] "
                 "[--trace FILE] [--trace-json FILE] "
                 "[--trace-intervals FILE] [--interval N] "
                 "[--latency-hist FILE] [--locality FILE] "
                 "[--tenants MIX|FILE.toml] [--tenants-tsv FILE]\n",
                 argv0);
    std::exit(2);
}

void
report(const Options &opt, const Workload &w, const GpuStats &s)
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
        std::printf("%s\n", rec.customMachine()
                                ? rec.csvRowWithConfig().c_str()
                                : rec.csvRow().c_str());
        return;
    }
    std::printf("=== %s  (%s, %s, scale %s, seed %llu)\n",
                w.fullName().c_str(), toString(run.model),
                toString(run.policy), toString(run.scale),
                static_cast<unsigned long long>(run.seed));
    if (machineHash(run.cfg) != defaultMachineHash())
        std::printf("  machine           %s  [%s]\n",
                    run.cfg.summary().c_str(),
                    machineHash(run.cfg).c_str());
    std::printf("  cycles            %llu\n",
                static_cast<unsigned long long>(s.cycles));
    std::printf("  IPC               %.3f\n", s.ipc());
    std::printf("  L1 hit rate       %.2f%%  (%llu accesses)\n",
                100.0 * s.l1Total().hitRate(),
                static_cast<unsigned long long>(s.l1Total().accesses));
    std::printf("  L2 hit rate       %.2f%%  (%llu accesses)\n",
                100.0 * s.l2.hitRate(),
                static_cast<unsigned long long>(s.l2.accesses));
    std::printf("  DRAM reads/writes %llu / %llu (avg queue %.1f cyc)\n",
                static_cast<unsigned long long>(s.dram.reads),
                static_cast<unsigned long long>(s.dram.writes),
                s.dram.avgQueueCycles());
    std::printf("  SMX utilization   %.2f%% (imbalance %.2f%%)\n",
                100.0 * s.avgSmxUtilization(),
                100.0 * s.smxImbalance());
    std::printf("  kernels launched  %llu (device launches %llu, "
                "coalesced %llu)\n",
                static_cast<unsigned long long>(s.kernelsLaunched),
                static_cast<unsigned long long>(s.deviceLaunches),
                static_cast<unsigned long long>(s.dtblCoalesced));
    std::printf("  dynamic TBs       %llu (bound %llu, stolen %llu)\n",
                static_cast<unsigned long long>(s.dynamicTbs),
                static_cast<unsigned long long>(s.boundDispatches),
                static_cast<unsigned long long>(s.unboundDispatches));
    std::printf("  queue overflows   %llu, KDU-full stalls %llu\n",
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
        std::FILE *f = std::fopen(opt.tenantsTsvPath.c_str(), "wb");
        if (!f) {
            laperm_warn("could not write tenants TSV '%s'",
                        opt.tenantsTsvPath.c_str());
        } else {
            const std::string tsv = encodeTenantSweepTsv(tenantSweepRows(
                mix.name, run.presetName, run.cfg.tbPolicy, study.metrics));
            std::fwrite(tsv.data(), 1, tsv.size(), f);
            std::fclose(f);
            std::fprintf(stderr, "tenant metrics: %s\n",
                         opt.tenantsTsvPath.c_str());
        }
    }
    return 0;
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
        } else if (!std::strcmp(a, "--trace")) {
            opt.tracePath = next_arg(i);
        } else if (!std::strcmp(a, "--trace-json")) {
            opt.traceJsonPath = next_arg(i);
        } else if (!std::strcmp(a, "--trace-intervals")) {
            opt.intervalsPath = next_arg(i);
        } else if (!std::strcmp(a, "--interval")) {
            const char *v = next_arg(i);
            if (!parseUInt(v, UINT32_MAX, opt.interval)) {
                std::fprintf(stderr,
                             "laperm_sim: --interval: bad value '%s'\n", v);
                return 2;
            }
        } else if (!std::strcmp(a, "--latency-hist")) {
            opt.latencyPath = next_arg(i);
        } else if (!std::strcmp(a, "--locality")) {
            opt.localityPath = next_arg(i);
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
    // With --workload all, each per-workload output file is prefixed
    // with the workload name ("bfs-citation.<file>").
    auto out_path = [&](const std::string &name,
                        const std::string &path) {
        return names.size() == 1 ? path : name + "." + path;
    };
    auto write_or_warn = [](bool ok, const char *what,
                            const std::string &path) {
        if (!ok)
            laperm_warn("could not write %s '%s'", what, path.c_str());
        else
            std::fprintf(stderr, "%s: %s\n", what, path.c_str());
    };

    for (const auto &name : names) {
        auto w = createWorkload(name);
        w->setup(run.scale, run.seed);
        Gpu gpu(run.cfg);
        std::unique_ptr<obs::TraceCollector> collector;
        if (opt.wantsCollector()) {
            collector = std::make_unique<obs::TraceCollector>();
            gpu.observers().attach(collector.get());
        }
        std::unique_ptr<obs::LocalityTracker> locality;
        if (!opt.localityPath.empty()) {
            locality =
                std::make_unique<obs::LocalityTracker>(gpu.mem().numL1());
            gpu.setLocalityTracker(locality.get());
        }
        gpu.runWaves(w->waves());
        report(opt, *w, gpu.stats());
        if (collector) {
            if (!opt.tracePath.empty()) {
                std::string path = out_path(name, opt.tracePath);
                if (!collector->writeDispatchCsv(path))
                    laperm_warn("could not write trace '%s'",
                                path.c_str());
                else
                    std::fprintf(stderr,
                                 "dispatch trace: %s (%zu events)\n",
                                 path.c_str(),
                                 collector->dispatches().size());
            }
            if (!opt.traceJsonPath.empty()) {
                std::string path = out_path(name, opt.traceJsonPath);
                write_or_warn(collector->writeChromeTrace(path),
                              "chrome trace", path);
            }
            if (!opt.intervalsPath.empty()) {
                std::string path = out_path(name, opt.intervalsPath);
                write_or_warn(
                    collector->writeIntervalTsv(path, opt.interval),
                    "interval metrics", path);
            }
            if (!opt.latencyPath.empty()) {
                std::string path = out_path(name, opt.latencyPath);
                write_or_warn(collector->writeLaunchLatencyTsv(path),
                              "launch-latency histogram", path);
            }
        }
        if (locality) {
            std::string path = out_path(name, opt.localityPath);
            write_or_warn(locality->writeTsv(path),
                          "locality attribution", path);
        }
    }
    return 0;
}
