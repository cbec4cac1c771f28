/**
 * @file
 * Cross-generation study (EXPERIMENTS.md): the full workload x model x
 * policy matrix on every hardware preset (sim/presets.hh), Kepler
 * K20c through Volta V100. The question the study answers: does
 * Adaptive-Bind's advantage over RR grow or shrink as the machine
 * gains SMXs and cache?
 *
 * Per preset and model the console table reports suite-average IPC
 * normalized to that preset's own RR baseline (the paper's Figure 9
 * treatment) plus the absolute L1/L2 hit-rate deltas RR ->
 * Adaptive-Bind. BENCH_crossgen.json captures the same cells for
 * tooling.
 *
 * Environment: LAPERM_SCALE (tiny|small|full, default small); argv[1]
 * overrides. Every cell is a record in the result store, so reruns are
 * free.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/table.hh"
#include "sim/presets.hh"
#include "workloads/registry.hh"

using namespace laperm;

namespace {

/** Suite-average of per-workload IPC normalized to the RR cell. */
double
normIpc(const std::vector<RunResult> &results,
        const std::vector<std::string> &names, DynParModel model,
        TbPolicy policy)
{
    double sum = 0.0;
    std::uint32_t n = 0;
    for (const auto &name : names) {
        const double rr =
            findResult(results, name, model, TbPolicy::RR).ipc;
        if (rr > 0.0) {
            sum += findResult(results, name, model, policy).ipc / rr;
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(true);
    const Scale scale = argc > 1 ? scaleFromString(argv[1])
                                 : scaleFromEnv(Scale::Small);
    const std::uint64_t seed = 1;
    const std::vector<std::string> names = workloadNames();

    struct PresetSweep
    {
        std::string name;
        std::vector<RunResult> results;
    };
    std::vector<PresetSweep> sweeps;
    for (const PresetInfo &p : presets())
        sweeps.push_back({p.name, runMatrixPreset(names, p.name, scale,
                                                  seed)});
    setVerbose(false);

    std::printf("\nCross-generation study (scale '%s', %zu workloads)\n",
                toString(scale), names.size());

    std::ofstream json("BENCH_crossgen.json");
    json << "{\n"
         << "  \"bench\": \"crossgen\",\n"
         << "  \"scale\": \"" << toString(scale) << "\",\n"
         << "  \"seed\": " << seed << ",\n"
         << "  \"cells\": [\n";
    bool first = true;

    for (DynParModel model : kDynParModels) {
        std::printf("\n%s — suite-mean IPC normalized to each "
                    "preset's RR (dL1/dL2: absolute hit-rate delta "
                    "RR -> Adaptive-Bind):\n",
                    model == DynParModel::CDP ? "CDP" : "DTBL");
        Table t({"preset", "smx", "RR", "TB-Pri", "SMX-Bind",
                 "Adaptive-Bind", "dL1", "dL2"});
        for (const PresetSweep &s : sweeps) {
            const double rrL1 =
                meanOver(s.results, model, TbPolicy::RR,
                         &RunResult::l1HitRate);
            const double abL1 =
                meanOver(s.results, model, TbPolicy::AdaptiveBind,
                         &RunResult::l1HitRate);
            const double rrL2 =
                meanOver(s.results, model, TbPolicy::RR,
                         &RunResult::l2HitRate);
            const double abL2 =
                meanOver(s.results, model, TbPolicy::AdaptiveBind,
                         &RunResult::l2HitRate);
            std::vector<std::string> row = {
                s.name,
                std::to_string(presetConfig(s.name).numSmx)};
            for (TbPolicy p : kTbPolicies) {
                const double norm = normIpc(s.results, names, model, p);
                row.push_back(fmtF(norm));
                if (!first)
                    json << ",\n";
                first = false;
                json << "    {\"preset\": \"" << s.name
                     << "\", \"model\": \""
                     << (model == DynParModel::CDP ? "cdp" : "dtbl")
                     << "\", \"policy\": \"" << toString(p)
                     << "\", \"norm_ipc\": " << norm
                     << ", \"mean_ipc\": "
                     << meanOver(s.results, model, p, &RunResult::ipc)
                     << ", \"mean_l1\": "
                     << meanOver(s.results, model, p,
                                 &RunResult::l1HitRate)
                     << ", \"mean_l2\": "
                     << meanOver(s.results, model, p,
                                 &RunResult::l2HitRate)
                     << "}";
            }
            row.push_back(fmtF(abL1 - rrL1));
            row.push_back(fmtF(abL2 - rrL2));
            t.addRow(std::move(row));
        }
        t.print();
    }

    json << "\n  ]\n}\n";
    json.close();
    std::printf("\nwrote BENCH_crossgen.json\n");
    return 0;
}
