/**
 * @file
 * Figure 8: L1 cache hit rate under the four TB schedulers, for both
 * the CDP and DTBL models.
 *
 * Paper anchors: TB-Pri gains +1.1% (CDP) / +2.1% (DTBL) over RR on
 * average; SMX binding is what unlocks the L1 (children reuse the
 * direct parent's cache), so SMX-Bind/Adaptive-Bind gain the most.
 */

#include <cstdio>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/table.hh"
#include "workloads/registry.hh"

using namespace laperm;

int
main(int argc, char **argv)
{
    setVerbose(true);
    Scale scale = argc > 1 ? scaleFromString(argv[1])
                           : scaleFromEnv(Scale::Small);
    auto results = runMatrix(workloadNames(), scale, 1);
    setVerbose(false);

    std::printf("\nFigure 8: L1 cache hit rate (scale '%s')\n\n",
                toString(scale));

    for (DynParModel model : kDynParModels) {
        std::printf("%s:\n", toString(model));
        Table t({"workload", "RR", "TB-Pri", "SMX-Bind",
                 "Adaptive-Bind"});
        for (const auto &name : workloadNames()) {
            std::vector<std::string> row = {name};
            for (TbPolicy p : {TbPolicy::RR, TbPolicy::TbPri,
                               TbPolicy::SmxBind,
                               TbPolicy::AdaptiveBind}) {
                row.push_back(
                    fmtPct(findResult(results, name, model, p)
                               .l1HitRate));
            }
            t.addRow(std::move(row));
        }
        t.addRule();
        std::vector<std::string> avg = {"average"};
        double rr = meanOver(results, model, TbPolicy::RR,
                             &RunResult::l1HitRate);
        for (TbPolicy p : {TbPolicy::RR, TbPolicy::TbPri,
                           TbPolicy::SmxBind, TbPolicy::AdaptiveBind}) {
            double v = meanOver(results, model, p, &RunResult::l1HitRate);
            avg.push_back(fmtPct(v) +
                          logFormat(" (%+.1fpp)", 100.0 * (v - rr)));
        }
        t.addRow(std::move(avg));
        t.print();
        std::printf("paper: TB-Pri improves the average L1 hit rate by "
                    "+%.1fpp over RR under %s; SMX binding adds the "
                    "bulk of the L1 gain\n\n",
                    model == DynParModel::CDP ? 1.1 : 2.1,
                    toString(model));
    }
    return 0;
}
