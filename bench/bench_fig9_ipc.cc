/**
 * @file
 * Figure 9: IPC normalized to the RR baseline, (a) CDP and (b) DTBL.
 *
 * Paper anchors: TB-Pri +4% (CDP) / +13% (DTBL); the full LaPerm
 * scheduler (Adaptive-Bind) averages +27% over RR.
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

    const char *panel[] = {"(a) CDP", "(b) DTBL"};
    int panel_ix = 0;
    std::printf("\nFigure 9: normalized IPC (scale '%s')\n\n",
                toString(scale));

    for (DynParModel model : kDynParModels) {
        std::printf("Figure 9%s — IPC normalized to RR:\n",
                    panel[panel_ix++]);
        Table t({"workload", "RR", "TB-Pri", "SMX-Bind",
                 "Adaptive-Bind"});
        double geo[4] = {0, 0, 0, 0};
        std::uint32_t n = 0;
        for (const auto &name : workloadNames()) {
            double rr =
                findResult(results, name, model, TbPolicy::RR).ipc;
            std::vector<std::string> row = {name};
            int c = 0;
            for (TbPolicy p : {TbPolicy::RR, TbPolicy::TbPri,
                               TbPolicy::SmxBind,
                               TbPolicy::AdaptiveBind}) {
                double norm =
                    rr > 0
                        ? findResult(results, name, model, p).ipc / rr
                        : 0.0;
                row.push_back(fmtF(norm));
                geo[c++] += norm;
            }
            ++n;
            t.addRow(std::move(row));
        }
        t.addRule();
        t.addRow({"average", fmtF(geo[0] / n), fmtF(geo[1] / n),
                  fmtF(geo[2] / n), fmtF(geo[3] / n)});
        t.print();
        if (model == DynParModel::CDP)
            std::printf("paper: TB-Pri averages ~1.04x under CDP\n\n");
        else
            std::printf("paper: TB-Pri averages ~1.13x under DTBL; "
                        "LaPerm (Adaptive-Bind) averages 1.27x\n\n");
    }
    return 0;
}
