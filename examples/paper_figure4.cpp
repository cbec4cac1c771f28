/**
 * @file
 * Reproduces Figure 4 of the paper literally: 8 parent TBs (P0-P7) on
 * a 4-SMX device holding one TB each; P2 launches children C0-C1 and
 * P4 launches C2-C5. Prints the per-SMX dispatch timeline under each
 * scheduling policy — compare with Figures 4(b) through 4(e).
 *
 * Run: ./paper_figure4
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hh"
#include "gpu/gpu.hh"
#include "kernels/lambda_program.hh"
#include "sim/observer.hh"

using namespace laperm;

namespace {

struct Placement
{
    std::string label;
    SmxId smx;
    Cycle cycle;
};

/** Labels every TB dispatch as in the paper's figure. */
class PlacementRecorder : public obs::SimObserver
{
  public:
    void
    onTbDispatch(const obs::TbEvent &e) override
    {
        // Built with += rather than operator+ to dodge the GCC 12
        // -Wrestrict false positive on inlined std::string
        // concatenation (GCC PR105329).
        std::string label;
        if (!e.isDynamic) {
            label += 'P';
            label += std::to_string(e.tbIndex);
        } else {
            // Children of P2 come first (C0, C1), then P4's (C2..C5).
            const std::string &parent = names_[e.directParent];
            std::uint32_t base = parent == "P2" ? 0 : 2;
            label += 'C';
            label += std::to_string(base + e.tbIndex);
        }
        names_[e.uid] = label;
        placements.push_back({label, e.smx, e.cycle});
    }

    std::vector<Placement> placements;

  private:
    std::map<TbUid, std::string> names_;
};

void
runPolicy(TbPolicy policy)
{
    GpuConfig cfg;
    cfg.numSmx = 4;
    cfg.maxThreadsPerSmx = 64;
    cfg.maxTbsPerSmx = 1;
    cfg.regsPerSmx = 16384;
    cfg.smemPerSmx = 16 * 1024;
    cfg.l1Size = 4 * 1024;
    cfg.l2Size = 64 * 1024;
    cfg.l2Assoc = 8;
    cfg.kduEntries = 8;
    cfg.dynParModel = DynParModel::DTBL;
    cfg.dtblLaunchLatency = 5;
    cfg.launchIssueCycles = 4;
    cfg.tbPolicy = policy;

    auto child = std::make_shared<LambdaProgram>(
        "child", 101, [](ThreadCtx &c) { c.alu(200); });
    auto parent = std::make_shared<LambdaProgram>(
        "parent", 100, [child](ThreadCtx &c) {
            if (c.threadIndex() == 0 && c.tbIndex() == 2)
                c.launch({child, 2, 32});
            if (c.threadIndex() == 0 && c.tbIndex() == 4)
                c.launch({child, 4, 32});
            c.alu(200);
        });

    Gpu gpu(cfg);
    PlacementRecorder recorder;
    gpu.observers().attach(&recorder);
    gpu.launchHostKernel({parent, 8, 32});
    gpu.runToIdle();

    std::printf("--- %s (total %llu cycles) ---\n", toString(policy),
                static_cast<unsigned long long>(gpu.stats().cycles));
    for (SmxId smx = 0; smx < 4; ++smx) {
        std::vector<Placement> row;
        for (const auto &p : recorder.placements) {
            if (p.smx == smx)
                row.push_back(p);
        }
        std::sort(row.begin(), row.end(),
                  [](const Placement &a, const Placement &b) {
                      return a.cycle < b.cycle;
                  });
        std::printf("  SMX%u:", smx);
        for (const auto &p : row)
            std::printf(" %-3s", p.label.c_str());
        std::printf("\n");
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    setVerbose(false);
    std::printf("Figure 4: parent-child TB scheduling example\n"
                "(P2 launches C0-C1; P4 launches C2-C5)\n\n");
    runPolicy(TbPolicy::RR);           // Figure 4(b)
    runPolicy(TbPolicy::TbPri);        // Figure 4(c)
    runPolicy(TbPolicy::SmxBind);      // Figure 4(d)
    runPolicy(TbPolicy::AdaptiveBind); // Figure 4(e)
    return 0;
}
