/**
 * @file
 * Golden result records off the default machine. perfbench's reference
 * records cover k20c only; these pin one tiny cell (bfs-citation,
 * Adaptive-Bind, seed 1) on every preset under both launch models, so a
 * host-side change to the timing model (cache set indexing, bank
 * picks, MSHR bookkeeping) cannot move a simulated bit on a machine
 * whose set and bank counts differ from the paper's. In preset order
 * (k20c, gtx1080, p100, v100) the L2s have 768, 1024, 2048 and 3072
 * sets in 6, 8, 16 and 16 banks, the L1s 64, 96, 48 and 192 sets, and
 * DRAM 40, 64, 256 and 256 banks. The k20c cell is also pinned under
 * the LRR and TB-aware warp schedulers.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/experiment.hh"
#include "sim/presets.hh"
#include "workloads/registry.hh"

using namespace laperm;

namespace {

struct Golden
{
    const char *preset;
    DynParModel model;
    const char *record;
};

// Expected bytes were produced by the simulator before the set-block
// cache layout, multiply-shift indexing, wake wheel and greedy-warp
// hold replaced the original structures.
const Golden kGolden[] = {
    {"k20c", DynParModel::CDP,
     "v1 workload=bfs-citation "
     "config=8a66b23bdc80d6fc37a2b6fbad8bf642 model=0 policy=3 "
     "cycles=39855 launches=1161 dynamicTbs=1192 bound=102 "
     "overflows=0 kduStalls=914 ipc=10.164671935767156 "
     "l1=0.67347938828429676 l2=0.84833734091842117 "
     "util=0.021419955029288871 imbalance=0.31370656370656369"},
    {"k20c", DynParModel::DTBL,
     "v1 workload=bfs-citation "
     "config=8a66b23bdc80d6fc37a2b6fbad8bf642 model=1 policy=3 "
     "cycles=15738 launches=1161 dynamicTbs=1192 bound=208 "
     "overflows=0 kduStalls=0 ipc=25.741072563222772 "
     "l1=0.64103558813320538 l2=0.84946604991148422 "
     "util=0.053168714625062313 imbalance=0.25079365079365079"},
    {"gtx1080", DynParModel::CDP,
     "v1 workload=bfs-citation "
     "config=39c5829171b35157e6cb847b0045ac4d model=0 policy=3 "
     "cycles=39298 launches=1161 dynamicTbs=1192 bound=51 overflows=0 "
     "kduStalls=922 ipc=10.308743447503689 l1=0.69134491700185796 "
     "l2=0.84399236367975183 util=0.014258995368721055 "
     "imbalance=0.50333778371161553"},
    {"gtx1080", DynParModel::DTBL,
     "v1 workload=bfs-citation "
     "config=39c5829171b35157e6cb847b0045ac4d model=1 policy=3 "
     "cycles=15176 launches=1161 dynamicTbs=1192 bound=74 overflows=0 "
     "kduStalls=0 ipc=26.694319978914073 l1=0.66839536925495646 "
     "l2=0.83667024192587292 util=0.036185424354243545 "
     "imbalance=0.38280166435506241"},
    {"p100", DynParModel::CDP,
     "v1 workload=bfs-citation "
     "config=83860d137d6daea4462182557ff6ff46 model=0 policy=3 "
     "cycles=32137 launches=1161 dynamicTbs=1192 bound=23 overflows=0 "
     "kduStalls=209 ipc=12.605812614743131 l1=0.63617616432202873 "
     "l2=0.86250452968887503 util=0.0062516947532661512 "
     "imbalance=0.78701298701298705"},
    {"p100", DynParModel::DTBL,
     "v1 workload=bfs-citation "
     "config=83860d137d6daea4462182557ff6ff46 model=1 policy=3 "
     "cycles=14346 launches=1161 dynamicTbs=1192 bound=18 overflows=0 "
     "kduStalls=0 ipc=28.238742506622057 l1=0.62745778630785876 "
     "l2=0.85913249049234253 util=0.013995937145247061 "
     "imbalance=0.66216216216216217"},
    {"v100", DynParModel::CDP,
     "v1 workload=bfs-citation "
     "config=6e27ada8affa760b47e59227bd770e31 model=0 policy=3 "
     "cycles=32111 launches=1161 dynamicTbs=1192 bound=11 overflows=0 "
     "kduStalls=258 ipc=12.616019432593193 l1=0.62649815219388694 "
     "l2=0.86687384091023001 util=0.0043929650275606486 "
     "imbalance=0.84306569343065696"},
    {"v100", DynParModel::DTBL,
     "v1 workload=bfs-citation "
     "config=6e27ada8affa760b47e59227bd770e31 model=1 policy=3 "
     "cycles=14730 launches=1161 dynamicTbs=1192 bound=14 overflows=0 "
     "kduStalls=0 ipc=27.502579769178546 l1=0.62216958980746062 "
     "l2=0.86212940705128205 util=0.0095366598778004082 "
     "imbalance=0.70161290322580649"},
};

// The same cell on k20c under the other two warp schedulers (GTO is
// the default above), whose filing the greedy-warp hold changed.
const struct
{
    WarpPolicy warp;
    DynParModel model;
    const char *record;
} kWarpGolden[] = {
    {WarpPolicy::LRR, DynParModel::CDP,
     "v1 workload=bfs-citation "
     "config=e7f05fefd86b26c0cc0a84d3525d27ae model=0 policy=3 "
     "cycles=39700 launches=1161 dynamicTbs=1192 bound=86 overflows=0 "
     "kduStalls=928 ipc=10.204357682619648 l1=0.67341813504297932 "
     "l2=0.84820224060062177 util=0.021486146095717886 "
     "imbalance=0.2076271186440678"},
    {WarpPolicy::LRR, DynParModel::DTBL,
     "v1 workload=bfs-citation "
     "config=e7f05fefd86b26c0cc0a84d3525d27ae model=1 policy=3 "
     "cycles=15821 launches=1161 dynamicTbs=1192 bound=218 "
     "overflows=0 kduStalls=0 ipc=25.606029960179509 "
     "l1=0.63807501480286666 l2=0.85061062198239135 "
     "util=0.05264667700670482 imbalance=0.20575692963752665"},
    {WarpPolicy::TbAware, DynParModel::CDP,
     "v1 workload=bfs-citation "
     "config=c7b5315688db59f071bfe9c06f64769a model=0 policy=3 "
     "cycles=39781 launches=1161 dynamicTbs=1192 bound=97 overflows=0 "
     "kduStalls=917 ipc=10.183580101053266 l1=0.67296894460665213 "
     "l2=0.84841920374707258 util=0.021444330787987305 "
     "imbalance=0.2781316348195329"},
    {WarpPolicy::TbAware, DynParModel::DTBL,
     "v1 workload=bfs-citation "
     "config=c7b5315688db59f071bfe9c06f64769a model=1 policy=3 "
     "cycles=15830 launches=1161 dynamicTbs=1192 bound=208 "
     "overflows=0 kduStalls=0 ipc=25.591471888818699 "
     "l1=0.64109684137452272 l2=0.84953782951044166 "
     "util=0.05297633509888721 imbalance=0.2296137339055794"},
};

} // namespace

TEST(PresetGolden, TinyCellRecordsMatch)
{
    auto w = createWorkload("bfs-citation");
    w->setup(Scale::Tiny, 1);
    for (const Golden &g : kGolden) {
        GpuConfig cfg = presetConfig(g.preset);
        cfg.tickMode = TickMode::Event;
        cfg.dynParModel = g.model;
        cfg.tbPolicy = TbPolicy::AdaptiveBind;
        EXPECT_EQ(runOneRecord(*w, cfg, "").encode(), g.record)
            << g.preset << "/" << toString(g.model);
    }
}

TEST(PresetGolden, DenseLoopAgreesOnEveryPreset)
{
    auto w = createWorkload("bfs-citation");
    w->setup(Scale::Tiny, 1);
    for (const Golden &g : kGolden) {
        GpuConfig cfg = presetConfig(g.preset);
        cfg.tickMode = TickMode::Dense;
        cfg.dynParModel = g.model;
        cfg.tbPolicy = TbPolicy::AdaptiveBind;
        EXPECT_EQ(runOneRecord(*w, cfg, "").encode(), g.record)
            << g.preset << "/" << toString(g.model);
    }
}

TEST(PresetGolden, WarpSchedulersMatch)
{
    auto w = createWorkload("bfs-citation");
    w->setup(Scale::Tiny, 1);
    for (const auto &g : kWarpGolden) {
        GpuConfig cfg = presetConfig("k20c");
        cfg.tickMode = TickMode::Event;
        cfg.dynParModel = g.model;
        cfg.tbPolicy = TbPolicy::AdaptiveBind;
        cfg.warpPolicy = g.warp;
        EXPECT_EQ(runOneRecord(*w, cfg, "").encode(), g.record)
            << toString(g.warp) << "/" << toString(g.model);
    }
}
