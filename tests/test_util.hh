/**
 * @file
 * Shared helpers for the test suites: small GPU configurations, lambda
 * kernels, and a dispatch recorder.
 */

#ifndef LAPERM_TESTS_TEST_UTIL_HH
#define LAPERM_TESTS_TEST_UTIL_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gpu/gpu.hh"
#include "kernels/lambda_program.hh"
#include "sim/config.hh"
#include "sim/observer.hh"

namespace laperm::test {

/** A two-tenant mix spec using every key of the grammar. */
inline constexpr const char *kPairMixSpec = R"([mix]
name = "pair"            # quoted strings and comments both work
quantum = 1024
admission_threshold_pct = 80
ewma_shift = 4

[tenant.fg]
workload = "bfs-citation"
scale = "tiny"
priority = 0
arrival = 0
period = 50000
jobs = 2

[tenant.bg]
workload = "join-uniform"
priority = 1
arrival = 7000
)";

/** A small, fast device for unit tests. */
inline GpuConfig
tinyConfig()
{
    GpuConfig cfg;
    cfg.numSmx = 4;
    cfg.maxThreadsPerSmx = 256;
    cfg.maxTbsPerSmx = 4;
    cfg.regsPerSmx = 16384;
    cfg.smemPerSmx = 16 * 1024;
    cfg.l1Size = 4 * 1024;
    cfg.l1Assoc = 4;
    cfg.l2Size = 64 * 1024;
    cfg.l2Assoc = 8;
    cfg.kduEntries = 8;
    cfg.cdpLaunchLatency = 200;
    cfg.dtblLaunchLatency = 20;
    return cfg;
}

/** One recorded TB dispatch. */
struct DispatchRecord
{
    TbUid uid;
    std::uint32_t tbIndex;
    bool isDynamic;
    TbUid directParent;
    SmxId smx;
    Cycle cycle;
    std::uint32_t priority;
};

/** Captures every dispatch of a Gpu run as an attached observer. */
class DispatchRecorder : public obs::SimObserver
{
  public:
    explicit DispatchRecorder(Gpu &gpu) { gpu.observers().attach(this); }

    DispatchRecorder(const DispatchRecorder &) = delete;
    DispatchRecorder &operator=(const DispatchRecorder &) = delete;

    void
    onTbDispatch(const obs::TbEvent &e) override
    {
        records.push_back({e.uid, e.tbIndex, e.isDynamic, e.directParent,
                           e.smx, e.cycle, e.priority});
    }

    const DispatchRecord *
    byUid(TbUid uid) const
    {
        for (const auto &r : records) {
            if (r.uid == uid)
                return &r;
        }
        return nullptr;
    }

    std::vector<DispatchRecord> records;
};

} // namespace laperm::test

#endif // LAPERM_TESTS_TEST_UTIL_HH
