#include "tenant/tenant_manager.hh"

#include <limits>

#include "common/log.hh"
#include "gpu/gpu.hh"
#include "obs/tenant_tracker.hh"
#include "tenant/predictor.hh"
#include "workloads/registry.hh"

namespace laperm {
namespace tenant {

namespace {

/** Observer feeding observed TB runtimes into the per-tenant EWMAs. */
class PredictorFeed : public obs::SimObserver
{
  public:
    explicit PredictorFeed(std::vector<RuntimePredictor> &predictors)
        : predictors_(predictors)
    {
    }

    void onTbRetire(const obs::TbEvent &e) override
    {
        if (e.tenant < predictors_.size())
            predictors_[e.tenant].observe(e.cycle - e.dispatchCycle);
    }

  private:
    std::vector<RuntimePredictor> &predictors_;
};

/** Per-stream progress through its job/wave sequence. */
struct StreamState
{
    std::uint32_t jobsDone = 0;
    bool activeJob = false;
    Cycle jobArrival = 0; ///< scheduled arrival of the active job
    std::size_t waveIx = 0;
    bool waveInFlight = false;
    Cycle waveLaunchAt = 0;
    std::vector<Cycle> turnarounds;
    std::vector<Cycle> waveLatencies;
};

} // namespace

TenantManager::TenantManager(const MixSpec &mix, const GpuConfig &cfg,
                             std::vector<const Workload *> workloads)
    : mix_(mix), cfg_(cfg), workloads_(std::move(workloads))
{
    laperm_assert(!mix_.tenants.empty(), "mix has no tenants");
    laperm_assert(workloads_.size() == mix_.tenants.size(),
                  "workloads must be index-aligned with mix tenants");
}

MultiTenantResult
TenantManager::run()
{
    const std::size_t n = mix_.tenants.size();

    Gpu gpu(cfg_);
    obs::TenantTracker tracker;
    std::vector<RuntimePredictor> predictors(
        n, RuntimePredictor(mix_.ewmaShift));
    PredictorFeed feed(predictors);
    gpu.observers().attach(&tracker);
    gpu.observers().attach(&feed);

    const std::uint64_t threadCapacity =
        static_cast<std::uint64_t>(cfg_.numSmx) * cfg_.maxThreadsPerSmx;

    // The BEMPS-style admission test: device empty, or occupancy still
    // under the mix threshold — and a KDU entry to put the kernel in
    // (hostLaunch treats a full kernel table as a driver bug).
    auto admit = [&]() {
        if (!gpu.kdu().hasFreeEntry())
            return false;
        const std::uint64_t resident = gpu.residentThreads();
        if (resident == 0)
            return true;
        return resident * 100 <
               static_cast<std::uint64_t>(mix_.admissionThresholdPct) *
                   threadCapacity;
    };

    std::vector<StreamState> streams(n);
    Cycle lastDrain = 0;
    std::uint32_t stalls = 0;

    for (;;) {
        const Cycle now = gpu.now();
        laperm_assert(now < kMaxRunCycles,
                      "multi-tenant run exceeded kMaxRunCycles (livelock?)");

        // (a) Retire drained waves, in tenant index order.
        for (std::size_t i = 0; i < n; ++i) {
            StreamState &st = streams[i];
            const std::uint32_t tid = static_cast<std::uint32_t>(i);
            if (!st.waveInFlight || tracker.busy(tid))
                continue;
            const Cycle done = tracker.counters(tid).lastDrainCycle;
            st.waveLatencies.push_back(done - st.waveLaunchAt);
            st.waveInFlight = false;
            if (done > lastDrain)
                lastDrain = done;
            if (st.waveIx == workloads_[i]->waves().size()) {
                // Last wave of the job drained: the job is complete.
                st.turnarounds.push_back(done - st.jobArrival);
                st.activeJob = false;
                ++st.jobsDone;
            }
        }

        // (b) Start due jobs and launch next waves, in tenant index
        // order. The highest-priority tenant held at admission becomes
        // the waiter the preemption stage serves.
        bool launched = false;
        int waiter = -1;
        for (std::size_t i = 0; i < n; ++i) {
            StreamState &st = streams[i];
            const TenantSpec &spec = mix_.tenants[i];
            if (!st.activeJob && st.jobsDone < spec.jobs) {
                const Cycle arrival =
                    spec.firstArrival +
                    static_cast<Cycle>(st.jobsDone) * spec.period;
                if (arrival <= now) {
                    st.activeJob = true;
                    st.jobArrival = arrival;
                    st.waveIx = 0;
                }
            }
            if (!st.activeJob || st.waveInFlight)
                continue;
            const std::vector<LaunchRequest> &waves =
                workloads_[i]->waves();
            laperm_assert(st.waveIx < waves.size(),
                          "active job with no wave in flight must have "
                          "a next wave");
            if (admit()) {
                LaunchRequest req = waves[st.waveIx];
                req.tenant = static_cast<std::uint32_t>(i);
                gpu.launchHostKernel(req);
                st.waveInFlight = true;
                st.waveLaunchAt = now;
                ++st.waveIx;
                launched = true;
            } else if (waiter < 0 ||
                       spec.priority <
                           mix_.tenants[static_cast<std::size_t>(waiter)]
                               .priority) {
                waiter = static_cast<int>(i);
            }
        }

        // (c) Preemption: while a waiter is held, gate the one strictly
        // lower-priority tenant that is cheapest to drain (predicted
        // drain = EWMA TB runtime x resident TBs; ties break to the
        // lower tenant index). No waiter: clear the gate.
        std::uint32_t victim = kNoTenant;
        if (waiter >= 0) {
            const std::uint32_t waiterPri =
                mix_.tenants[static_cast<std::size_t>(waiter)].priority;
            Cycle best = kNoCycle;
            for (std::size_t j = 0; j < n; ++j) {
                if (mix_.tenants[j].priority <= waiterPri)
                    continue;
                const std::uint64_t resident =
                    tracker.residentTbs(static_cast<std::uint32_t>(j));
                if (resident == 0)
                    continue;
                const Cycle cost = predictors[j].predictedDrain(resident);
                if (victim == kNoTenant || cost < best) {
                    best = cost;
                    victim = static_cast<std::uint32_t>(j);
                }
            }
        }
        if (victim != gpu.gatedTenant())
            gpu.setGatedTenant(victim);

        // (d) Advance. Done when every stream finished its jobs and the
        // device drained; otherwise run one quantum (clipped to the
        // next arrival), or jump an idle device straight to it.
        bool allDone = true;
        Cycle nextArrival = kNoCycle;
        for (std::size_t i = 0; i < n; ++i) {
            const StreamState &st = streams[i];
            const TenantSpec &spec = mix_.tenants[i];
            if (st.activeJob || st.jobsDone < spec.jobs)
                allDone = false;
            if (!st.activeJob && st.jobsDone < spec.jobs) {
                const Cycle arrival =
                    spec.firstArrival +
                    static_cast<Cycle>(st.jobsDone) * spec.period;
                if (arrival > now && arrival < nextArrival)
                    nextArrival = arrival;
            }
        }
        if (allDone && gpu.isIdle())
            break;

        if (gpu.isIdle() && !launched) {
            // Nothing in flight and nothing launchable now; the only
            // way forward is the next scheduled arrival.
            laperm_assert(nextArrival != kNoCycle,
                          "idle device with no launch and no pending "
                          "arrival");
            gpu.advanceTo(nextArrival);
            stalls = 0;
            continue;
        }

        Cycle stop = now + mix_.quantum;
        if (nextArrival != kNoCycle && nextArrival < stop)
            stop = nextArrival;
        gpu.runUntil(stop);

        if (gpu.now() == now && !launched) {
            laperm_assert(++stalls < 4,
                          "multi-tenant decision loop made no progress");
        } else {
            stalls = 0;
        }
    }

    MultiTenantResult out;
    out.makespan = lastDrain;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t tid = static_cast<std::uint32_t>(i);
        TenantRunResult r;
        r.name = mix_.tenants[i].name;
        r.tenant = tid;
        r.jobTurnarounds = std::move(streams[i].turnarounds);
        r.waveLatencies = std::move(streams[i].waveLatencies);
        r.retiredTbs = tracker.counters(tid).retiredTbs;
        r.dispatchedTbs = tracker.counters(tid).dispatchedTbs;
        r.kernelsAdmitted = tracker.counters(tid).kernelsAdmitted;
        out.perTenant.push_back(std::move(r));
    }
    return out;
}

MixStudy
runMixStudy(const MixSpec &mix, const GpuConfig &cfg)
{
    // One workload instance per tenant, even when streams share a
    // workload name: instances are cheap relative to simulation and
    // per-tenant ownership keeps the setup deterministic and simple.
    // Each tenant gets a disjoint 256 GiB address-space slice so
    // co-resident workloads never alias in the shared caches (tenant 0
    // keeps the default base, matching single-app runs). The solo
    // baselines reuse the same instances, hence the same layout, so
    // ANTT compares contention and nothing else.
    std::vector<std::unique_ptr<Workload>> owned;
    std::vector<const Workload *> borrowed;
    for (std::size_t i = 0; i < mix.tenants.size(); ++i) {
        const TenantSpec &t = mix.tenants[i];
        owned.push_back(createWorkload(t.workload));
        if (i > 0) {
            owned.back()->setMemoryBase(0x10000000ull +
                                        (static_cast<Addr>(i) << 38));
        }
        owned.back()->setup(t.scale, cfg.seed);
        borrowed.push_back(owned.back().get());
    }

    MixStudy study;
    {
        TenantManager manager(mix, cfg, borrowed);
        study.shared = manager.run();
    }

    // Solo baselines: each stream alone on the same device with the
    // same arrival schedule and knobs, so ANTT isolates contention.
    for (std::size_t i = 0; i < mix.tenants.size(); ++i) {
        MixSpec soloMix;
        soloMix.name = mix.name + "-solo-" + mix.tenants[i].name;
        soloMix.tenants.push_back(mix.tenants[i]);
        soloMix.admissionThresholdPct = mix.admissionThresholdPct;
        soloMix.ewmaShift = mix.ewmaShift;
        soloMix.quantum = mix.quantum;
        TenantManager manager(soloMix, cfg, {borrowed[i]});
        MultiTenantResult r = manager.run();
        laperm_assert(r.perTenant.size() == 1, "solo run grew tenants");
        study.solo.push_back(std::move(r.perTenant[0]));
        // Keep the shared run's tenant id for readable reporting.
        study.solo.back().tenant = static_cast<std::uint32_t>(i);
    }

    study.metrics = computeMixMetrics(study.shared, study.solo);
    return study;
}

} // namespace tenant
} // namespace laperm
