#include "dynpar/launcher.hh"

#include <algorithm>

#include "common/log.hh"

namespace laperm {

std::string
launchMisfit(const GpuConfig &cfg, const LaunchRequest &req)
{
    return cfg.tbMisfit(req.threadsPerTb,
                        req.program->regsPerThread() * req.threadsPerTb,
                        req.program->smemPerTb());
}

Launcher::Launcher(const GpuConfig &cfg, Kdu &kdu, TbScheduler &sched,
                   GpuStats &stats, std::uint64_t &undispatched_tbs,
                   obs::ObserverHub &hub)
    : cfg_(cfg), kdu_(kdu), sched_(sched), stats_(stats),
      undispatchedTbs_(undispatched_tbs), hub_(hub)
{
}

void
Launcher::hostLaunch(const LaunchRequest &req, Cycle now)
{
    laperm_assert(req.program != nullptr, "host launch without program");
    if (!kdu_.hasFreeEntry())
        laperm_fatal("host launch with a full KDU");
    const std::string misfit = launchMisfit(cfg_, req);
    if (!misfit.empty())
        laperm_fatal("host launch: %s", misfit.c_str());

    KernelInstance *kernel =
        kdu_.admitKernel(req.program->functionId(), req.threadsPerTb,
                         req.numTbs, false, now, req.tenant);
    ++stats_.kernelsLaunched;
    if (hub_.enabled()) {
        // Host launches admit in the same cycle they are queued.
        hub_.launchAdmitted({now, kernel->id, 0, kNoTb, req.numTbs, false,
                             false, now, now, req.tenant});
    }

    DispatchUnit *unit = kdu_.createUnit();
    unit->kernel = kernel;
    unit->traces = req.traces;
    unit->firstTb = 0;
    unit->count = req.numTbs;
    unit->threadsPerTb = req.threadsPerTb;
    unit->regsPerTb = req.program->regsPerThread() * req.threadsPerTb;
    unit->smemPerTb = req.program->smemPerTb();
    unit->priority = 0;
    unit->tenant = req.tenant;
    unit->readyAt = now;
    undispatchedTbs_ += req.numTbs;
    sched_.enqueue(unit, now);
}

void
Launcher::deviceLaunch(const LaunchRequest &req, const ThreadBlock &parent,
                       Cycle now)
{
    laperm_assert(req.program != nullptr, "device launch without program");
    ++stats_.deviceLaunches;

    PendingLaunch p;
    p.req = req;
    // Children stay in their launching TB's tenant stream.
    p.req.tenant = parent.tenant;
    // Children run one level above their direct parent, clamped to the
    // maximum nesting level L (Section IV-A).
    p.priority = std::min(parent.priority + 1, cfg_.maxPriorityLevels);
    p.directParent = parent.uid;
    p.parentSmx = parent.smx;
    p.queuedAt = now;
    p.readyAt = now + (cfg_.dynParModel == DynParModel::CDP
                           ? cfg_.cdpLaunchLatency
                           : cfg_.dtblLaunchLatency);
    if (hub_.enabled()) {
        hub_.launchQueued({now, 0, p.priority, p.directParent, req.numTbs,
                           true, false, now, p.readyAt, p.req.tenant});
    }
    kmu_.push(std::move(p));
}

void
Launcher::makeUnit(KernelInstance *kernel, std::uint32_t first_tb,
                   const PendingLaunch &launch, Cycle now)
{
    DispatchUnit *unit = kdu_.createUnit();
    unit->kernel = kernel;
    unit->traces = launch.req.traces;
    unit->firstTb = first_tb;
    unit->count = launch.req.numTbs;
    unit->threadsPerTb = launch.req.threadsPerTb;
    unit->regsPerTb =
        launch.req.program->regsPerThread() * launch.req.threadsPerTb;
    unit->smemPerTb = launch.req.program->smemPerTb();
    unit->priority = launch.priority;
    unit->tenant = launch.req.tenant;
    unit->directParent = launch.directParent;
    unit->boundSmx = launch.parentSmx;
    unit->readyAt = now;
    undispatchedTbs_ += launch.req.numTbs;
    stats_.dynamicTbs += launch.req.numTbs;
    sched_.enqueue(unit, now);
}

bool
Launcher::tick(Cycle now)
{
    // Admission order: the baseline KMU is FCFS; LaPerm's KMU serves
    // the highest-priority ready launch first (Section IV-C).
    const bool priority_order = cfg_.tbPolicy != TbPolicy::RR;
    PendingLaunch *p = kmu_.peekReady(now, priority_order);
    if (!p)
        return false;

    if (cfg_.dynParModel == DynParModel::DTBL) {
        // Coalesce onto a running kernel with a matching configuration.
        KernelInstance *match = kdu_.findMatch(
            p->req.program->functionId(), p->req.threadsPerTb,
            p->req.tenant);
        if (match) {
            std::uint32_t first = kdu_.coalesceTbs(match, p->req.numTbs);
            ++stats_.dtblCoalesced;
            if (hub_.enabled()) {
                hub_.launchAdmitted({now, match->id, p->priority,
                                     p->directParent, p->req.numTbs, true,
                                     true, p->queuedAt, p->readyAt,
                                     p->req.tenant});
            }
            makeUnit(match, first, *p, now);
            kmu_.pop(p);
            return true;
        }
    }

    // A fresh device kernel needs a free KDU entry.
    if (!kdu_.hasFreeEntry()) {
        if (!p->stallCounted) {
            p->stallCounted = true;
            ++stats_.kduFullStalls;
        }
        return false;
    }
    KernelInstance *kernel =
        kdu_.admitKernel(p->req.program->functionId(), p->req.threadsPerTb,
                         p->req.numTbs, true, now, p->req.tenant);
    ++stats_.kernelsLaunched;
    if (hub_.enabled()) {
        hub_.launchAdmitted({now, kernel->id, p->priority, p->directParent,
                             p->req.numTbs, true, false, p->queuedAt,
                             p->readyAt, p->req.tenant});
    }
    makeUnit(kernel, 0, *p, now);
    kmu_.pop(p);
    return true;
}

Cycle
Launcher::nextReadyAt(Cycle now) const
{
    Cycle at = kmu_.nextReadyAt();
    // Ready-but-blocked launches (full KDU) wait on TB completions,
    // which surface as SMX events; only future readiness matters here.
    return at > now ? at : kNoCycle;
}

} // namespace laperm
