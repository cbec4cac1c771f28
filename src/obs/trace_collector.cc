#include "obs/trace_collector.hh"

#include <algorithm>
#include <cstdio>

namespace laperm {
namespace obs {

void
TraceCollector::onTbDispatch(const TbEvent &e)
{
    dispatches_.push_back(e);
    kernelDispatches_[e.kernel].push_back(e.cycle);
    if (e.smx != kNoSmx && e.smx > maxSmx_)
        maxSmx_ = e.smx;
    noteCycle(e.cycle);
}

void
TraceCollector::onTbRetire(const TbEvent &e)
{
    retires_.push_back(e);
    noteCycle(e.cycle);
}

void
TraceCollector::onLaunchQueued(const LaunchEvent &e)
{
    noteCycle(e.cycle);
}

void
TraceCollector::onLaunchAdmitted(const LaunchEvent &e)
{
    admitted_.push_back(e);
    noteCycle(e.cycle);
}

void
TraceCollector::onSteal(const StealEvent &e)
{
    steals_.push_back(e);
    noteCycle(e.cycle);
}

std::vector<LaunchLatency>
TraceCollector::launchLatencies() const
{
    std::vector<LaunchLatency> out;
    out.reserve(admitted_.size());
    for (const LaunchEvent &a : admitted_) {
        LaunchLatency ll;
        ll.kernel = a.kernel;
        ll.priority = a.priority;
        ll.isDevice = a.isDevice;
        ll.coalesced = a.coalesced;
        ll.queuedAt = a.queuedAt;
        ll.admittedAt = a.cycle;
        const auto it = kernelDispatches_.find(a.kernel);
        if (it != kernelDispatches_.end()) {
            // Per-kernel dispatch cycles are appended in simulation
            // order, so the vector is sorted and the first dispatch
            // at/after admission is a lower_bound away.
            const auto &cycles = it->second;
            const auto d =
                std::lower_bound(cycles.begin(), cycles.end(), a.cycle);
            if (d != cycles.end())
                ll.firstDispatchAt = *d;
        }
        out.push_back(ll);
    }
    return out;
}

namespace {

/** Escape-free JSON string field (names are simulator-generated). */
void
jsonEvent(std::FILE *f, bool &first, const char *body)
{
    std::fprintf(f, "%s\n%s", first ? "" : ",", body);
    first = false;
}

} // namespace

bool
TraceCollector::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;

    std::fprintf(f, "{\"traceEvents\":[");
    bool first = true;
    char buf[512];

    // Process metadata: one "process" per SMX plus one for device-level
    // events (kernel admissions, steals).
    const std::uint32_t numSmx = maxSmx_ + 1;
    for (std::uint32_t s = 0; s < numSmx; ++s) {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                      "\"tid\":0,\"args\":{\"name\":\"SMX %u\"}}",
                      s, s);
        jsonEvent(f, first, buf);
    }
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"tid\":0,\"args\":{\"name\":\"device\"}}",
                  numSmx);
    jsonEvent(f, first, buf);

    // TB residency as "X" duration events. Retires arrive in
    // simulation order; pair each with its dispatch data (carried on
    // the retire event) and assign the first lane (tid) free at
    // dispatch time on that SMX — a deterministic greedy interval
    // assignment.
    {
        std::vector<std::vector<Cycle>> laneFreeAt(numSmx);
        // Sort retires by (dispatchCycle, uid) so lane assignment is
        // by residency start, matching what a viewer renders.
        std::vector<const TbEvent *> byStart;
        byStart.reserve(retires_.size());
        for (const TbEvent &e : retires_)
            byStart.push_back(&e);
        std::sort(byStart.begin(), byStart.end(),
                  [](const TbEvent *a, const TbEvent *b) {
                      if (a->dispatchCycle != b->dispatchCycle)
                          return a->dispatchCycle < b->dispatchCycle;
                      return a->uid < b->uid;
                  });
        for (const TbEvent *e : byStart) {
            auto &lanes = laneFreeAt[e->smx];
            std::uint32_t lane = 0;
            while (lane < lanes.size() && lanes[lane] > e->dispatchCycle)
                ++lane;
            if (lane == lanes.size())
                lanes.push_back(0);
            lanes[lane] = e->cycle;
            const Cycle dur = e->cycle - e->dispatchCycle;
            std::snprintf(
                buf, sizeof(buf),
                "{\"name\":\"k%u tb%u\",\"cat\":\"tb\",\"ph\":\"X\","
                "\"pid\":%u,\"tid\":%u,\"ts\":%llu,\"dur\":%llu,"
                "\"args\":{\"uid\":%llu,\"kernel\":%u,\"priority\":%u,"
                "\"dynamic\":%u,\"parent\":%lld}}",
                e->kernel, e->tbIndex, e->smx, lane,
                static_cast<unsigned long long>(e->dispatchCycle),
                static_cast<unsigned long long>(dur),
                static_cast<unsigned long long>(e->uid), e->kernel,
                e->priority, e->isDynamic ? 1u : 0u,
                e->isDynamic ? static_cast<long long>(e->directParent)
                             : -1ll);
            jsonEvent(f, first, buf);
        }
    }

    // Per-SMX occupancy as "C" counter events: merge dispatches and
    // retires into one cycle-ordered delta stream per SMX.
    {
        struct Delta
        {
            Cycle cycle;
            SmxId smx;
            std::uint64_t seq; // tie-break: emission order
            std::int32_t d;
        };
        std::vector<Delta> deltas;
        deltas.reserve(dispatches_.size() + retires_.size());
        std::uint64_t seq = 0;
        for (const TbEvent &e : dispatches_)
            deltas.push_back({e.cycle, e.smx, seq++, +1});
        for (const TbEvent &e : retires_)
            deltas.push_back({e.cycle, e.smx, seq++, -1});
        std::sort(deltas.begin(), deltas.end(),
                  [](const Delta &a, const Delta &b) {
                      if (a.cycle != b.cycle)
                          return a.cycle < b.cycle;
                      if (a.smx != b.smx)
                          return a.smx < b.smx;
                      return a.seq < b.seq;
                  });
        std::vector<std::int32_t> occ(numSmx, 0);
        for (std::size_t i = 0; i < deltas.size(); ++i) {
            const Delta &d = deltas[i];
            occ[d.smx] += d.d;
            // Emit only the last delta per (cycle, smx) pair.
            if (i + 1 < deltas.size() &&
                deltas[i + 1].cycle == d.cycle &&
                deltas[i + 1].smx == d.smx)
                continue;
            std::snprintf(
                buf, sizeof(buf),
                "{\"name\":\"resident TBs\",\"ph\":\"C\",\"pid\":%u,"
                "\"tid\":0,\"ts\":%llu,\"args\":{\"tbs\":%d}}",
                d.smx, static_cast<unsigned long long>(d.cycle),
                occ[d.smx]);
            jsonEvent(f, first, buf);
        }
    }

    // Kernel admissions and Adaptive-Bind steals as instant events on
    // the device-level process.
    for (const LaunchEvent &e : admitted_) {
        std::snprintf(
            buf, sizeof(buf),
            "{\"name\":\"admit k%u\",\"cat\":\"launch\",\"ph\":\"i\","
            "\"s\":\"p\",\"pid\":%u,\"tid\":0,\"ts\":%llu,"
            "\"args\":{\"kernel\":%u,\"priority\":%u,\"tbs\":%u,"
            "\"device\":%u,\"coalesced\":%u,\"queued_at\":%llu}}",
            e.kernel, numSmx, static_cast<unsigned long long>(e.cycle),
            e.kernel, e.priority, e.numTbs, e.isDevice ? 1u : 0u,
            e.coalesced ? 1u : 0u,
            static_cast<unsigned long long>(e.queuedAt));
        jsonEvent(f, first, buf);
    }
    for (const StealEvent &e : steals_) {
        std::snprintf(
            buf, sizeof(buf),
            "{\"name\":\"%s\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"p\","
            "\"pid\":%u,\"tid\":0,\"ts\":%llu,"
            "\"args\":{\"smx\":%u,\"cluster\":%u,\"backup_cluster\":%u}}",
            e.adoption ? "adopt backup" : "steal tb", numSmx,
            static_cast<unsigned long long>(e.cycle), e.smx, e.cluster,
            e.backupCluster);
        jsonEvent(f, first, buf);
    }

    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    return true;
}

bool
TraceCollector::writeIntervalTsv(const std::string &path,
                                 Cycle interval) const
{
    if (interval == 0)
        interval = 1;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "interval_start\tdispatches\tretires\tadmits\tsteals"
                    "\toccupancy_tb_cycles\n");

    const std::size_t numIntervals =
        static_cast<std::size_t>(lastCycle_ / interval) + 1;
    std::vector<std::uint64_t> nDisp(numIntervals, 0);
    std::vector<std::uint64_t> nRet(numIntervals, 0);
    std::vector<std::uint64_t> nAdmit(numIntervals, 0);
    std::vector<std::uint64_t> nSteal(numIntervals, 0);
    // Occupancy integral per interval: each retired TB contributes its
    // residency overlap with the interval, in TB-cycles (integer).
    std::vector<std::uint64_t> occ(numIntervals, 0);

    for (const TbEvent &e : dispatches_)
        ++nDisp[e.cycle / interval];
    for (const LaunchEvent &e : admitted_)
        ++nAdmit[e.cycle / interval];
    for (const StealEvent &e : steals_) {
        if (!e.adoption)
            ++nSteal[e.cycle / interval];
    }
    for (const TbEvent &e : retires_) {
        ++nRet[e.cycle / interval];
        const Cycle start = e.dispatchCycle;
        const Cycle end = e.cycle;
        for (std::size_t i = start / interval; i <= end / interval; ++i) {
            const Cycle lo = std::max<Cycle>(start, i * interval);
            const Cycle hi = std::min<Cycle>(end, (i + 1) * interval);
            occ[i] += hi - lo;
        }
    }

    for (std::size_t i = 0; i < numIntervals; ++i) {
        std::fprintf(f, "%llu\t%llu\t%llu\t%llu\t%llu\t%llu\n",
                     static_cast<unsigned long long>(i * interval),
                     static_cast<unsigned long long>(nDisp[i]),
                     static_cast<unsigned long long>(nRet[i]),
                     static_cast<unsigned long long>(nAdmit[i]),
                     static_cast<unsigned long long>(nSteal[i]),
                     static_cast<unsigned long long>(occ[i]));
    }
    std::fclose(f);
    return true;
}

namespace {

/** Power-of-two bucket index: 0 for latency 0, else floor(log2)+1. */
std::uint32_t
bucketOf(Cycle v)
{
    std::uint32_t b = 0;
    while (v) {
        ++b;
        v >>= 1;
    }
    return b;
}

constexpr std::uint32_t kNumBuckets = 33; // up to 2^32 cycles

} // namespace

bool
TraceCollector::writeLaunchLatencyTsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;

    const std::vector<LaunchLatency> lats = launchLatencies();

    std::uint64_t queueBuckets[kNumBuckets] = {};
    std::uint64_t dispatchBuckets[kNumBuckets] = {};
    std::uint64_t totalBuckets[kNumBuckets] = {};
    std::uint64_t queueSum = 0, dispatchSum = 0, totalSum = 0;
    std::uint32_t hiBucket = 0;
    for (const LaunchLatency &ll : lats) {
        const std::uint32_t qb = bucketOf(ll.queueCycles());
        const std::uint32_t db = bucketOf(ll.dispatchCycles());
        const std::uint32_t tb = bucketOf(ll.totalCycles());
        ++queueBuckets[qb];
        ++dispatchBuckets[db];
        ++totalBuckets[tb];
        hiBucket = std::max(hiBucket, std::max(qb, std::max(db, tb)));
        queueSum += ll.queueCycles();
        dispatchSum += ll.dispatchCycles();
        totalSum += ll.totalCycles();
    }

    std::fprintf(f, "bucket_lo\tbucket_hi\tqueue\tdispatch\ttotal\n");
    for (std::uint32_t b = 0; b <= hiBucket; ++b) {
        const std::uint64_t lo = b == 0 ? 0 : (1ull << (b - 1));
        const std::uint64_t hi = b == 0 ? 0 : (1ull << b) - 1;
        std::fprintf(f, "%llu\t%llu\t%llu\t%llu\t%llu\n",
                     static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi),
                     static_cast<unsigned long long>(queueBuckets[b]),
                     static_cast<unsigned long long>(dispatchBuckets[b]),
                     static_cast<unsigned long long>(totalBuckets[b]));
    }
    const std::uint64_t n = lats.size();
    std::fprintf(f, "# launches\t%llu\n",
                 static_cast<unsigned long long>(n));
    if (n) {
        std::fprintf(
            f, "# mean_queue\t%.2f\n# mean_dispatch\t%.2f\n"
               "# mean_total\t%.2f\n",
            static_cast<double>(queueSum) / static_cast<double>(n),
            static_cast<double>(dispatchSum) / static_cast<double>(n),
            static_cast<double>(totalSum) / static_cast<double>(n));
    }
    std::fclose(f);
    return true;
}

bool
TraceCollector::writeDispatchCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "uid,kernel,tbIndex,smx,cycle,priority,dynamic,"
                    "parent\n");
    for (const TbEvent &e : dispatches_) {
        std::fprintf(f, "%llu,%u,%u,%u,%llu,%u,%d,",
                     static_cast<unsigned long long>(e.uid), e.kernel,
                     e.tbIndex, e.smx,
                     static_cast<unsigned long long>(e.cycle),
                     e.priority, e.isDynamic ? 1 : 0);
        if (e.directParent == kNoTb)
            std::fprintf(f, "-\n");
        else
            std::fprintf(f, "%llu\n",
                         static_cast<unsigned long long>(e.directParent));
    }
    std::fclose(f);
    return true;
}

} // namespace obs
} // namespace laperm
