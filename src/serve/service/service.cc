#include "serve/service/service.hh"

#include <chrono>
#include <exception>
#include <thread>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/tenant_sweep.hh"
#include "tenant/mixes.hh"
#include "tenant/tenant_manager.hh"
#include "workloads/registry.hh"

namespace laperm {
namespace serve {

namespace {

std::uint64_t
nowUs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
bumpPeak(std::atomic<std::uint64_t> &peak, std::uint64_t v)
{
    std::uint64_t cur = peak.load(std::memory_order_relaxed);
    while (v > cur &&
           !peak.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

} // namespace

std::string
ServiceMetrics::jsonFields() const
{
    return logFormat(
        "\"requests\":%llu,\"executed\":%llu,\"cache_hits\":%llu,"
        "\"cache_misses\":%llu,\"cache_mem_hits\":%llu,"
        "\"cache_shared_hits\":%llu,\"deduped\":%llu,\"shed\":%llu,"
        "\"timeouts\":%llu,\"errors\":%llu,\"queue_depth\":%llu,"
        "\"queue_depth_peak\":%llu,\"queue_us\":%llu,\"exec_us\":%llu,"
        "\"total_us\":%llu",
        static_cast<unsigned long long>(requests),
        static_cast<unsigned long long>(executed),
        static_cast<unsigned long long>(cacheHits),
        static_cast<unsigned long long>(cacheMisses),
        static_cast<unsigned long long>(cacheMemHits),
        static_cast<unsigned long long>(cacheSharedHits),
        static_cast<unsigned long long>(deduped),
        static_cast<unsigned long long>(shed),
        static_cast<unsigned long long>(timeouts),
        static_cast<unsigned long long>(errors),
        static_cast<unsigned long long>(queueDepth),
        static_cast<unsigned long long>(queueDepthPeak),
        static_cast<unsigned long long>(queueUs),
        static_cast<unsigned long long>(execUs),
        static_cast<unsigned long long>(totalUs));
}

std::string
ServiceMetrics::toTsv() const
{
    return logFormat(
        "requests\t%llu\nexecuted\t%llu\ncache_hits\t%llu\n"
        "cache_misses\t%llu\ncache_mem_hits\t%llu\n"
        "cache_shared_hits\t%llu\ndeduped\t%llu\nshed\t%llu\n"
        "timeouts\t%llu\nerrors\t%llu\nqueue_depth\t%llu\n"
        "queue_depth_peak\t%llu\nqueue_us\t%llu\nexec_us\t%llu\n"
        "total_us\t%llu\n",
        static_cast<unsigned long long>(requests),
        static_cast<unsigned long long>(executed),
        static_cast<unsigned long long>(cacheHits),
        static_cast<unsigned long long>(cacheMisses),
        static_cast<unsigned long long>(cacheMemHits),
        static_cast<unsigned long long>(cacheSharedHits),
        static_cast<unsigned long long>(deduped),
        static_cast<unsigned long long>(shed),
        static_cast<unsigned long long>(timeouts),
        static_cast<unsigned long long>(errors),
        static_cast<unsigned long long>(queueDepth),
        static_cast<unsigned long long>(queueDepthPeak),
        static_cast<unsigned long long>(queueUs),
        static_cast<unsigned long long>(execUs),
        static_cast<unsigned long long>(totalUs));
}

SimService::SimService(ServiceOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cacheDir, opts_.fingerprint),
      pool_(std::make_unique<ThreadPool>(
          opts_.jobs ? opts_.jobs : ThreadPool::defaultJobs()))
{
}

SimService::~SimService()
{
    // ThreadPool's destructor drains the queue, which completes every
    // flight; no waiter can outlive the service by contract (the
    // server joins its connection threads first).
    pool_.reset();
}

RunOutcome
SimService::run(const SimRequest &req)
{
    const std::uint64_t t0 = nowUs();
    requests_.fetch_add(1, std::memory_order_relaxed);

    RunOutcome out;
    std::string err;
    if (!req.validate(err)) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        out.status = RunStatus::Error;
        out.error = err;
        totalUs_.fetch_add(nowUs() - t0, std::memory_order_relaxed);
        return out;
    }
    out.key = req.key();

    // Cache probe. Skipped for trace requests: a hit would return the
    // right stats but produce none of the requested artifacts.
    if (req.traceDir.empty()) {
        const ResultCache::Tier tier = cache_.probe(out.key, out.payload);
        if (tier != ResultCache::Tier::Miss) {
            cacheHits_.fetch_add(1, std::memory_order_relaxed);
            if (tier == ResultCache::Tier::Memory)
                cacheMemHits_.fetch_add(1, std::memory_order_relaxed);
            else
                cacheSharedHits_.fetch_add(1,
                                           std::memory_order_relaxed);
            out.status = RunStatus::Ok;
            out.cached = true;
            totalUs_.fetch_add(nowUs() - t0, std::memory_order_relaxed);
            return out;
        }
    }

    // Single-flight join or admission-controlled enqueue.
    std::shared_ptr<Flight> flight;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = flights_.find(out.key);
        if (it != flights_.end()) {
            flight = it->second;
        } else {
            if (pending_ >= opts_.queueCapacity) {
                shed_.fetch_add(1, std::memory_order_relaxed);
                out.status = RunStatus::Shed;
                totalUs_.fetch_add(nowUs() - t0,
                                   std::memory_order_relaxed);
                return out;
            }
            flight = std::make_shared<Flight>();
            flights_.emplace(out.key, flight);
            ++pending_;
            bumpPeak(queueDepthPeak_, pending_);
            owner = true;
        }
    }

    if (owner) {
        pool_->submit([this, req, key = out.key, flight, t0] {
            execute(req, key, flight, t0);
        });
    } else {
        deduped_.fetch_add(1, std::memory_order_relaxed);
        out.deduped = true;
    }

    {
        std::unique_lock<std::mutex> lock(flight->mu);
        if (!flight->cv.wait_for(lock,
                                 std::chrono::milliseconds(opts_.timeoutMs),
                                 [&] { return flight->done; })) {
            timeouts_.fetch_add(1, std::memory_order_relaxed);
            out.status = RunStatus::Timeout;
            totalUs_.fetch_add(nowUs() - t0, std::memory_order_relaxed);
            return out;
        }
        if (flight->error.empty()) {
            out.status = RunStatus::Ok;
            out.payload = flight->payload;
        } else {
            errors_.fetch_add(1, std::memory_order_relaxed);
            out.status = RunStatus::Error;
            out.error = flight->error;
        }
    }
    totalUs_.fetch_add(nowUs() - t0, std::memory_order_relaxed);
    return out;
}

void
SimService::execute(const SimRequest &req, const std::string &key,
                    const std::shared_ptr<Flight> &flight,
                    std::uint64_t enqueuedUs)
{
    const std::uint64_t tStart = nowUs();
    queueUs_.fetch_add(tStart - enqueuedUs, std::memory_order_relaxed);

    if (opts_.testExecDelayMs) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts_.testExecDelayMs));
    }

    std::string payload;
    std::string error;
    try {
        if (!req.tenants.empty()) {
            // Tenant-mix request: the payload is the same TSV
            // laperm_sim --tenants MIX --tenants-tsv writes, so a
            // served mix study byte-compares against a direct run.
            const tenant::MixSpec mix = tenant::builtinMix(req.tenants);
            const tenant::MixStudy study =
                tenant::runMixStudy(mix, req.cfg);
            payload = encodeTenantSweepTsv(tenantSweepRows(
                mix.name, req.presetName, req.cfg.tbPolicy, study.metrics));
        } else {
            auto w = createWorkload(req.workload);
            w->setup(req.scale, req.seed);
            payload = runOneRecord(*w, req.cfg, req.traceDir).encode();
        }
    } catch (const std::exception &e) {
        error = e.what();
    }

    executed_.fetch_add(1, std::memory_order_relaxed);
    if (error.empty()) {
        if (!cache_.store(key, payload))
            laperm_warn("result cache store failed for key %s",
                        key.c_str());
        // Counted after the store completes: an observed miss implies
        // the cached result is already readable by a retry.
        cacheMisses_.fetch_add(1, std::memory_order_relaxed);
    }
    execUs_.fetch_add(nowUs() - tStart, std::memory_order_relaxed);

    {
        std::lock_guard<std::mutex> lock(mu_);
        flights_.erase(key);
        --pending_;
    }
    {
        std::lock_guard<std::mutex> lock(flight->mu);
        flight->payload = std::move(payload);
        flight->error = std::move(error);
        flight->done = true;
    }
    flight->cv.notify_all();
}

ServiceMetrics
SimService::metrics() const
{
    ServiceMetrics m;
    m.requests = requests_.load(std::memory_order_relaxed);
    m.executed = executed_.load(std::memory_order_relaxed);
    m.cacheHits = cacheHits_.load(std::memory_order_relaxed);
    m.cacheMisses = cacheMisses_.load(std::memory_order_relaxed);
    m.cacheMemHits = cacheMemHits_.load(std::memory_order_relaxed);
    m.cacheSharedHits =
        cacheSharedHits_.load(std::memory_order_relaxed);
    m.deduped = deduped_.load(std::memory_order_relaxed);
    m.shed = shed_.load(std::memory_order_relaxed);
    m.timeouts = timeouts_.load(std::memory_order_relaxed);
    m.errors = errors_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mu_);
        m.queueDepth = pending_;
    }
    m.queueDepthPeak = queueDepthPeak_.load(std::memory_order_relaxed);
    m.queueUs = queueUs_.load(std::memory_order_relaxed);
    m.execUs = execUs_.load(std::memory_order_relaxed);
    m.totalUs = totalUs_.load(std::memory_order_relaxed);
    return m;
}

} // namespace serve
} // namespace laperm
