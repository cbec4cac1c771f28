#include "serve/service/service.hh"

#include <chrono>
#include <exception>
#include <thread>

#include "common/log.hh"

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

const std::vector<ServiceMetrics::Field> &
ServiceMetrics::fields()
{
    static const std::vector<Field> kFields = {
        {"requests", &ServiceMetrics::requests},
        {"executed", &ServiceMetrics::executed},
        {"cache_hits", &ServiceMetrics::cacheHits},
        {"cache_misses", &ServiceMetrics::cacheMisses},
        {"cache_mem_hits", &ServiceMetrics::cacheMemHits},
        {"cache_shared_hits", &ServiceMetrics::cacheSharedHits},
        {"deduped", &ServiceMetrics::deduped},
        {"shed", &ServiceMetrics::shed},
        {"timeouts", &ServiceMetrics::timeouts},
        {"errors", &ServiceMetrics::errors},
        {"queue_depth", &ServiceMetrics::queueDepth},
        {"queue_depth_peak", &ServiceMetrics::queueDepthPeak},
        {"queue_us", &ServiceMetrics::queueUs},
        {"exec_us", &ServiceMetrics::execUs},
        {"total_us", &ServiceMetrics::totalUs},
    };
    return kFields;
}

std::string
ServiceMetrics::jsonFields() const
{
    std::string out;
    for (const Field &f : fields()) {
        out += logFormat("%s\"%s\":%llu", out.empty() ? "" : ",", f.name,
                         static_cast<unsigned long long>(this->*f.value));
    }
    return out;
}

std::string
ServiceMetrics::toTsv() const
{
    std::string out;
    for (const Field &f : fields()) {
        out += logFormat("%s\t%llu\n", f.name,
                         static_cast<unsigned long long>(this->*f.value));
    }
    return out;
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
    // right stats but produce none of the requested artifacts. A record
    // off disk must be this request's; any other is a miss, and the
    // execution below overwrites it.
    if (req.traceDir.empty()) {
        const auto isCell = [&req](const std::string &payload) {
            return req.accepts(payload);
        };
        const ResultCache::Tier tier =
            cache_.probe(out.key, out.payload, isCell);
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
        // A user-caused error inside the run (a config the workload
        // cannot run on) throws on this pool job and answers this
        // request. Nothing may escape: the pool would drop every job
        // after it, and no one waits for this pool to raise it.
        payload = runCell(req, req.traceDir);
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
