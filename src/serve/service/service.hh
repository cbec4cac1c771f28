/**
 * @file
 * SimService: the request-execution engine behind the daemon
 * (DESIGN.md §10.4). Transport-independent, so tests and the
 * throughput bench drive it directly, and the Unix-socket Server is a
 * thin shell around it.
 *
 * Lifecycle of a request:
 *   1. validate — bad requests get an error, never a dead daemon;
 *   2. cache probe — the result store (harness/result_cache.hh) the
 *      sweep harness shares, byte-identical payload on a hit;
 *   3. single-flight — an identical request already executing is
 *      joined, not re-run;
 *   4. admission — at most queueCapacity requests queued or running;
 *      beyond that the request is shed with an `overloaded` status
 *      (bounded memory, never a crash);
 *   5. execute on the shared harness::ThreadPool, store to cache,
 *      wake all joiners.
 *
 * A waiter gives up after timeoutMs (`timeout` status) but the
 * execution itself keeps running and still populates the cache — a
 * retry typically hits.
 *
 * This layer deliberately reads wall clocks (latency metrics,
 * timeouts): it is SERVICE code, not simulator code, and sits outside
 * sim-lint's restricted directories (DESIGN.md §7.3). Simulated time
 * never flows from here into the simulation.
 */

#ifndef LAPERM_SERVE_SERVICE_SERVICE_HH
#define LAPERM_SERVE_SERVICE_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/result_cache.hh"
#include "harness/thread_pool.hh"
#include "serve/service/sim_request.hh"

namespace laperm {
namespace serve {

struct ServiceOptions
{
    unsigned jobs = 0;              ///< 0 = ThreadPool::defaultJobs()
    std::size_t queueCapacity = 64; ///< queued + running admission bound
    std::uint64_t timeoutMs = 120000; ///< per-request waiter bound
    std::string cacheDir;           ///< empty = cacheRootDir()
    std::string fingerprint;        ///< empty = simFingerprint()
    /**
     * Test/bench hook: sleep this long inside each execution so
     * in-flight overlap (dedup, shedding, timeouts) can be forced
     * deterministically. Zero in production.
     */
    std::uint64_t testExecDelayMs = 0;
};

/** Counter snapshot; field order here == wire order of `stats`. */
struct ServiceMetrics
{
    std::uint64_t requests = 0;   ///< run requests accepted for processing
    std::uint64_t executed = 0;   ///< simulations actually run
    std::uint64_t cacheHits = 0;  ///< total = memory + shared tier
    std::uint64_t cacheMisses = 0; ///< executions triggered by a miss
    /**
     * Tier breakdown of cacheHits (harness ResultCache): memory hits
     * were stored or promoted by this process; shared hits came off
     * the shared disk tier — i.e. a sweep, another process or a
     * previous incarnation of this daemon executed the simulation.
     * Non-zero shared hits after a restart are the disk tier surviving
     * it.
     */
    std::uint64_t cacheMemHits = 0;
    std::uint64_t cacheSharedHits = 0;
    std::uint64_t deduped = 0;    ///< joined an in-flight execution
    std::uint64_t shed = 0;       ///< rejected by admission control
    std::uint64_t timeouts = 0;   ///< waiters that gave up
    std::uint64_t errors = 0;     ///< invalid requests / failed runs
    std::uint64_t queueDepth = 0; ///< gauge: queued + running now
    std::uint64_t queueDepthPeak = 0;
    std::uint64_t queueUs = 0;    ///< total enqueue->start wait
    std::uint64_t execUs = 0;     ///< total simulation wall time
    std::uint64_t totalUs = 0;    ///< total request latency (all paths)

    /** One counter: its wire name and its member. */
    struct Field
    {
        const char *name;
        std::uint64_t ServiceMetrics::*value;
    };

    /**
     * Every counter in wire order. The `stats` JSON, the daemon's exit
     * TSV and `laperm_submit --stats` all walk this one table.
     */
    static const std::vector<Field> &fields();

    /** `"requests":N,...` fragment, fixed field order. */
    std::string jsonFields() const;

    /** Two-column "metric\tvalue" TSV, same order, trailing newline. */
    std::string toTsv() const;
};

enum class RunStatus
{
    Ok,
    Shed,    ///< admission queue full -> structured overload response
    Timeout, ///< waiter bound exceeded; execution continues
    Error,   ///< invalid request or failed execution
};

struct RunOutcome
{
    RunStatus status = RunStatus::Error;
    bool cached = false;  ///< served from the on-disk result cache
    bool deduped = false; ///< joined an execution another caller owns
    std::string key;      ///< content key (empty on parse-level errors)
    std::string payload;  ///< canonical ResultRecord line when Ok
    std::string error;    ///< diagnostic when status == Error
};

class SimService
{
  public:
    explicit SimService(ServiceOptions opts);

    /** Blocks until every in-flight execution has drained. */
    ~SimService();

    SimService(const SimService &) = delete;
    SimService &operator=(const SimService &) = delete;

    /** Serve one request (cache / dedup / execute / shed). */
    RunOutcome run(const SimRequest &req);

    ServiceMetrics metrics() const;
    const std::string &fingerprint() const
    {
        return cache_.fingerprint();
    }

    /**
     * Drop the in-memory cache tier, as a worker restart would. The
     * shared disk tier survives; subsequent probes of keys it holds
     * count as shared-tier (cross-worker) hits. Test/bench hook.
     */
    void dropMemoryCache() { cache_.dropMemory(); }

  private:
    struct Flight
    {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        std::string payload;
        std::string error;
    };

    void execute(const SimRequest &req, const std::string &key,
                 const std::shared_ptr<Flight> &flight,
                 std::uint64_t enqueuedUs);

    ServiceOptions opts_;
    ResultCache cache_;
    std::unique_ptr<ThreadPool> pool_;

    mutable std::mutex mu_; ///< guards flights_ and pending_
    std::map<std::string, std::shared_ptr<Flight>> flights_;
    std::size_t pending_ = 0; ///< queued + running executions

    // Counters are atomics so connection threads never contend on mu_
    // just to bump a metric.
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> cacheHits_{0};
    std::atomic<std::uint64_t> cacheMisses_{0};
    std::atomic<std::uint64_t> cacheMemHits_{0};
    std::atomic<std::uint64_t> cacheSharedHits_{0};
    std::atomic<std::uint64_t> deduped_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> timeouts_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::uint64_t> queueDepthPeak_{0};
    std::atomic<std::uint64_t> queueUs_{0};
    std::atomic<std::uint64_t> execUs_{0};
    std::atomic<std::uint64_t> totalUs_{0};
};

} // namespace serve
} // namespace laperm

#endif // LAPERM_SERVE_SERVICE_SERVICE_HH
