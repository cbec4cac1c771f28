/**
 * @file
 * A small fixed-size thread pool for the sweep executor. Jobs are
 * plain std::function<void()>; wait() blocks until the pool is idle
 * and rethrows the first exception any job raised, so callers keep
 * fail-fast semantics under parallelism.
 */

#ifndef LAPERM_HARNESS_THREAD_POOL_HH
#define LAPERM_HARNESS_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace laperm {

/**
 * Fixed worker count, FIFO queue. The pool itself guarantees nothing
 * about execution order; deterministic output is the caller's job
 * (the sweep executor writes each result to a preassigned index).
 */
class ThreadPool
{
  public:
    /** Spawn @p num_threads workers (clamped to at least one). */
    explicit ThreadPool(unsigned num_threads);

    /** Drains remaining jobs, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a job. Safe to call from any thread, including jobs. */
    void submit(std::function<void()> job);

    /**
     * Block until every submitted job has finished. If any job threw,
     * rethrows the first captured exception (the pool stays usable).
     */
    void wait();

    unsigned numThreads() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /** The most workers a job count from user input may ask for. */
    static constexpr unsigned kMaxJobs = 1024;

    /**
     * Worker count selected by the LAPERM_JOBS environment variable, 1
     * to kMaxJobs. Unset, empty or 0 selects
     * std::thread::hardware_concurrency() (min 1), the API's jobs = 0;
     * any other value is a fatal config error.
     */
    static unsigned defaultJobs();

  private:
    void workerLoop();

    std::vector<std::thread> threads_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable workCv_; ///< workers sleep here
    std::condition_variable idleCv_; ///< wait() sleeps here
    std::size_t inFlight_ = 0;       ///< queued + currently running
    bool stop_ = false;
    std::exception_ptr firstError_;
};

} // namespace laperm

#endif // LAPERM_HARNESS_THREAD_POOL_HH
