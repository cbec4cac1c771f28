/**
 * @file
 * A small fixed-size thread pool: the one way work leaves the calling
 * thread (sweep cells, suite workloads, served runs, trace builders),
 * and the one way its failure comes back. Jobs are plain
 * std::function<void()> run under FatalThrows; the first one that
 * throws stops the pool from starting the jobs queued behind it, and
 * wait() raises its exception on the waiting thread.
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

    /**
     * Runs the jobs still queued (drops them after a failure wait()
     * has not raised), then joins all workers.
     */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a job. Safe to call from any thread, including jobs. */
    void submit(std::function<void()> job);

    /**
     * Block until every submitted job has finished or been dropped.
     * If a job threw, raise its exception here through rethrowHere
     * (common/log.hh); the pool runs the jobs submitted after that.
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
    std::exception_ptr firstError_; ///< jobs drop until wait() raises it
};

} // namespace laperm

#endif // LAPERM_HARNESS_THREAD_POOL_HH
