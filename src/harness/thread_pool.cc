#include "harness/thread_pool.hh"

#include <cstdint>
#include <cstdlib>
#include <utility>

#include "common/log.hh"
#include "common/parse_uint.hh"

namespace laperm {

ThreadPool::ThreadPool(unsigned num_threads)
{
    if (num_threads == 0)
        num_threads = 1;
    threads_.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        queue_.push_back(std::move(job));
        ++inFlight_;
    }
    workCv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    idleCv_.wait(lock, [this] { return inFlight_ == 0; });
    if (const std::exception_ptr err = std::exchange(firstError_, nullptr)) {
        lock.unlock();
        rethrowHere(err);
    }
}

void
ThreadPool::workerLoop()
{
    const FatalThrows fatal_throws;
    for (;;) {
        std::function<void()> job;
        bool failed = false;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workCv_.wait(lock,
                         [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to drain
            job = std::move(queue_.front());
            queue_.pop_front();
            failed = firstError_ != nullptr;
        }
        // After a failure, each job taken is dropped as finished until
        // wait() raises it.
        try {
            if (!failed)
                job();
        } catch (...) {
            std::unique_lock<std::mutex> lock(mu_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        {
            std::unique_lock<std::mutex> lock(mu_);
            if (--inFlight_ == 0)
                idleCv_.notify_all();
        }
    }
}

unsigned
ThreadPool::defaultJobs()
{
    if (const char *env = std::getenv("LAPERM_JOBS"); env && *env) {
        std::uint64_t v = 0;
        if (!parseUInt(env, kMaxJobs, v))
            laperm_fatal("bad LAPERM_JOBS '%s' (want 0 to %u)", env,
                         kMaxJobs);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace laperm
