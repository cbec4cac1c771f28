#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.hh"
#include "harness/thread_pool.hh"

using namespace laperm;

TEST(ThreadPool, RunsEverySubmittedJob)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.numThreads(), 1u);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, WaitOnIdlePoolReturnsImmediately)
{
    ThreadPool pool(2);
    pool.wait();
    pool.wait();
}

TEST(ThreadPool, ReusableAcrossWaves)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int wave = 0; wave < 5; ++wave) {
        for (int i = 0; i < 20; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), (wave + 1) * 20);
    }
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([] { throw std::runtime_error("boom"); });
    for (int i = 0; i < 10; ++i)
        pool.submit([&ran] { ++ran; });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // Non-throwing jobs still ran and the pool is usable afterwards.
    EXPECT_EQ(ran.load(), 10);
    pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 11);
}

TEST(ThreadPool, SubmitFromWithinAJob)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&] {
        ++count;
        pool.submit([&count] { ++count; });
    });
    pool.wait();
    EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, DefaultJobsHonorsEnv)
{
    setenv("LAPERM_JOBS", "7", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), 7u);
    setenv("LAPERM_JOBS", "0", 1); // invalid: fall through to hardware
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
    unsetenv("LAPERM_JOBS");
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
}

TEST(ThreadPool, DefaultJobsRejectsAnEnvOutsideItsRange)
{
    // No pool starts here: each value is only parsed.
    const FatalThrows fatal_throws;
    setenv("LAPERM_JOBS", "1024", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), ThreadPool::kMaxJobs);
    setenv("LAPERM_JOBS", "", 1); // empty: as unset
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
    const std::string above = std::to_string(ThreadPool::kMaxJobs + 1);
    for (const char *bad :
         {"12abc", "-3", " 4", "abc", "99999999999", above.c_str()}) {
        setenv("LAPERM_JOBS", bad, 1);
        try {
            ThreadPool::defaultJobs();
            ADD_FAILURE() << "LAPERM_JOBS='" << bad << "' accepted";
        } catch (const FatalError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("LAPERM_JOBS"), std::string::npos) << what;
            EXPECT_NE(what.find("0 to 1024"), std::string::npos) << what;
        }
    }
    unsetenv("LAPERM_JOBS");
}
