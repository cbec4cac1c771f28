#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <latch>
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
    ThreadPool pool(1);
    std::atomic<int> ran{0};
    pool.submit([] { throw std::runtime_error("boom"); });
    for (int i = 0; i < 10; ++i)
        pool.submit([&ran] { ++ran; });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The jobs queued behind the failure never started, and the pool
    // is usable afterwards.
    EXPECT_EQ(ran.load(), 0);
    pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, AJobQueuedBehindAFailureNeverStartsAndTheNextBatchRuns)
{
    ThreadPool pool(1);
    std::latch queued(1);
    std::atomic<int> ran{0};
    pool.submit([&queued] {
        queued.wait(); // until every job below is queued behind this one
        throw std::runtime_error("first");
    });
    for (int i = 0; i < 8; ++i)
        pool.submit([&ran] { ++ran; });
    pool.submit([] { throw std::logic_error("second"); });
    queued.count_down();
    try {
        pool.wait();
        ADD_FAILURE() << "wait() did not raise the failure";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "first");
    }
    EXPECT_EQ(ran.load(), 0);
    // wait() raised it, so the next batch runs in full and raises
    // nothing.
    for (int i = 0; i < 8; ++i)
        pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, AJobRunningWhenAnotherFailsFinishes)
{
    ThreadPool pool(2);
    std::latch started(1);
    std::latch failing(1);
    std::atomic<bool> finished{false};
    pool.submit([&] {
        started.count_down();
        failing.wait();
        finished = true;
    });
    pool.submit([&] {
        started.wait(); // the job above is running
        failing.count_down();
        throw std::runtime_error("boom");
    });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_TRUE(finished.load());
}

TEST(ThreadPool, AFatalInAJobComesBackWithItsOrigin)
{
    // Every job runs under FatalThrows: laperm_fatal in a job throws on
    // its worker, and wait() raises it here with the job's file and
    // line, as this thread's own FatalThrows scope asks.
    const FatalThrows fatal_throws;
    ThreadPool pool(2);
    int line = 0;
    pool.submit([&line] {
        line = __LINE__ + 1;
        laperm_fatal("job %d failed", 7);
    });
    try {
        pool.wait();
        ADD_FAILURE() << "wait() did not raise the fatal";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "job 7 failed");
        EXPECT_NE(std::string(e.file()).find("test_thread_pool.cc"),
                  std::string::npos)
            << e.file();
        EXPECT_EQ(e.line(), line);
    }
}

TEST(ThreadPoolDeathTest, AFatalInEveryJobExitsOnceOnTheWaitingThread)
{
    // Without a FatalThrows scope here, the waiting thread alone prints
    // one fatal line, naming where the first failed job raised it, and
    // exits 1; no worker ends the process.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            ThreadPool pool(4);
            for (int i = 0; i < 16; ++i)
                pool.submit([i] { laperm_fatal("cell %d failed", i); });
            pool.wait();
        },
        ::testing::ExitedWithCode(1),
        "^fatal: cell [0-9]+ failed "
        "\\(.*test_thread_pool\\.cc:[0-9]+\\)\n$");
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
