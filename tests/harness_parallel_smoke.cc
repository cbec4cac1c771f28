/**
 * @file
 * Plain-main concurrency smoke for the parallel sweep executor. This
 * is the binary the ThreadSanitizer CTest configuration runs (see
 * scripts/verify.sh): it deliberately avoids gtest so every linked
 * object is TSan-instrumented, keeping the race report clean.
 *
 * Exercises: parallel workload setup, concurrent cells sharing one
 * workload and its trace forest, logging from workers, pool exception
 * propagation, and the result store written and read from pool
 * threads.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/thread_pool.hh"
#include "workloads/registry.hh"

using namespace laperm;

int
main()
{
    setVerbose(true); // force worker-thread inform() traffic

    // Exception propagation under contention.
    {
        ThreadPool pool(4);
        for (int i = 0; i < 32; ++i) {
            pool.submit([i] {
                if (i == 13)
                    throw std::runtime_error("expected");
                laperm_inform("pool job %d", i);
            });
        }
        bool threw = false;
        try {
            pool.wait();
        } catch (const std::runtime_error &) {
            threw = true;
        }
        if (!threw) {
            std::fprintf(stderr, "FAIL: pool swallowed the exception\n");
            return 1;
        }
    }

    // Two workloads x 8 cells, 8 workers vs 1 worker must agree.
    const std::vector<std::string> names = {"bfs-cage", "join-uniform"};
    auto serial = runMatrix(names, Scale::Tiny, 3, false, 1);
    auto parallel = runMatrix(names, Scale::Tiny, 3, false, 8);
    if (serial != parallel) {
        std::fprintf(stderr, "FAIL: parallel sweep diverged\n");
        return 1;
    }

    // The 8 workers above read each input's trace forest concurrently;
    // every cell must equal runOne's, which builds its TBs at dispatch.
    for (std::size_t i = 0; i < names.size(); ++i) {
        auto w = createWorkload(names[i]);
        w->setup(Scale::Tiny, 3);
        for (std::size_t c = 0; c < 8; ++c) {
            const RunResult &cell = parallel[i * 8 + c];
            GpuConfig cfg = paperConfig();
            cfg.dynParModel = cell.model;
            cfg.tbPolicy = cell.policy;
            cfg.seed = 3;
            if (!(runOne(*w, cfg) == cell)) {
                std::fprintf(stderr, "FAIL: %s %s/%s differs from runOne\n",
                             names[i].c_str(), toString(cell.model),
                             toString(cell.policy));
                return 1;
            }
        }
    }

    // One cached sweep twice on a fresh store: the first stores every
    // cell from the pool, the second probes them from the pool.
    const std::filesystem::path store =
        std::filesystem::temp_directory_path() /
        ("laperm_parallel_smoke_store." + std::to_string(::getpid()));
    std::filesystem::remove_all(store);
    setenv("LAPERM_CACHE_DIR", store.c_str(), 1);
    unsetenv("LAPERM_NO_CACHE");
    auto stored = runMatrix(names, Scale::Tiny, 3, true, 8);
    auto reloaded = runMatrix(names, Scale::Tiny, 3, true, 8);
    std::filesystem::remove_all(store);
    if (stored != serial || reloaded != serial) {
        std::fprintf(stderr, "FAIL: stored sweep diverged\n");
        return 1;
    }
    std::printf("harness_parallel_smoke: ok (%zu cells)\n",
                serial.size());
    return 0;
}
