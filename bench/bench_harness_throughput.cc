/**
 * @file
 * Wall-clock self-benchmark of the parallel sweep executor: runs the
 * full workload matrix serially (1 worker) and in parallel (LAPERM_JOBS
 * or 4 workers), each into its own fresh result store, verifies that
 * both produce identical results and byte-identical stored records,
 * and writes BENCH_sweep.json with cells/sec for each setting so the
 * speedup is tracked across PRs.
 *
 * Environment:
 *   LAPERM_BENCH_SCALE  tiny | small | full (default tiny)
 *   LAPERM_JOBS         parallel worker count (default 4)
 *
 * Exits nonzero if the parallel sweep diverges from the serial one.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "workloads/registry.hh"

using namespace laperm;

namespace {

namespace fs = std::filesystem;

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Record file name -> bytes for every record in the store @p dir. */
std::map<std::string, std::string>
storeContents(const fs::path &dir)
{
    std::map<std::string, std::string> out;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir / "results", ec))
        out[e.path().filename().string()] = readFile(e.path());
    return out;
}

/** Sweep into a fresh store at @p dir; returns the results. */
std::vector<RunResult>
sweepInto(const fs::path &dir, Scale scale, std::uint64_t seed,
          unsigned jobs, double &seconds)
{
    fs::remove_all(dir);
    setenv("LAPERM_CACHE_DIR", dir.c_str(), 1);
    const auto t0 = std::chrono::steady_clock::now();
    auto results = runMatrix(workloadNames(), scale, seed, true, jobs);
    seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    return results;
}

} // namespace

int
main()
{
    setVerbose(false);
    // Each sweep gets its own fresh store, so both actually simulate:
    // in a shared one the parallel sweep would read every serial record.
    unsetenv("LAPERM_NO_CACHE");

    const Scale scale = [] {
        if (const char *env = std::getenv("LAPERM_BENCH_SCALE"))
            return scaleFromString(env);
        return Scale::Tiny;
    }();
    const std::uint64_t seed = 1;
    unsigned jobs = 4;
    if (const char *env = std::getenv("LAPERM_JOBS")) {
        long v = std::atol(env);
        if (v > 0)
            jobs = static_cast<unsigned>(v);
    }

    const std::vector<std::string> &names = workloadNames();
    const fs::path base = fs::path(cacheRootDir()) / "bench_sweep";
    double serialSec = 0.0, parallelSec = 0.0;
    auto serial = sweepInto(base / "serial", scale, seed, 1, serialSec);
    auto parallel =
        sweepInto(base / "parallel", scale, seed, jobs, parallelSec);

    const bool resultsIdentical = serial == parallel;
    const auto serialStore = storeContents(base / "serial");
    const bool recordsIdentical =
        serialStore.size() == serial.size() &&
        serialStore == storeContents(base / "parallel");
    fs::remove_all(base);

    const double cells = static_cast<double>(serial.size());
    const double speedup =
        parallelSec > 0.0 ? serialSec / parallelSec : 0.0;

    std::ofstream json("BENCH_sweep.json");
    json << "{\n"
         << "  \"bench\": \"harness_sweep_throughput\",\n"
         << "  \"scale\": \"" << toString(scale) << "\",\n"
         << "  \"seed\": " << seed << ",\n"
         << "  \"workloads\": " << names.size() << ",\n"
         << "  \"cells\": " << serial.size() << ",\n"
         << "  \"hardware_threads\": "
         << std::thread::hardware_concurrency() << ",\n"
         << "  \"jobs_serial\": 1,\n"
         << "  \"seconds_serial\": " << serialSec << ",\n"
         << "  \"cells_per_sec_serial\": " << cells / serialSec << ",\n"
         << "  \"jobs_parallel\": " << jobs << ",\n"
         << "  \"seconds_parallel\": " << parallelSec << ",\n"
         << "  \"cells_per_sec_parallel\": " << cells / parallelSec
         << ",\n"
         << "  \"speedup\": " << speedup << ",\n"
         << "  \"results_identical\": "
         << (resultsIdentical ? "true" : "false") << ",\n"
         << "  \"records_identical\": "
         << (recordsIdentical ? "true" : "false") << "\n"
         << "}\n";
    json.close();

    std::printf("sweep: %zu cells, scale %s\n", serial.size(),
                toString(scale));
    std::printf("  1 job : %.3f s  (%.1f cells/s)\n", serialSec,
                cells / serialSec);
    std::printf("  %u jobs: %.3f s  (%.1f cells/s)  speedup %.2fx\n",
                jobs, parallelSec, cells / parallelSec, speedup);
    std::printf("  results identical: %s, records byte-identical: %s\n",
                resultsIdentical ? "yes" : "NO",
                recordsIdentical ? "yes" : "NO");
    std::printf("  wrote BENCH_sweep.json\n");

    if (!resultsIdentical || !recordsIdentical) {
        std::fprintf(stderr,
                     "FAIL: parallel sweep diverged from serial\n");
        return 1;
    }
    return 0;
}
