/**
 * @file
 * perfbench: runs one benchmark workload against the simulator's
 * public API and prints one JSON line with its metrics, the operations
 * attempted and failed, and the correctness verdict of the gates.
 *
 *   perfbench --workload suite-cold|sweep|serve-mixed --seed N
 *             --seconds S --trace 0|1 --tmp DIR
 *             [--spans FILE] [--records FILE]
 *
 * perfbench/run.py builds this binary, pins the environment, checks
 * the records against the checked-in references and prints the
 * benchmark's final line; see perfbench/README.md.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/log.hh"
#include "harness/result_cache.hh"
#include "layers.hh"
#include "serve/service/protocol.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "suite-cold|sweep|serve-mixed --seed N --seconds S "
                 "--trace 0|1 --tmp DIR [--spans FILE] [--records FILE]\n",
                 why);
    std::exit(2);
}

/** Timings from a sanitizer or unoptimized build mean nothing. */
const char *
refusedBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#elif !defined(__OPTIMIZE__) || !defined(NDEBUG)
    return "debug build";
#else
    return nullptr;
#endif
}

std::string
number(double v)
{
    return laperm::logFormat("%.17g", v);
}

std::string
toJson(const Options &opt, const Outcome &out)
{
    using laperm::serve::jsonEscape;
    std::string j = "{\"workload\":\"" + jsonEscape(opt.workload) +
                    "\",\"seed\":" + std::to_string(opt.seed) +
                    ",\"trace\":" + (opt.trace ? "1" : "0") +
                    ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"" +
                    ",\"fingerprint\":\"" + laperm::simFingerprint() +
                    "\",\"nproc\":" +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ",\"jobs\":" + std::to_string(kJobs) +
                    ",\"passes\":" + std::to_string(out.passes) +
                    ",\"attempted\":" + std::to_string(out.attempted) +
                    ",\"failed\":" + std::to_string(out.failed) +
                    ",\"errors\":[";
    for (std::size_t i = 0; i < out.errors.size(); ++i)
        j += (i ? ",\"" : "\"") + jsonEscape(out.errors[i]) + "\"";
    j += "],\"pass_wall_s\":[";
    for (std::size_t i = 0; i < out.passWallS.size(); ++i)
        j += (i ? "," : "") + number(out.passWallS[i]);
    j += "],\"samples\":{";
    bool first = true;
    for (const auto &[name, n] : out.samples) {
        j += (first ? "\"" : ",\"") + name + "\":" + std::to_string(n);
        first = false;
    }
    j += "},\"metrics\":{";
    first = true;
    for (const auto &[name, m] : out.metrics) {
        j += (first ? "\"" : ",\"") + name + "\":{\"value\":" +
             number(m.value) + ",\"unit\":\"" + m.unit + "\"}";
        first = false;
    }
    return j + "}}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string recordsPath;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (i + 1 >= argc)
            usage(laperm::logFormat("missing value for %s", a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (!std::strcmp(a, "--workload")) {
            opt.workload = v;
        } else if (!std::strcmp(a, "--seed")) {
            opt.seed = std::strtoull(v, &end, 10);
            haveSeed = *v && !*end;
        } else if (!std::strcmp(a, "--seconds")) {
            opt.seconds = std::strtod(v, &end);
            haveSeconds = *v && !*end && opt.seconds > 0.0;
        } else if (!std::strcmp(a, "--trace")) {
            haveTrace = !std::strcmp(v, "0") || !std::strcmp(v, "1");
            opt.trace = !std::strcmp(v, "1");
        } else if (!std::strcmp(a, "--tmp")) {
            opt.tmpDir = v;
        } else if (!std::strcmp(a, "--spans")) {
            opt.spansPath = v;
        } else if (!std::strcmp(a, "--records")) {
            recordsPath = v;
        } else {
            usage(laperm::logFormat("unknown argument %s", a).c_str());
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace || opt.tmpDir.empty())
        usage("--seed, --seconds, --trace and --tmp are required");
    if (const char *why = refusedBuild()) {
        std::fprintf(stderr, "perfbench: refusing to time a %s\n", why);
        return 2;
    }
    laperm::setVerbose(false);
    std::filesystem::create_directories(opt.tmpDir);

    Outcome out;
    if (opt.workload == "suite-cold")
        out = runSuiteCold(opt);
    else if (opt.workload == "sweep")
        out = runSweep(opt);
    else if (opt.workload == "serve-mixed")
        out = runServeMixed(opt);
    else
        usage(("unknown workload " + opt.workload).c_str());

    for (const auto &[name, m] : out.metrics) {
        if (!std::isfinite(m.value))
            out.fail("metric " + name + " is not finite", 0);
    }
    if (!recordsPath.empty()) {
        std::ofstream rec(recordsPath);
        for (const std::string &line : out.records)
            rec << line << '\n';
        if (!rec)
            out.fail("cannot write records to " + recordsPath, 0);
    }
    std::printf("%s\n", toJson(opt, out).c_str());
    return out.failed == 0 && out.errors.empty() ? 0 : 1;
}
