/**
 * @file
 * sim-lint CLI (DESIGN.md §12). Usage:
 *
 *   sim_lint [--root <dir>] [--layering <spec>] [--timings] [file...]
 *
 * With explicit files, lints exactly those. Otherwise scans every
 * .hh/.cc under <root>/src (default root ".").
 *
 * The layering spec defaults to <root>/layering.toml when that file
 * exists; pass an explicit path (or a nonexistent one) to override.
 *
 * Exit status: 0 when clean, 1 when findings were reported, 2 on
 * usage/configuration/IO errors. Invoked by scripts/lint.sh, the
 * verify pipeline, and the sim_lint_repo ctest gate.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "tools/lint_driver.hh"
#include "tools/sim_lint.hh"

int
main(int argc, char **argv)
{
    using namespace laperm::simlint;

    DriverOptions opts;
    bool timings = false;

    auto need = [&](int i, const char *flag) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "sim-lint: %s needs a value\n", flag);
            std::exit(2);
        }
        return argv[i + 1];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root") {
            opts.root = need(i++, "--root");
        } else if (arg == "--layering") {
            opts.layeringSpec = need(i++, "--layering");
        } else if (arg == "--timings") {
            timings = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: sim_lint [--root <dir>] [--layering <spec>]"
                        " [--timings] [file...]\n");
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "sim-lint: unknown flag %s\n",
                         arg.c_str());
            return 2;
        } else {
            opts.files.push_back(arg);
        }
    }

    const DriverResult result = runDriver(opts);
    if (!result.error.empty()) {
        std::fprintf(stderr, "sim-lint: %s\n", result.error.c_str());
        return 2;
    }

    for (const auto &f : result.findings) {
        std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.path.c_str(), f.line,
                     ruleName(f.rule), f.message.c_str());
    }
    if (timings) {
        for (const auto &t : result.timings) {
            std::fprintf(stderr,
                         "sim-lint: pass %-16s %8llu us  %zu raw "
                         "finding%s\n",
                         t.pass.c_str(),
                         static_cast<unsigned long long>(t.micros),
                         t.findings, t.findings == 1 ? "" : "s");
        }
    }
    std::printf("sim-lint: %zu files scanned, %zu finding%s\n",
                result.filesScanned, result.findings.size(),
                result.findings.size() == 1 ? "" : "s");
    return result.findings.empty() ? 0 : 1;
}
