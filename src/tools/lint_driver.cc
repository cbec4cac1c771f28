#include "tools/lint_driver.hh"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "common/text.hh"
#include "tools/lint_cycle.hh"
#include "tools/lint_layering.hh"

namespace laperm {
namespace simlint {

namespace {

struct LoadedFile
{
    std::string path;
    std::string content;
    std::vector<std::string> rawLines;
};

bool
fileExists(const std::string &path)
{
    std::ifstream in(path);
    return static_cast<bool>(in);
}

std::uint64_t
nowMicros()
{
    // Wall time for reporting the linter's own pass cost; tools/ sits
    // outside the restricted directories where wall-clock is banned.
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
sortFindings(std::vector<Finding> &fs)
{
    std::sort(fs.begin(), fs.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.path != b.path)
                      return a.path < b.path;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return static_cast<int>(a.rule) <
                             static_cast<int>(b.rule);
                  return a.message < b.message;
              });
}

} // namespace

DriverResult
runDriver(const DriverOptions &opts)
{
    DriverResult result;

    // --- resolve configuration ------------------------------------
    std::string specPath = opts.layeringSpec;
    if (specPath.empty()) {
        const std::string candidate = opts.root + "/layering.toml";
        if (fileExists(candidate))
            specPath = candidate;
    }
    LayerSpec spec;
    bool haveSpec = false;
    if (!specPath.empty()) {
        std::string err;
        if (!loadLayerSpec(specPath, spec, err)) {
            result.error = err;
            return result;
        }
        haveSpec = true;
    }

    // --- load files -----------------------------------------------
    std::vector<std::string> paths = opts.files;
    if (paths.empty())
        paths = listSources(opts.root + "/src");
    std::vector<LoadedFile> files;
    files.reserve(paths.size());
    for (const auto &p : paths) {
        LoadedFile f;
        f.path = p;
        if (!readFile(p, f.content)) {
            result.error = "cannot read " + p;
            return result;
        }
        f.rawLines = splitLines(f.content);
        files.push_back(std::move(f));
    }
    result.filesScanned = files.size();

    // --- passes (timed) -------------------------------------------
    // Raw findings per file index, so suppression can match markers
    // file-locally.
    std::vector<std::vector<Finding>> raw(files.size());
    auto runPass = [&](const char *name, auto &&passFn) {
        PassTiming t;
        t.pass = name;
        const std::uint64_t t0 = nowMicros();
        for (std::size_t i = 0; i < files.size(); ++i) {
            std::vector<Finding> fs = passFn(files[i]);
            t.findings += fs.size();
            raw[i].insert(raw[i].end(), fs.begin(), fs.end());
        }
        t.micros = nowMicros() - t0;
        result.timings.push_back(t);
    };

    runPass("token", [](const LoadedFile &f) {
        return scanTokenRules(f.path, f.content);
    });
    if (haveSpec) {
        runPass("layering", [&](const LoadedFile &f) {
            return lintLayering(f.path, f.content, spec);
        });
    }
    runPass("cycle-safety", [](const LoadedFile &f) {
        return lintCycleSafety(f.path, f.content);
    });

    // --- suppression + audit --------------------------------------
    std::vector<Finding> kept;
    for (std::size_t i = 0; i < files.size(); ++i) {
        std::vector<Allow> allows = collectAllows(files[i].rawLines);
        std::vector<Finding> fs = applySuppressions(raw[i], allows);
        kept.insert(kept.end(), fs.begin(), fs.end());
        for (const Allow &a : allows) {
            if (a.used)
                continue;
            kept.push_back(Finding{
                files[i].path, a.line, Rule::UnusedAllow,
                std::string("suppression 'sim-lint: ") +
                    (a.fileWide ? "allow-file(" : "allow(") +
                    ruleName(a.rule) +
                    ")' no longer suppresses any finding; remove "
                    "it (or fix the regression that re-armed it)"});
        }
    }

    sortFindings(kept);
    result.findings = std::move(kept);
    return result;
}

} // namespace simlint
} // namespace laperm
