/**
 * @file
 * sim-lint v2 tests: layering and cycle-safety passes and the
 * suppression audit. Pass-level tests parse fixtures
 * under tests/tools/fixtures/ directly; driver-level tests run the
 * same pipeline the sim_lint CLI (and the sim_lint_repo ctest gate)
 * runs, rooted at the fixture tree so fixtures/layering.toml is picked
 * up exactly like the repo spec.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lint_cycle.hh"
#include "tools/lint_driver.hh"
#include "tools/lint_layering.hh"
#include "tools/sim_lint.hh"

namespace {

using namespace laperm::simlint;

std::string
fixture(const std::string &rel)
{
    return std::string(SIM_LINT_FIXTURE_DIR) + "/" + rel;
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "unreadable: " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::size_t
countRule(const std::vector<Finding> &fs, Rule rule)
{
    return static_cast<std::size_t>(
        std::count_if(fs.begin(), fs.end(),
                      [rule](const Finding &f) { return f.rule == rule; }));
}

LayerSpec
fixtureSpec()
{
    LayerSpec spec;
    std::string err;
    EXPECT_TRUE(loadLayerSpec(fixture("layering.toml"), spec, err)) << err;
    return spec;
}

// ---------------------------------------------------------------- spec

TEST(LayerSpec, ParsesTablesGroupsAndQueries)
{
    const LayerSpec spec = fixtureSpec();
    EXPECT_TRUE(spec.declared("mem"));
    EXPECT_TRUE(spec.declared("obs"));
    EXPECT_FALSE(spec.declared("nosuchmod"));
    EXPECT_TRUE(spec.allows("mem", "sim"));
    EXPECT_TRUE(spec.allows("mem", "mem")); // self edge
    EXPECT_FALSE(spec.allows("mem", "obs"));
    EXPECT_FALSE(spec.allows("sim", "harness"));
    // gpu <-> dynpar are one group: both directions legal.
    EXPECT_TRUE(spec.sameGroup("gpu", "dynpar"));
    EXPECT_TRUE(spec.allows("gpu", "dynpar"));
    EXPECT_TRUE(spec.allows("dynpar", "gpu"));
}

TEST(LayerSpec, RejectsUndeclaredDependency)
{
    LayerSpec spec;
    std::string err;
    EXPECT_FALSE(parseLayerSpec("[layers]\na = [\"ghost\"]\n", spec, err));
    EXPECT_NE(err.find("ghost"), std::string::npos) << err;
}

// A list is `[]` or quoted, non-empty names split at commas. Anything
// else is the line's error, never a list with an item dropped or
// misread.
TEST(LayerSpec, ListItemsAreQuotedNonEmptyNames)
{
    const std::string head = "[layers]\ncommon = []\nsim = [ ]\n";
    LayerSpec spec;
    std::string err;
    for (const std::string list :
         {"[common]", "[\"\", \"common\"]", "[\"common\" \"sim\"]",
          "[\"common\",]", "[\"com\"mon\"]"}) {
        EXPECT_FALSE(parseLayerSpec(head + "a = " + list + "\n", spec, err))
            << list;
        EXPECT_EQ(err, "layering spec line 4: expected `a = [\"dep\", "
                       "...]`, got: " +
                           list);
    }
    ASSERT_TRUE(parseLayerSpec(head + "a = [ \"common\" , \"sim\" ]\n", spec,
                               err))
        << err;
    EXPECT_EQ(spec.deps.at("a"), (std::vector<std::string>{"common", "sim"}));
    EXPECT_TRUE(spec.deps.at("common").empty());
    EXPECT_TRUE(spec.deps.at("sim").empty());
}

TEST(LayerSpec, RejectsDependencyCycle)
{
    LayerSpec spec;
    std::string err;
    const char *cyclic = "[layers]\n"
                         "a = [\"b\"]\n"
                         "b = [\"a\"]\n";
    EXPECT_FALSE(parseLayerSpec(cyclic, spec, err));
    EXPECT_NE(err.find("cycle"), std::string::npos) << err;

    // The same mutual dependency is legal once declared as a group —
    // the collapsed graph is a single node.
    const char *grouped = "[layers]\n"
                          "a = [\"b\"]\n"
                          "b = [\"a\"]\n"
                          "[groups]\n"
                          "ab = [\"a\", \"b\"]\n";
    EXPECT_TRUE(parseLayerSpec(grouped, spec, err)) << err;
    EXPECT_TRUE(spec.allows("a", "b"));
}

TEST(LayerSpec, ModuleOfPathUsesLastDirectoryComponent)
{
    const LayerSpec spec = fixtureSpec();
    EXPECT_EQ(moduleOfPath("src/mem/cache.cc", spec), "mem");
    EXPECT_EQ(moduleOfPath("tests/tools/fixtures/mem/x.cc", spec), "mem");
    // The filename itself never names a module.
    EXPECT_EQ(moduleOfPath("src/harness/mem.cc", spec), "harness");
    EXPECT_EQ(moduleOfPath("src/unknown/x.cc", spec), "");
}

TEST(LayerSpec, NestedModulesMapToTheirSublayer)
{
    const LayerSpec spec = fixtureSpec();
    // Last declared component wins: a serve/transport file is in
    // `transport`, a plain serve/ file stays in the umbrella module.
    EXPECT_EQ(moduleOfPath("src/serve/transport/endpoint.cc", spec),
              "transport");
    EXPECT_EQ(moduleOfPath("src/serve/session/server.hh", spec),
              "session");
    EXPECT_EQ(moduleOfPath("src/serve/client.cc", spec), "serve");
    // Include targets resolve the same way (no trailing slash).
    EXPECT_EQ(moduleOfPath("serve/transport/endpoint.hh", spec),
              "transport");
}

// ------------------------------------------------------------ layering

TEST(LayeringPass, UpwardIncludesAreFlagged)
{
    const std::string path = fixture("mem/bad_layering.cc");
    auto fs = lintLayering(path, readAll(path), fixtureSpec());
    // obs/, harness/ (disallowed edges) and nosuchmod/ (undeclared).
    EXPECT_EQ(countRule(fs, Rule::Layering), 3u);
    EXPECT_EQ(fs.size(), 3u);
}

TEST(LayeringPass, DeclaredEdgesPassClean)
{
    const std::string path = fixture("mem/good_layering.cc");
    EXPECT_TRUE(lintLayering(path, readAll(path), fixtureSpec()).empty());
}

TEST(LayeringPass, NestedSublayerEdgesAreEnforced)
{
    // A transport file reaching up into session (or the umbrella
    // serve module) through nested include paths is flagged: both the
    // including file's module and the include target resolve through
    // the last declared path component.
    const std::string bad = fixture("serve/transport/bad_nested.cc");
    auto fs = lintLayering(bad, readAll(bad), fixtureSpec());
    EXPECT_EQ(countRule(fs, Rule::Layering), 2u);
    EXPECT_EQ(fs.size(), 2u);
}

TEST(LayeringPass, NestedSelfAndDeclaredEdgesPassClean)
{
    // Self edge spelled via the nested path (transport including
    // serve/transport/...) and the umbrella module including its own
    // sublayers are both declared-legal.
    const std::string good = fixture("serve/transport/good_nested.cc");
    EXPECT_TRUE(lintLayering(good, readAll(good), fixtureSpec()).empty());
    const std::string umb = fixture("serve/good_umbrella.cc");
    EXPECT_TRUE(lintLayering(umb, readAll(umb), fixtureSpec()).empty());
}

// -------------------------------------------------------- cycle-safety

TEST(CyclePass, FloatNarrowAndSignedUsesAreFlagged)
{
    const std::string path = fixture("sim/bad_cycle_float.cc");
    auto fs = lintCycleSafety(path, readAll(path));
    EXPECT_EQ(countRule(fs, Rule::CycleFloat), 2u);
    EXPECT_EQ(countRule(fs, Rule::CycleNarrow), 1u);
    EXPECT_EQ(countRule(fs, Rule::CycleSign), 1u);
}

TEST(CyclePass, IntegerArithmeticAndMemberAccessPassClean)
{
    const std::string path = fixture("sim/good_cycle.cc");
    EXPECT_TRUE(lintCycleSafety(path, readAll(path)).empty());
}

TEST(CyclePass, OnlyRestrictedDirectoriesAreScanned)
{
    const char *src = "double ipc(Cycle cycles) {\n"
                      "    return static_cast<double>(cycles);\n"
                      "}\n";
    EXPECT_EQ(lintCycleSafety("src/sim/x.cc", src).size(), 1u);
    // harness/ may average cycles into doubles for reporting.
    EXPECT_TRUE(lintCycleSafety("src/harness/x.cc", src).empty());
}

TEST(CyclePass, CycleNameHeuristic)
{
    EXPECT_TRUE(isCycleName("cycle"));
    EXPECT_TRUE(isCycleName("readyAt"));
    EXPECT_TRUE(isCycleName("nextEventAt"));
    EXPECT_TRUE(isCycleName("l2BankFreeAt_"));
    EXPECT_TRUE(isCycleName("maxCycles"));
    EXPECT_FALSE(isCycleName("format"));   // no bare "at" substring
    EXPECT_FALSE(isCycleName("recycled")); // suffix, not substring
    EXPECT_FALSE(isCycleName("count"));
}

// ------------------------------------------------------------- driver

DriverOptions
fixtureDriver(std::initializer_list<const char *> rels)
{
    DriverOptions opts;
    opts.root = SIM_LINT_FIXTURE_DIR;
    for (const char *rel : rels)
        opts.files.push_back(fixture(rel));
    return opts;
}

TEST(Driver, RunsAllPassesOverExplicitFiles)
{
    const DriverResult r = runDriver(fixtureDriver(
        {"mem/bad_layering.cc", "sim/bad_cycle_float.cc"}));
    ASSERT_TRUE(r.error.empty()) << r.error;
    EXPECT_EQ(r.filesScanned, 2u);
    EXPECT_EQ(countRule(r.findings, Rule::Layering), 3u);
    EXPECT_EQ(countRule(r.findings, Rule::CycleFloat), 2u);
    EXPECT_EQ(countRule(r.findings, Rule::CycleNarrow), 1u);
    EXPECT_EQ(countRule(r.findings, Rule::CycleSign), 1u);
    // One timing entry per pass, in pipeline order.
    ASSERT_EQ(r.timings.size(), 3u);
    EXPECT_EQ(r.timings[0].pass, "token");
    EXPECT_EQ(r.timings[1].pass, "layering");
    EXPECT_EQ(r.timings[2].pass, "cycle-safety");
}

TEST(Driver, DeterministicAcrossRuns)
{
    const auto opts = fixtureDriver(
        {"mem/bad_layering.cc", "sim/bad_cycle_float.cc"});
    const DriverResult a = runDriver(opts);
    const DriverResult b = runDriver(opts);
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
        EXPECT_EQ(a.findings[i].path, b.findings[i].path);
        EXPECT_EQ(a.findings[i].line, b.findings[i].line);
        EXPECT_EQ(a.findings[i].rule, b.findings[i].rule);
    }
}

TEST(Driver, UnusedAllowFailsTheGate)
{
    const DriverResult r =
        runDriver(fixtureDriver({"sim/bad_unused_allow.cc"}));
    ASSERT_TRUE(r.error.empty()) << r.error;
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, Rule::UnusedAllow);
}

TEST(Driver, UsedAllowSatisfiesTheAudit)
{
    // good_allowed.cc carries real violations, each waived: the audit
    // must accept every marker and report nothing.
    const DriverResult r =
        runDriver(fixtureDriver({"mem/good_allowed.cc"}));
    ASSERT_TRUE(r.error.empty()) << r.error;
    EXPECT_TRUE(r.findings.empty());
}

TEST(Driver, MissingSpecIsAConfigurationError)
{
    auto opts = fixtureDriver({"sim/good_cycle.cc"});
    opts.layeringSpec = fixture("no_such_spec.toml");
    const DriverResult r = runDriver(opts);
    EXPECT_FALSE(r.error.empty());
}

// Mirror of the sim_lint_repo CLI gate, in-process: the real tree is
// clean under all three passes with the repo spec.
TEST(DriverRepo, FullPipelineOverRealTreeIsClean)
{
    DriverOptions opts;
    opts.root = SIM_LINT_REPO_ROOT;
    const DriverResult r = runDriver(opts);
    ASSERT_TRUE(r.error.empty()) << r.error;
    EXPECT_GE(r.filesScanned, 100u);
    for (const auto &f : r.findings) {
        ADD_FAILURE() << f.path << ":" << f.line << ": ["
                      << ruleName(f.rule) << "] " << f.message;
    }
}

} // namespace
