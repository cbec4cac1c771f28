/**
 * @file
 * sim-lint rule tests: every fixture under tests/tools/fixtures/ either
 * must trigger a specific rule (bad_*) or must pass clean (good_*). The
 * fixtures live in subdirectories named after the simulator layout so
 * the path-scoping logic is exercised by the same files.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/sim_lint.hh"

namespace {

using laperm::simlint::classifyPath;
using laperm::simlint::Finding;
using laperm::simlint::lintFile;
using laperm::simlint::lintSource;
using laperm::simlint::lintTree;
using laperm::simlint::Rule;
using laperm::simlint::ruleName;

std::string
fixture(const std::string &rel)
{
    return std::string(SIM_LINT_FIXTURE_DIR) + "/" + rel;
}

std::vector<Finding>
lintFixture(const std::string &rel)
{
    std::vector<Finding> out;
    EXPECT_TRUE(lintFile(fixture(rel), out)) << "unreadable: " << rel;
    return out;
}

std::size_t
countRule(const std::vector<Finding> &fs, Rule rule)
{
    return static_cast<std::size_t>(
        std::count_if(fs.begin(), fs.end(),
                      [rule](const Finding &f) { return f.rule == rule; }));
}

TEST(SimLintScope, PathClassification)
{
    EXPECT_TRUE(classifyPath("src/sim/stats.cc").restricted);
    EXPECT_TRUE(classifyPath("src/sim/observer.hh").restricted);
    EXPECT_TRUE(classifyPath("src/sched/tb_scheduler.cc").restricted);
    EXPECT_TRUE(classifyPath("/abs/repo/src/mem/cache.hh").restricted);
    EXPECT_TRUE(classifyPath("src/gpu/smx.cc").restricted);
    EXPECT_TRUE(classifyPath("src/dynpar/launcher.cc").restricted);
    EXPECT_TRUE(classifyPath("src/obs/trace_collector.cc").restricted);
    EXPECT_FALSE(classifyPath("src/harness/experiment.cc").restricted);
    EXPECT_FALSE(classifyPath("src/common/rng.cc").restricted);
    // "memx" or a file merely named gpu.cc must not count.
    EXPECT_FALSE(classifyPath("src/memx/foo.cc").restricted);
    EXPECT_FALSE(classifyPath("src/harness/gpu.cc").restricted);

    EXPECT_TRUE(classifyPath("src/common/rng.hh").rngExempt);
    EXPECT_TRUE(classifyPath("src/common/rng.cc").rngExempt);
    EXPECT_FALSE(classifyPath("src/common/log.cc").rngExempt);
    EXPECT_FALSE(classifyPath("src/workloads/rng.cc").rngExempt);
}

TEST(SimLintRules, BannedRngFixtureTriggers)
{
    auto fs = lintFixture("mem/bad_rng.cc");
    // srand, std::rand, rand(), random_device, mt19937,
    // uniform_int_distribution, #include <random>.
    EXPECT_GE(countRule(fs, Rule::BannedRng), 7u);
    EXPECT_EQ(countRule(fs, Rule::WallClock), 0u);
}

TEST(SimLintRules, WallClockFixtureTriggers)
{
    auto fs = lintFixture("sim/bad_wall_clock.cc");
    // steady_clock, high_resolution_clock (each also matching
    // std::chrono), time(nullptr).
    EXPECT_GE(countRule(fs, Rule::WallClock), 3u);
    EXPECT_EQ(countRule(fs, Rule::BannedRng), 0u);
}

TEST(SimLintRules, UnorderedIterFixtureTriggers)
{
    auto fs = lintFixture("sched/bad_unordered_iter.cc");
    // Range-for over the map and begin() walk of the set; the point
    // lookup via find() must not add a third.
    EXPECT_EQ(countRule(fs, Rule::UnorderedIter), 2u);
}

TEST(SimLintRules, FpAccumFixtureTriggers)
{
    auto fs = lintFixture("sim/bad_fp_accum.cc");
    // Only the double accumulator; the integer counter is legal.
    EXPECT_EQ(countRule(fs, Rule::FpAccum), 1u);
    EXPECT_EQ(fs.size(), countRule(fs, Rule::FpAccum));
}

TEST(SimLintClean, CleanSimulatorCodePasses)
{
    EXPECT_TRUE(lintFixture("gpu/good_clean.cc").empty());
}

TEST(SimLintClean, AllowCommentsSuppress)
{
    EXPECT_TRUE(lintFixture("mem/good_allowed.cc").empty());
}

TEST(SimLintClean, WallClockLegalOutsideSimulator)
{
    EXPECT_TRUE(lintFixture("harness/good_wall_clock_ok.cc").empty());
}

TEST(SimLintClean, RngWrapperExempt)
{
    EXPECT_TRUE(lintFixture("common/rng.hh").empty());
}

TEST(SimLintClean, CommentAndStringMentionsIgnored)
{
    EXPECT_TRUE(lintFixture("sim/good_comment_mention.cc").empty());
}

TEST(SimLintSuppression, SameLineAndPrecedingLine)
{
    const char *same = "void f() {\n"
                       "    std::srand(1); // sim-lint: allow(banned-rng)\n"
                       "}\n";
    EXPECT_TRUE(lintSource("src/mem/x.cc", same).empty());

    const char *above = "void f() {\n"
                        "    // reseeding test double. "
                        "sim-lint: allow(banned-rng)\n"
                        "    std::srand(1);\n"
                        "}\n";
    EXPECT_TRUE(lintSource("src/mem/x.cc", above).empty());

    // Two lines above is out of range: still flagged.
    const char *tooFar = "// sim-lint: allow(banned-rng)\n"
                         "\n"
                         "void f() { std::srand(1); }\n";
    EXPECT_EQ(lintSource("src/mem/x.cc", tooFar).size(), 1u);

    // Mismatched rule name does not suppress.
    const char *wrong =
        "void f() { std::srand(1); } // sim-lint: allow(wall-clock)\n";
    EXPECT_EQ(lintSource("src/mem/x.cc", wrong).size(), 1u);
}

TEST(SimLintSuppression, AllowFile)
{
    const char *src = "// test-only shim. sim-lint: allow-file(wall-clock)\n"
                      "long a() { return time(nullptr); }\n"
                      "long b() { return time(nullptr); }\n";
    EXPECT_TRUE(lintSource("src/sim/x.cc", src).empty());
    // The file-level allowance is per-rule.
    const char *mixed =
        "// sim-lint: allow-file(wall-clock)\n"
        "long a() { return time(nullptr); }\n"
        "int b() { return std::rand(); }\n";
    auto fs = lintSource("src/sim/x.cc", mixed);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::BannedRng);
}

TEST(SimLintFindings, LineNumbersAndNames)
{
    const char *src = "int ok;\n"
                      "int bad() { return std::rand(); }\n";
    auto fs = lintSource("src/gpu/x.cc", src);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].line, 2u);
    EXPECT_STREQ(ruleName(fs[0].rule), "banned-rng");
    EXPECT_EQ(fs[0].path, "src/gpu/x.cc");
}

TEST(SimLintTree, ScansFixturesDeterministically)
{
    std::vector<Finding> a, b;
    std::size_t na = lintTree(SIM_LINT_FIXTURE_DIR, a);
    std::size_t nb = lintTree(SIM_LINT_FIXTURE_DIR, b);
    EXPECT_EQ(na, nb);
    EXPECT_GE(na, 9u); // every fixture file is scanned
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].path, b[i].path);
        EXPECT_EQ(a[i].line, b[i].line);
    }
    // All findings come from bad_* fixtures.
    for (const auto &f : a)
        EXPECT_NE(f.path.find("/bad_"), std::string::npos) << f.path;
}

// The gate the CLI enforces in scripts/lint.sh: the real simulator
// tree is clean. Run it in-process too so a plain ctest catches a
// regression even if lint.sh is skipped.
TEST(SimLintRepo, SimulatorTreeIsClean)
{
    std::vector<Finding> fs;
    std::size_t scanned = lintTree(SIM_LINT_SRC_DIR, fs);
    EXPECT_GE(scanned, 80u);
    for (const auto &f : fs) {
        ADD_FAILURE() << f.path << ":" << f.line << ": ["
                      << ruleName(f.rule) << "] " << f.message;
    }
}

} // namespace
