/**
 * @file
 * The one run-coordinate grammar (harness/run_spec.hh): a command line
 * that laperm_sim and laperm_submit parse and the request laperm_submit
 * sends for it go through the same field table, so they name the same
 * simulation and fail on the same values.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "harness/run_spec.hh"
#include "serve/service/protocol.hh"
#include "serve/service/sim_request.hh"
#include "sim/presets.hh"

using namespace laperm;
using namespace laperm::serve;

namespace {

/** A machine TOML file under the test temp directory. */
std::string
tomlFile(const std::string &name, const std::string &text)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream(path) << text;
    return path;
}

/** The run-flag half of the tools' argument loop. */
bool
parseCommandLine(const std::vector<std::string> &args, SimRequest &out,
                 std::string &err)
{
    SimRequest r;
    for (std::size_t i = 0; i < args.size(); i += 2) {
        const RunField *field = findRunFlag(args[i]);
        if (!field || i + 1 == args.size()) {
            err = "not a run flag with a value: " + args[i];
            return false;
        }
        if (!applyRunFlag(r, *field, args[i + 1], err))
            return false;
    }
    out = std::move(r);
    return true;
}

/** fromJson over one request line. */
bool
parseWire(const std::string &line, SimRequest &out, std::string &err)
{
    JsonObject obj;
    return parseJsonObject(line, obj, err) &&
           SimRequest::fromJson(obj, out, err);
}

/** Strip the "--flag: " or "'key': " prefix off a row message. */
std::string
rowMessage(const std::string &err)
{
    const std::size_t colon = err.find(": ");
    return colon == std::string::npos ? err : err.substr(colon + 2);
}

} // namespace

TEST(RunFlags, SameCommandLineNamesTheSameKeyOnBothPaths)
{
    const std::string toml =
        tomlFile("run_flags_machine.toml", "num_smx = 20\nl2_banks = 4\n");
    const std::vector<std::vector<std::string>> lines = {
        {"--preset", "v100", "--smx", "40"},
        {"--smx", "40", "--preset", "v100"},
        {"--config", toml},
        {"--policy", "laperm"},
        {"--scale", "huge"},
        {"--warp-sched", "tbaware"},
        {"--tenants", "duo"},
        {"--preset", "v100", "--smx", "40", "--warp-sched", "tbaware",
         "--policy", "adaptive", "--model", "cdp", "--scale", "tiny",
         "--seed", "3"},
    };
    std::vector<std::string> keys;
    for (const auto &args : lines) {
        std::string cmd;
        for (const std::string &a : args)
            cmd += a + " ";
        SCOPED_TRACE(cmd);
        SimRequest cli;
        std::string err;
        ASSERT_TRUE(parseCommandLine(args, cli, err)) << err;
        SimRequest wire;
        ASSERT_TRUE(parseWire(cli.toJson(), wire, err)) << err;
        EXPECT_EQ(wire.key(), cli.key());
        EXPECT_EQ(wire.toJson(), cli.toJson());
        // The machine Gpu runs carries the run coordinates.
        EXPECT_EQ(cli.cfg.dynParModel, cli.model);
        EXPECT_EQ(cli.cfg.tbPolicy, cli.policy);
        EXPECT_EQ(cli.cfg.seed, cli.seed);
        keys.push_back(cli.key());
    }

    // Command-line order: a cut-down V100, then plain V100.
    SimRequest cut, plain;
    std::string err;
    ASSERT_TRUE(parseCommandLine(lines[0], cut, err)) << err;
    ASSERT_TRUE(parseCommandLine(lines[1], plain, err)) << err;
    EXPECT_EQ(cut.cfg.numSmx, 40u);
    EXPECT_EQ(plain.cfg.numSmx, presetConfig("v100").numSmx);
    // Every line names a different simulation.
    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
}

TEST(RunFlags, EveryFieldParsesAlikeOnTheCommandLineAndTheWire)
{
    struct Case
    {
        const char *key;
        std::vector<std::string> valid;
        std::vector<std::string> invalid;
        std::string accepted; ///< named by the row's message, if any
    };
    const std::vector<std::string> badInts = {
        "18446744073709551616", "-3", "12abc", "", "1.5", "+7"};
    auto ints = [&](std::vector<std::string> valid,
                    std::vector<std::string> invalid) {
        invalid.insert(invalid.end(), badInts.begin(), badInts.end());
        return std::make_pair(std::move(valid), std::move(invalid));
    };
    const auto u64 = ints({"0", "7", "18446744073709551615"}, {});
    const auto u32 = ints({"0", "4194304", "4294967295"},
                          {"4294967296", "18446744073709551615"});
    const auto kb = ints({"0", "64", "4194303"},
                         {"4194304", "4194305", "4294967295"});
    const std::vector<Case> cases = {
        {"workload", {"bfs-cage", "all"}, {}, ""},
        {"model", {"cdp", "dtbl"}, {"CDP", "sideways", ""}, "cdp|dtbl"},
        {"policy",
         {"rr", "tbpri", "smxbind", "adaptive", "laperm"},
         {"RR", "TB-Pri", "lap", ""},
         "rr|tbpri|smxbind|adaptive"},
        {"scale",
         {"tiny", "TINY", "small", "full", "huge"},
         {"medium", ""},
         "tiny|small|full|huge"},
        {"seed", u64.first, u64.second, "0..18446744073709551615"},
        {"preset",
         {"k20c", "gtx1080", "p100", "v100"},
         {"k40", ""},
         presetNameList()},
        {"config",
         {"num_smx = 20\n", "[machine]\nl1_size = 16384\n"},
         {"warp_count = 9\n", "num_smx = -1\n",
          "num_smx = 20\nnum_smx = 21\n"},
         ""},
        {"smx", u32.first, u32.second, "0..4294967295"},
        {"l1_kb", kb.first, kb.second, "0..4194303"},
        {"l2_kb", kb.first, kb.second, "0..4194303"},
        {"levels", u32.first, u32.second, "0..4294967295"},
        {"cdp_latency", u64.first, u64.second, "0..18446744073709551615"},
        {"dtbl_latency", u64.first, u64.second, "0..18446744073709551615"},
        {"warp_sched",
         {"gto", "lrr", "tbaware"},
         {"TB-aware", ""},
         "gto|lrr|tbaware"},
        {"tenants", {"duo", "mix.toml"}, {}, ""},
    };
    ASSERT_EQ(cases.size(), runFields().size());
    EXPECT_EQ(runFlagName(*findRunField("l1_kb")), "--l1-kb");
    EXPECT_EQ(findRunFlag("--l1_kb"), nullptr);
    EXPECT_EQ(findRunFlag("--csv"), nullptr); // tool-only flag

    int checked = 0;
    for (const Case &c : cases) {
        const RunField *field = findRunField(c.key);
        ASSERT_NE(field, nullptr) << c.key;
        EXPECT_EQ(findRunFlag(runFlagName(*field)), field);
        auto check = [&](const std::string &value, bool want) {
            SCOPED_TRACE(std::string(c.key) + " = '" + value + "'");
            // The CLI hands --config a file; the wire the text itself.
            const std::string cliValue =
                std::string(c.key) == "config"
                    ? tomlFile("run_flags_case.toml", value)
                    : value;
            SimRequest cli, wire;
            std::string cliErr, wireErr;
            const bool cliOk = parseCommandLine(
                {runFlagName(*field), cliValue}, cli, cliErr);
            // A numeric row travels as a bare JSON number when the
            // value looks like one, else as a string (a type error).
            const bool bare =
                field->number && !value.empty() &&
                value.find_first_not_of("-0123456789") == std::string::npos;
            const std::string json =
                bare ? value
                     : logFormat("\"%s\"", jsonEscape(value).c_str());
            const bool wireOk = parseWire(
                logFormat("{\"op\":\"run\",\"%s\":%s}", c.key,
                          json.c_str()),
                wire, wireErr);
            EXPECT_EQ(cliOk, want) << cliErr;
            EXPECT_EQ(wireOk, want) << wireErr;
            if (cliOk && wireOk) {
                EXPECT_EQ(cli.key(), wire.key());
            } else if (!want) {
                EXPECT_NE(cliErr.find(runFlagName(*field)),
                          std::string::npos)
                    << cliErr;
                EXPECT_NE(wireErr.find(c.key), std::string::npos)
                    << wireErr;
                // Values that reach the row get its one message, which
                // names the accepted spellings or range.
                if (bare || !field->number) {
                    EXPECT_EQ(rowMessage(cliErr), rowMessage(wireErr));
                    EXPECT_NE(cliErr.find(c.accepted), std::string::npos)
                        << cliErr;
                }
            }
            ++checked;
        };
        for (const std::string &v : c.valid)
            check(v, true);
        for (const std::string &v : c.invalid)
            check(v, false);
    }
    EXPECT_GT(checked, 80);
}

TEST(RunFlags, WireSeedPast64BitsIsAnError)
{
    // strtoull clamped 2^64 to 2^64-1, so this request was answered as
    // a cache hit for a different simulation.
    SimRequest r;
    std::string err;
    EXPECT_FALSE(
        parseWire(R"({"op":"run","seed":18446744073709551616})", r, err));
    EXPECT_NE(err.find("seed"), std::string::npos) << err;
    ASSERT_TRUE(
        parseWire(R"({"op":"run","seed":18446744073709551615})", r, err))
        << err;
    EXPECT_EQ(r.seed, 18446744073709551615ull);

    JsonObject obj;
    ASSERT_TRUE(parseJsonObject(R"({"n":18446744073709551616})", obj, err));
    std::uint64_t v = 0;
    EXPECT_FALSE(getU64(obj, "n", v));
}
