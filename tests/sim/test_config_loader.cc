/**
 * @file
 * Config subsystem tests (DESIGN.md §13): TOML-subset parsing with
 * strict rejection, canonical emission/round-tripping, machine
 * hashing, and the preset registry's k20c byte-identity invariant.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/text.hh"
#include "sim/config.hh"
#include "sim/config_loader.hh"
#include "sim/presets.hh"

using namespace laperm;

TEST(ConfigLoaderTest, EveryFieldRoundTripsThroughEmitAndParse)
{
    // A deliberately non-default machine touching every value kind.
    GpuConfig a;
    a.numSmx = 80;
    a.maxTbsPerSmx = 32;
    a.l1Size = 96 * 1024;
    a.l2ServiceInterval = 7;
    a.warpPolicy = WarpPolicy::TbAware;
    a.backupPolicy = BackupPolicy::Random;
    a.tbThrottleEnabled = true;
    a.throttleHighMiss = 0.95;
    a.throttleLowMiss = 1.0 / 3.0; // needs full-precision emission

    const std::string toml = emitMachineToml(a);
    GpuConfig b;
    std::string err;
    ASSERT_TRUE(parseMachineToml(toml, b, err)) << err;
    EXPECT_EQ(canonicalMachine(a), canonicalMachine(b));
    EXPECT_EQ(machineHash(a), machineHash(b));
    // emit(parse(emit(x))) is a byte-identity.
    EXPECT_EQ(emitMachineToml(b), toml);
}

TEST(ConfigLoaderTest, PartialTomlOnlyChangesMentionedKeys)
{
    GpuConfig cfg = presetConfig("v100");
    std::string err;
    ASSERT_TRUE(parseMachineToml("num_smx = 40\n", cfg, err)) << err;
    EXPECT_EQ(cfg.numSmx, 40u);
    // Everything else is still the preset, not the default.
    EXPECT_EQ(cfg.l2Size, 6144u * 1024u);
    EXPECT_EQ(cfg.kduEntries, 128u);
}

TEST(ConfigLoaderTest, ParserAcceptsCommentsSectionAndQuotes)
{
    GpuConfig cfg;
    std::string err;
    const std::string text = "# a machine\n"
                             "[machine]\n"
                             "  num_smx = 20   # inline comment\n"
                             "warp_sched = \"lrr\"\n"
                             "\n"
                             "tb_throttle = true\n";
    ASSERT_TRUE(parseMachineToml(text, cfg, err)) << err;
    EXPECT_EQ(cfg.numSmx, 20u);
    EXPECT_EQ(cfg.warpPolicy, WarpPolicy::LRR);
    EXPECT_TRUE(cfg.tbThrottleEnabled);
}

TEST(ConfigLoaderTest, ParserRejectsBadInputAndLeavesConfigUntouched)
{
    const struct
    {
        const char *text;
        const char *why;
    } kBad[] = {
        {"nonsense_key = 1\n", "unknown key"},
        {"num_smx = 1\nnum_smx = 2\n", "duplicate key"},
        {"num_smx = 4294967296\n", "u32 overflow"},
        {"num_smx = 12x\n", "trailing junk"},
        {"num_smx = -3\n", "negative"},
        {"warp_sched = greedy\n", "bad enum"},
        {"tb_throttle = yes\n", "bad bool"},
        {"throttle_high_miss = nanana\n", "bad double"},
        {"num_smx 13\n", "missing equals"},
        {"[device]\n", "unknown section"},
        {"warp_sched = \"gto\n", "unterminated string"},
        {"9lives = 1\n", "malformed key"},
    };
    for (const auto &bad : kBad) {
        GpuConfig cfg;
        cfg.numSmx = 99; // sentinel: must survive a failed parse
        std::string err;
        EXPECT_FALSE(parseMachineToml(bad.text, cfg, err)) << bad.why;
        EXPECT_FALSE(err.empty()) << bad.why;
        EXPECT_EQ(cfg.numSmx, 99u) << bad.why;
    }
}

TEST(ConfigLoaderTest, ErrorsCarryLineNumbers)
{
    GpuConfig cfg;
    std::string err;
    ASSERT_FALSE(parseMachineToml("num_smx = 13\nbogus = 1\n", cfg, err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(ConfigLoaderTest, SetMachineFieldChecksAndSets)
{
    GpuConfig cfg;
    std::string err;
    EXPECT_TRUE(setMachineField(cfg, "l2_banks", "12", err)) << err;
    EXPECT_EQ(cfg.l2Banks, 12u);
    EXPECT_FALSE(setMachineField(cfg, "l2_banks", "lots", err));
    EXPECT_FALSE(setMachineField(cfg, "no_such_key", "1", err));
    const std::string toml = emitMachineToml(cfg);
    EXPECT_NE(toml.find("\nl2_banks = 12\n"), std::string::npos) << toml;
    EXPECT_EQ(toml.find("no_such_key"), std::string::npos) << toml;
}

TEST(ConfigLoaderTest, CanonicalizationIsSpellingInvariant)
{
    // Same machine, three spellings: preset, emitted TOML, terse TOML.
    const GpuConfig via_preset = presetConfig("p100");
    GpuConfig via_toml;
    std::string err;
    ASSERT_TRUE(
        parseMachineToml(emitMachineToml(via_preset), via_toml, err))
        << err;
    GpuConfig via_terse;
    ASSERT_TRUE(parseMachineToml("num_smx=56\nmax_tbs_per_smx=32\n"
                                 "smem_per_smx=65536\nl1_size=24576\n"
                                 "l2_size=4194304\nl2_banks=16\n"
                                 "dram_channels=32\n"
                                 "dram_service_interval=59\n"
                                 "kdu_entries=128\n",
                                 via_terse, err))
        << err;
    EXPECT_EQ(machineHash(via_preset), machineHash(via_toml));
    EXPECT_EQ(machineHash(via_preset), machineHash(via_terse));
    EXPECT_EQ(machineHash(via_preset).size(), 32u); // 128-bit hex
}

TEST(ConfigLoaderTest, RunLevelKnobsStayOutOfTheMachineHash)
{
    GpuConfig a;
    GpuConfig b;
    b.dynParModel = DynParModel::CDP;
    b.tbPolicy = TbPolicy::AdaptiveBind;
    b.seed = 999;
    b.tickMode = TickMode::Dense;
    EXPECT_EQ(machineHash(a), machineHash(b));
}

TEST(PresetsTest, K20cIsByteIdenticalToTheDefaultConfig)
{
    // The paper's Table I machine must never drift from the defaults.
    EXPECT_EQ(machineHash(presetConfig("k20c")), defaultMachineHash());
    EXPECT_EQ(canonicalMachine(presetConfig("k20c")),
              canonicalMachine(GpuConfig()));
}

TEST(PresetsTest, EveryPresetIsValidAndDistinct)
{
    const auto all = presets();
    ASSERT_EQ(all.size(), 4u);
    std::string prev_hash;
    for (const auto &p : all) {
        GpuConfig cfg;
        ASSERT_TRUE(findPreset(p.name, cfg)) << p.name;
        EXPECT_EQ(cfg.check(), "") << p.name;
        const std::string h = machineHash(cfg);
        EXPECT_NE(h, prev_hash) << p.name;
        prev_hash = h;
    }
    GpuConfig cfg;
    EXPECT_FALSE(findPreset("k40", cfg));
    EXPECT_NE(presetNameList().find("v100"), std::string::npos);
}

TEST(PresetsTest, GenerationsScaleMonotonically)
{
    // The cross-generation study leans on these axes actually growing.
    const GpuConfig k20c = presetConfig("k20c");
    const GpuConfig gtx1080 = presetConfig("gtx1080");
    const GpuConfig p100 = presetConfig("p100");
    const GpuConfig v100 = presetConfig("v100");
    EXPECT_LT(k20c.numSmx, gtx1080.numSmx);
    EXPECT_LT(gtx1080.numSmx, p100.numSmx);
    EXPECT_LT(p100.numSmx, v100.numSmx);
    EXPECT_LT(k20c.l2Size, gtx1080.l2Size);
    EXPECT_LT(gtx1080.l2Size, p100.l2Size);
    EXPECT_LT(p100.l2Size, v100.l2Size);
    // Latency model is deliberately held at the K20c values.
    EXPECT_EQ(k20c.l1HitLatency, v100.l1HitLatency);
    EXPECT_EQ(k20c.dramLatency, v100.dramLatency);
}

TEST(ConfigLoaderTest, MachineFieldListIsCompleteAndDocumented)
{
    const auto fields = machineFields();
    EXPECT_GE(fields.size(), 35u);
    const GpuConfig cfg;
    std::map<std::string, std::string> emitted;
    std::string err;
    ASSERT_TRUE(forEachTomlLine(
        emitMachineToml(cfg),
        [&](const TomlLine &line, std::string &) {
            if (!line.header)
                emitted[line.key] = line.value;
            return true;
        },
        err))
        << err;
    for (const auto &f : fields) {
        EXPECT_NE(std::string(f.doc), "") << f.key;
        // Every registered key has a canonical value spelling that the
        // checked setter accepts back (identity on defaults).
        const std::string v = emitted[f.key];
        EXPECT_NE(v, "") << f.key;
        GpuConfig copy = cfg;
        EXPECT_TRUE(setMachineField(copy, f.key, v, err))
            << f.key << ": " << err;
        EXPECT_EQ(machineHash(copy), defaultMachineHash()) << f.key;
    }
}
