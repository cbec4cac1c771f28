/**
 * @file
 * The shared TOML-subset lexer and whole-file reader (common/text.hh),
 * and the three parsers that walk its lines: the checked-in texts each
 * of them reads mean what they meant before the parsers shared it.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "common/log.hh"
#include "common/text.hh"
#include "sim/config_loader.hh"
#include "sim/presets.hh"
#include "tenant/tenant_spec.hh"
#include "test_util.hh"
#include "tools/lint_layering.hh"

using namespace laperm;

namespace {

/** Every line @p text lexes to, as "[name]" or "key=value". */
std::vector<std::string>
lex(const std::string &text, std::string &err)
{
    std::vector<std::string> out;
    err.clear();
    const auto keep = [&out](const TomlLine &line, std::string &) {
        out.push_back(line.header ? "[" + line.key + "]"
                                  : line.key + "=" + line.value);
        return true;
    };
    const bool ok = forEachTomlLine(text, keep, err);
    EXPECT_EQ(ok, err.empty()) << err;
    return out;
}

using Lines = std::vector<std::string>;

std::string
describe(const simlint::LayerSpec &spec)
{
    std::string out;
    for (const auto &[module, deps] : spec.deps) {
        out += module + " =";
        for (const std::string &d : deps)
            out += " " + d;
        out += "; ";
    }
    for (const auto &[module, group] : spec.groupOf)
        out += module + " in " + group + "; ";
    return out;
}

std::string
describe(const tenant::MixSpec &mix)
{
    std::string out = logFormat(
        "%s quantum=%llu admission=%u ewma=%u;", mix.name.c_str(),
        static_cast<unsigned long long>(mix.quantum),
        mix.admissionThresholdPct, mix.ewmaShift);
    for (const tenant::TenantSpec &t : mix.tenants) {
        out += logFormat(
            " %s=%s/%s priority=%u arrival=%llu period=%llu jobs=%u;",
            t.name.c_str(), t.workload.c_str(), toString(t.scale),
            t.priority, static_cast<unsigned long long>(t.firstArrival),
            static_cast<unsigned long long>(t.period), t.jobs);
    }
    return out;
}

} // namespace

TEST(TomlSubset, HeaderNameIsTrimmed)
{
    std::string err;
    EXPECT_EQ(lex("[ machine ]\n[\tlayers]\n[]\n", err),
              (Lines{"[machine]", "[layers]", "[]"}));

    GpuConfig cfg;
    ASSERT_TRUE(parseMachineToml("[ machine ]\nnum_smx = 20\n", cfg, err))
        << err;
    EXPECT_EQ(cfg.numSmx, 20u);
    simlint::LayerSpec spec;
    ASSERT_TRUE(simlint::parseLayerSpec("[ layers ]\ncommon = []\n", spec,
                                        err))
        << err;
    EXPECT_TRUE(spec.declared("common"));
}

TEST(TomlSubset, CrlfLineEndsAreWhitespace)
{
    std::string err;
    EXPECT_EQ(lex("[mix]\r\nname = \"pair\"\r\n\r\nquantum = 8\r\n", err),
              (Lines{"[mix]", "name=pair", "quantum=8"}));
    EXPECT_EQ(err, "");
}

TEST(TomlSubset, EntrySplitsAtTheFirstEquals)
{
    std::string err;
    EXPECT_EQ(lex("name = \"a = b\"\nkey=x==y\n", err),
              (Lines{"name=a = b", "key=x==y"}));
}

TEST(TomlSubset, HashEndsTheLineEvenInsideQuotes)
{
    std::string err;
    EXPECT_EQ(lex("# whole line\nnum_smx = 20 # trailing\n[mix]#\n", err),
              (Lines{"num_smx=20", "[mix]"}));
    lex("name = \"a#b\"\n", err);
    EXPECT_EQ(err, "line 1: unterminated string for 'name'");
}

TEST(TomlSubset, NulBytesAreOrdinaryBytes)
{
    std::string err;
    const std::string value("name = \"a\0b\"\n", 13);
    const Lines lines = lex(value, err);
    ASSERT_EQ(lines.size(), 1u) << err;
    EXPECT_EQ(lines[0], std::string("name=a\0b", 8));

    lex(std::string("na\0me = 1\n", 10), err);
    EXPECT_NE(err.find("line 1: malformed key"), std::string::npos) << err;
}

TEST(TomlSubset, OneMebibyteLine)
{
    const std::string big(1 << 20, 'x');
    std::string err;
    const Lines lines = lex("key = \"" + big + "\"\n", err);
    ASSERT_EQ(lines.size(), 1u) << err;
    EXPECT_EQ(lines[0], "key=" + big);
}

TEST(TomlSubset, HundredThousandLinesCountedExactly)
{
    std::string text;
    for (int i = 0; i < 100000; ++i)
        text += i % 2 ? "# comment\n" : "k = 1\n";
    std::string err;
    EXPECT_EQ(lex(text, err).size(), 50000u);
    EXPECT_EQ(err, "");
    lex(text + "not an entry", err);
    EXPECT_EQ(err, "line 100001: expected 'key = value'");
}

TEST(TomlSubset, MalformedLinesAreLineErrors)
{
    const struct
    {
        const char *text;
        const char *err;
    } kBad[] = {
        {"[machine\n", "line 1: unterminated section header"},
        {"\n[\n", "line 2: unterminated section header"},
        {"# c\n\nname = \"pair\n", "line 3: unterminated string for 'name'"},
        {"name = \"\n", "line 1: unterminated string for 'name'"},
        {"= 1\n", "line 1: malformed key ''"},
        {"9lives = 1\n", "line 1: malformed key '9lives'"},
        {"Upper = 1\n", "line 1: malformed key 'Upper'"},
        {"my-key = 1\n", "line 1: malformed key 'my-key'"},
        {"num_smx 13\n", "line 1: expected 'key = value'"},
    };
    for (const auto &bad : kBad) {
        std::string err;
        lex(bad.text, err);
        EXPECT_EQ(err, bad.err) << bad.text;
    }
}

TEST(TomlSubset, VisitorRejectionStopsAtItsLine)
{
    int visits = 0;
    const auto secondFails = [&visits](const TomlLine &, std::string &why) {
        if (++visits < 2)
            return true;
        why = "nope";
        return false;
    };
    std::string err;
    EXPECT_FALSE(forEachTomlLine("a = 1\n\nb = 2\nc = 3\n", secondFails,
                                 err));
    EXPECT_EQ(err, "line 3: nope");
    EXPECT_EQ(visits, 2);
}

TEST(TomlSubset, ReadFileReadsEveryByte)
{
    const std::string path = ::testing::TempDir() + "laperm_read_file.bin";
    const std::string bytes("a\0b\r\n#c", 7);
    std::ofstream(path, std::ios::binary) << bytes;
    std::string out;
    ASSERT_TRUE(readFile(path, out));
    EXPECT_EQ(out, bytes);
    EXPECT_FALSE(readFile(path + ".missing", out));
}

// The parsers that share the lexer read every checked-in text as they
// did with their own lexers. The expected values were printed by the
// parsers that had them; an edit of layering.toml or of a preset
// updates them here.
TEST(TomlSubset, CheckedInTextsParseAsTheyDid)
{
    const struct
    {
        std::string path;
        const char *spec;
    } kLayerings[] = {
        {std::string(SIM_LINT_REPO_ROOT) + "/layering.toml",
         "analysis = common kernels workloads; common =; "
         "dynpar = common gpu sched sim; "
         "gpu = common dynpar kernels mem sched sim; graph = common; "
         "harness = common gpu obs sim tenant workloads; "
         "kernels = common; mem = common sim; obs = common sim; "
         "sched = common kernels sim; serve = common service transport; "
         "service = common harness session sim tenant workloads; "
         "session = common transport; sim = common; "
         "tenant = common gpu kernels obs sched sim workloads; "
         "tools = common gpu harness obs serve service session sim "
         "tenant transport workloads; transport = common; "
         "workloads = common graph kernels; dynpar in engine; "
         "gpu in engine; "},
        {std::string(SIM_LINT_FIXTURE_DIR) + "/layering.toml",
         "common =; dynpar = common gpu sched sim; "
         "gpu = common dynpar mem sched sim; "
         "harness = common gpu obs sim; mem = common sim; "
         "obs = common sim; sched = common sim; "
         "serve = common session transport; session = common transport; "
         "sim = common; transport = common; dynpar in engine; "
         "gpu in engine; "},
    };
    for (const auto &l : kLayerings) {
        simlint::LayerSpec spec;
        std::string err;
        ASSERT_TRUE(simlint::loadLayerSpec(l.path, spec, err)) << err;
        EXPECT_EQ(describe(spec), l.spec) << l.path;
    }

    // Each preset's machine hash, and the content key of its emitted
    // TOML.
    const struct
    {
        const char *preset;
        const char *hash;
        const char *emitted;
    } kMachines[] = {
        {"k20c", "8a66b23bdc80d6fc37a2b6fbad8bf642",
         "4234398b077aa849db5cc75cfc5ee807"},
        {"gtx1080", "39c5829171b35157e6cb847b0045ac4d",
         "2eb7f4799dbc1f38b33e442fa82f208e"},
        {"p100", "83860d137d6daea4462182557ff6ff46",
         "ef6dac0a97f61fc78f738ac34e64ed99"},
        {"v100", "6e27ada8affa760b47e59227bd770e31",
         "450a0c40f26f4dce6932ad4c3ae3d834"},
    };
    ASSERT_EQ(presets().size(), std::size(kMachines));
    for (const auto &m : kMachines) {
        const GpuConfig preset = presetConfig(m.preset);
        const std::string toml = emitMachineToml(preset);
        EXPECT_EQ(contentKey(toml), m.emitted) << m.preset;
        GpuConfig parsed;
        std::string err;
        ASSERT_TRUE(parseMachineToml(toml, parsed, err)) << err;
        EXPECT_EQ(machineHash(parsed), m.hash) << m.preset;
        EXPECT_EQ(canonicalMachine(parsed), canonicalMachine(preset));
        EXPECT_EQ(emitMachineToml(parsed), toml) << m.preset;
    }

    tenant::MixSpec mix;
    std::string err;
    ASSERT_TRUE(tenant::parseMixToml(test::kPairMixSpec, mix, err)) << err;
    EXPECT_EQ(describe(mix),
              "pair quantum=1024 admission=80 ewma=4; "
              "fg=bfs-citation/tiny priority=0 arrival=0 period=50000 "
              "jobs=2; bg=join-uniform/tiny priority=1 arrival=7000 "
              "period=0 jobs=1;");
}
