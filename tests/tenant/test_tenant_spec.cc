#include <gtest/gtest.h>

#include "tenant/mixes.hh"
#include "tenant/tenant_spec.hh"
#include "workloads/registry.hh"

using namespace laperm;
using namespace laperm::tenant;

namespace {

const char *kValidSpec = R"([mix]
name = "pair"            # quoted strings and comments both work
quantum = 1024
admission_threshold_pct = 80
ewma_shift = 4

[tenant.fg]
workload = "bfs-citation"
scale = "tiny"
priority = 0
arrival = 0
period = 50000
jobs = 2

[tenant.bg]
workload = "join-uniform"
priority = 1
arrival = 7000
)";

} // namespace

TEST(TenantSpec, ParsesFullSpec)
{
    MixSpec mix;
    std::string err;
    ASSERT_TRUE(parseMixToml(kValidSpec, mix, err)) << err;
    EXPECT_EQ(mix.name, "pair");
    EXPECT_EQ(mix.quantum, 1024u);
    EXPECT_EQ(mix.admissionThresholdPct, 80u);
    EXPECT_EQ(mix.ewmaShift, 4u);
    ASSERT_EQ(mix.tenants.size(), 2u);
    EXPECT_EQ(mix.tenants[0].name, "fg");
    EXPECT_EQ(mix.tenants[0].workload, "bfs-citation");
    EXPECT_EQ(mix.tenants[0].scale, Scale::Tiny);
    EXPECT_EQ(mix.tenants[0].priority, 0u);
    EXPECT_EQ(mix.tenants[0].period, 50000u);
    EXPECT_EQ(mix.tenants[0].jobs, 2u);
    EXPECT_EQ(mix.tenants[1].name, "bg");
    EXPECT_EQ(mix.tenants[1].priority, 1u);
    EXPECT_EQ(mix.tenants[1].firstArrival, 7000u);
    EXPECT_EQ(mix.tenants[1].jobs, 1u); // default
}

TEST(TenantSpec, UnknownWorkloadListsValidNames)
{
    MixSpec mix;
    std::string err;
    EXPECT_FALSE(parseMixToml("[tenant.t]\nworkload = \"nope\"\n", mix,
                              err));
    // The structured error names the offender and every valid name.
    EXPECT_NE(err.find("unknown workload 'nope'"), std::string::npos)
        << err;
    EXPECT_NE(err.find("known:"), std::string::npos) << err;
    EXPECT_NE(err.find("bfs-citation"), std::string::npos) << err;
}

TEST(TenantSpec, ErrorsCarryLineNumbers)
{
    MixSpec mix;
    std::string err;
    EXPECT_FALSE(parseMixToml("[mix]\nbogus_key = 3\n", mix, err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;

    EXPECT_FALSE(parseMixToml("[tenant.a]\nworkload = \"bfs-citation\"\n"
                              "scale = \"giant\"\n",
                              mix, err));
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;
    EXPECT_NE(err.find("tiny|small|full|huge"), std::string::npos)
        << err;
}

TEST(TenantSpec, NegativeCountsAreLineErrors)
{
    // strtoull would wrap "-1" to 2^64-1: jobs became 4294967295 and
    // arrival a cycle near the end of time.
    MixSpec mix;
    std::string err;
    EXPECT_FALSE(parseMixToml("[tenant.a]\nworkload = \"bfs-citation\"\n"
                              "period = 100\njobs = -1\n",
                              mix, err));
    EXPECT_NE(err.find("line 4"), std::string::npos) << err;
    EXPECT_NE(err.find("jobs"), std::string::npos) << err;

    EXPECT_FALSE(parseMixToml("[tenant.a]\nworkload = \"bfs-citation\"\n"
                              "arrival = -5\n",
                              mix, err));
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;

    EXPECT_FALSE(parseMixToml("[tenant.a]\nworkload = \"bfs-citation\"\n"
                              "jobs = 4294967296\n",
                              mix, err));
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

TEST(TenantSpec, RejectsStructuralErrors)
{
    MixSpec mix;
    std::string err;
    // Duplicate tenant sections.
    EXPECT_FALSE(parseMixToml(
        "[tenant.a]\nworkload = \"bfs-citation\"\n"
        "[tenant.a]\nworkload = \"join-uniform\"\n",
        mix, err));
    EXPECT_NE(err.find("duplicate tenant"), std::string::npos) << err;

    // No tenants at all.
    EXPECT_FALSE(parseMixToml("[mix]\nquantum = 10\n", mix, err));
    EXPECT_NE(err.find("no [tenant"), std::string::npos) << err;

    // Keys before any section header.
    EXPECT_FALSE(parseMixToml("quantum = 10\n", mix, err));
    EXPECT_NE(err.find("outside any section"), std::string::npos) << err;

    // Multiple jobs need an inter-arrival period.
    EXPECT_FALSE(parseMixToml(
        "[tenant.a]\nworkload = \"bfs-citation\"\njobs = 3\n", mix,
        err));
    EXPECT_NE(err.find("no period"), std::string::npos) << err;

    // A tenant without a workload.
    EXPECT_FALSE(parseMixToml("[tenant.a]\npriority = 1\n", mix, err));
    EXPECT_NE(err.find("no workload"), std::string::npos) << err;
}

TEST(TenantSpec, OutputUntouchedOnError)
{
    MixSpec mix;
    mix.name = "sentinel";
    std::string err;
    EXPECT_FALSE(parseMixToml("[mix]\nbogus = 1\n", mix, err));
    EXPECT_EQ(mix.name, "sentinel"); // scratch-then-commit
}

TEST(TenantMixes, BuiltinsAreWellFormed)
{
    EXPECT_GE(mixNames().size(), 3u);
    for (const std::string &name : mixNames()) {
        ASSERT_TRUE(isBuiltinMix(name));
        const MixSpec mix = builtinMix(name);
        EXPECT_EQ(mix.name, name);
        EXPECT_FALSE(mix.tenants.empty());
        for (const TenantSpec &t : mix.tenants) {
            EXPECT_TRUE(isKnownWorkload(t.workload)) << t.workload;
            if (t.jobs > 1) {
                EXPECT_GT(t.period, 0u) << name << "/" << t.name;
            }
        }
    }
    EXPECT_FALSE(isBuiltinMix("no-such-mix"));
    // duo/quad/octo span 2/4/8 tenants — the contention ladder.
    EXPECT_EQ(builtinMix("duo").tenants.size(), 2u);
    EXPECT_EQ(builtinMix("quad").tenants.size(), 4u);
    EXPECT_EQ(builtinMix("octo").tenants.size(), 8u);
}
