// Golden digests of the graph workloads' inputs: the CSR, the SSSP edge
// weights and the CLR coloring that buildGraphInput, genEdgeWeights and
// jpColoring produce for each Table II graph. A change to any of these
// functions must keep these bytes, or every simulated result moves.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/algorithms.hh"
#include "graph/generators.hh"
#include "workloads/graph_common.hh"

using namespace laperm;

namespace {

/** FNV-1a 64 over a sequence of integers, each least byte first. */
class Digest
{
  public:
    template <typename T>
    void add(T value)
    {
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            hash_ ^= static_cast<std::uint8_t>(value >> (8 * i));
            hash_ *= 0x100000001b3ull;
        }
    }

    template <typename T>
    void add(const std::vector<T> &values)
    {
        add<std::uint64_t>(values.size());
        for (const T &x : values)
            add(x);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

template <typename T>
std::uint64_t
digestOf(const std::vector<T> &values)
{
    Digest d;
    d.add(values);
    return d.value();
}

std::uint64_t
digestOf(const std::vector<std::vector<std::uint32_t>> &rounds)
{
    Digest d;
    d.add<std::uint64_t>(rounds.size());
    for (const auto &round : rounds)
        d.add(round);
    return d.value();
}

/** One graph input's digests; color 0 leaves the colors unchecked. */
struct InputDigests
{
    const char *input;
    Scale scale;
    std::uint64_t seed;
    std::uint64_t offsets;
    std::uint64_t cols;
    std::uint64_t weights;
    std::uint64_t rounds;
    std::uint64_t color;
};

/** Digests of what the BFS, SSSP and CLR setups build from one input. */
InputDigests
digestInput(const char *input, Scale scale, std::uint64_t seed)
{
    // The seed derivations of SsspWorkload::setup and ClrWorkload::setup.
    const Csr csr = buildGraphInput(input, scale, seed);
    const ColoringResult coloring = jpColoring(csr, seed ^ 0xC010F);
    return {input,
            scale,
            seed,
            digestOf(csr.offsets()),
            digestOf(csr.cols()),
            digestOf(genEdgeWeights(csr, 64, seed ^ 0x55)),
            digestOf(coloring.rounds),
            digestOf(coloring.color)};
}

// Colors are pinned at `tiny` only, where no input reaches the round
// cap; at `small` citation and graph500 leave vertices to the cap, and
// Coloring.ValidWhenTheRoundCapIsHit covers how those are colored.
const InputDigests kGolden[] = {
    {"citation", Scale::Tiny, 1, 0x6ac48d780bb8d9dcull, 0x757accae7a882dcfull,
     0xf920e1cfc425eccdull, 0x52dcb215b8959e40ull, 0x48f940ccd4a2413bull},
    {"citation", Scale::Tiny, 2, 0x307eb54fab8f876bull, 0xad46fc0e3cff519aull,
     0x1c72ec64884feea5ull, 0xd5334faf5f6c6dc9ull, 0x36792de8b01ad553ull},
    {"citation", Scale::Tiny, 3, 0x1324e6202127a3afull, 0x5658598573227599ull,
     0xfab603dfbec2df8dull, 0x12201ac52fd6cabbull, 0xa23c831edf706b1aull},
    {"citation", Scale::Tiny, 4, 0x9c3d0a04690a5e61ull, 0x0437e83a6e86f510ull,
     0xa40bacd547db7529ull, 0xfc00f7101d4fd68bull, 0x8c805ff66a1b1c24ull},
    {"graph500", Scale::Tiny, 1, 0x56b045e879454b24ull, 0xbcbf5fea119f8c46ull,
     0x50ffde1717914157ull, 0x6a3862009914e3b4ull, 0xe147c5ebc43c2b3dull},
    {"graph500", Scale::Tiny, 2, 0x302c0b9ad70e60edull, 0x1dd95c7ded3b1364ull,
     0x955ff56dbadf98caull, 0xb64a3985f71c678dull, 0xe0cf917fb5bc7603ull},
    {"graph500", Scale::Tiny, 3, 0x2841f0b395d89f83ull, 0x65db6de4473cb9e9ull,
     0x45f7cda42d20e903ull, 0x4bbd0b3fcf3006bfull, 0xdba9a2695b5e5dcdull},
    {"graph500", Scale::Tiny, 4, 0x26ee690033cd7107ull, 0x1fff4d33a7037bedull,
     0x6767aab02fb00591ull, 0x1ecbe1ade5f29be2ull, 0x0e7c4486d9ca901aull},
    {"cage", Scale::Tiny, 1, 0x36f217d218c4b041ull, 0x24e71c76f15b0e37ull,
     0xb682527eb8f1347dull, 0x8a947b0e9786fc1dull, 0x317043422aacc0b8ull},
    {"cage", Scale::Tiny, 2, 0x2d31f1bc2e37d0d6ull, 0x24f524932c5cf352ull,
     0x60be658910098352ull, 0xa5064febfbad466dull, 0x98c4022393c5d2f8ull},
    {"cage", Scale::Tiny, 3, 0x7cbcf6a28a82b78full, 0xec1123e8ef1c915dull,
     0xeed1c6dd9e349bcdull, 0x661c848de5615cd7ull, 0xbbec38020559105aull},
    {"cage", Scale::Tiny, 4, 0x25ad62dd24caa720ull, 0x105b19711ce7bb78ull,
     0x575747c506494ec4ull, 0xd7ba9f504fa47ad3ull, 0x19cad05f93890678ull},
    {"citation", Scale::Small, 1, 0x794bbf2d57db9b2eull, 0xf2f638b3d8e01ad4ull,
     0x6596e127b49eb982ull, 0x2a97c4b88eda06f8ull, 0},
    {"graph500", Scale::Small, 1, 0x4ffdaed4fd7b27efull, 0xdf1a056d485c1918ull,
     0x7e2cb20bc2a8cc7dull, 0x4a02e133d4bc4d63ull, 0},
    {"cage", Scale::Small, 1, 0x22de11652a3fa923ull, 0x77f359924991c894ull,
     0xfdc99693cc23060aull, 0xa781e6ed28c934acull, 0},
};

void
expectGolden(Scale scale)
{
    int rows = 0;
    for (const InputDigests &want : kGolden) {
        if (want.scale != scale)
            continue;
        ++rows;
        const InputDigests got = digestInput(want.input, scale, want.seed);
        SCOPED_TRACE(std::string(want.input) + " seed " +
                     std::to_string(want.seed));
        EXPECT_EQ(got.offsets, want.offsets);
        EXPECT_EQ(got.cols, want.cols);
        EXPECT_EQ(got.weights, want.weights);
        EXPECT_EQ(got.rounds, want.rounds);
        if (want.color != 0) {
            EXPECT_EQ(got.color, want.color);
        }
    }
    EXPECT_GT(rows, 0);
}

} // namespace

TEST(InputGolden, TinyInputsMatchTheirDigests)
{
    expectGolden(Scale::Tiny);
}

TEST(InputGolden, SmallInputsMatchTheirDigests)
{
    expectGolden(Scale::Small);
}
