#include "common/hash.hh"

namespace laperm {

std::string
contentKey(const std::string &canonical)
{
    // Two independently seeded FNV-1a chains give a 128-bit key; plenty
    // for a cache namespace where collisions only cost a wrong cache
    // hit on adversarial input, and the canonical strings are
    // machine-built. Both chains advance in one loop over the bytes, so
    // the CPU overlaps their multiplies.
    constexpr std::uint64_t kPrime = 0x100000001b3ull;
    std::uint64_t a = 0xcbf29ce484222325ull;
    std::uint64_t b = 0x9ae16a3b2f90404full;
    for (const char c : canonical) {
        const auto byte = static_cast<std::uint8_t>(c);
        a = (a ^ byte) * kPrime;
        b = (b ^ byte) * kPrime;
    }
    static constexpr char kHex[] = "0123456789abcdef";
    std::string key(32, '0');
    for (std::size_t i = 0; i < 16; ++i) {
        key[15 - i] = kHex[(a >> (4 * i)) & 0xf];
        key[31 - i] = kHex[(b >> (4 * i)) & 0xf];
    }
    return key;
}

} // namespace laperm
