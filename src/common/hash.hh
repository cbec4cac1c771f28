/**
 * @file
 * Deterministic content hashing shared by the result cache
 * (harness/result_cache.hh) and the config subsystem
 * (sim/config_loader.hh). Lives in common/ so the simulator layer can
 * hash canonical config strings without reaching up into harness code.
 */

#ifndef LAPERM_COMMON_HASH_HH
#define LAPERM_COMMON_HASH_HH

#include <cstdint>
#include <string>

namespace laperm {

/**
 * 128-bit hex content key of a canonical request/config string: two
 * 64-bit FNV-1a hashes of its bytes, seeded 0xcbf29ce484222325 and
 * 0x9ae16a3b2f90404f, as 32 lowercase hex digits.
 */
std::string contentKey(const std::string &canonical);

} // namespace laperm

#endif // LAPERM_COMMON_HASH_HH
