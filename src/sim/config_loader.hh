/**
 * @file
 * Declarative machine-configuration subsystem (DESIGN.md §13).
 *
 * A GpuConfig splits into two kinds of knobs:
 *
 *  - *machine* fields: hardware geometry and timing (SMX count, cache
 *    sizes, DRAM channels, launch latencies, LaPerm queue hardware).
 *    These are what a named preset or a `machine.toml` file sets, and
 *    they are exactly what canonicalMachine() covers.
 *
 *  - *run* fields: what a single experiment varies on top of a machine
 *    (dynParModel, tbPolicy, seed) plus the timing-invisible tickMode.
 *    They stay out of the machine canonicalization; the serving layer
 *    keys them separately (serve/sim_request.hh).
 *
 * Every machine field is declared once in a key registry (name, doc,
 * checked parser, canonical emitter). The registry drives four
 * consumers with one source of truth:
 *
 *  - parseMachineToml(): TOML-subset deserialization with unknown-key,
 *    duplicate-key, overflow and junk rejection;
 *  - emitMachineToml(): canonical re-emission (parse -> emit -> parse
 *    is the identity);
 *  - canonicalMachine()/machineHash(): the fixed-order canonical
 *    string and its 128-bit content key — two configs that mean the
 *    same machine hash identically no matter how they were spelled;
 *  - setMachineField(): single-key override used by the serve layer to
 *    map flat-JSON request fields onto the same checked parsers.
 *
 * The file grammar is the TOML subset of common/text.hh. A machine
 * file adds its own rules: "[machine]" is the only section (and may be
 * left out), each key is a registry field named at most once, and
 * each value is spelled as the field's checked parser accepts.
 */

#ifndef LAPERM_SIM_CONFIG_LOADER_HH
#define LAPERM_SIM_CONFIG_LOADER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace laperm {

/** One declared machine field (name + one-line doc). */
struct MachineFieldInfo
{
    const char *key; ///< snake_case TOML / wire name
    const char *doc; ///< one-line description (units included)
};

/** Every machine field, in canonical (registry) order. */
std::vector<MachineFieldInfo> machineFields();

/**
 * Set one machine field from its raw value spelling. Checked parsing:
 * unknown keys, junk, overflow, bad enum/bool spellings all fail with
 * a diagnostic in @p err and leave @p cfg untouched.
 */
bool setMachineField(GpuConfig &cfg, const std::string &key,
                     const std::string &raw, std::string &err);

/**
 * Apply a TOML-subset machine config on top of @p cfg. Only mentioned
 * keys change — parse onto a preset to express "v100 but 40 SMXs".
 * Rejects unknown sections, unknown keys, duplicate keys, and any
 * value the field's checked parser refuses. On failure @p cfg is
 * unchanged and @p err carries "line N: ...".
 */
bool parseMachineToml(const std::string &text, GpuConfig &cfg,
                      std::string &err);

/**
 * Canonical TOML emission of every machine field, registry order.
 * parse(emit(cfg)) == cfg, and emit(parse(emit(cfg))) is byte-equal.
 */
std::string emitMachineToml(const GpuConfig &cfg);

/**
 * Fixed-order "key=value ..." canonical string over every machine
 * field. This is the serving-layer cache-key input: equal machines
 * canonicalize equally regardless of spelling (preset name, TOML file,
 * or per-field overrides).
 */
std::string canonicalMachine(const GpuConfig &cfg);

/**
 * Append canonicalMachine(cfg) to @p out, so a cell's canonical string
 * (harness/result_cache.hh) takes the machine in without a temporary.
 */
void appendCanonicalMachine(std::string &out, const GpuConfig &cfg);

/**
 * Bytes a cell's canonical string reserves (harness/result_cache.hh):
 * the canonical machine of every preset is under 800 bytes, and the
 * run coordinates add a few dozen.
 */
constexpr std::size_t kCanonicalMachineBytes = 1024;

/** 128-bit hex content key of canonicalMachine(cfg). */
std::string machineHash(const GpuConfig &cfg);

/** machineHash of a default-constructed GpuConfig (the k20c machine). */
const std::string &defaultMachineHash();

} // namespace laperm

#endif // LAPERM_SIM_CONFIG_LOADER_HH
