/**
 * @file
 * sim-lint: simulator-specific determinism lints that clang-tidy cannot
 * express. The simulator's headline numbers (Fig. 9 IPC deltas) are only
 * trustworthy if a run is bit-deterministic, and the parallel sweep
 * harness further requires byte-identical TSV output at any worker
 * count. These rules statically ban the constructs that historically
 * break that property:
 *
 *  - banned-rng       std::rand / <random> engines anywhere outside
 *                     common/rng.hh (the seedable xoshiro256** wrapper).
 *                     std::mt19937 distributions are implementation-
 *                     defined, so results would differ across stdlibs.
 *  - wall-clock       system/steady/high_resolution_clock, time(),
 *                     gettimeofday, std::chrono in simulator code.
 *                     Model time is GpuConfig-driven cycles; wall time
 *                     makes runs irreproducible.
 *  - unordered-iter   iteration over std::unordered_{map,set} in
 *                     simulator code. Bucket order is unspecified, so
 *                     any result-affecting traversal is nondeterministic
 *                     across stdlib versions (and across inserts).
 *  - fp-accum         += / -= into a float/double accumulator in
 *                     simulator code without a documented ordering.
 *                     FP addition is non-associative; reordered sums
 *                     change low bits, which the byte-identical TSV
 *                     contract turns into failures.
 *
 * Scoping: the wall-clock / unordered-iter / fp-accum rules apply only
 * to "restricted" simulator directories (sim, sched, mem, gpu, dynpar);
 * harness and bench code legitimately measures wall time. banned-rng
 * applies everywhere except common/rng.{hh,cc} itself.
 *
 * v2 grows the four token rules into a multi-pass analyzer
 * (DESIGN.md §12):
 *
 *  - layering       include-graph pass enforcing the declared module
 *                   DAG in layering.toml (lint_layering.hh)
 *  - cycle-float /  cycle-safety pass keeping integer-cycle timing
 *    cycle-narrow /  integer end-to-end (lint_cycle.hh)
 *    cycle-sign
 *  - event-past /   event-discipline pass for EventQueue call sites
 *    event-kind /    (lint_event.hh)
 *    event-tick
 *  - unused-allow   suppression audit: an allow() marker that no
 *                   longer suppresses anything is itself a finding
 *
 * The passes are orchestrated by lint_driver.hh, which also applies
 * the suppressions and audits them.
 *
 * Suppression: a finding on line N is suppressed if line N or N-1
 * contains "sim-lint: allow(<rule>)" — always with a reason in the
 * surrounding comment. "sim-lint: allow-file(<rule>)" anywhere in the
 * file disables the rule for the whole file. The audit rule
 * (unused-allow) is not suppressible: waivers must not be able to
 * waive the waiver check.
 */

#ifndef LAPERM_TOOLS_SIM_LINT_HH
#define LAPERM_TOOLS_SIM_LINT_HH

#include <string>
#include <vector>

namespace laperm {
namespace simlint {

enum class Rule
{
    // token pass (v1)
    BannedRng,
    WallClock,
    UnorderedIter,
    FpAccum,
    // layering pass
    Layering,
    // cycle-safety pass
    CycleFloat,
    CycleNarrow,
    CycleSign,
    // event-discipline pass
    EventPast,
    EventKind,
    EventTick,
    // audit rule (never suppressible)
    UnusedAllow,
};

/** Stable kebab-case name used in reports and allow() comments. */
const char *ruleName(Rule rule);

/** Parse a kebab-case rule name. Returns false if unknown. */
bool ruleFromName(const std::string &name, Rule &out);

struct Finding
{
    std::string path;
    std::size_t line = 0; ///< 1-based
    Rule rule = Rule::BannedRng;
    std::string message;
};

/** A "sim-lint: allow(...)" / "allow-file(...)" marker in a file. */
struct Allow
{
    std::size_t line = 0; ///< 1-based line the marker sits on
    Rule rule = Rule::BannedRng;
    bool fileWide = false; ///< allow-file(...) form
    bool used = false;     ///< set once it suppresses a finding
};

/** How a file's path scopes the rule set. */
struct FileScope
{
    bool restricted = false; ///< under sim/sched/mem/gpu/dynpar
    bool rngExempt = false;  ///< common/rng.{hh,cc} itself
};

/** Classify @p path by its components (separator-normalized). */
FileScope classifyPath(const std::string &path);

/**
 * Strip comments and string/char literals while preserving line
 * structure (findings keep their line numbers; a banned token inside a
 * doc comment or log string never fires). Shared by every pass.
 */
std::string stripCommentsAndStrings(const std::string &src);

/**
 * Strip comments only, preserving string/char literals and line
 * structure. The layering pass needs this: `#include "mem/cache.hh"`
 * paths are string literals and would vanish under the full strip.
 */
std::string stripComments(const std::string &src);

/** Split @p s on '\n' (a trailing fragment counts as a line). */
std::vector<std::string> splitLines(const std::string &s);

/** Collect every allow()/allow-file() marker from raw source lines. */
std::vector<Allow> collectAllows(const std::vector<std::string> &rawLines);

/**
 * Token-rule pass *without* suppression: every raw finding, including
 * ones an allow() marker covers. The driver applies suppression so it
 * can audit which markers actually fire.
 */
std::vector<Finding> scanTokenRules(const std::string &path,
                                    const std::string &content);

/**
 * Drop findings covered by an allow marker (same rule; file-wide, or
 * on the finding's line or the line above). Consumed markers get
 * used=true — the input to the unused-suppression audit. The audit
 * rule is never suppressed.
 */
std::vector<Finding> applySuppressions(std::vector<Finding> findings,
                                       std::vector<Allow> &allows);

/**
 * Lint one translation unit given its contents (token rules only,
 * suppressions applied — the v1 behaviour). Comments, string and
 * character literals are stripped before pattern matching (a mention of
 * mt19937 in a doc comment is not a violation), but allow() markers are
 * honoured from the raw text.
 */
std::vector<Finding> lintSource(const std::string &path,
                                const std::string &content);

/** Lint a file on disk. Returns false if it cannot be read. */
bool lintFile(const std::string &path, std::vector<Finding> &out);

/**
 * Sorted list of every .hh/.cc/.hpp/.cpp under @p root (deterministic
 * scan order — the linter holds itself to the bar it enforces).
 */
std::vector<std::string> listSources(const std::string &root);

/**
 * Recursively lint every .hh/.cc under @p root in sorted path order
 * (the linter is itself deterministic). Returns the number of files
 * scanned.
 */
std::size_t lintTree(const std::string &root, std::vector<Finding> &out);

} // namespace simlint
} // namespace laperm

#endif // LAPERM_TOOLS_SIM_LINT_HH
