/**
 * @file
 * sim-lint layering pass (DESIGN.md §12.2): parses the `#include`
 * edges of every translation unit and enforces the module DAG declared
 * in the checked-in layering spec (layering.toml at the repo root).
 *
 * Spec format — the TOML subset of common/text.hh, two tables:
 *
 *   [layers]
 *   common = []                 # module -> allowed module deps
 *   sim    = ["common"]
 *
 *   [groups]
 *   engine = ["gpu", "dynpar"]  # mutually-recursive modules that form
 *                               # one layer; intra-group includes legal
 *
 * Each value is a list of quoted module names. A module is declared
 * once in [layers] and grouped at most once.
 *
 * Rules enforced:
 *  - every quoted project include must target a declared module, and
 *    the (source module -> target module) edge must be declared (self
 *    edges and intra-group edges are always legal);
 *  - every file under src/ must belong to a declared module (a new
 *    directory forces a spec decision);
 *  - the declared graph itself, collapsed over groups, must be a DAG —
 *    a spec edit cannot smuggle a dependency cycle in.
 *
 * Angle-bracket includes (system headers) and quoted includes with no
 * path component (generated headers like sim_fingerprint.hh) are out
 * of scope.
 */

#ifndef LAPERM_TOOLS_LINT_LAYERING_HH
#define LAPERM_TOOLS_LINT_LAYERING_HH

#include <map>
#include <string>
#include <vector>

#include "tools/sim_lint.hh"

namespace laperm {
namespace simlint {

/** Parsed layering spec. */
struct LayerSpec
{
    /** module -> sorted allowed dependency modules. */
    std::map<std::string, std::vector<std::string>> deps;
    /** module -> group name (only for grouped modules). */
    std::map<std::string, std::string> groupOf;

    bool declared(const std::string &module) const
    {
        return deps.count(module) != 0;
    }

    /** Same group (and both actually grouped)? */
    bool sameGroup(const std::string &a, const std::string &b) const;

    /** Is the edge from -> to allowed? (self/group edges always are) */
    bool allows(const std::string &from, const std::string &to) const;
};

/**
 * Parse spec text. On failure returns false and sets @p err (line
 * numbers included). Validation: every dep names a declared module,
 * every grouped module is declared, and the group-collapsed declared
 * graph is acyclic.
 */
bool parseLayerSpec(const std::string &text, LayerSpec &spec,
                    std::string &err);

/** Read and parse a spec file. */
bool loadLayerSpec(const std::string &path, LayerSpec &spec,
                   std::string &err);

/**
 * Module a path belongs to: the last path component that names a
 * declared module ("src/mem/cache.cc" -> "mem"; fixture trees mimic
 * the same shape). Empty when no component matches.
 */
std::string moduleOfPath(const std::string &path, const LayerSpec &spec);

/**
 * Lint one translation unit's include edges against @p spec. Findings
 * use Rule::Layering.
 */
std::vector<Finding> lintLayering(const std::string &path,
                                  const std::string &content,
                                  const LayerSpec &spec);

} // namespace simlint
} // namespace laperm

#endif // LAPERM_TOOLS_LINT_LAYERING_HH
