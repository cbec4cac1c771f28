#include "tools/lint_layering.hh"

#include <algorithm>
#include <regex>
#include <set>
#include <string_view>

#include "common/text.hh"

namespace laperm {
namespace simlint {

bool
LayerSpec::sameGroup(const std::string &a, const std::string &b) const
{
    auto ga = groupOf.find(a);
    auto gb = groupOf.find(b);
    return ga != groupOf.end() && gb != groupOf.end() &&
           ga->second == gb->second;
}

bool
LayerSpec::allows(const std::string &from, const std::string &to) const
{
    if (from == to || sameGroup(from, to))
        return true;
    auto it = deps.find(from);
    if (it == deps.end())
        return false;
    return std::binary_search(it->second.begin(), it->second.end(), to);
}

namespace {

/** Trim spaces and tabs from both ends of @p s. */
std::string_view
trimmed(std::string_view s)
{
    const std::size_t first = s.find_first_not_of(" \t");
    if (first == std::string_view::npos)
        return {};
    return s.substr(first, s.find_last_not_of(" \t") - first + 1);
}

/**
 * Parse a `["a", "b"]` value into its items: the bracket body split at
 * commas, each item one quoted, non-empty name with no inner quote.
 * A blank body is the empty list.
 */
bool
parseList(std::string_view value, std::vector<std::string> &items)
{
    if (value.size() < 2 || value.front() != '[' || value.back() != ']')
        return false;
    const std::string_view body = value.substr(1, value.size() - 2);
    if (body.find(']') != std::string_view::npos)
        return false;
    if (trimmed(body).empty())
        return true;
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = body.find(',', start);
        const std::string_view item =
            trimmed(body.substr(start, comma - start));
        if (item.size() < 3 || item.front() != '"' || item.back() != '"')
            return false;
        const std::string_view name = item.substr(1, item.size() - 2);
        if (name.find('"') != std::string_view::npos)
            return false;
        items.emplace_back(name);
        if (comma == std::string_view::npos)
            return true;
        start = comma + 1;
    }
}

/** Node name after group collapsing. */
std::string
collapse(const LayerSpec &spec, const std::string &module)
{
    auto it = spec.groupOf.find(module);
    return it == spec.groupOf.end() ? module : "group:" + it->second;
}

/** DFS cycle detection over the group-collapsed declared graph. */
bool
findCycle(const std::map<std::string, std::set<std::string>> &adj,
          std::string &cycleNode)
{
    // 0 = unvisited, 1 = on stack, 2 = done.
    std::map<std::string, int> state;
    // Iterative DFS, deterministic order (std::map iteration).
    for (const auto &kv : adj) {
        if (state[kv.first] != 0)
            continue;
        std::vector<std::pair<std::string, bool>> stack;
        stack.push_back({kv.first, false});
        while (!stack.empty()) {
            auto [node, leaving] = stack.back();
            stack.pop_back();
            if (leaving) {
                state[node] = 2;
                continue;
            }
            if (state[node] == 1)
                continue;
            state[node] = 1;
            stack.push_back({node, true});
            auto ait = adj.find(node);
            if (ait == adj.end())
                continue;
            for (const auto &next : ait->second) {
                if (state[next] == 1) {
                    cycleNode = next;
                    return true;
                }
                if (state[next] == 0)
                    stack.push_back({next, false});
            }
        }
    }
    return false;
}

} // namespace

bool
parseLayerSpec(const std::string &text, LayerSpec &spec, std::string &err)
{
    spec = LayerSpec{};
    std::string section;
    const auto entry = [&](const TomlLine &line, std::string &why) {
        if (line.header) {
            section = line.key;
            if (section == "layers" || section == "groups")
                return true;
            why = "unknown section [" + section + "]";
            return false;
        }
        const std::string &name = line.key;
        std::vector<std::string> items;
        if (!parseList(line.value, items)) {
            why = "expected `" + name + " = [\"dep\", ...]`, got: " +
                  line.value;
            return false;
        }
        if (section == "layers") {
            if (spec.deps.count(name)) {
                why = "duplicate module " + name;
                return false;
            }
            std::sort(items.begin(), items.end());
            spec.deps[name] = items;
        } else if (section == "groups") {
            for (const auto &m : items) {
                if (spec.groupOf.count(m)) {
                    why = "module " + m + " in two groups";
                    return false;
                }
                spec.groupOf[m] = name;
            }
        } else {
            why = "entry outside [layers]/[groups]";
            return false;
        }
        return true;
    };
    if (!forEachTomlLine(text, entry, err)) {
        err = "layering spec " + err;
        return false;
    }
    if (spec.deps.empty()) {
        err = "layering spec declares no modules";
        return false;
    }

    // Validation: deps and groups name declared modules.
    for (const auto &kv : spec.deps) {
        for (const auto &d : kv.second) {
            if (!spec.declared(d)) {
                err = "layering spec: module " + kv.first +
                      " depends on undeclared module " + d;
                return false;
            }
        }
    }
    for (const auto &kv : spec.groupOf) {
        if (!spec.declared(kv.first)) {
            err = "layering spec: group " + kv.second +
                  " names undeclared module " + kv.first;
            return false;
        }
    }

    // The declared graph, collapsed over groups, must be a DAG.
    std::map<std::string, std::set<std::string>> adj;
    for (const auto &kv : spec.deps) {
        const std::string from = collapse(spec, kv.first);
        adj[from]; // ensure node exists
        for (const auto &d : kv.second) {
            const std::string to = collapse(spec, d);
            if (from != to)
                adj[from].insert(to);
        }
    }
    std::string cycleNode;
    if (findCycle(adj, cycleNode)) {
        err = "layering spec: declared dependency graph has a cycle "
              "through " +
              cycleNode;
        return false;
    }
    return true;
}

bool
loadLayerSpec(const std::string &path, LayerSpec &spec, std::string &err)
{
    std::string text;
    if (!readFile(path, text)) {
        err = "cannot read layering spec " + path;
        return false;
    }
    return parseLayerSpec(text, spec, err);
}

std::string
moduleOfPath(const std::string &path, const LayerSpec &spec)
{
    std::string module;
    std::string cur;
    auto consider = [&](const std::string &part) {
        if (spec.declared(part))
            module = part; // keep the last declared component
    };
    for (char c : path) {
        if (c == '/' || c == '\\') {
            if (!cur.empty())
                consider(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    // The final component is the filename, never a module.
    return module;
}

std::vector<Finding>
lintLayering(const std::string &path, const std::string &content,
             const LayerSpec &spec)
{
    std::vector<Finding> findings;
    const std::string module = moduleOfPath(path, spec);

    // Files under a src/ tree must belong to a declared module; other
    // locations (fixtures, tests) are only checked edge-wise.
    if (module.empty()) {
        if (path.find("src/") != std::string::npos ||
            path.find("src\\") != std::string::npos) {
            findings.push_back(Finding{
                path, 1, Rule::Layering,
                "file belongs to no module declared in the layering "
                "spec; add its directory to layering.toml [layers]"});
        }
        return findings;
    }

    static const std::regex inc(R"(^\s*#\s*include\s*"([^"]+)\")");
    // stripComments, not the full strip: include paths ARE string
    // literals and must survive, while a commented-out #include must
    // not fire.
    const std::vector<std::string> lines =
        splitLines(stripComments(content));
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::smatch m;
        if (!std::regex_search(lines[i], m, inc))
            continue;
        const std::string target = m[1].str();
        const std::size_t slash = target.find('/');
        if (slash == std::string::npos)
            continue; // generated/relative header, out of scope
        // Resolve the include target exactly like the including file:
        // the LAST declared directory component wins, so a nested
        // module ("serve/transport/endpoint.hh") maps to its sublayer,
        // not the umbrella directory — sublayer edges are enforced.
        const std::string targetModule = moduleOfPath(target, spec);
        if (targetModule.empty()) {
            findings.push_back(Finding{
                path, i + 1, Rule::Layering,
                "include \"" + target + "\" targets module '" +
                    target.substr(0, slash) +
                    "' which the layering spec does not declare"});
            continue;
        }
        if (!spec.allows(module, targetModule)) {
            findings.push_back(Finding{
                path, i + 1, Rule::Layering,
                "include \"" + target + "\" violates the layering "
                "spec: module '" + module + "' may not depend on '" +
                    targetModule + "' (layering.toml)"});
        }
    }
    return findings;
}

} // namespace simlint
} // namespace laperm
