#include "tools/sim_lint.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

namespace laperm {
namespace simlint {

const char *
ruleName(Rule rule)
{
    switch (rule) {
    case Rule::BannedRng:
        return "banned-rng";
    case Rule::WallClock:
        return "wall-clock";
    case Rule::UnorderedIter:
        return "unordered-iter";
    case Rule::FpAccum:
        return "fp-accum";
    case Rule::Layering:
        return "layering";
    case Rule::CycleFloat:
        return "cycle-float";
    case Rule::CycleNarrow:
        return "cycle-narrow";
    case Rule::CycleSign:
        return "cycle-sign";
    case Rule::EventPast:
        return "event-past";
    case Rule::EventKind:
        return "event-kind";
    case Rule::EventTick:
        return "event-tick";
    case Rule::UnusedAllow:
        return "unused-allow";
    }
    return "unknown";
}

bool
ruleFromName(const std::string &name, Rule &out)
{
    static const Rule all[] = {
        Rule::BannedRng,   Rule::WallClock,  Rule::UnorderedIter,
        Rule::FpAccum,     Rule::Layering,   Rule::CycleFloat,
        Rule::CycleNarrow, Rule::CycleSign,  Rule::EventPast,
        Rule::EventKind,   Rule::EventTick,  Rule::UnusedAllow,
    };
    for (Rule r : all) {
        if (name == ruleName(r)) {
            out = r;
            return true;
        }
    }
    return false;
}

FileScope
classifyPath(const std::string &path)
{
    // Split into components on either separator so the same logic
    // covers absolute, relative, and fixture paths.
    std::vector<std::string> parts;
    std::string cur;
    for (char c : path) {
        if (c == '/' || c == '\\') {
            if (!cur.empty())
                parts.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        parts.push_back(cur);

    FileScope scope;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        const std::string &p = parts[i];
        if (p == "sim" || p == "sched" || p == "mem" || p == "gpu" ||
            p == "dynpar" || p == "obs" || p == "tenant") {
            scope.restricted = true;
        }
        if (p == "common" && i + 1 < parts.size() &&
            (parts[i + 1] == "rng.hh" || parts[i + 1] == "rng.cc")) {
            scope.rngExempt = true;
        }
    }
    return scope;
}

namespace {

/**
 * Shared strip state machine. @p keepStrings preserves string/char
 * literal text (the layering pass needs `#include "mem/cache.hh"`
 * paths); comments are always blanked. Newlines survive either way so
 * line numbers are stable.
 */
std::string
stripImpl(const std::string &src, bool keepStrings)
{
    enum class St { Code, LineComment, BlockComment, Str, Chr, RawStr };
    std::string out;
    out.reserve(src.size());
    St st = St::Code;
    std::string rawDelim; // for R"delim( ... )delim"
    for (std::size_t i = 0; i < src.size(); ++i) {
        char c = src[i];
        char next = i + 1 < src.size() ? src[i + 1] : '\0';
        switch (st) {
        case St::Code:
            if (c == '/' && next == '/') {
                st = St::LineComment;
                out += "  ";
                ++i;
            } else if (c == '/' && next == '*') {
                st = St::BlockComment;
                out += "  ";
                ++i;
            } else if (c == 'R' && next == '"' &&
                       (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                       src[i - 1])) &&
                                   src[i - 1] != '_'))) {
                st = St::RawStr;
                rawDelim.clear();
                std::size_t j = i + 2;
                while (j < src.size() && src[j] != '(')
                    rawDelim += src[j++];
                if (keepStrings) {
                    out.append(src, i, j - i + 1);
                } else {
                    out += ' ';
                    out.append(j - i, ' ');
                }
                i = j; // now at '('
            } else if (c == '"') {
                st = St::Str;
                out += keepStrings ? '"' : ' ';
            } else if (c == '\'') {
                st = St::Chr;
                out += keepStrings ? '\'' : ' ';
            } else {
                out += c;
            }
            break;
        case St::LineComment:
            if (c == '\n') {
                st = St::Code;
                out += '\n';
            } else {
                out += ' ';
            }
            break;
        case St::BlockComment:
            if (c == '*' && next == '/') {
                st = St::Code;
                out += "  ";
                ++i;
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
        case St::Str:
            if (c == '\\' && next != '\0') {
                if (keepStrings) {
                    out += c;
                    out += next;
                } else {
                    out += "  ";
                }
                ++i;
            } else if (c == '"') {
                st = St::Code;
                out += keepStrings ? '"' : ' ';
            } else if (keepStrings) {
                out += c;
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
        case St::Chr:
            if (c == '\\' && next != '\0') {
                if (keepStrings) {
                    out += c;
                    out += next;
                } else {
                    out += "  ";
                }
                ++i;
            } else if (c == '\'') {
                st = St::Code;
                out += keepStrings ? '\'' : ' ';
            } else if (keepStrings) {
                out += c;
            } else {
                out += ' ';
            }
            break;
        case St::RawStr: {
            const std::string close = ")" + rawDelim + "\"";
            if (src.compare(i, close.size(), close) == 0) {
                st = St::Code;
                if (keepStrings)
                    out += close;
                else
                    out.append(close.size(), ' ');
                i += close.size() - 1;
            } else if (keepStrings) {
                out += c;
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
        }
        }
    }
    return out;
}

} // namespace

std::string
stripCommentsAndStrings(const std::string &src)
{
    return stripImpl(src, false);
}

std::string
stripComments(const std::string &src)
{
    return stripImpl(src, true);
}

std::vector<std::string>
splitLines(const std::string &s)
{
    std::vector<std::string> lines;
    std::string cur;
    for (char c : s) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    lines.push_back(cur);
    return lines;
}

std::vector<Allow>
collectAllows(const std::vector<std::string> &rawLines)
{
    std::vector<Allow> allows;
    static const std::regex marker(
        R"(sim-lint:\s*(allow|allow-file)\(([a-z-]+)\))");
    for (std::size_t i = 0; i < rawLines.size(); ++i) {
        const std::string &l = rawLines[i];
        for (auto it = std::sregex_iterator(l.begin(), l.end(), marker);
             it != std::sregex_iterator(); ++it) {
            Rule rule;
            if (!ruleFromName((*it)[2].str(), rule))
                continue; // unknown rule names never suppress
            allows.push_back(
                Allow{i + 1, rule, (*it)[1].str() == "allow-file", false});
        }
    }
    return allows;
}

std::vector<Finding>
applySuppressions(std::vector<Finding> findings, std::vector<Allow> &allows)
{
    std::vector<Finding> kept;
    kept.reserve(findings.size());
    for (const Finding &f : findings) {
        // The audit rule cannot be waived: a waiver must not be able
        // to waive the check that audits waivers.
        bool suppressed = false;
        if (f.rule != Rule::UnusedAllow) {
            for (Allow &a : allows) {
                if (a.rule != f.rule)
                    continue;
                const bool covers =
                    a.fileWide ||
                    a.line == f.line ||
                    a.line + 1 == f.line;
                if (covers) {
                    a.used = true;
                    suppressed = true;
                    // keep scanning: every marker covering this
                    // finding counts as used (no false unused-allow
                    // when two markers overlap).
                }
            }
        }
        if (!suppressed)
            kept.push_back(f);
    }
    return kept;
}

namespace {

struct Pattern
{
    std::regex re;
    const char *what;
};

const std::vector<Pattern> &
bannedRngPatterns()
{
    static const std::vector<Pattern> pats = {
        {std::regex(R"(\bstd\s*::\s*rand\b)"),
         "std::rand is stdlib-dependent; use laperm::Rng (common/rng.hh)"},
        {std::regex(R"(\bsrand\s*\()"),
         "srand seeds hidden global state; use laperm::Rng (common/rng.hh)"},
        {std::regex(R"((^|[^:\w])rand\s*\(\s*\))"),
         "rand() is stdlib-dependent; use laperm::Rng (common/rng.hh)"},
        {std::regex(R"(\brandom_device\b)"),
         "random_device is nondeterministic by design; seed laperm::Rng "
         "from GpuConfig::seed instead"},
        {std::regex(R"(\bmt19937)"),
         "mt19937 range mapping is implementation-defined; use "
         "laperm::Rng (common/rng.hh)"},
        {std::regex(R"(\b(?:default_random_engine|minstd_rand)\b)"),
         "stdlib engines are implementation-defined; use laperm::Rng"},
        {std::regex(
             R"(\b(?:uniform_int_distribution|uniform_real_distribution|normal_distribution|bernoulli_distribution)\b)"),
         "stdlib distributions map values in implementation-defined "
         "ways; use laperm::Rng helpers"},
        {std::regex(R"(#\s*include\s*<random>)"),
         "<random> is banned outside common/rng.*; use laperm::Rng"},
    };
    return pats;
}

const std::vector<Pattern> &
wallClockPatterns()
{
    static const std::vector<Pattern> pats = {
        {std::regex(
             R"(\b(?:system_clock|steady_clock|high_resolution_clock)\b)"),
         "wall-clock time in simulator code breaks reproducibility; "
         "model time is Gpu cycle counters"},
        {std::regex(R"(\bstd\s*::\s*chrono\b)"),
         "std::chrono in simulator code breaks reproducibility; model "
         "time is Gpu cycle counters"},
        {std::regex(R"(\b(?:gettimeofday|clock_gettime)\b)"),
         "OS time in simulator code breaks reproducibility"},
        {std::regex(R"(\btime\s*\(\s*(?:NULL|nullptr|0)\s*\))"),
         "time() in simulator code breaks reproducibility"},
        {std::regex(R"((^|[^:\w])clock\s*\(\s*\))"),
         "clock() in simulator code breaks reproducibility"},
    };
    return pats;
}

void
collectNames(const std::vector<std::string> &lines, const std::regex &decl,
             std::vector<std::string> &names)
{
    for (const auto &l : lines) {
        auto begin = std::sregex_iterator(l.begin(), l.end(), decl);
        for (auto it = begin; it != std::sregex_iterator(); ++it)
            names.push_back((*it)[1].str());
    }
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
}

bool
known(const std::vector<std::string> &names, const std::string &n)
{
    return std::binary_search(names.begin(), names.end(), n);
}

} // namespace

std::vector<Finding>
scanTokenRules(const std::string &path, const std::string &content)
{
    const FileScope scope = classifyPath(path);
    const std::vector<std::string> lines =
        splitLines(stripCommentsAndStrings(content));

    std::vector<Finding> findings;
    auto flag = [&](std::size_t line1, Rule rule, const char *what) {
        findings.push_back(Finding{path, line1, rule, what});
    };

    // banned-rng: everywhere except the sanctioned wrapper itself.
    if (!scope.rngExempt) {
        for (std::size_t i = 0; i < lines.size(); ++i) {
            for (const auto &p : bannedRngPatterns()) {
                if (std::regex_search(lines[i], p.re))
                    flag(i + 1, Rule::BannedRng, p.what);
            }
        }
    }

    // The remaining rules only bind inside the simulator proper.
    if (!scope.restricted)
        return findings;

    for (std::size_t i = 0; i < lines.size(); ++i) {
        for (const auto &p : wallClockPatterns()) {
            if (std::regex_search(lines[i], p.re))
                flag(i + 1, Rule::WallClock, p.what);
        }
    }

    // unordered-iter: collect identifiers declared as unordered
    // containers, then flag range-for or begin()-family traversal of
    // them. Point lookups (find / count / erase(key) / operator[])
    // stay legal — only order-exposing traversal is the hazard.
    {
        static const std::regex decl(
            R"(\bunordered_(?:map|set)\s*<[^;{]*>\s*[&*]?\s*(\w+))");
        static const std::regex rangeFor(R"(\bfor\s*\([^;()]*:\s*(\w+)\s*\))");
        static const std::regex beginCall(
            R"((\w+)\s*\.\s*c?r?begin\s*\()");
        static const std::regex inlineUnordered(
            R"(\bfor\s*\([^;()]*:\s*[^)]*unordered_(?:map|set))");
        std::vector<std::string> names;
        collectNames(lines, decl, names);
        for (std::size_t i = 0; i < lines.size(); ++i) {
            const std::string &l = lines[i];
            std::smatch m;
            if (std::regex_search(l, m, rangeFor) && known(names, m[1])) {
                flag(i + 1, Rule::UnorderedIter,
                     "iteration order over unordered containers is "
                     "unspecified; use an ordered container or a sorted "
                     "snapshot, or justify with sim-lint: allow");
            } else if (std::regex_search(l, m, beginCall) &&
                       known(names, m[1])) {
                flag(i + 1, Rule::UnorderedIter,
                     "iterator traversal of an unordered container has "
                     "unspecified order; use an ordered container or "
                     "justify with sim-lint: allow");
            } else if (std::regex_search(l, inlineUnordered)) {
                flag(i + 1, Rule::UnorderedIter,
                     "range-for over an unordered container expression "
                     "has unspecified order");
            }
        }
    }

    // fp-accum: += / -= into a float/double-declared identifier needs
    // a documented iteration order (non-associative addition).
    {
        static const std::regex decl(R"(\b(?:double|float)\s+(\w+)\b)");
        static const std::regex accum(R"((\w+)\s*[+\-]=)");
        std::vector<std::string> names;
        collectNames(lines, decl, names);
        for (std::size_t i = 0; i < lines.size(); ++i) {
            auto begin = std::sregex_iterator(lines[i].begin(),
                                              lines[i].end(), accum);
            for (auto it = begin; it != std::sregex_iterator(); ++it) {
                if (known(names, (*it)[1].str())) {
                    flag(i + 1, Rule::FpAccum,
                         "floating-point accumulation is "
                         "non-associative; document the iteration "
                         "order with an allow(fp-accum) waiver "
                         "comment stating why it is deterministic");
                }
            }
        }
    }

    return findings;
}

std::vector<Finding>
lintSource(const std::string &path, const std::string &content)
{
    std::vector<Allow> allows = collectAllows(splitLines(content));
    return applySuppressions(scanTokenRules(path, content), allows);
}

bool
lintFile(const std::string &path, std::vector<Finding> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    std::vector<Finding> f = lintSource(path, ss.str());
    out.insert(out.end(), f.begin(), f.end());
    return true;
}

std::vector<std::string>
listSources(const std::string &root)
{
    namespace fs = std::filesystem;
    std::vector<std::string> paths;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(root, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file())
            continue;
        const std::string ext = it->path().extension().string();
        if (ext == ".hh" || ext == ".cc" || ext == ".hpp" || ext == ".cpp")
            paths.push_back(it->path().generic_string());
    }
    // directory_iterator order is unspecified — the linter holds
    // itself to the determinism bar it enforces.
    std::sort(paths.begin(), paths.end());
    return paths;
}

std::size_t
lintTree(const std::string &root, std::vector<Finding> &out)
{
    std::size_t scanned = 0;
    for (const auto &p : listSources(root)) {
        if (lintFile(p, out))
            ++scanned;
    }
    return scanned;
}

} // namespace simlint
} // namespace laperm
