/**
 * @file
 * The program's readers of text input: readFile() is its one
 * whole-file read, and forEachTomlLine() its one lexer of the TOML
 * subset that machine configs (sim/config_loader.hh), tenant mix specs
 * (tenant/tenant_spec.hh) and sim-lint's layering spec
 * (tools/lint_layering.hh) are written in. Each of those parsers sees
 * only headers and `key = value` entries, and checks only its own
 * sections, keys, values and duplicate rule.
 *
 * Grammar, one line at a time:
 *
 *   line    := ws (header | entry)? ws comment?
 *   header  := "[" name "]"                ; name trimmed
 *   entry   := key ws "=" ws value          ; split at the first '='
 *   key     := [a-z_][a-z0-9_]*
 *   value   := '"' text '"' | text          ; one pair of quotes removed
 *   comment := "#" .*                       ; the first '#' on a line,
 *                                           ; even inside quotes
 *
 * Blank lines and comment-only lines are skipped; CR before LF is
 * whitespace.
 */

#ifndef LAPERM_COMMON_TEXT_HH
#define LAPERM_COMMON_TEXT_HH

#include <functional>
#include <string>
#include <string_view>

namespace laperm {

/** Read all of @p path into @p out; false if it cannot be opened. */
bool readFile(const std::string &path, std::string &out);

/** One header or entry line of a TOML-subset text. */
struct TomlLine
{
    bool header = false; ///< `[name]`, with the name in key
    std::string key;     ///< section name or entry key
    std::string value;   ///< entry value, unquoted; empty for a header
};

/**
 * Sets its second argument to the reason and returns false to reject
 * a line.
 */
using TomlVisitor = std::function<bool(const TomlLine &, std::string &)>;

/**
 * Lex @p text and hand each header and entry to @p visit in file
 * order. Stops at the first line that is malformed (an unterminated
 * header or string, a missing '=', a malformed key) or that @p visit
 * rejects, and sets @p err to "line N: <reason>".
 */
bool forEachTomlLine(std::string_view text, const TomlVisitor &visit,
                     std::string &err);

} // namespace laperm

#endif // LAPERM_COMMON_TEXT_HH
