#include "common/text.hh"

#include <cctype>
#include <fstream>
#include <iterator>

namespace laperm {

namespace {

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
        s.remove_prefix(1);
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
        s.remove_suffix(1);
    return s;
}

bool
validKey(std::string_view k)
{
    if (k.empty() || (k[0] >= '0' && k[0] <= '9'))
        return false;
    for (const char c : k) {
        if (!(c == '_' || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')))
            return false;
    }
    return true;
}

/** Lex one trimmed, non-empty, comment-free line. */
bool
lexLine(std::string_view line, TomlLine &out, std::string &why)
{
    if (line.front() == '[') {
        if (line.back() != ']') {
            why = "unterminated section header";
            return false;
        }
        out.header = true;
        out.key = trim(line.substr(1, line.size() - 2));
        return true;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
        why = "expected 'key = value'";
        return false;
    }
    out.key = trim(line.substr(0, eq));
    if (!validKey(out.key)) {
        why = "malformed key '" + out.key + "'";
        return false;
    }
    std::string_view value = trim(line.substr(eq + 1));
    if (!value.empty() && value.front() == '"') {
        if (value.size() < 2 || value.back() != '"') {
            why = "unterminated string for '" + out.key + "'";
            return false;
        }
        value = value.substr(1, value.size() - 2);
    }
    out.value = value;
    return true;
}

} // namespace

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    out.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    return true;
}

bool
forEachTomlLine(std::string_view text, const TomlVisitor &visit,
                std::string &err)
{
    for (int number = 1; !text.empty(); ++number) {
        const std::size_t nl = text.find('\n');
        std::string_view line = text.substr(0, nl);
        text.remove_prefix(nl == std::string_view::npos ? text.size()
                                                        : nl + 1);
        line = trim(line.substr(0, line.find('#')));
        if (line.empty())
            continue;
        TomlLine lexed;
        std::string why;
        if (!lexLine(line, lexed, why) || !visit(lexed, why)) {
            err = "line " + std::to_string(number) + ": " + why;
            return false;
        }
    }
    return true;
}

} // namespace laperm
