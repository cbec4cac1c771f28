#include "serve/service/protocol.hh"

#include <array>
#include <cctype>

#include "common/parse_uint.hh"

namespace laperm {
namespace serve {

namespace {

struct Cursor
{
    const std::string &s;
    std::size_t i = 0;

    bool eof() const { return i >= s.size(); }
    char peek() const { return s[i]; }

    void skipWs()
    {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i]))) {
            ++i;
        }
    }
};

bool
parseString(Cursor &c, std::string &out, std::string &err)
{
    if (c.eof() || c.peek() != '"') {
        err = "expected string";
        return false;
    }
    ++c.i;
    out.clear();
    while (!c.eof()) {
        // Copy the run of plain characters up to the next '"' or '\\'
        // in one append.
        std::size_t end = c.i;
        while (end < c.s.size() && c.s[end] != '"' && c.s[end] != '\\')
            ++end;
        out.append(c.s, c.i, end - c.i);
        c.i = end;
        if (c.eof())
            break;
        if (c.s[c.i++] == '"')
            return true;
        if (c.eof()) {
            err = "dangling escape";
            return false;
        }
        switch (c.s[c.i++]) {
        case '"':
            out += '"';
            break;
        case '\\':
            out += '\\';
            break;
        case '/':
            out += '/';
            break;
        case 'b':
            out += '\b';
            break;
        case 'f':
            out += '\f';
            break;
        case 'n':
            out += '\n';
            break;
        case 'r':
            out += '\r';
            break;
        case 't':
            out += '\t';
            break;
        default:
            // \uXXXX never appears in this protocol's traffic.
            err = "unsupported escape";
            return false;
        }
    }
    err = "unterminated string";
    return false;
}

bool
parseValue(Cursor &c, JsonValue &out, std::string &err)
{
    c.skipWs();
    if (c.eof()) {
        err = "expected value";
        return false;
    }
    const char ch = c.peek();
    if (ch == '"') {
        out.type = JsonValue::Type::String;
        return parseString(c, out.str, err);
    }
    if (ch == '{' || ch == '[') {
        err = "nested objects/arrays are not part of the protocol";
        return false;
    }
    if (ch == 't' || ch == 'f') {
        const char *word = ch == 't' ? "true" : "false";
        const std::size_t len = ch == 't' ? 4 : 5;
        if (c.s.compare(c.i, len, word) != 0) {
            err = "bad literal";
            return false;
        }
        c.i += len;
        out.type = JsonValue::Type::Bool;
        out.boolean = ch == 't';
        return true;
    }
    if (ch == 'n') {
        if (c.s.compare(c.i, 4, "null") != 0) {
            err = "bad literal";
            return false;
        }
        c.i += 4;
        out.type = JsonValue::Type::Null;
        return true;
    }
    // Number: capture the raw token; validation happens at access.
    const std::size_t start = c.i;
    if (ch == '-')
        ++c.i;
    bool digits = false;
    while (!c.eof()) {
        const char d = c.peek();
        if (std::isdigit(static_cast<unsigned char>(d))) {
            digits = true;
            ++c.i;
        } else if (d == '.' || d == 'e' || d == 'E' || d == '+' ||
                   d == '-') {
            ++c.i;
        } else {
            break;
        }
    }
    if (!digits) {
        err = "expected value";
        return false;
    }
    out.type = JsonValue::Type::Number;
    out.str = c.s.substr(start, c.i - start);
    return true;
}

} // namespace

bool
parseJsonObject(const std::string &text, JsonObject &out, std::string &err)
{
    Cursor c{text};
    c.skipWs();
    if (c.eof() || c.peek() != '{') {
        err = "expected '{'";
        return false;
    }
    ++c.i;
    out.clear();
    c.skipWs();
    if (!c.eof() && c.peek() == '}') {
        ++c.i;
    } else {
        for (;;) {
            c.skipWs();
            std::string key;
            if (!parseString(c, key, err))
                return false;
            c.skipWs();
            if (c.eof() || c.peek() != ':') {
                err = "expected ':'";
                return false;
            }
            ++c.i;
            JsonValue v;
            if (!parseValue(c, v, err))
                return false;
            if (!out.emplace(key, std::move(v)).second) {
                err = "duplicate key '" + key + "'";
                return false;
            }
            c.skipWs();
            if (c.eof()) {
                err = "unterminated object";
                return false;
            }
            if (c.peek() == ',') {
                ++c.i;
                continue;
            }
            if (c.peek() == '}') {
                ++c.i;
                break;
            }
            err = "expected ',' or '}'";
            return false;
        }
    }
    c.skipWs();
    if (!c.eof()) {
        err = "trailing characters after object";
        return false;
    }
    return true;
}

void
appendJsonEscaped(std::string &out, const std::string &s)
{
    // The letter after the backslash of each escaped byte; 0 for a
    // byte copied as it is. One table load per byte scans a payload
    // about three times as fast as a switch.
    static constexpr std::array<char, 256> kEscapeOf = [] {
        std::array<char, 256> t{};
        t['"'] = '"';
        t['\\'] = '\\';
        t['\n'] = 'n';
        t['\r'] = 'r';
        t['\t'] = 't';
        return t;
    }();
    const char *run = s.data();
    const char *const end = run + s.size();
    for (const char *p = run; p != end; ++p) {
        const char letter = kEscapeOf[static_cast<unsigned char>(*p)];
        if (letter == 0)
            continue;
        out.append(run, p);
        out += '\\';
        out += letter;
        run = p + 1;
    }
    out.append(run, end);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    appendJsonEscaped(out, s);
    return out;
}

bool
getString(const JsonObject &obj, const std::string &key, std::string &out)
{
    auto it = obj.find(key);
    if (it == obj.end() || it->second.type != JsonValue::Type::String)
        return false;
    out = it->second.str;
    return true;
}

bool
getU64(const JsonObject &obj, const std::string &key, std::uint64_t &out)
{
    auto it = obj.find(key);
    if (it == obj.end() || it->second.type != JsonValue::Type::Number)
        return false;
    return parseUInt(it->second.str, UINT64_MAX, out);
}

std::string
errorResponse(const std::string &status, const std::string &message)
{
    return "{\"status\":\"" + jsonEscape(status) + "\",\"message\":\"" +
           jsonEscape(message) + "\"}";
}

} // namespace serve
} // namespace laperm
