/**
 * @file
 * Wire protocol of the serving subsystem (DESIGN.md §10.2): one JSON
 * object per line in both directions over a Unix-domain socket.
 *
 * Requests are FLAT objects — string, number, bool, or null values
 * only — which keeps the parser small and the canonicalization rules
 * obvious. Responses are likewise flat; the simulation result payload
 * travels as one escaped string field ("result").
 *
 * Verbs (the "op" field):
 *   run       execute (or serve from cache) one simulation request
 *   stats     service metrics snapshot, fixed field order
 *   ping      liveness + simulator fingerprint + protocol version
 *   shutdown  stop accepting work and exit the daemon
 */

#ifndef LAPERM_SERVE_SERVICE_PROTOCOL_HH
#define LAPERM_SERVE_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <map>
#include <string>

namespace laperm {
namespace serve {

/** Protocol version reported by ping. */
constexpr int kProtocolVersion = 1;

// Verb names, referenced by server dispatch, clients, and
// scripts/docs_check.sh (which keeps DESIGN.md §10 in sync with them).
constexpr const char *kVerbRun = "run";
constexpr const char *kVerbStats = "stats";
constexpr const char *kVerbPing = "ping";
constexpr const char *kVerbShutdown = "shutdown";

/** Response status strings ("status" field). */
constexpr const char *kStatusOk = "ok";
constexpr const char *kStatusOverloaded = "overloaded";
constexpr const char *kStatusTimeout = "timeout";
constexpr const char *kStatusError = "error";

/** One flat JSON value. Numbers keep their raw spelling so 64-bit
 *  integers (seeds, counters) convert without double rounding. */
struct JsonValue
{
    enum class Type
    {
        String,
        Number,
        Bool,
        Null,
    };
    Type type = Type::Null;
    std::string str;    ///< decoded string, or raw number token
    bool boolean = false;
};

/** Deterministically ordered: std::map, not unordered. */
using JsonObject = std::map<std::string, JsonValue>;

/**
 * Parse one flat JSON object. Nested objects/arrays are rejected —
 * the protocol never produces them. Returns false with a diagnostic
 * in @p err on malformed input.
 */
bool parseJsonObject(const std::string &text, JsonObject &out,
                     std::string &err);

/**
 * Append @p s to @p out escaped for a JSON string literal: `"`, `\`,
 * newline, CR and tab become two-byte escapes, and every other byte is
 * copied as it is, a run at a time.
 */
void appendJsonEscaped(std::string &out, const std::string &s);

/** appendJsonEscaped() into a new string. */
std::string jsonEscape(const std::string &s);

/** Fetch a string field; false if absent or not a string. */
bool getString(const JsonObject &obj, const std::string &key,
               std::string &out);

/**
 * Fetch an unsigned 64-bit integer field; false if absent, not a
 * number, negative, fractional or past 2^64-1 (never clamped).
 */
bool getU64(const JsonObject &obj, const std::string &key,
            std::uint64_t &out);

/** {"status":"error","message":...} (or another non-ok status). */
std::string errorResponse(const std::string &status,
                          const std::string &message);

} // namespace serve
} // namespace laperm

#endif // LAPERM_SERVE_SERVICE_PROTOCOL_HH
