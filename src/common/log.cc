#include "common/log.hh"

#include <cstdarg>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

namespace laperm {

namespace {
bool g_verbose = true;
/**
 * Serializes stderr emission: the sweep executor calls inform/warn
 * from worker threads, and interleaved vfprintf output (or a torn
 * verbose-flag read) must not corrupt the log.
 */
std::mutex g_logMutex;
} // namespace

void
setVerbose(bool verbose)
{
    std::lock_guard<std::mutex> lock(g_logMutex);
    g_verbose = verbose;
}

bool
verbose()
{
    std::lock_guard<std::mutex> lock(g_logMutex);
    return g_verbose;
}

std::string
logFormat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (len < 0) {
        va_end(args_copy);
        return fmt;
    }
    std::string buf(static_cast<std::size_t>(len), '\0');
    std::vsnprintf(buf.data(), buf.size() + 1, fmt, args_copy);
    va_end(args_copy);
    return buf;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    // No lock: abort() must not block on a logging thread, and a torn
    // line during a crash beats a deadlocked one.
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

namespace {

thread_local bool fatalThrows = false;

} // namespace

FatalThrows::FatalThrows() : prev_(fatalThrows) { fatalThrows = true; }

FatalThrows::~FatalThrows() { fatalThrows = prev_; }

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    if (fatalThrows)
        throw FatalError(file, line, msg);
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
rethrowHere(const std::exception_ptr &error)
{
    try {
        std::rethrow_exception(error);
    } catch (const FatalError &e) {
        fatalImpl(e.file(), e.line(), e.what());
    }
}

void
warnImpl(const std::string &msg)
{
    std::lock_guard<std::mutex> lock(g_logMutex);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    std::lock_guard<std::mutex> lock(g_logMutex);
    if (g_verbose)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace laperm
