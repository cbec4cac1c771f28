/**
 * @file
 * Error/status reporting helpers following the gem5 idiom: panic() for
 * simulator bugs, fatal() for user errors, warn()/inform() for status.
 */

#ifndef LAPERM_COMMON_LOG_HH
#define LAPERM_COMMON_LOG_HH

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

namespace laperm {

/** Terminate with abort(); use for internal invariant violations. */
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);

/**
 * Terminate with exit(1); use for user-caused errors (bad config).
 * Throws FatalError instead while a FatalThrows scope is alive on the
 * calling thread.
 */
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);

/**
 * A user-caused error raised inside a FatalThrows scope. It keeps the
 * file and line of the laperm_fatal that first raised it, which a
 * re-raise on another thread (rethrowHere) prints.
 */
class FatalError : public std::runtime_error
{
  public:
    FatalError(const char *file, int line, const std::string &msg)
        : std::runtime_error(msg), file_(file), line_(line)
    {
    }
    const char *file() const { return file_; }
    int line() const { return line_; }

  private:
    const char *file_; ///< a __FILE__ literal
    int line_;
};

/**
 * While alive, laperm_fatal on this thread throws FatalError instead
 * of ending the process. Every ThreadPool job runs in one, so a job's
 * error comes back to the thread that waits for the pool.
 */
class FatalThrows
{
  public:
    FatalThrows();
    ~FatalThrows();
    FatalThrows(const FatalThrows &) = delete;
    FatalThrows &operator=(const FatalThrows &) = delete;

  private:
    bool prev_;
};

/**
 * Raise @p error, caught on another thread, on this one. A FatalError
 * goes through fatalImpl with its origin, so this thread's FatalThrows
 * scope decides between throwing and exiting; any other exception is
 * rethrown as it was thrown.
 */
[[noreturn]] void rethrowHere(const std::exception_ptr &error);

/** Print a warning to stderr. */
void warnImpl(const std::string &msg);

/** Print an informational message to stderr. */
void informImpl(const std::string &msg);

/** printf-style formatting into a std::string. */
std::string logFormat(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Enable/disable inform() output (benches silence it). */
void setVerbose(bool verbose);
bool verbose();

} // namespace laperm

#define laperm_panic(...) \
    ::laperm::panicImpl(__FILE__, __LINE__, ::laperm::logFormat(__VA_ARGS__))
#define laperm_fatal(...) \
    ::laperm::fatalImpl(__FILE__, __LINE__, ::laperm::logFormat(__VA_ARGS__))
#define laperm_warn(...) ::laperm::warnImpl(::laperm::logFormat(__VA_ARGS__))
#define laperm_inform(...) ::laperm::informImpl(::laperm::logFormat(__VA_ARGS__))

/** Panic unless @p cond holds; used for internal invariants. */
#define laperm_assert(cond, ...)                                            \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::laperm::panicImpl(__FILE__, __LINE__,                         \
                std::string("assertion failed: " #cond " — ") +            \
                ::laperm::logFormat(__VA_ARGS__));                          \
        }                                                                   \
    } while (0)

#endif // LAPERM_COMMON_LOG_HH
