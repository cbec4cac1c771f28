/**
 * @file
 * Wall-clock spans recorded by the benchmark around its calls into the
 * simulator's layers. Spans live in memory while the workload runs and
 * are written out once at the end; per-layer self times are derived
 * from them (a span's duration minus the part its children cover).
 *
 * Recording is off unless the run is traced, so the end-to-end numbers
 * never pay for it: a disabled SpanLog hands out inert scopes.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

struct Span
{
    std::string name;
    std::int64_t startNs = 0; ///< relative to the log's origin
    std::int64_t endNs = 0;
    int parent = -1;          ///< index into the log, -1 for a root
    std::int64_t opId = -1;   ///< cell or request id, -1 when none
    unsigned thread = 0;      ///< recording thread, for the trace view
};

class SpanLog
{
  public:
    explicit SpanLog(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span; returns its index (or -1 when disabled). */
    int open(const std::string &name, int parent, std::int64_t op_id);
    void close(int index);

    /** Sum over spans named @p name of their self time, in seconds. */
    double selfSeconds(const std::string &name) const;
    /** Sum over spans named @p name of their duration, in seconds. */
    double totalSeconds(const std::string &name) const;
    /** Durations (seconds) of every span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Write every span as Chrome trace JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mu_; ///< guards spans_ and threads_
    std::vector<Span> spans_;
    std::map<std::size_t, unsigned> threads_; ///< thread id hash -> lane
};

/** RAII span; inert when the log is disabled. */
class Scope
{
  public:
    Scope(SpanLog &log, const std::string &name, int parent = -1,
          std::int64_t op_id = -1)
        : log_(log), index_(log.open(name, parent, op_id))
    {
    }
    ~Scope() { log_.close(index_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int index() const { return index_; }

  private:
    SpanLog &log_;
    int index_;
};

/** Linear-interpolated quantile (q in [0,1]) of @p v; 0 when empty. */
double quantile(std::vector<double> v, double q);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
