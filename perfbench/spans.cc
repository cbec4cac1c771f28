#include "spans.hh"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now())
{
}

int
SpanLog::open(const std::string &name, int parent, std::int64_t op_id)
{
    if (!enabled_)
        return -1;
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - origin_)
            .count();
    const std::size_t tid =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::lock_guard<std::mutex> lock(mu_);
    auto lane = threads_.try_emplace(
        tid, static_cast<unsigned>(threads_.size()));
    spans_.push_back({name, now, now, parent, op_id, lane.first->second});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::close(int index)
{
    if (index < 0)
        return;
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - origin_)
            .count();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].endNs = now;
}

double
SpanLog::selfSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Children may run in parallel on a pool, so subtract the union of
    // their intervals, not the sum of their durations.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans_.size());
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.startNs,
                                                                  s.endNs);
    }
    std::int64_t ns = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name != name)
            continue;
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = spans_[i].startNs;
        for (const auto &[lo, hi] : iv) {
            const std::int64_t from = std::max(lo, reach);
            const std::int64_t to = std::min(hi, spans_[i].endNs);
            if (to > from) {
                covered += to - from;
                reach = to;
            }
        }
        ns += spans_[i].endNs - spans_[i].startNs - covered;
    }
    return static_cast<double>(ns) * 1e-9;
}

double
SpanLog::totalSeconds(const std::string &name) const
{
    double sum = 0.0;
    for (double d : durations(name))
        sum += d;
    return sum;
}

std::vector<double>
SpanLog::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name)
            out.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-9);
    }
    return out;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
            << ",\"ts\":" << static_cast<double>(s.startNs) / 1e3
            << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"op\":" << s.opId << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

} // namespace perfbench
