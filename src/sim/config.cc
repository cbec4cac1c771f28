#include "sim/config.hh"

#include <cstddef>

#include "common/log.hh"

namespace laperm {

const char *
toString(DynParModel model)
{
    switch (model) {
      case DynParModel::CDP: return "CDP";
      case DynParModel::DTBL: return "DTBL";
    }
    return "?";
}

const char *
toString(TbPolicy policy)
{
    switch (policy) {
      case TbPolicy::RR: return "RR";
      case TbPolicy::TbPri: return "TB-Pri";
      case TbPolicy::SmxBind: return "SMX-Bind";
      case TbPolicy::AdaptiveBind: return "Adaptive-Bind";
    }
    return "?";
}

const char *
toString(WarpPolicy policy)
{
    switch (policy) {
      case WarpPolicy::GTO: return "GTO";
      case WarpPolicy::LRR: return "LRR";
      case WarpPolicy::TbAware: return "TB-aware";
    }
    return "?";
}

const char *
toString(TickMode mode)
{
    switch (mode) {
      case TickMode::Dense: return "dense";
      case TickMode::Event: return "event";
    }
    return "?";
}

namespace {

template <typename E>
struct Spelling
{
    E value;
    const char *name;
};

// Canonical spelling first for each value; later rows are aliases.
constexpr Spelling<DynParModel> kModelNames[] = {
    {DynParModel::CDP, "cdp"},
    {DynParModel::DTBL, "dtbl"},
};
constexpr Spelling<TbPolicy> kPolicyNames[] = {
    {TbPolicy::RR, "rr"},
    {TbPolicy::TbPri, "tbpri"},
    {TbPolicy::SmxBind, "smxbind"},
    {TbPolicy::AdaptiveBind, "adaptive"},
    {TbPolicy::AdaptiveBind, "laperm"},
};
constexpr Spelling<WarpPolicy> kWarpNames[] = {
    {WarpPolicy::GTO, "gto"},
    {WarpPolicy::LRR, "lrr"},
    {WarpPolicy::TbAware, "tbaware"},
};
constexpr Spelling<TickMode> kTickNames[] = {
    {TickMode::Event, "event"},
    {TickMode::Dense, "dense"},
};

template <typename E, std::size_t N>
const char *
nameOf(const Spelling<E> (&table)[N], E value)
{
    for (const Spelling<E> &s : table)
        if (s.value == value)
            return s.name;
    return "?";
}

template <typename E, std::size_t N>
bool
valueOf(const Spelling<E> (&table)[N], const std::string &name, E &out)
{
    for (const Spelling<E> &s : table) {
        if (name == s.name) {
            out = s.value;
            return true;
        }
    }
    return false;
}

template <typename E, std::size_t N>
std::string
listOf(const Spelling<E> (&table)[N])
{
    std::string out;
    for (const Spelling<E> &s : table) {
        if (nameOf(table, s.value) != s.name)
            continue; // alias
        if (!out.empty())
            out += '|';
        out += s.name;
    }
    return out;
}

} // namespace

// wireName, parseWireName and wireNameList of one run enum, over its
// table.
#define LAPERM_WIRE_NAMES(ENUM, TABLE)                                       \
    const char *wireName(ENUM value) { return nameOf(TABLE, value); }        \
    bool parseWireName(const std::string &s, ENUM &out)                      \
    {                                                                        \
        return valueOf(TABLE, s, out);                                       \
    }                                                                        \
    template <> std::string wireNameList<ENUM>() { return listOf(TABLE); }

LAPERM_WIRE_NAMES(DynParModel, kModelNames)
LAPERM_WIRE_NAMES(TbPolicy, kPolicyNames)
LAPERM_WIRE_NAMES(WarpPolicy, kWarpNames)
LAPERM_WIRE_NAMES(TickMode, kTickNames)

#undef LAPERM_WIRE_NAMES

std::uint32_t
GpuConfig::effectiveOnchipEntries() const
{
    // For CDP the number of on-chip priority-queue entries per SMX is
    // limited to the KDU entry count (Section IV-E).
    if (dynParModel == DynParModel::CDP)
        return std::min(onchipQueueEntries, kduEntries);
    return onchipQueueEntries;
}

std::string
GpuConfig::check() const
{
    if (numSmx == 0)
        return "numSmx must be > 0";
    if (maxThreadsPerSmx == 0 || maxThreadsPerSmx % kWarpSize != 0)
        return "maxThreadsPerSmx must be a multiple of the warp size";
    if (maxTbsPerSmx == 0)
        return "maxTbsPerSmx must be > 0";
    if (warpSchedulersPerSmx == 0)
        return "warpSchedulersPerSmx must be > 0";
    // A zero size divides evenly but leaves a cache with no sets.
    if (l1Size == 0 || l2Size == 0)
        return "L1 and L2 sizes must be > 0";
    if (l1Assoc == 0 || l1Size % (l1Assoc * kLineBytes) != 0)
        return logFormat("L1 size %u not divisible by assoc*line", l1Size);
    if (l2Assoc == 0 || l2Size % (l2Assoc * kLineBytes) != 0)
        return logFormat("L2 size %u not divisible by assoc*line", l2Size);
    if (l2Banks == 0)
        return "l2Banks must be > 0";
    if (dramChannels == 0 || dramBanksPerChannel == 0)
        return "dramChannels and dramBanksPerChannel must be > 0";
    if (kduEntries == 0)
        return "kduEntries must be > 0";
    if (maxPriorityLevels == 0)
        return "maxPriorityLevels must be >= 1";
    if (smxPerCluster == 0 || numSmx % smxPerCluster != 0)
        return "numSmx must be divisible by smxPerCluster";
    if (warpMlpWindow == 0)
        return "warpMlpWindow must be > 0";
    if (mshrTrimInterval == 0)
        return "mshrTrimInterval must be > 0";
    if (throttleHighMiss < 0.0 || throttleHighMiss > 1.0 ||
        throttleLowMiss < 0.0 || throttleLowMiss > 1.0 ||
        throttleLowMiss > throttleHighMiss) {
        return "throttle miss thresholds must satisfy "
               "0 <= low <= high <= 1";
    }
    return std::string();
}

void
GpuConfig::validate() const
{
    const std::string err = check();
    if (!err.empty())
        laperm_fatal("%s", err.c_str());
}

std::string
GpuConfig::summary() const
{
    return logFormat(
        "%u SMX, %u thr/SMX, %u TB/SMX, L1 %uKB, L2 %uKB, KDU %u, "
        "%s/%s, L=%u",
        numSmx, maxThreadsPerSmx, maxTbsPerSmx, l1Size / 1024,
        l2Size / 1024, kduEntries, toString(dynParModel),
        toString(tbPolicy), maxPriorityLevels);
}

} // namespace laperm
