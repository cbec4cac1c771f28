#include "obs/locality.hh"

#include <cstdio>

#include "common/text.hh"

namespace laperm {
namespace obs {

const char *
toString(ReuseClass c)
{
    switch (c) {
      case ReuseClass::Self:
        return "self";
      case ReuseClass::Parent:
        return "parent";
      case ReuseClass::Child:
        return "child";
      case ReuseClass::Sibling:
        return "sibling";
      case ReuseClass::Other:
        return "other";
    }
    return "unknown";
}

LocalityTracker::LocalityTracker(std::uint32_t num_l1)
    : l1Lines_(num_l1)
{
}

ReuseClass
LocalityTracker::classify(const Toucher &prev, const MemAccessor &who)
{
    if (prev.uid == who.uid)
        return ReuseClass::Self;
    if (who.isDynamic && prev.uid == who.directParent)
        return ReuseClass::Parent;
    if (prev.parent == who.uid)
        return ReuseClass::Child;
    if (who.isDynamic && prev.parent == who.directParent)
        return ReuseClass::Sibling;
    return ReuseClass::Other;
}

void
LocalityTracker::account(LineMap &lines, LocalityCounters &counters,
                         Addr line, bool hit, const MemAccessor &who)
{
    Toucher &prev = lines[line];
    if (hit) {
        // First-touch hits cannot happen (a hit implies an earlier
        // access installed the line, which recorded a toucher), so
        // prev is always meaningful here.
        ReuseClass c = classify(prev, who);
        ++counters.byClass[static_cast<std::uint32_t>(c)];
    }
    prev.uid = who.uid;
    prev.parent = who.directParent;
}

void
LocalityTracker::onL1Access(std::uint32_t l1_index, Addr line, bool hit,
                            const MemAccessor &who)
{
    account(l1Lines_[l1_index], l1_, line, hit, who);
}

void
LocalityTracker::onL2Access(Addr line, bool hit, const MemAccessor &who)
{
    account(l2Lines_, l2_, line, hit, who);
}

bool
LocalityTracker::writeTsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "level\tclass\thits\tshare\n");
    const struct
    {
        const char *level;
        const LocalityCounters &c;
    } levels[] = {{"l1", l1_}, {"l2", l2_}};
    for (const auto &lv : levels) {
        const std::uint64_t total = lv.c.total();
        for (std::uint32_t i = 0; i < kNumReuseClasses; ++i) {
            const std::uint64_t n = lv.c.byClass[i];
            const double share =
                total ? static_cast<double>(n) /
                            static_cast<double>(total)
                      : 0.0;
            std::fprintf(f, "%s\t%s\t%llu\t%.4f\n", lv.level,
                         toString(static_cast<ReuseClass>(i)),
                         static_cast<unsigned long long>(n), share);
        }
    }
    return closeWritten(f);
}

} // namespace obs
} // namespace laperm
