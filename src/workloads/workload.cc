#include "workloads/workload.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/log.hh"

namespace laperm {

const char *
toString(Scale scale)
{
    switch (scale) {
      case Scale::Tiny: return "tiny";
      case Scale::Small: return "small";
      case Scale::Full: return "full";
      case Scale::Huge: return "huge";
    }
    return "?";
}

bool
parseScale(const std::string &name, Scale &out)
{
    std::string s = name;
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    for (Scale scale : {Scale::Tiny, Scale::Small, Scale::Full,
                        Scale::Huge}) {
        if (s == toString(scale)) {
            out = scale;
            return true;
        }
    }
    return false;
}

const char *
scaleNameList()
{
    return "tiny|small|full|huge";
}

Scale
scaleFromString(const std::string &name)
{
    Scale scale = Scale::Small;
    if (!parseScale(name, scale))
        laperm_fatal("unknown scale '%s' (want %s)", name.c_str(),
                     scaleNameList());
    return scale;
}

void
WorkloadBase::setMemoryBase(Addr base)
{
    laperm_assert(waves_.empty() && mem_.regions().empty(),
                  "setMemoryBase must precede setup()");
    mem_ = BumpAllocator(base);
}

Scale
scaleFromEnv(Scale def)
{
    const char *env = std::getenv("LAPERM_SCALE");
    if (!env || !*env)
        return def;
    return scaleFromString(env);
}

} // namespace laperm
