#include "workloads/registry.hh"

#include "common/log.hh"
#include "workloads/amr.hh"
#include "workloads/bfs.hh"
#include "workloads/bht.hh"
#include "workloads/chase.hh"
#include "workloads/clr.hh"
#include "workloads/join.hh"
#include "workloads/pre.hh"
#include "workloads/regx.hh"
#include "workloads/sssp.hh"

namespace laperm {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "amr-combustion",
        "bht-points",
        "bfs-citation",
        "bfs-graph500",
        "bfs-cage",
        "clr-citation",
        "clr-graph500",
        "clr-cage",
        "regx-darpa",
        "regx-strings",
        "pre-movielens",
        "join-uniform",
        "join-gaussian",
        "sssp-citation",
        "sssp-graph500",
        "sssp-cage",
    };
    return names;
}

std::unique_ptr<Workload>
createWorkload(const std::string &name)
{
    auto split = name.find('-');
    if (split == std::string::npos)
        laperm_fatal("workload name '%s' is not app-input", name.c_str());
    std::string app = name.substr(0, split);
    std::string input = name.substr(split + 1);

    if (app == "amr")
        return std::make_unique<AmrWorkload>();
    if (app == "bht")
        return std::make_unique<BhtWorkload>();
    // Latency microbenchmark, intentionally absent from workloadNames()
    // so the Table II sweeps and result caches stay paper-faithful.
    if (app == "chase")
        return std::make_unique<ChaseWorkload>(input);
    if (app == "bfs")
        return std::make_unique<BfsWorkload>(input);
    if (app == "clr")
        return std::make_unique<ClrWorkload>(input);
    if (app == "regx")
        return std::make_unique<RegxWorkload>(input);
    if (app == "pre")
        return std::make_unique<PreWorkload>();
    if (app == "join")
        return std::make_unique<JoinWorkload>(input);
    if (app == "sssp")
        return std::make_unique<SsspWorkload>(input);
    laperm_fatal("unknown workload '%s' (known: %s)", name.c_str(),
                 workloadNameList().c_str());
}

bool
isKnownWorkload(const std::string &name)
{
    for (const auto &known : workloadNames()) {
        if (known == name)
            return true;
    }
    return false;
}

std::string
workloadNameList()
{
    std::string out;
    for (const auto &name : workloadNames()) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

} // namespace laperm
