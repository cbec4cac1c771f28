#include "gpu/trace_forest.hh"

#include <iterator>
#include <limits>

#include "common/log.hh"
#include "gpu/thread_block.hh"

namespace laperm {

TraceForest::TraceForest(const std::vector<LaunchRequest> &waves)
    : waves_(waves)
{
    // Launches still to build. Each points into waves_ or into a built
    // node's launch array, both final by then; it receives its node.
    std::vector<LaunchRequest *> todo;
    for (LaunchRequest &wave : waves_)
        todo.push_back(&wave);

    // A launch is built into reused scratch arrays, then copied into
    // its node at its exact size: the forest is what a sweep keeps
    // resident, so no node carries a growing vector's slack.
    ThreadBlock tb;
    std::vector<ThreadCtx> threads;
    std::vector<WarpOp> ops;
    std::vector<Addr> lines;
    std::vector<LaunchRequest> launches;
    while (!todo.empty()) {
        LaunchRequest &req = *todo.back();
        todo.pop_back();
        laperm_assert(req.program != nullptr, "launch without program");
        LaunchTraces &node = launches_.emplace_back();
        node.warpsPerTb = (req.threadsPerTb + kWarpSize - 1) / kWarpSize;
        node.warpOps.reserve(std::size_t(req.numTbs) * node.warpsPerTb +
                             1);
        node.warpOps.push_back(0);
        ops.clear();
        lines.clear();
        launches.clear();
        for (std::uint32_t ix = 0; ix < req.numTbs; ++ix) {
            threadOps_ += buildThreadBlockInto(tb, *req.program, ix,
                                               req.threadsPerTb,
                                               req.numTbs, threads);
            ++tbsBuilt_;
            for (std::uint32_t w = 0; w < node.warpsPerTb; ++w) {
                // Spans still point into tb's arrays; rebased below.
                for (const WarpOp &op : tb.warps[w].ops) {
                    ops.push_back(op);
                    lines.insert(lines.end(), op.lines.begin(),
                                 op.lines.end());
                    launches.insert(launches.end(), op.launches.begin(),
                                    op.launches.end());
                }
                laperm_assert(ops.size() <=
                                  std::numeric_limits<std::uint32_t>::max(),
                              "launch of %zu warp ops", ops.size());
                node.warpOps.push_back(
                    static_cast<std::uint32_t>(ops.size()));
            }
        }
        node.ops.assign(ops.begin(), ops.end());
        node.lines.assign(lines.begin(), lines.end());
        node.launches.assign(std::make_move_iterator(launches.begin()),
                             std::make_move_iterator(launches.end()));

        // Every op's lines and launches follow the previous op's, in
        // op order, so running offsets rebase the spans.
        std::size_t line = 0;
        std::size_t launch = 0;
        for (WarpOp &op : node.ops) {
            op.lines = std::span(node.lines).subspan(line, op.lines.size());
            line += op.lines.size();
            op.launches = std::span(node.launches)
                              .subspan(launch, op.launches.size());
            launch += op.launches.size();
        }
        req.traces = &node;
        for (LaunchRequest &child : node.launches)
            todo.push_back(&child);
    }
}

} // namespace laperm
