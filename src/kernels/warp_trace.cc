#include "kernels/warp_trace.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "common/log.hh"

namespace laperm {

void
zipWarp(WarpTrace &out, std::span<ThreadCtx> lanes)
{
    const std::size_t count = lanes.size();
    laperm_assert(count > 0 && count <= kWarpSize, "warp with %zu threads",
                  count);

    // Per lane: its next op, the end of its trace, and its next launch
    // request (requests are in Launch-op order). Bit l of `live` is set
    // while lane l has ops left, so the loops below skip finished lanes.
    std::array<const ThreadOp *, kWarpSize> cur{};
    std::array<const ThreadOp *, kWarpSize> end{};
    std::array<LaunchRequest *, kWarpSize> launch{};
    std::uint32_t live = 0;
    std::size_t thread_ops = 0;
    std::size_t longest = 0;
    std::size_t launches = 0;
    for (std::size_t l = 0; l < count; ++l) {
        const std::vector<ThreadOp> &ops = lanes[l].ops();
        cur[l] = ops.data();
        end[l] = ops.data() + ops.size();
        launch[l] = lanes[l].launches().data();
        if (!ops.empty())
            live |= 1u << l;
        thread_ops += ops.size();
        longest = std::max(longest, ops.size());
        launches += lanes[l].launches().size();
    }

    // Ops take spans into lines and launches as they go, so those two
    // arrays must not reallocate during the zip: reserve their worst
    // case (one line per thread op, every launch) up front. The op
    // count is at least the longest lane's, exactly that for a warp
    // without divergence.
    out.ops.clear();
    out.lines.clear();
    out.launches.clear();
    out.ops.reserve(longest);
    out.lines.reserve(thread_ops);
    out.launches.reserve(launches);

    auto lowest = [](std::uint32_t mask) {
        return static_cast<std::uint32_t>(std::countr_zero(mask));
    };
    while (live != 0) {
        // Find the leader: the first live lane that is not waiting at a
        // barrier. A barrier only issues when every live lane has
        // reached it (reconvergence), so a TB-wide barrier is counted
        // exactly once per warp.
        std::uint32_t leader = lowest(live); // all live lanes at a bar
        for (std::uint32_t m = live; m != 0; m &= m - 1) {
            const std::uint32_t l = lowest(m);
            if (cur[l]->kind != OpKind::Bar) {
                leader = l;
                break;
            }
        }

        const OpKind kind = cur[leader]->kind;
        WarpOp &op = out.ops.emplace_back();
        op.kind = kind;
        const std::size_t first_line = out.lines.size();
        const std::size_t first_launch = out.launches.size();
        bool ascending = true;

        for (std::uint32_t m = live >> leader << leader; m != 0;
             m &= m - 1) {
            const std::uint32_t l = lowest(m);
            if (cur[l]->kind != kind)
                continue;
            const ThreadOp &top = *cur[l]++;
            if (cur[l] == end[l])
                live &= ~(1u << l);
            ++op.activeLanes;
            switch (kind) {
              case OpKind::Alu:
                op.aluCycles = std::max(op.aluCycles, top.aluCycles);
                break;
              case OpKind::Load:
              case OpKind::Store:
                // Lanes mostly walk memory upward: append in lane order
                // and drop a repeat of the previous line; only a lane
                // that goes backwards costs a sort below.
                if (out.lines.size() == first_line ||
                    top.addr > out.lines.back()) {
                    out.lines.push_back(top.addr);
                } else if (top.addr < out.lines.back()) {
                    ascending = false;
                    out.lines.push_back(top.addr);
                }
                break;
              case OpKind::Launch:
                out.launches.push_back(std::move(*launch[l]++));
                break;
              case OpKind::Bar:
                break;
            }
        }

        if (!ascending) {
            const auto first = out.lines.begin() +
                               static_cast<std::ptrdiff_t>(first_line);
            std::sort(first, out.lines.end());
            out.lines.erase(std::unique(first, out.lines.end()),
                            out.lines.end());
        }
        op.lines = std::span(out.lines).subspan(first_line);
        op.launches = std::span(out.launches).subspan(first_launch);
    }
}

} // namespace laperm
