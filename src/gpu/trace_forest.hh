/**
 * @file
 * A trace forest: one node per launch of a workload's host waves and,
 * recursively, of every launch their TBs make (kernels/warp_trace.hh).
 * It is the only source of warps: every TB a Gpu dispatches replays a
 * node. A TB's trace depends only on its program, index and launch
 * shape, never on when, where or by which thread it is built, so every
 * way of building a forest gives the same bytes.
 *
 * One function builds a node; four drivers call it:
 *  - buildAll() builds the whole forest, which a sweep then shares
 *    among its cells;
 *  - buildAhead() runs on a second thread beside a private run and
 *    builds ahead of dispatch, up to a byte budget;
 *  - ensure() runs on the simulation thread at dispatch: it builds an
 *    unbuilt node itself and waits only for one being built elsewhere;
 *  - retire() frees a private run's node once its last TB retires.
 */

#ifndef LAPERM_GPU_TRACE_FOREST_HH
#define LAPERM_GPU_TRACE_FOREST_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "kernels/isa.hh"
#include "kernels/warp_trace.hh"

namespace laperm {

class TraceForest
{
  public:
    /**
     * The heap that nodes buildAhead built and the run has not retired
     * may hold before it pauses. It bounds how far ahead the builder
     * runs, not the forest: node headers (about 150 bytes per launch)
     * live as long as the forest, whichever thread built them, and are
     * not counted.
     */
    static constexpr std::size_t kBuildAheadBytes = std::size_t(32) << 20;

    /** Work one ensure() call did on the calling thread. */
    struct Built
    {
        std::uint64_t tbs = 0;
        std::uint64_t threadOps = 0;
    };

    /** Who built what, and what the builds held; read after the run. */
    struct Counts
    {
        std::uint64_t nodesAhead = 0;    ///< by buildAll / buildAhead
        std::uint64_t nodesOnDemand = 0; ///< by ensure
        /** ensure() calls that waited for another thread's build. */
        std::uint64_t waits = 0;
        std::size_t peakLiveBytes = 0;  ///< built, not yet retired
        std::size_t peakAheadBytes = 0; ///< of those, built ahead
        std::size_t largestNodeBytes = 0;
    };

    /** An empty forest; adopt() adds its roots (a Gpu's own forest). */
    TraceForest();
    /** A forest over @p waves, every node unbuilt. */
    explicit TraceForest(const std::vector<LaunchRequest> &waves);
    ~TraceForest();

    TraceForest(const TraceForest &) = delete;
    TraceForest &operator=(const TraceForest &) = delete;

    /**
     * Add @p req, which has no traces, as an unbuilt root; returns it
     * pointing at that root. Not concurrent with buildAhead().
     */
    LaunchRequest adopt(const LaunchRequest &req);

    /**
     * The host waves, each carrying its root: what a run launches
     * instead of the workload's own waves.
     */
    const std::vector<LaunchRequest> &waves() const { return waves_; }

    /** Build every node not yet built, on the calling thread. */
    void buildAll();

    /**
     * Build wave by wave, breadth-first within a wave, skipping nodes
     * another thread has claimed. Between nodes, pause while the nodes
     * this driver built and the run has not retired hold more than
     * @p budget bytes, so a node in progress always completes, and
     * resume once they hold half of it. Between nodes it also frees
     * the arrays of the nodes retired meanwhile. Returns when stop() is
     * called or every node is built. Any thread may run it, one at a
     * time.
     */
    void buildAhead(std::size_t budget = kBuildAheadBytes);

    /** Make buildAhead() return after the node it is building. */
    void stop();

    /**
     * Make @p node Ready: return at once if it is, build it if it is
     * unbuilt, wait if another thread is building it. The simulation
     * thread's driver, run at dispatch.
     */
    Built ensure(LaunchTraces &node);

    /**
     * Free @p node's arrays once a private run's last TB of it has
     * retired, returning their bytes to the budget: here, or on the
     * builder's thread, which allocated them, while buildAhead runs.
     * Its children stay: a pending launch holds its own copy of their
     * requests.
     */
    void retire(LaunchTraces &node);

    /** TBs built so far, each exactly once, by any driver. */
    std::uint64_t tbsBuilt() const
    {
        return tbsBuilt_.load(std::memory_order_relaxed);
    }
    /** Thread ops the programs emitted while building them. */
    std::uint64_t threadOps() const
    {
        return threadOps_.load(std::memory_order_relaxed);
    }
    /** Per-driver counts; they depend on thread timing. */
    Counts counts() const;

  private:
    struct Scratch;

    /** Claim @p node for this thread if it is unbuilt. */
    static bool claim(LaunchTraces &node);
    /** Build a claimed node and publish it Ready. */
    Built build(LaunchTraces &node, Scratch &scratch, bool ahead);
    /** Pause for the budget; false once stopped. */
    bool waitForBudget(std::size_t budget);
    /** Wake a paused buildAhead to look at the budget again. */
    void wakeBuilder();
    /** Free the arrays of the nodes retired while buildAhead ran. */
    void freeRetired();

    std::vector<LaunchRequest> waves_;
    /** The roots; a deque, so they never move. */
    std::deque<LaunchTraces> roots_;
    /** ensure()'s build scratch, simulation thread only. */
    std::unique_ptr<Scratch> onDemand_;

    std::atomic<std::uint64_t> tbsBuilt_{0};
    std::atomic<std::uint64_t> threadOps_{0};
    std::atomic<std::uint64_t> nodesAhead_{0};
    std::atomic<std::uint64_t> nodesOnDemand_{0};
    std::atomic<std::uint64_t> waits_{0};

    // Heap of built, unretired nodes: all of them, and those built
    // ahead (the budget's count), with their peaks.
    std::atomic<std::size_t> liveBytes_{0};
    std::atomic<std::size_t> aheadBytes_{0};
    std::atomic<std::size_t> peakLiveBytes_{0};
    std::atomic<std::size_t> peakAheadBytes_{0};
    std::atomic<std::size_t> largestNodeBytes_{0};

    std::atomic<bool> stopped_{false};
    /** A buildAhead is running: it frees retired nodes' arrays. */
    std::atomic<bool> building_{false};
    /** Retired nodes whose arrays buildAhead frees, a stack. */
    std::atomic<LaunchTraces *> retired_{nullptr};
    /** The aheadBytes_ at which a paused buildAhead resumes. */
    std::atomic<std::size_t> resumeAt_{0};
    /**
     * Bumped by every event a paused buildAhead waits for (a retire
     * that takes aheadBytes_ to resumeAt_, stop()), so it sleeps on one
     * word and misses none of them.
     */
    std::atomic<std::uint32_t> budgetEpoch_{0};
};

} // namespace laperm

#endif // LAPERM_GPU_TRACE_FOREST_HH
