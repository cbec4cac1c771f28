/**
 * @file
 * A trace forest: one node per launch of a workload's host waves and,
 * recursively, of every launch their TBs make (kernels/warp_trace.hh).
 * It is the only source of warps: every TB a Gpu dispatches replays a
 * node. A TB's trace depends only on its program, index and launch
 * shape, never on when, where or by which thread it is built, so every
 * way of building a forest gives the same bytes.
 *
 * A forest is private to one run, which frees each node with its last
 * TB, or shared by a sweep input's concurrent cells, which retire
 * nothing; the last owner frees a shared forest whole.
 *
 * One function builds a node; four drivers call it:
 *  - buildAll() builds the whole forest (tests and benchmarks);
 *  - buildAhead() runs on a builder thread beside the runs and builds
 *    ahead of their dispatch, up to a byte budget: a private run's
 *    forest, or a sweep's shared ones one after another;
 *  - ensure() runs on a simulation thread at dispatch: it builds an
 *    unbuilt node itself, into its own scratch, and waits only for one
 *    being built elsewhere;
 *  - retire() frees a private run's node once its last TB retires.
 */

#ifndef LAPERM_GPU_TRACE_FOREST_HH
#define LAPERM_GPU_TRACE_FOREST_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "gpu/thread_block.hh"
#include "kernels/isa.hh"
#include "kernels/warp_trace.hh"

namespace laperm {

class TraceForest
{
  public:
    /**
     * The heap that nodes buildAhead built and the run has not retired
     * may hold before it pauses; for a shared forest, what it may build
     * before the first run starts. It bounds how far ahead the builder
     * runs, not the forest: node headers (about 150 bytes per launch)
     * live as long as the forest, whichever thread built them, and are
     * not counted.
     */
    static constexpr std::size_t kBuildAheadBytes = std::size_t(32) << 20;

    /** Who replays a forest. */
    enum class Sharing
    {
        /** One run, which frees each node with its last TB (retire). */
        Private,
        /** A sweep input's concurrent cells; nothing retires. */
        Shared,
    };

    /**
     * One thread's build arrays, reused across its nodes. A launch is
     * built into them, then copied into its node at its exact size, so
     * no node carries a growing vector's slack. Every thread that
     * builds brings its own: buildAhead has one, a Gpu another.
     */
    struct Scratch
    {
        ThreadBlock tb;
        std::vector<ThreadCtx> threads;
        std::vector<WarpOp> ops;
        std::vector<Addr> lines;
        std::vector<LaunchRequest> launches;
    };

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

    /** An empty private forest; adopt() adds its roots (a Gpu's own). */
    TraceForest();
    /** A forest over @p waves, every node unbuilt. */
    explicit TraceForest(const std::vector<LaunchRequest> &waves,
                         Sharing sharing = Sharing::Private);
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

    /** Whether the forest is shared (nothing retires). */
    bool shared() const { return shared_; }

    /** Build every node not yet built, on the calling thread. */
    void buildAll();

    /**
     * Build wave by wave, breadth-first within a wave, skipping nodes
     * another thread has claimed. Between nodes, pause while the nodes
     * this driver built and the run has not retired hold more than
     * @p budget bytes, so a node in progress always completes, and
     * resume once they hold half of it. A shared forest retires
     * nothing: it pauses only until its first run starts, and then
     * builds the rest. Between nodes it also frees the arrays of the
     * nodes retired meanwhile. Returns when stop() is called or every
     * node is built. Any thread may run it, one at a time.
     */
    void buildAhead(std::size_t budget = kBuildAheadBytes);

    /**
     * A run of this forest starts (Gpu::runForest): a shared forest's
     * builder stops counting its bytes, and a paused one resumes.
     */
    void start();

    /**
     * Block until a run starts; false if stop() comes first. A builder
     * of several forests waits here before it starts the next one.
     */
    bool awaitStart();

    /**
     * Make buildAhead() return after the node it is building, and
     * awaitStart() at once.
     */
    void stop();

    /**
     * Make @p node Ready: return at once if it is, build it into
     * @p scratch if it is unbuilt, wait if another thread is building
     * it. A simulation thread's driver, run at dispatch; the cells of
     * a shared forest call it concurrently, each with its own scratch.
     */
    Built ensure(LaunchTraces &node, Scratch &scratch);

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

    const bool shared_ = false;
    std::vector<LaunchRequest> waves_;
    /** The roots; a deque, so they never move. */
    std::deque<LaunchTraces> roots_;

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
    /** A run has started (start()). */
    std::atomic<bool> started_{false};
    /** A buildAhead is running: it frees retired nodes' arrays. */
    std::atomic<bool> building_{false};
    /** Retired nodes whose arrays buildAhead frees, a stack. */
    std::atomic<LaunchTraces *> retired_{nullptr};
    /** The aheadBytes_ at which a paused buildAhead resumes. */
    std::atomic<std::size_t> resumeAt_{0};
    /**
     * Bumped by every event a paused buildAhead or an awaitStart waits
     * for (a retire that takes aheadBytes_ to resumeAt_, start(),
     * stop()), so it sleeps on one word and misses none of them.
     */
    std::atomic<std::uint32_t> budgetEpoch_{0};
};

} // namespace laperm

#endif // LAPERM_GPU_TRACE_FOREST_HH
