#include "gpu/trace_forest.hh"

#include <algorithm>
#include <iterator>
#include <limits>

#include "common/log.hh"
#include "gpu/thread_block.hh"

namespace laperm {

namespace {

using State = LaunchTraces::State;

/**
 * The heap an allocation of @p bytes takes: a malloc chunk, with its
 * 8-byte header, rounded up to 16 bytes. A forest makes several small
 * allocations per launch, so counting their payload alone undercounts
 * its memory by a tenth.
 */
constexpr std::size_t
heapBytes(std::size_t bytes)
{
    return bytes == 0 ? 0
                      : std::max<std::size_t>(32, (bytes + 8 + 15) &
                                                      ~std::size_t(15));
}

/** The heap a built node's arrays hold; retire() frees them. */
std::size_t
arrayBytes(const LaunchTraces &node)
{
    return heapBytes(node.ops.capacity() * sizeof(WarpOp)) +
           heapBytes(node.lines.capacity() * sizeof(Addr)) +
           heapBytes(node.launches.capacity() * sizeof(LaunchRequest)) +
           heapBytes(node.warpOps.capacity() * sizeof(std::uint32_t));
}

/** Give @p node @p req's shape, unbuilt. */
void
shapeNode(LaunchTraces &node, const LaunchRequest &req)
{
    laperm_assert(req.program != nullptr, "launch without program");
    node.program = req.program;
    node.numTbs = req.numTbs;
    node.threadsPerTb = req.threadsPerTb;
    node.tbsLeft = req.numTbs;
}

/** Raise @p peak to at least @p value. */
void
raiseTo(std::atomic<std::size_t> &peak, std::size_t value)
{
    std::size_t seen = peak.load(std::memory_order_relaxed);
    while (seen < value &&
           !peak.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed))
        ;
}

template <typename T>
void
release(std::vector<T> &v)
{
    std::vector<T>().swap(v);
}

/** Free a node's arrays (not its children). */
void
releaseArrays(LaunchTraces &node)
{
    release(node.ops);
    release(node.lines);
    release(node.launches);
    release(node.warpOps);
}

} // namespace

TraceForest::TraceForest() = default;

TraceForest::TraceForest(const std::vector<LaunchRequest> &waves,
                         Sharing sharing)
    : shared_(sharing == Sharing::Shared)
{
    waves_.reserve(waves.size());
    for (const LaunchRequest &wave : waves)
        adopt(wave);
}

TraceForest::~TraceForest() = default;

LaunchRequest
TraceForest::adopt(const LaunchRequest &req)
{
    laperm_assert(req.traces == nullptr, "adopting a launch with traces");
    LaunchTraces &root = roots_.emplace_back();
    shapeNode(root, req);
    LaunchRequest &wave = waves_.emplace_back(req);
    wave.traces = &root;
    return wave;
}

bool
TraceForest::claim(LaunchTraces &node)
{
    State expected = State::Unbuilt;
    return node.state.compare_exchange_strong(expected, State::Building,
                                              std::memory_order_acquire);
}

TraceForest::Built
TraceForest::build(LaunchTraces &node, Scratch &s, bool ahead)
{
    Built built;
    try {
        node.warpsPerTb = (node.threadsPerTb + kWarpSize - 1) / kWarpSize;
        node.warpOps.reserve(std::size_t(node.numTbs) * node.warpsPerTb +
                             1);
        node.warpOps.push_back(0);
        s.ops.clear();
        s.lines.clear();
        s.launches.clear();
        for (std::uint32_t ix = 0; ix < node.numTbs; ++ix) {
            built.threadOps += buildThreadBlockInto(
                s.tb, *node.program, ix, node.threadsPerTb, node.numTbs,
                s.threads);
            for (std::uint32_t w = 0; w < node.warpsPerTb; ++w) {
                // A warp's lines and launches are its ops' spans, in op
                // order, so they append whole; the spans still point
                // into the warp's arrays and are rebased below.
                WarpTrace &trace = s.tb.traces[w];
                s.ops.insert(s.ops.end(), trace.ops.begin(),
                             trace.ops.end());
                s.lines.insert(s.lines.end(), trace.lines.begin(),
                               trace.lines.end());
                s.launches.insert(
                    s.launches.end(),
                    std::make_move_iterator(trace.launches.begin()),
                    std::make_move_iterator(trace.launches.end()));
                laperm_assert(s.ops.size() <=
                                  std::numeric_limits<std::uint32_t>::max(),
                              "launch of %zu warp ops", s.ops.size());
                node.warpOps.push_back(
                    static_cast<std::uint32_t>(s.ops.size()));
            }
        }
        node.ops.assign(s.ops.begin(), s.ops.end());
        node.lines.assign(s.lines.begin(), s.lines.end());
        node.launches.assign(std::make_move_iterator(s.launches.begin()),
                             std::make_move_iterator(s.launches.end()));

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

        node.numChildren = static_cast<std::uint32_t>(node.launches.size());
        node.children = std::make_unique<LaunchTraces[]>(node.numChildren);
        for (std::uint32_t i = 0; i < node.numChildren; ++i) {
            shapeNode(node.children[i], node.launches[i]);
            node.launches[i].traces = &node.children[i];
        }
    } catch (...) {
        // Hand the node back unbuilt: whoever needs it next builds it
        // on its own thread and meets the same error there.
        releaseArrays(node);
        node.children.reset();
        node.numChildren = 0;
        node.state.store(State::Unbuilt, std::memory_order_release);
        node.state.notify_all();
        throw;
    }
    built.tbs = node.numTbs;
    // A shared forest's count stops when its first run starts: nothing
    // it builds is ever returned, and its runs replay all of it.
    const bool counted =
        ahead && !(shared_ && started_.load(std::memory_order_acquire));
    node.builtAhead = counted;
    tbsBuilt_.fetch_add(built.tbs, std::memory_order_relaxed);
    threadOps_.fetch_add(built.threadOps, std::memory_order_relaxed);
    (ahead ? nodesAhead_ : nodesOnDemand_)
        .fetch_add(1, std::memory_order_relaxed);
    // Counted before it is published, so its retire never comes first.
    const std::size_t bytes = arrayBytes(node);
    raiseTo(largestNodeBytes_, bytes);
    raiseTo(peakLiveBytes_, liveBytes_.fetch_add(bytes) + bytes);
    if (counted)
        raiseTo(peakAheadBytes_, aheadBytes_.fetch_add(bytes) + bytes);
    node.state.store(State::Ready, std::memory_order_release);
    node.state.notify_all();
    return built;
}

bool
TraceForest::waitForBudget(std::size_t budget)
{
    bool paused = false;
    for (;;) {
        // Read the epoch first: a retire, start or stop after it bumps
        // it, so the wait below returns at once instead of missing it.
        const std::uint32_t epoch =
            budgetEpoch_.load(std::memory_order_acquire);
        freeRetired();
        if (stopped_.load(std::memory_order_acquire))
            return false;
        // A shared forest's runs retire nothing: once one starts, its
        // builder builds the rest.
        if (shared_ && started_.load(std::memory_order_acquire))
            return true;
        // Once paused, resume at half the budget: the run then wakes
        // this thread once per half budget it retires, not per node.
        const std::size_t limit = paused ? budget / 2 : budget;
        if (aheadBytes_.load(std::memory_order_acquire) <= limit)
            return true;
        paused = true;
        budgetEpoch_.wait(epoch, std::memory_order_acquire);
    }
}

void
TraceForest::wakeBuilder()
{
    budgetEpoch_.fetch_add(1, std::memory_order_release);
    budgetEpoch_.notify_all();
}

void
TraceForest::freeRetired()
{
    LaunchTraces *node = retired_.exchange(nullptr, std::memory_order_acquire);
    while (node != nullptr) {
        LaunchTraces *next = node->nextRetired;
        releaseArrays(*node);
        node = next;
    }
}

void
TraceForest::buildAll()
{
    buildAhead(std::numeric_limits<std::size_t>::max());
}

void
TraceForest::buildAhead(std::size_t budget)
{
    // While this runs, it frees what the run retires: freeing on the
    // thread that allocated keeps the run off this thread's heap.
    struct Active
    {
        TraceForest &forest;
        explicit Active(TraceForest &f) : forest(f)
        {
            forest.building_.store(true, std::memory_order_release);
        }
        ~Active()
        {
            forest.building_.store(false, std::memory_order_seq_cst);
            forest.freeRetired();
        }
    } active(*this);
    resumeAt_.store(budget / 2, std::memory_order_release);

    Scratch scratch;
    // The work list holds nodes, never requests: a request lives in its
    // parent's launches array, which retire() may free.
    std::deque<LaunchTraces *> wave;
    for (LaunchTraces &root : roots_) {
        wave.push_back(&root);
        while (!wave.empty()) {
            if (!waitForBudget(budget))
                return;
            LaunchTraces &node = *wave.front();
            wave.pop_front();
            if (claim(node)) {
                build(node, scratch, true);
            } else {
                // Built or being built elsewhere: its children are
                // published with it.
                State s;
                while ((s = node.state.load(std::memory_order_acquire)) ==
                       State::Building)
                    node.state.wait(State::Building,
                                    std::memory_order_acquire);
                if (s == State::Unbuilt) {
                    // Its builder failed and handed it back.
                    wave.push_front(&node);
                    continue;
                }
            }
            for (std::uint32_t i = 0; i < node.numChildren; ++i)
                wave.push_back(&node.children[i]);
        }
    }
}

void
TraceForest::start()
{
    if (!started_.exchange(true, std::memory_order_acq_rel))
        wakeBuilder();
}

bool
TraceForest::awaitStart()
{
    for (;;) {
        // Read the epoch first, as waitForBudget does.
        const std::uint32_t epoch =
            budgetEpoch_.load(std::memory_order_acquire);
        if (stopped_.load(std::memory_order_acquire))
            return false;
        if (started_.load(std::memory_order_acquire))
            return true;
        budgetEpoch_.wait(epoch, std::memory_order_acquire);
    }
}

void
TraceForest::stop()
{
    stopped_.store(true, std::memory_order_release);
    wakeBuilder();
}

TraceForest::Built
TraceForest::ensure(LaunchTraces &node, Scratch &scratch)
{
    bool waited = false;
    for (;;) {
        switch (node.state.load(std::memory_order_acquire)) {
          case State::Ready:
            return {};
          case State::Unbuilt:
            if (claim(node))
                return build(node, scratch, false);
            break; // lost the claim: look again
          case State::Building:
            if (!waited) {
                waited = true;
                waits_.fetch_add(1, std::memory_order_relaxed);
            }
            node.state.wait(State::Building, std::memory_order_acquire);
            break;
          case State::Retired:
            laperm_panic("dispatching a retired launch of %s",
                         node.program->name().c_str());
        }
    }
}

void
TraceForest::retire(LaunchTraces &node)
{
    laperm_assert(!shared_, "retiring a node of a shared forest");
    laperm_assert(node.state.load(std::memory_order_relaxed) ==
                      State::Ready,
                  "retiring a launch that is not Ready");
    const std::size_t bytes = arrayBytes(node);
    // Release: a builder that reads Retired then reads the children,
    // which this thread acquired with Ready.
    node.state.store(State::Retired, std::memory_order_release);
    liveBytes_.fetch_sub(bytes);
    if (node.builtAhead) {
        const std::size_t before = aheadBytes_.fetch_sub(bytes);
        const std::size_t resume =
            resumeAt_.load(std::memory_order_acquire);
        if (before > resume && before - bytes <= resume)
            wakeBuilder();
    }
    if (building_.load(std::memory_order_seq_cst)) {
        // The builder frees it; one that has just stopped leaves it to
        // the forest's destructor.
        node.nextRetired = retired_.load(std::memory_order_relaxed);
        while (!retired_.compare_exchange_weak(node.nextRetired, &node,
                                               std::memory_order_release,
                                               std::memory_order_relaxed))
            ;
    } else {
        releaseArrays(node);
    }
}

TraceForest::Counts
TraceForest::counts() const
{
    Counts c;
    c.nodesAhead = nodesAhead_.load(std::memory_order_relaxed);
    c.nodesOnDemand = nodesOnDemand_.load(std::memory_order_relaxed);
    c.waits = waits_.load(std::memory_order_relaxed);
    c.peakLiveBytes = peakLiveBytes_.load(std::memory_order_relaxed);
    c.peakAheadBytes = peakAheadBytes_.load(std::memory_order_relaxed);
    c.largestNodeBytes = largestNodeBytes_.load(std::memory_order_relaxed);
    return c;
}

} // namespace laperm
