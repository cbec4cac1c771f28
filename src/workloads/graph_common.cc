#include "workloads/graph_common.hh"

#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <tuple>

#include "common/log.hh"

namespace laperm {

namespace {

/**
 * The graphs that some workload holds, or that one caller is building
 * while others wait, one entry per (input, scale, seed). An entry
 * holds its graph weakly, and the graph's deleter erases its key's
 * entry only if that entry is built and its graph dead: a caller may
 * have replaced the entry since, and a newer entry that is in flight
 * or alive must stay.
 */
class GraphRegistry
{
  public:
    std::shared_ptr<const Csr> get(const std::string &input, Scale scale,
                                   std::uint64_t seed);
    std::size_t size();

  private:
    using Key = std::tuple<std::string, Scale, std::uint64_t>;

    struct Entry
    {
        bool done = false; ///< built, or failed with error
        std::weak_ptr<const Csr> graph;
        std::exception_ptr error;
    };

    /** Erase @p key's entry unless it is in flight or alive; needs mu_. */
    void dropIfDead(const Key &key);

    std::mutex mu_;
    std::condition_variable done_;
    std::map<Key, std::shared_ptr<Entry>> entries_;
};

std::shared_ptr<const Csr>
GraphRegistry::get(const std::string &input, Scale scale,
                   std::uint64_t seed)
{
    const Key key{input, scale, seed};
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        const auto it = entries_.find(key);
        if (it == entries_.end())
            break;
        const std::shared_ptr<Entry> entry = it->second;
        if (!entry->done) {
            done_.wait(lock, [&] { return entry->done; });
            if (entry->error) {
                lock.unlock();
                rethrowHere(entry->error);
            }
            continue; // the graph may have died while this caller woke
        }
        if (std::shared_ptr<const Csr> graph = entry->graph.lock())
            return graph;
        // Its last holder is gone but its deleter has yet to run.
        entries_.erase(it);
        break;
    }

    const auto entry = std::make_shared<Entry>();
    entries_.emplace(key, entry);
    lock.unlock();
    std::shared_ptr<const Csr> graph;
    try {
        graph = std::shared_ptr<const Csr>(
            new Csr(buildGraphInput(input, scale, seed)),
            [this, key](const Csr *csr) {
                delete csr;
                const std::lock_guard<std::mutex> hold(mu_);
                dropIfDead(key);
            });
    } catch (...) {
        lock.lock();
        entry->error = std::current_exception();
        entry->done = true;
        dropIfDead(key);
        done_.notify_all();
        throw;
    }
    lock.lock();
    entry->graph = graph;
    entry->done = true;
    done_.notify_all();
    return graph;
}

void
GraphRegistry::dropIfDead(const Key &key)
{
    const auto it = entries_.find(key);
    if (it != entries_.end() && it->second->done &&
        it->second->graph.expired()) {
        entries_.erase(it);
    }
}

std::size_t
GraphRegistry::size()
{
    const std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

GraphRegistry &
graphRegistry()
{
    // Never destroyed, so a graph freed during exit can still drop its
    // entry.
    static GraphRegistry *const registry = new GraphRegistry;
    return *registry;
}

} // namespace

void
GraphLayout::allocate(BumpAllocator &mem, const Csr &csr,
                      bool with_weights)
{
    const std::uint32_t n = csr.numVertices();
    const std::uint64_t m = csr.numEdges();
    rowOff = mem.allocArray(n + 1, 8, "rowOff");
    cols = mem.allocArray(m ? m : 1, 4, "cols");
    if (with_weights)
        weights = mem.allocArray(m ? m : 1, 4, "weights");
    vdata = mem.allocArray(n, 4, "vdata");
    mask = mem.allocArray(n, 1, "mask");
    prio = mem.allocArray(n, 8, "prio");
    params = mem.allocArray(n, 16, "params");
    worklist = mem.allocArray(n, 4, "worklist");
}

Csr
buildGraphInput(const std::string &input, Scale scale, std::uint64_t seed)
{
    std::uint32_t n;
    std::uint32_t rmat_scale;
    std::uint32_t deg;
    std::uint32_t band;
    switch (scale) {
      case Scale::Tiny:
        n = 3000;
        rmat_scale = 11;
        deg = 8;
        band = 128;
        break;
      case Scale::Small:
        n = 64000;
        rmat_scale = 16;
        deg = 16;
        band = 2048;
        break;
      case Scale::Full:
        n = 200000;
        rmat_scale = 17;
        deg = 16;
        band = 4096;
        break;
      case Scale::Huge:
        n = 500000;
        rmat_scale = 18;
        deg = 16;
        band = 8192;
        break;
      default:
        n = 3000;
        rmat_scale = 11;
        deg = 8;
        band = 128;
        break;
    }
    if (input == "citation")
        return genCitation(n, deg, seed);
    if (input == "graph500")
        return genRmat(rmat_scale, deg, seed);
    if (input == "cage") {
        // The band keeps neighbors at nearby indices (the cage15
        // property the paper highlights) while leaving BFS frontiers
        // wide enough to oversubscribe the device.
        return genCage(n, band, deg, seed);
    }
    laperm_fatal("unknown graph input '%s'", input.c_str());
}

std::shared_ptr<const Csr>
sharedGraphInput(const std::string &input, Scale scale, std::uint64_t seed)
{
    return graphRegistry().get(input, scale, seed);
}

std::size_t
sharedGraphEntries()
{
    return graphRegistry().size();
}

std::uint32_t
pickSource(const Csr &csr)
{
    std::uint32_t best = 0;
    for (std::uint32_t v = 0; v < csr.numVertices(); ++v) {
        if (csr.degree(v) > csr.degree(best))
            best = v;
    }
    return best;
}

} // namespace laperm
