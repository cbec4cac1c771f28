/**
 * @file
 * Kernel Management Unit: buffers device-side launches while their
 * launch latency elapses and selects which to admit next (FCFS for the
 * baseline, priority order under LaPerm).
 */

#ifndef LAPERM_GPU_KMU_HH
#define LAPERM_GPU_KMU_HH

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "common/types.hh"
#include "kernels/isa.hh"

namespace laperm {

/** A device launch waiting for its latency to elapse / a KDU entry. */
struct PendingLaunch
{
    LaunchRequest req;
    std::uint32_t priority = 0;
    TbUid directParent = kNoTb;
    SmxId parentSmx = kNoSmx;
    Cycle queuedAt = 0; ///< when the launch op reached the KMU
    Cycle readyAt = 0;
    std::uint64_t seq = 0;
    bool stallCounted = false; ///< already counted a KDU-full stall
};

/**
 * Pending-launch buffer. Launches sit in a latency heap until their
 * readyAt elapses, then move to per-priority FCFS ready queues. Under
 * LaPerm the KMU admits the highest-priority ready kernel first; the
 * baseline admits in FCFS order. All operations are O(log n) or
 * O(priority levels), keeping the per-cycle cost flat even with large
 * CDP launch backlogs.
 */
class Kmu
{
  public:
    void push(PendingLaunch launch);

    /**
     * The launch to admit next at @p now, honouring @p priority_order;
     * nullptr if none is ready. The pointer is valid until the next
     * push() or pop().
     */
    PendingLaunch *peekReady(Cycle now, bool priority_order);

    /** Remove @p launch (after successful admission). It must be the
     *  entry last returned by peekReady. */
    void pop(PendingLaunch *launch);

    /** Earliest readyAt among latent launches; now if any is ready;
     *  kNoCycle if empty. */
    Cycle nextReadyAt() const;

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

  private:
    void promote(Cycle now);

    /**
     * Slab of launch records, indexed by slot; freed slots are reused
     * (free_), so a steady launch stream allocates nothing.
     */
    std::vector<PendingLaunch> store_;
    std::vector<std::uint32_t> free_;
    /** (readyAt, seq, slot) min-heap of latent launches. */
    struct HeapEntry
    {
        Cycle readyAt;
        std::uint64_t seq;
        std::uint32_t slot;
        bool operator>(const HeapEntry &o) const
        {
            return readyAt != o.readyAt ? readyAt > o.readyAt
                                        : seq > o.seq;
        }
    };
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>>
        latent_;
    /** Ready launches' slots, FCFS within priority level. */
    std::vector<std::deque<std::uint32_t>> ready_;
    std::size_t readyCount_ = 0; ///< launches in ready_
    std::size_t count_ = 0;
    std::uint64_t nextSeq_ = 0;
};

} // namespace laperm

#endif // LAPERM_GPU_KMU_HH
