/**
 * @file
 * Bank-queued DRAM timing model. Each 128B access occupies its bank for
 * a service interval; latency is a fixed access time plus queueing.
 */

#ifndef LAPERM_MEM_DRAM_HH
#define LAPERM_MEM_DRAM_HH

#include <vector>

#include "common/fast_mod.hh"
#include "common/types.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace laperm {

/** Flat bank array across channels; address-interleaved at line size. */
class Dram
{
  public:
    explicit Dram(const GpuConfig &cfg);

    /**
     * Issue a read of @p line arriving at @p arrival.
     * @return cycle the data is available at the L2.
     */
    Cycle read(Addr line, Cycle arrival);

    /**
     * Issue a fire-and-forget write (writeback) of @p line at @p arrival.
     * Consumes bank bandwidth; no one waits for completion.
     */
    void write(Addr line, Cycle arrival);

    void reset();

    const DramStats &stats() const { return stats_; }

  private:
    std::uint32_t bankIndex(Addr line) const;
    Cycle occupy(Addr line, Cycle arrival);

    Cycle latency_;
    Cycle serviceInterval_;
    std::vector<Cycle> bankFreeAt_;
    FastMod bankMod_;
    DramStats stats_;
};

} // namespace laperm

#endif // LAPERM_MEM_DRAM_HH
