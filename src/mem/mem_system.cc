#include "mem/mem_system.hh"

#include <algorithm>

#include "common/log.hh"

namespace laperm {

MemSystem::MemSystem(const GpuConfig &cfg)
    : cfg_(cfg), l2BankFreeAt_(cfg.l2Banks, 0), l2BankMod_(cfg.l2Banks)
{
    // The geometry below divides by the cluster size and indexes by it.
    cfg.validate();
    const std::uint32_t num_l1 = cfg.numSmx / cfg.smxPerCluster;
    for (std::uint32_t i = 0; i < num_l1; ++i) {
        CacheParams p;
        p.name = logFormat("l1.%u", i);
        p.size = cfg.l1Size;
        p.assoc = cfg.l1Assoc;
        p.writeEvict = true;
        p.mshrTrimWatermark = cfg.mshrTrimWatermark;
        l1s_.push_back(std::make_unique<Cache>(p));
    }
    for (SmxId smx = 0; smx < cfg.numSmx; ++smx)
        l1OfSmx_.push_back(l1s_[l1Index(smx)].get());
    CacheParams p2;
    p2.name = "l2";
    p2.size = cfg.l2Size;
    p2.assoc = cfg.l2Assoc;
    p2.writeEvict = false;
    p2.mshrTrimWatermark = cfg.mshrTrimWatermark;
    l2_ = std::make_unique<Cache>(p2);
    dram_.emplace(cfg);
}

Cycle
MemSystem::l2Access(Addr line, Cycle now, bool is_store,
                    const obs::MemAccessor *who)
{
    // Bank queueing: the request cannot be looked up before its bank is
    // free; each access occupies the bank for a service interval.
    Cycle &bank = l2BankFreeAt_[l2BankMod_(line / kLineBytes)];
    Cycle arrival = std::max(now, bank);
    bank = arrival + cfg_.l2ServiceInterval;

    CacheAccessResult res = is_store ? l2_->lookupStore(line, arrival)
                                     : l2_->lookupLoad(line, arrival);
    if (loc_ && who)
        loc_->onL2Access(line, res.hit, *who);
    if (res.hit)
        return arrival + cfg_.l2HitLatency;
    if (res.mshrMerge)
        return std::max(res.fillReady, arrival + cfg_.l2HitLatency);

    Cycle miss_detected = arrival + cfg_.l2HitLatency;
    Cycle data_ready;
    if (is_store) {
        // Write-validate: coalesced 128B stores install the line
        // without a DRAM fetch (GPU L2s track sector validity); the
        // data is forwardable from the write queue immediately.
        data_ready = arrival;
    } else {
        data_ready = dram_->read(line, miss_detected);
    }
    bool victim_dirty = l2_->allocate(line, data_ready, arrival, is_store);
    if (victim_dirty)
        dram_->write(line, miss_detected);
    return is_store ? arrival + cfg_.l2ServiceInterval : data_ready;
}

Cycle
MemSystem::loadFromL2(Cache &l1, Addr line, Cycle now,
                      const obs::MemAccessor *who)
{
    const Cycle ready = l2Access(line, now, false, who);
    l1.allocate(line, ready, now, false);
    return ready;
}

Cycle
MemSystem::store(SmxId smx, Addr line, Cycle now,
                 const obs::MemAccessor *who)
{
    Cache &l1 = *l1OfSmx_[smx];
    // Write-evict L1 stores count neither accesses nor hits, so they
    // feed no L1 locality attribution either; the L2 access below
    // still updates the L2-level last-toucher record.
    l1.lookupStore(line, now);
    return l2Access(line, now, true, who);
}

void
MemSystem::trimMshrs(Cycle safe_now)
{
    for (auto &l1 : l1s_)
        l1->trimExpiredMshr(safe_now);
    l2_->trimExpiredMshr(safe_now);
}

void
MemSystem::reset()
{
    for (auto &l1 : l1s_)
        l1->reset();
    l2_->reset();
    dram_->reset();
    std::fill(l2BankFreeAt_.begin(), l2BankFreeAt_.end(), 0);
}

std::uint64_t
MemSystem::mshrInserts() const
{
    std::uint64_t n = l2_->mshrInserts();
    for (const auto &l1 : l1s_)
        n += l1->mshrInserts();
    return n;
}

void
MemSystem::exportStats(GpuStats &stats) const
{
    stats.l1.clear();
    for (const auto &l1 : l1s_)
        stats.l1.push_back(l1->stats());
    stats.l2 = l2_->stats();
    stats.dram = dram_->stats();
}

} // namespace laperm
