#include "mem/hierarchy.h"

#include <cassert>

namespace jasim {

namespace {

/** Counting presence-filter buckets per snooped cache (L2, L3). */
constexpr std::size_t snoopFilterBuckets = 1 << 14;

} // namespace

const char *
dataSourceName(DataSource source)
{
    switch (source) {
      case DataSource::L1: return "L1";
      case DataSource::L2: return "L2";
      case DataSource::L2_5: return "L2.5";
      case DataSource::L2_75Shared: return "L2.75 shared";
      case DataSource::L2_75Modified: return "L2.75 modified";
      case DataSource::L3: return "L3";
      case DataSource::L3_5: return "L3.5";
      case DataSource::Memory: return "memory";
    }
    return "?";
}

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &config)
    : config_(config), hot_(config.cores)
{
    assert(config.cores % config.cores_per_chip == 0);
    assert(config.chips() % config.chips_per_mcm == 0);

    for (std::size_t c = 0; c < config.cores; ++c) {
        l1i_.push_back(std::make_unique<SetAssocCache>(
            config.l1i, ReplacementPolicy::LRU));
        l1d_.push_back(std::make_unique<SetAssocCache>(
            config.l1d, ReplacementPolicy::FIFO));
        prefetcher_.push_back(
            std::make_unique<StreamPrefetcher>(config.l1d.line_bytes));
    }
    std::vector<SetAssocCache *> l2_raw;
    for (std::size_t chip = 0; chip < config.chips(); ++chip) {
        l2_.push_back(std::make_unique<SetAssocCache>(
            config.l2, ReplacementPolicy::LRU));
        l2_.back()->setInstructionFriendly(
            config.l2_instruction_friendly);
        l2_raw.push_back(l2_.back().get());
    }
    for (std::size_t m = 0; m < config.mcms(); ++m) {
        l3_.push_back(std::make_unique<SetAssocCache>(
            config.l3, ReplacementPolicy::LRU));
    }
    bus_ = std::make_unique<MesiBus>(std::move(l2_raw));

    mru_l1d_.resize(config.cores);
    mru_l1i_.resize(config.cores);
    // Exact counting filters over the snooped levels; the bus and
    // probeBeyondL2 use them to skip provably-empty caches.
    for (auto &l2 : l2_)
        l2->enablePresenceFilter(snoopFilterBuckets);
    for (auto &l3 : l3_)
        l3->enablePresenceFilter(snoopFilterBuckets);
}

void
MemoryHierarchy::backInvalidate(std::size_t chip, Addr line_addr)
{
    const std::size_t first_core = chip * config_.cores_per_chip;
    for (std::size_t c = 0; c < config_.cores_per_chip; ++c) {
        l1d_[first_core + c]->invalidate(line_addr);
        l1i_[first_core + c]->invalidate(line_addr);
    }
}

void
MemoryHierarchy::fillL2(std::size_t chip, Addr addr, MesiState state,
                        LineKind kind)
{
    const auto result = l2_[chip]->fill(addr, state, kind);
    if (result.victim)
        backInvalidate(chip, *result.victim);
}

MemoryHierarchy::LineFetch
MemoryHierarchy::probeBeyondL2(std::size_t chip, Addr addr)
{
    const std::size_t own_mcm = mcmOf(chip);
    // A presence-filter miss skips the L3 walk outright; the probe
    // would miss without touching any replacement state, so outcomes
    // are identical.
    if (l3_[own_mcm]->mayContain(addr) &&
        l3_[own_mcm]->access(addr, false).hit) {
        return {DataSource::L3, config_.lat_l3};
    }
    for (std::size_t m = 0; m < l3_.size(); ++m) {
        if (m == own_mcm)
            continue;
        if (l3_[m]->mayContain(addr) && l3_[m]->access(addr, false).hit)
            return {DataSource::L3_5, config_.lat_l3_5};
    }
    // Memory: the line passes through (and fills) the local L3.
    l3_[own_mcm]->fill(addr, MesiState::Exclusive);
    return {DataSource::Memory, config_.lat_memory};
}

MemoryHierarchy::LineFetch
MemoryHierarchy::fetchLineForRead(std::size_t chip, Addr addr,
                                  LineKind kind)
{
    if (l2_[chip]->access(addr, false).hit)
        return {DataSource::L2, config_.lat_l2};

    const SnoopResult snoop = bus_->snoopRead(chip, addr);
    if (snoop.found) {
        fillL2(chip, addr, MesiBus::fillStateAfterRead(snoop), kind);
        const bool same_mcm = mcmOf(snoop.supplier) == mcmOf(chip);
        if (same_mcm)
            return {DataSource::L2_5, config_.lat_l2_5};
        if (snoop.supplier_state == MesiState::Modified)
            return {DataSource::L2_75Modified, config_.lat_l2_75_modified};
        return {DataSource::L2_75Shared, config_.lat_l2_75_shared};
    }

    const LineFetch fetch = probeBeyondL2(chip, addr);
    fillL2(chip, addr, MesiState::Exclusive, kind);
    return fetch;
}

MemoryHierarchy::LineFetch
MemoryHierarchy::fetchLineForWrite(std::size_t chip, Addr addr)
{
    const MesiState own = l2_[chip]->state(addr);
    if (own == MesiState::Modified || own == MesiState::Exclusive) {
        l2_[chip]->setState(addr, MesiState::Modified);
        l2_[chip]->access(addr, false); // refresh LRU
        return {DataSource::L2, config_.lat_l2};
    }
    if (own == MesiState::Shared) {
        // Upgrade: invalidate remote sharers, no data transfer.
        bus_->snoopReadForOwnership(chip, addr);
        l2_[chip]->setState(addr, MesiState::Modified);
        l2_[chip]->access(addr, false);
        return {DataSource::L2, config_.lat_l2};
    }

    const SnoopResult snoop = bus_->snoopReadForOwnership(chip, addr);
    if (snoop.found) {
        fillL2(chip, addr, MesiState::Modified);
        const bool same_mcm = mcmOf(snoop.supplier) == mcmOf(chip);
        if (same_mcm)
            return {DataSource::L2_5, config_.lat_l2_5};
        if (snoop.supplier_state == MesiState::Modified)
            return {DataSource::L2_75Modified, config_.lat_l2_75_modified};
        return {DataSource::L2_75Shared, config_.lat_l2_75_shared};
    }

    const LineFetch fetch = probeBeyondL2(chip, addr);
    fillL2(chip, addr, MesiState::Modified);
    return fetch;
}

void
MemoryHierarchy::applyPrefetch(std::size_t core,
                               const PrefetchDecision &decision,
                               MemAccessOutcome &outcome)
{
    const std::size_t chip = chipOf(core);
    outcome.stream_allocated = decision.stream_allocated;
    for (const Addr line : decision.l1_lines) {
        // Keep L1 inclusion: the line must also be resident in L2.
        if (!l2_[chip]->probe(line))
            fillL2(chip, line, MesiState::Exclusive);
        const auto fill = l1d_[core]->fill(line, MesiState::Shared);
        if (!fill.hit)
            ++outcome.l1_prefetches;
    }
    for (const Addr line : decision.l2_lines) {
        if (!l2_[chip]->probe(line)) {
            fillL2(chip, line, MesiState::Exclusive);
            ++outcome.l2_prefetches;
        }
    }
}

MemAccessOutcome
MemoryHierarchy::loadSlow(std::size_t core, Addr addr)
{
    assert(core < config_.cores);
    MemAccessOutcome outcome;
    const std::size_t chip = chipOf(core);
    SetAssocCache &l1d = *l1d_[core];
    const Addr line = l1d.lineAddr(addr);

    const bool l1_hit = l1d.access(addr, false).hit;
    if (!l1_hit) {
        const LineFetch fetch = fetchLineForRead(chip, addr);
        outcome.source = fetch.source;
        outcome.latency = fetch.latency;
        // Fill L1D; write-through L1 lines carry no dirty state.
        l1d.fill(line, MesiState::Shared);
    }
    outcome.l1_hit = l1_hit;
    if (l1_hit) {
        outcome.source = DataSource::L1;
        outcome.latency = config_.lat_l1;
    }
    hot_.noteLoad(core, static_cast<std::size_t>(outcome.source));

    if (config_.prefetch_enabled) {
        const auto decision = prefetcher_[core]->observe(addr, !l1_hit);
        if (!decision.isEmpty())
            applyPrefetch(core, decision, outcome);
    }
    // Memoize after the prefetch fills so a stream advance does not
    // immediately kill the memo (fills bump the epoch); the probe
    // re-proves residency in case a prefetch fill evicted this line.
    if (l1d.probe(line))
        mru_l1d_[core].arm(line, l1d);
    return outcome;
}

MemAccessOutcome
MemoryHierarchy::store(std::size_t core, Addr addr)
{
    assert(core < config_.cores);
    MemAccessOutcome outcome;
    const std::size_t chip = chipOf(core);
    SetAssocCache &l1d = *l1d_[core];
    const Addr line = l1d.lineAddr(addr);

    // Write-through: the store always writes the L2; an L1 miss does
    // not allocate in L1 (store misses do not evict useful L1 lines).
    bool mru_hit = false;
    if (mru_l1d_[core].matches(line, l1d)) {
        outcome.l1_hit = true;
        mru_hit = true;
        hot_.noteMruData(core);
    } else {
        outcome.l1_hit = l1d.access(addr, false).hit;
    }
    const LineFetch fetch = fetchLineForWrite(chip, addr);
    // Re-arm after the L2 side: its back-invalidations can only evict
    // *other* L1 lines (the victim of a fill for this very line), so
    // the stored-to line is still resident when it hit above.
    if (outcome.l1_hit && !mru_hit)
        mru_l1d_[core].arm(line, l1d);
    outcome.source = outcome.l1_hit ? DataSource::L1 : fetch.source;
    outcome.latency = fetch.latency;
    return outcome;
}

MemAccessOutcome
MemoryHierarchy::fetchSlow(std::size_t core, Addr addr)
{
    assert(core < config_.cores);
    MemAccessOutcome outcome;
    const std::size_t chip = chipOf(core);
    SetAssocCache &l1i = *l1i_[core];
    const Addr line = l1i.lineAddr(addr);

    const bool l1_hit = l1i.access(addr, false).hit;
    outcome.l1_hit = l1_hit;
    if (l1_hit) {
        outcome.source = DataSource::L1;
        outcome.latency = config_.lat_l1;
        mru_l1i_[core].arm(line, l1i);
        hot_.noteIfetch(core,
                        static_cast<std::size_t>(DataSource::L1));
        return outcome;
    }
    const LineFetch fetch =
        fetchLineForRead(chip, addr, LineKind::Instruction);
    outcome.source = fetch.source;
    outcome.latency = fetch.latency;
    l1i.fill(line, MesiState::Shared, LineKind::Instruction);
    mru_l1i_[core].arm(line, l1i);
    hot_.noteIfetch(core, static_cast<std::size_t>(fetch.source));
    return outcome;
}

void
MemoryHierarchy::flushAll()
{
    for (auto &c : l1i_)
        c->flush();
    for (auto &c : l1d_)
        c->flush();
    for (auto &c : l2_)
        c->flush();
    for (auto &c : l3_)
        c->flush();
    for (auto &p : prefetcher_)
        p->reset();
    // flush() bumped every epoch, so the MRU memos are already dead;
    // clearing keeps them from matching a recycled epoch value.
    for (auto &m : mru_l1d_)
        m.valid = false;
    for (auto &m : mru_l1i_)
        m.valid = false;
}

} // namespace jasim
