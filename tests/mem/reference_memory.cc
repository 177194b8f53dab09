#include "reference_memory.h"

#include <algorithm>
#include <cassert>

namespace jasim::ref {

// ---------------------------------------------------------------------
// Cache

Cache::Cache(const CacheGeometry &geometry, bool lru)
    : line_bytes_(geometry.line_bytes), sets_(geometry.sets()),
      ways_(geometry.ways), lru_(lru), lines_(sets_ * ways_)
{
    assert(sets_ > 0);
}

Cache::Line *
Cache::find(Addr addr)
{
    const Addr tag = addr / line_bytes_;
    Line *set = &lines_[firstWay(addr)];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (set[w].state != MesiState::Invalid && set[w].tag == tag)
            return &set[w];
    }
    return nullptr;
}

bool
Cache::probe(Addr addr) const
{
    return find(addr) != nullptr;
}

MesiState
Cache::state(Addr addr) const
{
    const Line *line = find(addr);
    return line ? line->state : MesiState::Invalid;
}

bool
Cache::lookup(Addr addr)
{
    ++tick_;
    Line *line = find(addr);
    if (line && lru_)
        line->stamp = tick_;
    return line != nullptr;
}

std::optional<Addr>
Cache::fill(Addr addr, MesiState fill_state, LineKind kind)
{
    ++tick_;
    if (Line *line = find(addr)) {
        line->state = fill_state;
        line->kind = kind;
        return std::nullopt;
    }
    // Victim: the first invalid way; else the oldest stamp, among the
    // data lines only when instruction-friendly and any data line is
    // resident.
    Line *set = &lines_[firstWay(addr)];
    Line *victim = nullptr;
    for (std::uint32_t w = 0; w < ways_ && !victim; ++w) {
        if (set[w].state == MesiState::Invalid)
            victim = &set[w];
    }
    if (!victim) {
        const bool data_only =
            inst_friendly_ &&
            std::any_of(set, set + ways_, [](const Line &line) {
                return line.kind == LineKind::Data;
            });
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (data_only && set[w].kind != LineKind::Data)
                continue;
            if (!victim || set[w].stamp < victim->stamp)
                victim = &set[w];
        }
    }
    std::optional<Addr> evicted;
    if (victim->state != MesiState::Invalid)
        evicted = victim->tag * line_bytes_;
    *victim = Line{addr / line_bytes_, fill_state, kind, tick_};
    return evicted;
}

bool
Cache::setState(Addr addr, MesiState new_state)
{
    Line *line = find(addr);
    if (line)
        line->state = new_state;
    return line != nullptr;
}

bool
Cache::invalidate(Addr addr)
{
    return setState(addr, MesiState::Invalid);
}

void
Cache::flush()
{
    for (Line &line : lines_)
        line.state = MesiState::Invalid;
}

std::uint64_t
Cache::validLines() const
{
    return static_cast<std::uint64_t>(
        std::count_if(lines_.begin(), lines_.end(), [](const Line &line) {
            return line.state != MesiState::Invalid;
        }));
}

// ---------------------------------------------------------------------
// Bus

Snoop
Bus::snoop(std::size_t requester, Addr addr, bool for_ownership)
{
    Snoop result;
    for (std::size_t i = 0; i < l2s_.size(); ++i) {
        if (i == requester)
            continue;
        const MesiState s = l2s_[i]->state(addr);
        if (s == MesiState::Invalid)
            continue;
        // The first holder supplies, unless a later one holds the
        // line Modified.
        if (!result.found || s == MesiState::Modified)
            result = Snoop{true, i, s};
        if (for_ownership)
            l2s_[i]->invalidate(addr);
        else if (s != MesiState::Shared)
            l2s_[i]->setState(addr, MesiState::Shared);
    }
    return result;
}

// ---------------------------------------------------------------------
// Prefetcher

Prefetcher::Prefetcher(std::uint32_t line_bytes, std::size_t max_streams,
                       std::size_t candidate_entries)
    : line_bytes_(line_bytes), max_streams_(max_streams),
      candidate_entries_(candidate_entries),
      candidates_(candidate_entries, ~Addr{0})
{
}

Prefetch
Prefetcher::observe(Addr addr, bool was_miss)
{
    const Addr line = addr / line_bytes_ * line_bytes_;
    const auto ahead = [](Addr base, std::int64_t step) {
        return static_cast<Addr>(static_cast<std::int64_t>(base) + step);
    };
    Prefetch decision;
    ++tick_;

    // An access to a stream's next line advances it by one line and
    // prefetches one line ahead toward L1, two toward L2.
    for (Stream &stream : streams_) {
        if (line == stream.next_line) {
            stream.next_line = ahead(stream.next_line, stream.step);
            stream.last_use = tick_;
            decision.l1_lines.push_back(stream.next_line);
            decision.l2_lines.push_back(
                ahead(stream.next_line, stream.step));
            return decision;
        }
    }
    if (!was_miss)
        return decision;

    // A miss next to a recent miss starts a stream away from it.
    std::int64_t step = 0;
    for (const Addr prev : candidates_) {
        if (prev == line - line_bytes_) {
            step = static_cast<std::int64_t>(line_bytes_);
            break;
        }
        if (prev == line + line_bytes_) {
            step = -static_cast<std::int64_t>(line_bytes_);
            break;
        }
    }
    if (step != 0) {
        const Stream fresh{ahead(line, step), step, tick_};
        if (streams_.size() < max_streams_) {
            streams_.push_back(fresh);
        } else {
            *std::min_element(streams_.begin(), streams_.end(),
                              [](const Stream &a, const Stream &b) {
                                  return a.last_use < b.last_use;
                              }) = fresh;
        }
        // The initial ramp reads the last stream in the table, which
        // is the new one unless a full table replaced an earlier slot;
        // this matches src/mem/prefetcher.cc as it stands.
        decision.stream_allocated = true;
        decision.l1_lines.push_back(streams_.back().next_line);
        decision.l2_lines.push_back(ahead(streams_.back().next_line, step));
    }
    candidates_[candidate_head_] = line;
    candidate_head_ = (candidate_head_ + 1) % candidate_entries_;
    return decision;
}

void
Prefetcher::reset()
{
    streams_.clear();
    candidates_.assign(candidate_entries_, ~Addr{0});
    candidate_head_ = 0;
}

// ---------------------------------------------------------------------
// MemoryHierarchy

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &config)
    : config_(config), hot_(config.cores)
{
    for (std::size_t c = 0; c < config.cores; ++c) {
        l1i_.push_back(std::make_unique<Cache>(config.l1i, true));
        l1d_.push_back(std::make_unique<Cache>(config.l1d, false));
        prefetcher_.emplace_back(config.l1d.line_bytes);
    }
    std::vector<Cache *> l2s;
    for (std::size_t chip = 0; chip < config.chips(); ++chip) {
        l2_.push_back(std::make_unique<Cache>(config.l2, true));
        l2_.back()->setInstructionFriendly(config.l2_instruction_friendly);
        l2s.push_back(l2_.back().get());
    }
    for (std::size_t m = 0; m < config.mcms(); ++m)
        l3_.push_back(std::make_unique<Cache>(config.l3, true));
    bus_ = std::make_unique<Bus>(std::move(l2s));
}

void
MemoryHierarchy::fillL2(std::size_t chip, Addr addr, MesiState state,
                        LineKind kind)
{
    const std::optional<Addr> victim = l2_[chip]->fill(addr, state, kind);
    if (!victim)
        return;
    // Inclusion: the chip's L1s drop the L2's victim too.
    const std::size_t first = chip * config_.cores_per_chip;
    for (std::size_t c = first; c < first + config_.cores_per_chip; ++c) {
        l1d_[c]->invalidate(*victim);
        l1i_[c]->invalidate(*victim);
    }
}

MemoryHierarchy::LineFetch
MemoryHierarchy::fromRemoteL2(std::size_t chip, const Snoop &snoop) const
{
    if (mcmOf(snoop.supplier) == mcmOf(chip))
        return {DataSource::L2_5, config_.lat_l2_5};
    if (snoop.supplier_state == MesiState::Modified)
        return {DataSource::L2_75Modified, config_.lat_l2_75_modified};
    return {DataSource::L2_75Shared, config_.lat_l2_75_shared};
}

MemoryHierarchy::LineFetch
MemoryHierarchy::probeBeyondL2(std::size_t chip, Addr addr)
{
    const std::size_t own = mcmOf(chip);
    if (l3_[own]->lookup(addr))
        return {DataSource::L3, config_.lat_l3};
    for (std::size_t m = 0; m < l3_.size(); ++m) {
        if (m != own && l3_[m]->lookup(addr))
            return {DataSource::L3_5, config_.lat_l3_5};
    }
    // From memory, through (and into) the requester's L3.
    l3_[own]->fill(addr, MesiState::Exclusive);
    return {DataSource::Memory, config_.lat_memory};
}

MemoryHierarchy::LineFetch
MemoryHierarchy::fetchLineForRead(std::size_t chip, Addr addr,
                                  LineKind kind)
{
    if (l2_[chip]->lookup(addr))
        return {DataSource::L2, config_.lat_l2};
    const Snoop snoop = bus_->snoop(chip, addr, /*for_ownership=*/false);
    if (snoop.found) {
        fillL2(chip, addr, MesiState::Shared, kind);
        return fromRemoteL2(chip, snoop);
    }
    const LineFetch fetch = probeBeyondL2(chip, addr);
    fillL2(chip, addr, MesiState::Exclusive, kind);
    return fetch;
}

MemoryHierarchy::LineFetch
MemoryHierarchy::fetchLineForWrite(std::size_t chip, Addr addr)
{
    Cache &l2 = *l2_[chip];
    const MesiState own = l2.state(addr);
    if (own != MesiState::Invalid) {
        // A Shared copy upgrades: remote sharers are invalidated, and
        // no data moves.
        if (own == MesiState::Shared)
            bus_->snoop(chip, addr, /*for_ownership=*/true);
        l2.setState(addr, MesiState::Modified);
        l2.lookup(addr);
        return {DataSource::L2, config_.lat_l2};
    }
    const Snoop snoop = bus_->snoop(chip, addr, /*for_ownership=*/true);
    if (snoop.found) {
        fillL2(chip, addr, MesiState::Modified);
        return fromRemoteL2(chip, snoop);
    }
    const LineFetch fetch = probeBeyondL2(chip, addr);
    fillL2(chip, addr, MesiState::Modified);
    return fetch;
}

void
MemoryHierarchy::applyPrefetch(std::size_t core, const Prefetch &decision,
                               MemAccessOutcome &outcome)
{
    const std::size_t chip = chipOf(core);
    outcome.stream_allocated = decision.stream_allocated;
    for (const Addr line : decision.l1_lines) {
        if (!l2_[chip]->probe(line))
            fillL2(chip, line, MesiState::Exclusive);
        const bool resident = l1d_[core]->probe(line);
        l1d_[core]->fill(line, MesiState::Shared);
        if (!resident)
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
MemoryHierarchy::load(std::size_t core, Addr addr)
{
    MemAccessOutcome outcome;
    Cache &l1d = *l1d_[core];
    outcome.l1_hit = l1d.lookup(addr);
    if (outcome.l1_hit) {
        outcome.source = DataSource::L1;
        outcome.latency = config_.lat_l1;
    } else {
        const LineFetch fetch =
            fetchLineForRead(chipOf(core), addr, LineKind::Data);
        outcome.source = fetch.source;
        outcome.latency = fetch.latency;
        l1d.fill(l1d.lineAddr(addr), MesiState::Shared);
    }
    hot_.noteLoad(core, static_cast<std::size_t>(outcome.source));
    if (config_.prefetch_enabled) {
        const Prefetch decision =
            prefetcher_[core].observe(addr, !outcome.l1_hit);
        applyPrefetch(core, decision, outcome);
    }
    return outcome;
}

MemAccessOutcome
MemoryHierarchy::store(std::size_t core, Addr addr)
{
    // Write-through L1D without store allocation: the store always
    // goes to the L2 for ownership, and an L1 miss installs nothing.
    MemAccessOutcome outcome;
    outcome.l1_hit = l1d_[core]->lookup(addr);
    const LineFetch fetch = fetchLineForWrite(chipOf(core), addr);
    outcome.source = outcome.l1_hit ? DataSource::L1 : fetch.source;
    outcome.latency = fetch.latency;
    return outcome;
}

MemAccessOutcome
MemoryHierarchy::fetch(std::size_t core, Addr addr)
{
    MemAccessOutcome outcome;
    Cache &l1i = *l1i_[core];
    outcome.l1_hit = l1i.lookup(addr);
    if (outcome.l1_hit) {
        outcome.source = DataSource::L1;
        outcome.latency = config_.lat_l1;
    } else {
        const LineFetch fetch =
            fetchLineForRead(chipOf(core), addr, LineKind::Instruction);
        outcome.source = fetch.source;
        outcome.latency = fetch.latency;
        l1i.fill(l1i.lineAddr(addr), MesiState::Shared,
                 LineKind::Instruction);
    }
    hot_.noteIfetch(core, static_cast<std::size_t>(outcome.source));
    return outcome;
}

void
MemoryHierarchy::flushAll()
{
    for (auto *level : {&l1i_, &l1d_, &l2_, &l3_}) {
        for (auto &cache : *level)
            cache->flush();
    }
    for (Prefetcher &p : prefetcher_)
        p.reset();
}

} // namespace jasim::ref
