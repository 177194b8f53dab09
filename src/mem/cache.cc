#include "mem/cache.h"

#include <cassert>

namespace jasim {

namespace {

std::uint32_t
log2Exact(std::uint64_t value)
{
    std::uint32_t shift = 0;
    while ((std::uint64_t{1} << shift) < value)
        ++shift;
    return shift;
}

} // namespace

SetAssocCache::SetAssocCache(const CacheGeometry &geometry,
                             ReplacementPolicy policy)
    : geometry_(geometry), policy_(policy), sets_(geometry.sets()),
      line_shift_(log2Exact(geometry.line_bytes)), set_mask_(sets_ - 1),
      lines_(sets_ * geometry.ways), way_hint_(sets_, 0)
{
    assert(sets_ > 0 && "geometry must yield at least one set");
    assert((sets_ & (sets_ - 1)) == 0 && "set count must be a power of two");
    assert((geometry.line_bytes & (geometry.line_bytes - 1)) == 0);
}

const SetAssocCache::Line *
SetAssocCache::findLine(Addr addr) const
{
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const Line *base = &lines_[set * geometry_.ways];
    const std::uint32_t hint = way_hint_[set];
    if (base[hint].state != MesiState::Invalid && base[hint].tag == tag)
        return &base[hint];
    for (std::uint32_t w = 0; w < geometry_.ways; ++w) {
        if (w != hint && base[w].state != MesiState::Invalid &&
            base[w].tag == tag) {
            way_hint_[set] = static_cast<std::uint16_t>(w);
            return &base[w];
        }
    }
    return nullptr;
}

bool
SetAssocCache::probe(Addr addr) const
{
    return findLine(addr) != nullptr;
}

MesiState
SetAssocCache::state(Addr addr) const
{
    const Line *line = findLine(addr);
    return line ? line->state : MesiState::Invalid;
}

void
SetAssocCache::enablePresenceFilter(std::size_t buckets)
{
    assert(validLines() == 0 && "enable the filter on an empty cache");
    std::size_t rounded = 1;
    while (rounded < buckets)
        rounded <<= 1;
    presence_.assign(rounded, 0);
    presence_mask_ = rounded - 1;
}

std::size_t
SetAssocCache::victimWay(std::uint64_t set)
{
    Line *base = &lines_[set * geometry_.ways];
    // Prefer an invalid way.
    for (std::uint32_t w = 0; w < geometry_.ways; ++w) {
        if (base[w].state == MesiState::Invalid)
            return w;
    }
    // Instruction-friendly mode: restrict victims to data lines when
    // any exist, so instruction entries are evicted last.
    bool restrict_to_data = false;
    if (inst_friendly_) {
        for (std::uint32_t w = 0; w < geometry_.ways; ++w) {
            if (base[w].kind == LineKind::Data) {
                restrict_to_data = true;
                break;
            }
        }
    }
    auto eligible = [&](std::uint32_t w) {
        return !restrict_to_data || base[w].kind == LineKind::Data;
    };
    // FIFO and LRU both evict the smallest stamp; the difference is
    // whether hits refresh the stamp (LRU) or not (FIFO).
    std::size_t victim = geometry_.ways;
    for (std::uint32_t w = 0; w < geometry_.ways; ++w) {
        if (!eligible(w))
            continue;
        if (victim == geometry_.ways ||
            base[w].stamp < base[victim].stamp) {
            victim = w;
        }
    }
    return victim;
}

void
SetAssocCache::installLine(Addr addr, MesiState fill_state, LineKind kind,
                           CacheAccessResult &result)
{
    const std::uint64_t set = setIndex(addr);
    const std::size_t way = victimWay(set);
    Line &line = lines_[set * geometry_.ways + way];
    if (line.state != MesiState::Invalid) {
        result.victim = line.tag << line_shift_;
        result.victim_state = line.state;
        presenceRemove(line.tag);
    }
    line.tag = tagOf(addr);
    line.state = fill_state;
    line.kind = kind;
    line.stamp = tick_;
    presenceAdd(line.tag);
    way_hint_[set] = static_cast<std::uint16_t>(way);
    ++epoch_;
}

CacheAccessResult
SetAssocCache::access(Addr addr, bool allocate, MesiState fill_state,
                      LineKind kind)
{
    CacheAccessResult result;
    ++tick_;
    if (Line *line = findLine(addr)) {
        result.hit = true;
        if (policy_ == ReplacementPolicy::LRU)
            line->stamp = tick_;
        return result;
    }
    if (!allocate)
        return result;
    installLine(addr, fill_state, kind, result);
    return result;
}

CacheAccessResult
SetAssocCache::fill(Addr addr, MesiState fill_state, LineKind kind)
{
    CacheAccessResult result;
    ++tick_;
    if (Line *line = findLine(addr)) {
        // Already resident: treat as a state refresh.
        if (line->state != fill_state || line->kind != kind)
            ++epoch_;
        line->state = fill_state;
        line->kind = kind;
        result.hit = true;
        return result;
    }
    installLine(addr, fill_state, kind, result);
    return result;
}

bool
SetAssocCache::setState(Addr addr, MesiState new_state)
{
    if (Line *line = findLine(addr)) {
        if (line->state != new_state) {
            if (new_state == MesiState::Invalid)
                presenceRemove(line->tag);
            ++epoch_;
        }
        line->state = new_state;
        return true;
    }
    return false;
}

bool
SetAssocCache::invalidate(Addr addr)
{
    if (Line *line = findLine(addr)) {
        presenceRemove(line->tag);
        line->state = MesiState::Invalid;
        ++epoch_;
        return true;
    }
    return false;
}

void
SetAssocCache::flush()
{
    for (auto &line : lines_)
        line.state = MesiState::Invalid;
    if (!presence_.empty())
        presence_.assign(presence_.size(), 0);
    ++epoch_;
}

std::uint64_t
SetAssocCache::validLines() const
{
    std::uint64_t count = 0;
    for (const auto &line : lines_) {
        if (line.state != MesiState::Invalid)
            ++count;
    }
    return count;
}

} // namespace jasim
