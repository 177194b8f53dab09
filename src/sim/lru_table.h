/**
 * @file
 * Set-associative tag store with LRU replacement.
 *
 * One table serves the POWER4 structures the paper's Figures 6 and 7
 * count: the BTB and the count cache (branch/), the IERAT/DERAT, the
 * unified TLB and the SLB (xlat/). Each of them keeps only its own
 * rules -- how a key picks its set, what an entry stores and what a
 * hit does to it -- and leaves the ways, the stamps and the victim
 * choice to this table.
 */

#ifndef JASIM_SIM_LRU_TABLE_H
#define JASIM_SIM_LRU_TABLE_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace jasim {

/** Value type of a table that stores keys alone (ERAT, SLB). */
struct NoValue
{
};

/**
 * `entries / ways` sets (a power of two) of `ways` entries each.
 *
 * Callers pass a set index with every key; the table masks it to its
 * set count. A per-table tick advances once per access(), hit or miss,
 * and never on find(); a hit stamps its entry with the tick, and a miss
 * installs the key in the first invalid way, else in the way with the
 * oldest stamp (the first such way on ties).
 */
template <typename Key, typename Value = NoValue>
class LruTable
{
  public:
    /** What access() found or installed. */
    struct Slot
    {
        Value &value; //!< a miss's value is value-initialised
        bool hit;
    };

    LruTable(std::size_t entries, std::size_t ways)
        : ways_(ways), set_mask_(entries / ways - 1), table_(entries)
    {
        assert(ways > 0 && entries % ways == 0);
        assert((set_mask_ & (set_mask_ + 1)) == 0 &&
               "sets must be a power of two");
    }

    /** The value stored for key, or nullptr; touches nothing. */
    const Value *
    find(std::uint64_t index, const Key &key) const
    {
        const Entry *base = &table_[firstWay(index)];
        const std::size_t way = wayOf(base, key);
        return way < ways_ ? &base[way].value : nullptr;
    }

    /** Probe-and-fill: refresh a hit, or install a miss. */
    Slot
    access(std::uint64_t index, const Key &key)
    {
        Entry *base = &table_[firstWay(index)];
        ++tick_;
        std::size_t way = wayOf(base, key);
        if (way < ways_) {
            base[way].stamp = tick_;
            return {base[way].value, true};
        }
        // An invalid way holds stamp 0, older than every valid one.
        way = 0;
        for (std::size_t w = 1; w < ways_; ++w) {
            if (base[w].stamp < base[way].stamp)
                way = w;
        }
        base[way] = Entry{key, Value{}, tick_};
        ++epoch_;
        return {base[way].value, false};
    }

    /** Invalidate every entry; the tick keeps counting. */
    void
    flush()
    {
        for (Entry &entry : table_)
            entry.stamp = 0;
        ++epoch_;
    }

    std::size_t entries() const { return table_.size(); }

    /**
     * Casualty epoch: advances on every install (an entry was replaced)
     * and on flush, never on a hit. A key that hit while the epoch is
     * unchanged is provably still resident, which lets callers memoize
     * consecutive repeat lookups (xlat/translation_unit.h).
     */
    std::uint64_t epoch() const { return epoch_; }

  private:
    struct Entry
    {
        Key key{};
        [[no_unique_address]] Value value{};
        std::uint64_t stamp = 0; //!< last access; 0 marks an invalid way
    };

    std::size_t ways_;
    std::uint64_t set_mask_;
    std::vector<Entry> table_; //!< row-major by set
    std::uint64_t tick_ = 0;
    std::uint64_t epoch_ = 0;

    /** Position in table_ of the first way of index's set. */
    std::size_t
    firstWay(std::uint64_t index) const
    {
        return static_cast<std::size_t>(index & set_mask_) * ways_;
    }

    /** The way holding key in the set at base, or ways_ when absent. */
    std::size_t
    wayOf(const Entry *base, const Key &key) const
    {
        for (std::size_t w = 0; w < ways_; ++w) {
            if (base[w].stamp != 0 && base[w].key == key)
                return w;
        }
        return ways_;
    }
};

} // namespace jasim

#endif // JASIM_SIM_LRU_TABLE_H
