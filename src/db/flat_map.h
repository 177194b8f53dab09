/**
 * @file
 * Open-addressing map from 64-bit keys, for the DB's indexes and its
 * buffer pool's page map.
 *
 * Robin Hood linear probing over a power-of-two table kept at most
 * 3/4 full: an entry never sits farther from its home slot than the
 * entry it would pass, so a lookup stops at the first entry nearer
 * home than itself, and erase shifts the displaced entries behind the
 * hole back by one and stops at the first one at home. There are no
 * tombstones and no heap block per entry. The home slot keeps short
 * runs of consecutive keys together: the 16 keys of an aligned block
 * take 16 adjacent slots in key order, and a Fibonacci hash of the
 * block number places the block. A populated table's keys 0..N-1 and
 * keys that count up then fill memory a block at a time, while keys at
 * a stride, and runs of keys that would overlap if placed whole, still
 * spread out.
 *
 * Nothing iterates a FlatMap, so where an entry sits never reaches
 * the simulation.
 */

#ifndef JASIM_DB_FLAT_MAP_H
#define JASIM_DB_FLAT_MAP_H

#include <cstdint>
#include <utility>
#include <vector>

namespace jasim {

template <typename V>
class FlatMap
{
  public:
    /** The key's value, or nullptr when absent. */
    V *
    find(std::uint64_t key)
    {
        const std::size_t at = locate(key);
        return at == npos ? nullptr : &slots_[at].value;
    }

    const V *
    find(std::uint64_t key) const
    {
        const std::size_t at = locate(key);
        return at == npos ? nullptr : &slots_[at].value;
    }

    /**
     * Insert (key, value) unless the key is present. Returns the
     * key's value (valid until the next insertion) and whether it
     * was inserted.
     */
    std::pair<V *, bool>
    emplace(std::uint64_t key, const V &value)
    {
        if ((size_ + 1) * 4 > slots_.size() * 3)
            grow();
        std::size_t at = home(key);
        for (std::size_t dist = 0; used_[at];
             at = (at + 1) & mask_, ++dist) {
            if (slots_[at].key == key)
                return {&slots_[at].value, false};
            if (distance(at) < dist)
                break;
        }
        V *inserted = &slots_[at].value;
        place(at, Slot{key, value});
        ++size_;
        return {inserted, true};
    }

    /** Remove the key; false when absent. */
    bool
    erase(std::uint64_t key)
    {
        std::size_t hole = locate(key);
        if (hole == npos)
            return false;
        for (std::size_t at = (hole + 1) & mask_;
             used_[at] && distance(at) > 0; at = (at + 1) & mask_) {
            slots_[hole] = slots_[at];
            hole = at;
        }
        used_[hole] = 0;
        --size_;
        return true;
    }

    std::size_t size() const { return size_; }

    /** Slots in the table (0 until the first insertion). */
    std::size_t capacity() const { return slots_.size(); }

    /**
     * Size the table for `n` entries at once, to the capacity that
     * growth would reach on the way to `n`: the smallest power of two,
     * at least 16, that holds `n` at most 3/4 full. No-op when the
     * table is already that large.
     */
    void
    reserve(std::size_t n)
    {
        if (n == 0)
            return;
        unsigned bits = 4;
        while (n * 4 > (std::size_t{3} << bits))
            ++bits;
        if (bits > bits_)
            rehash(bits);
    }

    /** Drop every entry; the table keeps its capacity. */
    void
    clear()
    {
        used_.assign(used_.size(), 0);
        size_ = 0;
    }

  private:
    struct Slot
    {
        std::uint64_t key;
        V value;
    };

    static constexpr std::size_t npos = ~std::size_t{0};

    std::vector<Slot> slots_;
    std::vector<std::uint8_t> used_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned bits_ = 0; //!< log2 of the table size

    std::size_t
    home(std::uint64_t key) const
    {
        const std::uint64_t block =
            ((key >> 4) * 0x9e3779b97f4a7c15ull) >> (64 - bits_);
        return static_cast<std::size_t>((block & ~std::uint64_t{15}) |
                                        (key & 15));
    }

    /** How far the entry in slot `at` sits past its home slot. */
    std::size_t
    distance(std::size_t at) const
    {
        return (at - home(slots_[at].key)) & mask_;
    }

    std::size_t
    locate(std::uint64_t key) const
    {
        if (size_ == 0)
            return npos;
        std::size_t at = home(key);
        for (std::size_t dist = 0; used_[at];
             at = (at + 1) & mask_, ++dist) {
            if (slots_[at].key == key)
                return at;
            if (distance(at) < dist)
                return npos;
        }
        return npos;
    }

    /**
     * Put `slot` at `at`, its probe position, passing each entry
     * behind it that sits nearer its home on to the next slot.
     */
    void
    place(std::size_t at, Slot slot)
    {
        std::size_t dist = (at - home(slot.key)) & mask_;
        for (; used_[at]; at = (at + 1) & mask_, ++dist) {
            const std::size_t resident = distance(at);
            if (resident < dist) {
                std::swap(slot, slots_[at]);
                dist = resident;
            }
        }
        used_[at] = 1;
        slots_[at] = slot;
    }

    void grow() { rehash(slots_.empty() ? 4 : bits_ + 1); }

    /** Move every entry into a table of 2^bits slots. */
    void
    rehash(unsigned bits)
    {
        std::vector<Slot> slots = std::move(slots_);
        std::vector<std::uint8_t> used = std::move(used_);
        bits_ = bits;
        slots_.assign(std::size_t{1} << bits_, Slot{});
        used_.assign(slots_.size(), 0);
        mask_ = slots_.size() - 1;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (used[i])
                place(home(slots[i].key), slots[i]);
        }
    }
};

} // namespace jasim

#endif // JASIM_DB_FLAT_MAP_H
