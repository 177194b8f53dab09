/**
 * @file
 * Unified translation lookaside buffer and segment lookaside buffer.
 *
 * The TLB holds page-size-aware entries: one entry maps a whole 16 MB
 * page, which is why backing the 1 GB Java heap with large pages (64
 * entries instead of 262144) transforms TLB behaviour. POWER4's TLB is
 * hardware-walked; a miss costs a table walk but no OS trap.
 */

#ifndef JASIM_XLAT_TLB_H
#define JASIM_XLAT_TLB_H

#include <cstdint>

#include "sim/lru_table.h"
#include "xlat/address_space.h"

namespace jasim {

/** Set-associative unified TLB with LRU replacement. */
class Tlb
{
  public:
    Tlb(std::size_t entries, std::size_t ways) : table_(entries, ways) {}

    /** Probe-and-fill by page identity; true on hit. */
    bool
    access(const PageId &page)
    {
        return table_.access(pageNumber(page), page).hit;
    }

    /** Probe only. */
    bool
    probe(const PageId &page) const
    {
        return table_.find(pageNumber(page), page) != nullptr;
    }

    void flush() { table_.flush(); }

    std::size_t entries() const { return table_.entries(); }

    /** Casualty epoch: bumped on installs and flush (see LruTable). */
    std::uint64_t epoch() const { return table_.epoch(); }

  private:
    LruTable<PageId> table_;

    /**
     * Set index: consecutive pages spread over sets; large pages have
     * sparse page numbers, which is fine.
     */
    static std::uint64_t
    pageNumber(const PageId &page)
    {
        return page.base / page.bytes;
    }
};

/**
 * Segment lookaside buffer: 256 MB segments, few entries, misses are
 * rare and expensive. Included for methodological completeness -- the
 * paper notes translation takes "at least 14 cycles" including an SLB
 * lookup.
 */
class Slb
{
  public:
    /** Fully associative: one set of `entries` ways. */
    explicit Slb(std::size_t entries = 64) : table_(entries, entries) {}

    bool
    access(Addr addr)
    {
        return table_.access(0, addr / segmentBytes).hit;
    }

    void flush() { table_.flush(); }

    static constexpr std::uint64_t segmentBytes = 256ull * 1024 * 1024;

  private:
    LruTable<Addr> table_; //!< keyed by segment number
};

} // namespace jasim

#endif // JASIM_XLAT_TLB_H
