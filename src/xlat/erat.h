/**
 * @file
 * Effective-to-real address translation table (ERAT).
 *
 * POWER4 keeps two ERATs (instruction and data) that are probed in
 * parallel with the L1 caches. A crucial microarchitectural detail the
 * paper leans on: ERAT entries are kept at 4 KB granularity regardless
 * of the page size, so 16 MB heap pages relieve the TLB but not the
 * ERAT -- which is why DERAT misses stay frequent even with large
 * pages while TLB misses drop.
 */

#ifndef JASIM_XLAT_ERAT_H
#define JASIM_XLAT_ERAT_H

#include <bit>
#include <cassert>
#include <cstdint>

#include "sim/lru_table.h"
#include "sim/types.h"

namespace jasim {

/**
 * Set-associative ERAT over fixed 4 KB granules, LRU replacement.
 */
class Erat
{
  public:
    /**
     * @param entries total entries (128 on POWER4).
     * @param ways associativity.
     * @param granule_bytes translation granule (4 KB on POWER4).
     */
    Erat(std::size_t entries, std::size_t ways,
         std::uint64_t granule_bytes = 4096)
        : granule_shift_(
              static_cast<unsigned>(std::countr_zero(granule_bytes))),
          table_(entries, ways)
    {
        assert(std::has_single_bit(granule_bytes));
    }

    /** Probe-and-fill: true on hit; a miss installs the granule. */
    bool
    access(Addr addr)
    {
        const Addr granule = granuleOf(addr);
        return table_.access(granule, granule).hit;
    }

    /** Probe only. */
    bool
    probe(Addr addr) const
    {
        const Addr granule = granuleOf(addr);
        return table_.find(granule, granule) != nullptr;
    }

    /** Invalidate everything (context switch / page-size change). */
    void flush() { table_.flush(); }

    std::size_t entries() const { return table_.entries(); }

    /** Translation granule an address falls in. */
    Addr granuleOf(Addr addr) const { return addr >> granule_shift_; }

    /** Casualty epoch: bumped on installs and flush (see LruTable). */
    std::uint64_t epoch() const { return table_.epoch(); }

  private:
    unsigned granule_shift_; //!< log2(granule bytes), hot-path shift
    LruTable<Addr> table_;   //!< keyed and indexed by granule
};

} // namespace jasim

#endif // JASIM_XLAT_ERAT_H
