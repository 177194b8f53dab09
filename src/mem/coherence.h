/**
 * @file
 * MESI coherence across the L2 caches (the coherence point).
 *
 * The study system has two chips, each with one shared L2; the bus
 * model answers "who has this line, in what state" and applies the
 * MESI transitions for reads and reads-for-ownership. The outcome is
 * what lets the hierarchy classify L2.5 / L2.75-shared / L2.75-
 * modified traffic, the key evidence behind the paper's claim that
 * intelligent thread co-scheduling would not pay off for jas2004.
 */

#ifndef JASIM_MEM_COHERENCE_H
#define JASIM_MEM_COHERENCE_H

#include <cstddef>
#include <vector>

#include "mem/cache.h"

namespace jasim {

/** Result of a coherence snoop on behalf of one requesting L2. */
struct SnoopResult
{
    bool found = false;
    /** Index of the L2 that supplied the line (valid when found). */
    std::size_t supplier = 0;
    /** State the line was in at the supplier when it was read. */
    MesiState supplier_state = MesiState::Invalid;
};

/**
 * Snoopy MESI bus over a set of L2 caches.
 *
 * The bus does not own the caches; the hierarchy passes in the L2
 * vector it owns. All transitions follow the standard MESI protocol:
 *
 *  - read snoop: remote M -> S (implied writeback), remote E -> S;
 *    requester fills S when a remote copy exists, E otherwise.
 *  - read-for-ownership snoop: all remote copies invalidated;
 *    requester fills M.
 *
 * A remote L2 whose presence filter (SetAssocCache::mayContain) proves
 * the line absent is skipped; the filter has no false negatives, and
 * a cache without one always answers "maybe".
 */
class MesiBus
{
  public:
    explicit MesiBus(std::vector<SetAssocCache *> l2_caches);

    /** Remote-cache probes skipped thanks to the presence filter. */
    std::uint64_t filterSkips() const { return filter_skips_; }

    /**
     * Snoop for a read by `requester`. Applies downgrades to remote
     * caches and returns where (if anywhere) the line was found.
     */
    SnoopResult snoopRead(std::size_t requester, Addr addr);

    /**
     * Snoop for a store (read-for-ownership) by `requester`.
     * Invalidates all remote copies.
     */
    SnoopResult snoopReadForOwnership(std::size_t requester, Addr addr);

    /** The state `requester` should install after a read snoop. */
    static MesiState
    fillStateAfterRead(const SnoopResult &snoop)
    {
        return snoop.found ? MesiState::Shared : MesiState::Exclusive;
    }

    std::size_t l2Count() const { return l2s_.size(); }

  private:
    std::vector<SetAssocCache *> l2s_;
    std::uint64_t filter_skips_ = 0;
};

} // namespace jasim

#endif // JASIM_MEM_COHERENCE_H
