/**
 * @file
 * Live-object graph for reachability-based collection.
 *
 * Allocation units ("cells") stand in for clusters of Java objects at
 * a configurable byte granularity. Each cell can be referenced by a
 * root slot (with an expiry time modelling request/session lifetime)
 * and by inter-object edges; the GC's mark phase does a real traversal
 * from the live roots, so liveness is genuinely reachability, not a
 * scripted number.
 */

#ifndef JASIM_JVM_OBJECT_GRAPH_H
#define JASIM_JVM_OBJECT_GRAPH_H

#include <array>
#include <cstdint>
#include <memory_resource>
#include <unordered_map>
#include <vector>

#include "sim/rng.h"
#include "sim/types.h"

namespace jasim {

/** Identifier of an allocated cell. */
using CellId = std::uint64_t;

/** One allocation unit: 40 bytes, with no storage of its own. */
struct Cell
{
    static constexpr std::size_t maxEdges = 4;

    std::uint64_t heap_offset = 0;
    /** Root expiry; 0 means not rooted. */
    SimTime root_expiry = 0;
    std::uint32_t bytes = 0;
    /** Outgoing references (ids below 2^32), in the order added. */
    std::array<std::uint32_t, maxEdges> edges{};
    std::uint8_t edge_count = 0;
    bool marked = false;
};

/** Result of a mark traversal. */
struct MarkResult
{
    std::uint64_t live_cells = 0;
    std::uint64_t live_bytes = 0;
    std::uint64_t visited_edges = 0;
};

/**
 * The object graph and its root set.
 */
class ObjectGraph
{
  public:
    explicit ObjectGraph(std::uint64_t seed) : rng_(seed), cells_(&pool_) {}

    /**
     * Register a new cell rooted until `expiry`.
     * With `edge_probability` an edge is added from a random recent
     * cell to the new one (so some cells outlive their root), unless
     * that cell already holds Cell::maxEdges.
     * @throws std::overflow_error when an edge would need an id of
     *         2^32 or more (about 160 simulated hours of one node).
     */
    CellId addCell(std::uint64_t heap_offset, std::uint32_t bytes,
                   SimTime expiry, double edge_probability = 0.2);

    /** Remove roots that expired before `now`. */
    void expireRoots(SimTime now);

    /** Mark all cells reachable from live roots. */
    MarkResult mark();

    /**
     * Sweep: invoke `reclaim(offset, bytes)` on every unmarked cell
     * and remove it from the graph. Returns the number reclaimed.
     * Clears marks on survivors. Cells are visited in the iteration
     * order of `cells_`, which decides the heap's later tie-breaks.
     */
    template <typename Reclaim>
    std::uint64_t
    sweep(Reclaim &&reclaim)
    {
        std::uint64_t reclaimed = 0;
        for (auto it = cells_.begin(); it != cells_.end();) {
            if (!it->second.marked) {
                reclaim(it->second.heap_offset, it->second.bytes);
                it = cells_.erase(it);
                ++reclaimed;
            } else {
                it->second.marked = false;
                ++it;
            }
        }
        rebuildRecent();
        return reclaimed;
    }

    /** Visit every cell mutably (compaction relocates offsets). */
    template <typename Fn>
    void
    forEachCell(Fn &&fn)
    {
        for (auto &[id, cell] : cells_)
            fn(cell);
    }

    std::size_t cellCount() const { return cells_.size(); }

    /** Sum of bytes across all cells (for invariants). */
    std::uint64_t totalBytes() const;

    const Cell *find(CellId id) const;

  private:
    Rng rng_;
    /**
     * Cell nodes come from this pool, packed one per 64-byte slot, so
     * the mark and sweep scans touch one cache line per cell.
     */
    std::pmr::unsynchronized_pool_resource pool_;
    /**
     * Every simulated output depends on this container's iteration
     * order (see sweep()). Its key type, hash and growth policy are
     * part of the model: changing any of them, or reserve()ing it,
     * reorders the sweep and moves the results. The allocator is not.
     */
    std::pmr::unordered_map<CellId, Cell> cells_;
    std::vector<CellId> recent_; //!< ring of recently allocated ids
    std::size_t recent_head_ = 0;
    CellId next_id_ = 1;

    static constexpr std::size_t recentCapacity = 512;

    void rebuildRecent();
};

} // namespace jasim

#endif // JASIM_JVM_OBJECT_GRAPH_H
