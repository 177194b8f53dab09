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

#include <cstdint>
#include <vector>

#include "jvm/cell_table.h"
#include "sim/rng.h"
#include "sim/types.h"

namespace jasim {

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
    explicit ObjectGraph(std::uint64_t seed) : rng_(seed) {}

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

    /**
     * Remove roots that expired before `now`, then mark all cells
     * reachable from the live ones. Roots enter the traversal in the
     * iteration order of the cell table.
     */
    MarkResult mark(SimTime now);

    /**
     * Sweep: invoke `reclaim(offset, bytes)` on every unmarked cell
     * and remove it from the graph. Returns the number reclaimed.
     * Clears marks on survivors. Cells are visited in the iteration
     * order of the cell table, which decides the heap's later
     * tie-breaks.
     */
    template <typename Reclaim>
    std::uint64_t
    sweep(Reclaim &&reclaim)
    {
        const std::uint64_t reclaimed =
            cells_.eraseIf([&reclaim](CellId, Cell &cell) {
                if (cell.marked) {
                    cell.marked = false;
                    return false;
                }
                reclaim(cell.heap_offset, cell.bytes);
                return true;
            });
        rebuildRecent();
        return reclaimed;
    }

    /** Visit every cell mutably (compaction relocates offsets). */
    template <typename Fn>
    void
    forEachCell(Fn &&fn)
    {
        cells_.forEach([&fn](CellId, Cell &cell) { fn(cell); });
    }

    std::size_t cellCount() const { return cells_.size(); }

    /** Sum of bytes across all cells (for invariants). */
    std::uint64_t totalBytes() const;

    const Cell *find(CellId id) const;

  private:
    Rng rng_;
    /** Every simulated output depends on its iteration order. */
    CellTable cells_;
    std::vector<CellId> recent_; //!< ring of recently allocated ids
    std::size_t recent_head_ = 0;
    CellId next_id_ = 1;

    static constexpr std::size_t recentCapacity = 512;

    void rebuildRecent();
};

} // namespace jasim

#endif // JASIM_JVM_OBJECT_GRAPH_H
