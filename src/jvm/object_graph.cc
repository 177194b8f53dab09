#include "jvm/object_graph.h"

#include <limits>
#include <stdexcept>
#include <string>

namespace jasim {

CellId
ObjectGraph::addCell(std::uint64_t heap_offset, std::uint32_t bytes,
                     SimTime expiry, double edge_probability)
{
    const CellId id = next_id_++;
    Cell &cell = cells_.insert(id);
    cell.heap_offset = heap_offset;
    cell.bytes = bytes;
    cell.root_expiry = expiry;

    // Occasionally a recent object takes a reference to the new one,
    // letting it survive its own root (session state, caches).
    if (!recent_.empty() && rng_.chance(edge_probability)) {
        const CellId from =
            recent_[rng_.below(recent_.size())];
        Cell *holder = cells_.find(from);
        if (holder && holder->edge_count < Cell::maxEdges) {
            if (id > std::numeric_limits<std::uint32_t>::max())
                throw std::overflow_error(
                    "ObjectGraph: cell id " + std::to_string(id) +
                    " does not fit a 32-bit edge");
            holder->edges[holder->edge_count++] =
                static_cast<std::uint32_t>(id);
        }
    }

    if (recent_.size() < recentCapacity) {
        recent_.push_back(id);
    } else {
        recent_[recent_head_] = id;
        recent_head_ = (recent_head_ + 1) % recentCapacity;
    }
    return id;
}

MarkResult
ObjectGraph::mark(SimTime now)
{
    MarkResult result;
    std::vector<Cell *> work; // FIFO: the traversal is breadth-first
    cells_.forEach([&work, now](CellId, Cell &cell) {
        if (cell.root_expiry != 0 && cell.root_expiry < now)
            cell.root_expiry = 0;
        if (cell.root_expiry != 0 && !cell.marked) {
            cell.marked = true;
            work.push_back(&cell);
        }
    });
    for (std::size_t next = 0; next < work.size(); ++next) {
        const Cell &cell = *work[next];
        ++result.live_cells;
        result.live_bytes += cell.bytes;
        for (std::uint8_t e = 0; e < cell.edge_count; ++e) {
            ++result.visited_edges;
            Cell *ref = cells_.find(cell.edges[e]);
            if (ref && !ref->marked) {
                ref->marked = true;
                work.push_back(ref);
            }
        }
    }
    return result;
}

std::uint64_t
ObjectGraph::totalBytes() const
{
    std::uint64_t total = 0;
    cells_.forEach(
        [&total](CellId, const Cell &cell) { total += cell.bytes; });
    return total;
}

const Cell *
ObjectGraph::find(CellId id) const
{
    return cells_.find(id);
}

void
ObjectGraph::rebuildRecent()
{
    // Drop ids of swept cells from the recent ring.
    std::vector<CellId> survivors;
    survivors.reserve(recent_.size());
    for (const CellId id : recent_) {
        if (cells_.find(id))
            survivors.push_back(id);
    }
    recent_ = std::move(survivors);
    recent_head_ = 0;
}

} // namespace jasim
