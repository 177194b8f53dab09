#include "jvm/object_graph.h"

#include <deque>
#include <limits>
#include <stdexcept>
#include <string>

namespace jasim {

// Cell, key and link make a 56-byte node: one 64-byte pool slot.
static_assert(sizeof(Cell) == 40);

CellId
ObjectGraph::addCell(std::uint64_t heap_offset, std::uint32_t bytes,
                     SimTime expiry, double edge_probability)
{
    const CellId id = next_id_++;
    Cell cell;
    cell.heap_offset = heap_offset;
    cell.bytes = bytes;
    cell.root_expiry = expiry;
    cells_.emplace(id, std::move(cell));

    // Occasionally a recent object takes a reference to the new one,
    // letting it survive its own root (session state, caches).
    if (!recent_.empty() && rng_.chance(edge_probability)) {
        const CellId from =
            recent_[rng_.below(recent_.size())];
        auto it = cells_.find(from);
        if (it != cells_.end() && it->second.edge_count < Cell::maxEdges) {
            if (id > std::numeric_limits<std::uint32_t>::max())
                throw std::overflow_error(
                    "ObjectGraph: cell id " + std::to_string(id) +
                    " does not fit a 32-bit edge");
            Cell &holder = it->second;
            holder.edges[holder.edge_count++] =
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

void
ObjectGraph::expireRoots(SimTime now)
{
    for (auto &[id, cell] : cells_) {
        if (cell.root_expiry != 0 && cell.root_expiry < now)
            cell.root_expiry = 0;
    }
}

MarkResult
ObjectGraph::mark()
{
    MarkResult result;
    std::deque<CellId> work;
    for (auto &[id, cell] : cells_) {
        if (cell.root_expiry != 0 && !cell.marked) {
            cell.marked = true;
            work.push_back(id);
        }
    }
    while (!work.empty()) {
        const CellId id = work.front();
        work.pop_front();
        auto it = cells_.find(id);
        if (it == cells_.end())
            continue;
        const Cell &cell = it->second;
        ++result.live_cells;
        result.live_bytes += cell.bytes;
        for (std::uint8_t e = 0; e < cell.edge_count; ++e) {
            const CellId ref = cell.edges[e];
            ++result.visited_edges;
            auto ref_it = cells_.find(ref);
            if (ref_it != cells_.end() && !ref_it->second.marked) {
                ref_it->second.marked = true;
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
    for (const auto &[id, cell] : cells_)
        total += cell.bytes;
    return total;
}

const Cell *
ObjectGraph::find(CellId id) const
{
    const auto it = cells_.find(id);
    return it == cells_.end() ? nullptr : &it->second;
}

void
ObjectGraph::rebuildRecent()
{
    // Drop ids of swept cells from the recent ring.
    std::vector<CellId> survivors;
    survivors.reserve(recent_.size());
    for (const CellId id : recent_) {
        if (cells_.count(id))
            survivors.push_back(id);
    }
    recent_ = std::move(survivors);
    recent_head_ = 0;
}

} // namespace jasim
