#include "db/index.h"

namespace jasim {

void
MultiIndex::insert(std::int64_t key, RowId id)
{
    std::uint32_t node = free_;
    if (node != none) {
        free_ = nodes_[node].next;
        nodes_[node] = Node{id, none};
    } else {
        node = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(Node{id, none});
    }
    const auto [chain, added] =
        chains_.emplace(static_cast<std::uint64_t>(key), Chain{node, node});
    if (!added) {
        nodes_[chain->tail].next = node;
        chain->tail = node;
    }
    ++entries_;
}

std::vector<RowId>
MultiIndex::find(std::int64_t key) const
{
    std::vector<RowId> ids;
    forEach(key, [&ids](RowId id) { ids.push_back(id); });
    return ids;
}

bool
MultiIndex::erase(std::int64_t key, RowId id)
{
    Chain *chain = chains_.find(static_cast<std::uint64_t>(key));
    if (!chain)
        return false;
    std::uint32_t prev = none;
    std::uint32_t node = chain->head;
    while (node != none && !(nodes_[node].id == id)) {
        prev = node;
        node = nodes_[node].next;
    }
    if (node == none)
        return false;
    const std::uint32_t next = nodes_[node].next;
    if (prev == none)
        chain->head = next;
    else
        nodes_[prev].next = next;
    if (chain->tail == node)
        chain->tail = prev;
    nodes_[node].next = free_;
    free_ = node;
    --entries_;
    if (chain->head == none)
        chains_.erase(static_cast<std::uint64_t>(key));
    return true;
}

} // namespace jasim
