/**
 * @file
 * Hash indexes over integer keys.
 *
 * jas2004's operations are dominated by point lookups on surrogate
 * keys; a unique hash index (primary key) and a non-unique variant
 * (foreign keys) cover the query engine's needs. Both are flat
 * open-addressing tables (db/flat_map.h): no heap block per key.
 */

#ifndef JASIM_DB_INDEX_H
#define JASIM_DB_INDEX_H

#include <cstdint>
#include <optional>
#include <vector>

#include "db/flat_map.h"
#include "db/table.h"

namespace jasim {

/** Unique integer-key -> RowId index. */
class UniqueIndex
{
  public:
    /** Insert; false (keeping the old RowId) when the key exists. */
    bool
    insert(std::int64_t key, RowId id)
    {
        return map_.emplace(static_cast<std::uint64_t>(key), id).second;
    }

    std::optional<RowId>
    find(std::int64_t key) const
    {
        const RowId *id = map_.find(static_cast<std::uint64_t>(key));
        return id ? std::optional<RowId>(*id) : std::nullopt;
    }

    bool
    erase(std::int64_t key)
    {
        return map_.erase(static_cast<std::uint64_t>(key));
    }

    std::size_t size() const { return map_.size(); }

    /** Size the index for `n` keys at once (FlatMap::reserve). */
    void reserve(std::size_t n) { map_.reserve(n); }

  private:
    FlatMap<RowId> map_;
};

/**
 * Non-unique integer-key -> RowIds index. A key's RowIds keep their
 * insertion order (a chain through one node array), which is the
 * order selectBySecondary touches their pages in.
 */
class MultiIndex
{
  public:
    void insert(std::int64_t key, RowId id);

    /** All rows with the key, in insertion order (empty when none). */
    std::vector<RowId> find(std::int64_t key) const;

    /** Visit the key's RowIds in insertion order. */
    template <typename Visitor>
    void
    forEach(std::int64_t key, Visitor &&visit) const
    {
        const Chain *chain = chains_.find(static_cast<std::uint64_t>(key));
        for (std::uint32_t n = chain ? chain->head : none; n != none;
             n = nodes_[n].next)
            visit(nodes_[n].id);
    }

    /** Remove the key's first pairing with `id`; false when absent. */
    bool erase(std::int64_t key, RowId id);

    std::size_t size() const { return entries_; }

  private:
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    struct Chain
    {
        std::uint32_t head = none;
        std::uint32_t tail = none;
    };

    struct Node
    {
        RowId id;
        std::uint32_t next = none;
    };

    FlatMap<Chain> chains_;
    std::vector<Node> nodes_;
    std::uint32_t free_ = none; //!< erased nodes, linked through next
    std::size_t entries_ = 0;
};

} // namespace jasim

#endif // JASIM_DB_INDEX_H
