/**
 * @file
 * The object graph's cell table: a hash table from cell id to Cell
 * whose iteration order is part of the model.
 *
 * A sweep frees dead cells in this table's iteration order, and the
 * heap breaks best-fit ties by the order of frees, so every simulated
 * output depends on that order. The table defines it here, bit for
 * bit the order of libstdc++'s `std::unordered_map<std::uint64_t,
 * Cell>` (the container jasim used before), so it no longer depends
 * on the standard library at run time:
 *
 *  - the bucket of an id is `id % bucketCount()`;
 *  - the table starts with one bucket and, when an insert would make
 *    its size exceed the bucket count, grows to the next count of
 *    `bucketCounts` (the first insert grows it to 13); it never
 *    shrinks, and it throws past the last count;
 *  - all nodes form one singly linked list headed by a sentinel, and
 *    each bucket points at the node *before* its first node;
 *  - an insert puts the node at the front of its bucket; if that
 *    bucket was empty, the node goes to the head of the whole list
 *    instead, and the former head's bucket is repointed to it;
 *  - an erase that empties a bucket hands that bucket's before-node
 *    to the successor's bucket; one that removes a bucket's last node
 *    makes the predecessor the before-node of the successor's bucket;
 *  - a growth walks the old list in order: a node whose new bucket is
 *    empty goes to the head of the list (and the previous head's
 *    bucket gets it as its before-node), any other node goes right
 *    after its bucket's before-node.
 *
 * Only the links decide the order, so nodes live in slabs and are
 * recycled through a free list. Between growths the bucket count is
 * fixed, so ids below 2^32 (about 160 simulated hours of one node) are
 * reduced with a multiply instead of a division.
 */

#ifndef JASIM_JVM_CELL_TABLE_H
#define JASIM_JVM_CELL_TABLE_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

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

/** Hash table from CellId to Cell with a defined iteration order. */
class CellTable
{
  public:
    /** Bucket counts in growth order, starting with the empty table's. */
    static constexpr std::array<std::uint32_t, 24> bucketCounts{
        1,        13,       29,       59,        127,     257,
        541,      1109,     2357,     5087,      10273,   20753,
        42043,    85229,    172933,   351061,    712697,  1447153,
        2938679,  5967347,  12117689, 24607243,  49969847, 101473717};

    CellTable();
    CellTable(const CellTable &) = delete;
    CellTable &operator=(const CellTable &) = delete;

    std::size_t size() const { return size_; }
    std::size_t bucketCount() const { return bucket_count_; }

    /**
     * Insert `id`, which must not be present, with a default Cell.
     * @throws std::length_error past the last bucket count.
     */
    Cell &
    insert(CellId id)
    {
        if (size_ == capacity_)
            grow();
        Node *node = newNode();
        node->id = id;
        node->cell = Cell{};
        const std::size_t bucket = bucketOf(id);
        if (Link *before = buckets_[bucket]) {
            node->next = before->next;
            before->next = node;
        } else {
            node->next = head_.next;
            head_.next = node;
            if (node->next)
                buckets_[bucketOf(node->next->id)] = node;
            buckets_[bucket] = &head_;
        }
        ++size_;
        return node->cell;
    }

    Cell *
    find(CellId id)
    {
        const std::size_t bucket = bucketOf(id);
        const Link *before = buckets_[bucket];
        if (!before)
            return nullptr;
        for (Node *node = before->next;; node = node->next) {
            if (node->id == id)
                return &node->cell;
            if (!node->next || bucketOf(node->next->id) != bucket)
                return nullptr;
        }
    }

    const Cell *
    find(CellId id) const
    {
        return const_cast<CellTable *>(this)->find(id);
    }

    /** Call `fn(id, cell)` on every cell, in iteration order. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (Node *node = head_.next; node; node = node->next)
            fn(node->id, node->cell);
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Node *node = head_.next; node; node = node->next)
            fn(node->id, static_cast<const Cell &>(node->cell));
    }

    /**
     * Visit every cell in iteration order and erase those for which
     * `dead(id, cell)` returns true. Returns the number erased.
     */
    template <typename Dead>
    std::size_t
    eraseIf(Dead &&dead)
    {
        std::size_t erased = 0;
        Link *prev = &head_;
        while (Node *node = prev->next) {
            if (!dead(node->id, node->cell)) {
                prev = node;
                continue;
            }
            unlink(prev, node);
            node->next = free_;
            free_ = node;
            ++erased;
        }
        size_ -= erased;
        return erased;
    }

  private:
    struct Node;
    struct Link
    {
        Node *next = nullptr;
    };
    struct Node : Link
    {
        CellId id = 0;
        Cell cell;
    };

    static constexpr std::size_t slabNodes = 4096;

    Link head_; //!< sentinel before the first node
    std::vector<Link *> buckets_;
    std::size_t bucket_count_ = 1;
    /** 2^64 / bucket count, rounded up: the multiply-high reduction. */
    std::uint64_t reciprocal_ = 0;
    std::size_t size_ = 0;
    /** Size at which the next insert grows the table. */
    std::size_t capacity_ = 0;
    std::size_t growths_ = 0;
    std::vector<std::unique_ptr<Node[]>> slabs_;
    std::size_t slab_used_ = slabNodes;
    Node *free_ = nullptr;

    std::size_t
    bucketOf(CellId id) const
    {
        // Lemire, Kaser and Kurz's fastmod: exact for 32-bit operands.
        if (id <= 0xffff'ffffull) {
            const std::uint64_t low = reciprocal_ * id;
            return static_cast<std::size_t>(
                (static_cast<unsigned __int128>(low) * bucket_count_) >>
                64);
        }
        return static_cast<std::size_t>(id % bucket_count_);
    }

    Node *
    newNode()
    {
        if (Node *node = free_) {
            free_ = node->next;
            return node;
        }
        if (slab_used_ == slabNodes) {
            slabs_.push_back(std::make_unique<Node[]>(slabNodes));
            slab_used_ = 0;
        }
        return &slabs_.back()[slab_used_++];
    }

    /** Unlink `node`, whose predecessor in the list is `prev`. */
    void
    unlink(Link *prev, Node *node)
    {
        const std::size_t bucket = bucketOf(node->id);
        Node *next = node->next;
        std::size_t next_bucket = 0;
        if (!next || (next_bucket = bucketOf(next->id)) != bucket) {
            // `node` is its bucket's last node.
            if (next)
                buckets_[next_bucket] = prev;
            if (buckets_[bucket] == prev)
                buckets_[bucket] = nullptr;
        }
        prev->next = next;
    }

    void grow();
};

} // namespace jasim

#endif // JASIM_JVM_CELL_TABLE_H
