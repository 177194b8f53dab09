#include "jvm/cell_table.h"

#include <stdexcept>
#include <string>

namespace jasim {

// Link, id and cell make a 56-byte node.
static_assert(sizeof(Cell) == 40);

CellTable::CellTable() : buckets_(1, nullptr) {}

void
CellTable::grow()
{
    if (growths_ + 1 == bucketCounts.size())
        throw std::length_error(
            "CellTable: more than " + std::to_string(bucketCounts.back()) +
            " cells");
    bucket_count_ = bucketCounts[++growths_];
    reciprocal_ = ~0ull / bucket_count_ + 1;
    capacity_ = bucket_count_;

    std::vector<Link *> buckets(bucket_count_, nullptr);
    Node *node = head_.next;
    head_.next = nullptr;
    std::size_t head_bucket = 0;
    while (node) {
        Node *next = node->next;
        const std::size_t bucket = bucketOf(node->id);
        if (!buckets[bucket]) {
            node->next = head_.next;
            head_.next = node;
            buckets[bucket] = &head_;
            if (node->next)
                buckets[head_bucket] = node;
            head_bucket = bucket;
        } else {
            node->next = buckets[bucket]->next;
            buckets[bucket]->next = node;
        }
        node = next;
    }
    buckets_ = std::move(buckets);
}

} // namespace jasim
