#include "jvm/heap.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace jasim {

Heap::Heap(const HeapConfig &config) : config_(config)
{
    if (config.size_bytes == 0)
        throw std::invalid_argument("heap size must be positive, got 0 "
                                    "bytes");
    free_ = config.size_bytes;
    insertChunk(chunks_.end(), 0, config.size_bytes, next_seq_++);
}

void
Heap::insertChunk(Chunks::const_iterator hint, std::uint64_t offset,
                  std::uint64_t bytes, std::uint64_t seq)
{
    indexChunk(chunks_.emplace_hint(hint, offset, Chunk{bytes, seq}));
}

void
Heap::indexChunk(Chunks::iterator chunk)
{
    const auto [size, seq] = chunk->second;
    if (size >= config_.dark_threshold) {
        by_size_.insert(Fit{size, seq, chunk});
        usable_ += size;
    }
}

Heap::Chunks::iterator
Heap::eraseChunk(Chunks::iterator it)
{
    const Chunk &chunk = it->second;
    if (chunk.size >= config_.dark_threshold) {
        by_size_.erase(Fit{chunk.size, chunk.seq, it});
        usable_ -= chunk.size;
    }
    return chunks_.erase(it);
}

std::optional<std::uint64_t>
Heap::allocate(std::uint64_t bytes)
{
    assert(bytes > 0);
    const auto fit = by_size_.lower_bound(Fit{bytes, 0, {}});
    if (fit == by_size_.end())
        return std::nullopt;
    const auto chunk = fit->chunk;
    const std::uint64_t offset = chunk->first;
    const std::uint64_t size = fit->size;
    by_size_.erase(fit);
    usable_ -= size;
    used_ += bytes;
    free_ -= bytes;

    // The remainder keeps the chunk's place in offset order, so its
    // map node is reused in place.
    const auto next = std::next(chunk);
    auto node = chunks_.extract(chunk);
    if (size > bytes) {
        node.key() = offset + bytes;
        node.mapped() = Chunk{size - bytes, next_seq_++};
        indexChunk(chunks_.insert(next, std::move(node)));
    }
    return offset;
}

void
Heap::free(std::uint64_t offset, std::uint64_t bytes)
{
    if (bytes > std::numeric_limits<std::uint32_t>::max())
        throw std::invalid_argument("Heap::free: a single block must be "
                                    "below 4 GiB");
    Block block{offset, static_cast<std::uint32_t>(bytes), 0};
    free(std::span<Block>(&block, 1));
}

void
Heap::free(std::span<Block> blocks)
{
    if (blocks.size() > std::numeric_limits<std::uint32_t>::max())
        throw std::length_error("Heap::free: more than 2^32 blocks");
    for (std::size_t i = 0; i < blocks.size(); ++i)
        blocks[i].order = static_cast<std::uint32_t>(i);
    std::sort(blocks.begin(), blocks.end(),
              [](const Block &a, const Block &b) {
                  return a.offset < b.offset;
              });

    // Freed one by one, the blocks would coalesce into maximal free
    // runs, each with the free chunks around it, and each run would
    // be inserted for the last time by the free of its last block in
    // the given order. So every run gets that block's place among
    // this batch's insertions.
    const std::uint64_t base_seq = next_seq_;
    next_seq_ += blocks.size();
    std::size_t i = 0;
    while (i < blocks.size()) {
        std::uint64_t start = blocks[i].offset;
        std::uint64_t end = start;
        std::uint32_t last = 0;
        auto next = chunks_.lower_bound(start);
        if (next != chunks_.begin()) {
            const auto prev = std::prev(next);
            const std::uint64_t prev_end = prev->first + prev->second.size;
            assert(prev_end <= start && "double free");
            if (prev_end == start) {
                start = prev->first;
                eraseChunk(prev);
            }
        }
        for (;;) {
            if (i < blocks.size() && blocks[i].offset == end) {
                const Block &block = blocks[i++];
                assert(block.bytes > 0);
                end += block.bytes;
                last = std::max(last, block.order);
                used_ -= block.bytes;
                free_ += block.bytes;
            } else if (next != chunks_.end() && next->first == end) {
                end += next->second.size;
                next = eraseChunk(next);
            } else {
                break;
            }
        }
        assert(i == blocks.size() || blocks[i].offset > end);
        assert(next == chunks_.end() || next->first > end);
        insertChunk(next, start, end - start, base_seq + last);
    }
}

std::uint64_t
Heap::compact(std::uint64_t live_bytes)
{
    assert(live_bytes <= config_.size_bytes);
    const std::uint64_t dark_before = darkBytes();
    chunks_.clear();
    by_size_.clear();
    usable_ = 0;
    used_ = live_bytes;
    free_ = config_.size_bytes - live_bytes;
    if (free_ > 0)
        insertChunk(chunks_.end(), live_bytes, free_, next_seq_++);
    return dark_before;
}

bool
Heap::accountingConsistent() const
{
    std::uint64_t listed = 0;
    std::uint64_t listed_usable = 0;
    std::size_t usable_chunks = 0;
    bool coalesced = true; // ascending, disjoint, never adjacent
    bool first = true;
    std::uint64_t prev_end = 0;
    for (const auto &[offset, chunk] : chunks_) {
        if (chunk.size == 0 || (!first && offset <= prev_end))
            coalesced = false;
        first = false;
        prev_end = offset + chunk.size;
        listed += chunk.size;
        if (chunk.size < config_.dark_threshold)
            continue;
        const auto fit =
            by_size_.find(Fit{chunk.size, chunk.seq, {}});
        if (fit == by_size_.end() || fit->chunk->first != offset)
            return false;
        listed_usable += chunk.size;
        ++usable_chunks;
    }
    return coalesced && usable_chunks == by_size_.size() &&
        listed == free_ && listed_usable == usable_ &&
        used_ + free_ == config_.size_bytes;
}

} // namespace jasim
