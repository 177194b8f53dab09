#include "jvm/heap.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace jasim {

namespace {

/**
 * Number each block's `order` by its position, then sort the blocks by
 * offset: an LSD radix sort on 11-bit digits with `scratch` as the
 * second buffer. Valid blocks have unique offsets, so this is the one
 * sorted order. Returns the buffer that holds it.
 */
std::span<Heap::Block>
sortByOffset(std::span<Heap::Block> blocks,
             std::vector<Heap::Block> &scratch)
{
    constexpr unsigned digitBits = 11;
    constexpr std::uint64_t digitMask = (1u << digitBits) - 1;
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        blocks[i].order = static_cast<std::uint32_t>(i);
        bits |= blocks[i].offset;
    }
    const unsigned passes =
        (std::bit_width(bits) + digitBits - 1) / digitBits;
    std::vector<std::array<std::uint32_t, digitMask + 1>> starts(passes);
    for (const Heap::Block &block : blocks) {
        for (unsigned p = 0; p < passes; ++p)
            ++starts[p][(block.offset >> (p * digitBits)) & digitMask];
    }

    scratch.resize(blocks.size());
    std::span<Heap::Block> from = blocks;
    std::span<Heap::Block> to = scratch;
    for (unsigned p = 0; p < passes; ++p) {
        const unsigned shift = p * digitBits;
        auto &start = starts[p];
        // A digit that every block shares leaves the order as it is.
        if (start[(from[0].offset >> shift) & digitMask] == from.size())
            continue;
        std::uint32_t sum = 0;
        for (std::uint32_t &slot : start)
            sum += std::exchange(slot, sum);
        for (const Heap::Block &block : from)
            to[start[(block.offset >> shift) & digitMask]++] = block;
        std::swap(from, to);
    }
    return from;
}

} // namespace

Heap::Heap(const HeapConfig &config)
    : config_(config), bins_(maxBinnedBytes + 1, none)
{
    if (config.size_bytes == 0)
        throw std::invalid_argument("heap size must be positive, got 0 "
                                    "bytes");
    // An empty heap is one compacted with nothing live.
    compact(0);
}

std::uint32_t
Heap::newRecord()
{
    if (released_ != none)
        return std::exchange(released_, chunks_[released_].next);
    if (chunks_.size() == none)
        throw std::length_error("Heap: more than 2^32 - 1 free chunks");
    chunks_.emplace_back();
    return static_cast<std::uint32_t>(chunks_.size() - 1);
}

void
Heap::releaseRecord(std::uint32_t chunk)
{
    chunks_[chunk].next = std::exchange(released_, chunk);
}

void
Heap::indexChunk(std::uint32_t chunk)
{
    const Chunk &c = chunks_[chunk];
    if (c.size < config_.dark_threshold)
        return;
    usable_ += c.size;
    if (c.size <= maxBinnedBytes) {
        pushBin(chunk);
    } else {
        large_.insert(Fit{c.size, c.seq, chunk});
        large_bytes_ += c.size;
    }
}

void
Heap::unindexChunk(std::uint32_t chunk)
{
    const Chunk &c = chunks_[chunk];
    if (c.size < config_.dark_threshold)
        return;
    usable_ -= c.size;
    if (c.size <= maxBinnedBytes) {
        unlinkBin(chunk);
    } else {
        large_.erase(Fit{c.size, c.seq, chunk});
        large_bytes_ -= c.size;
    }
}

void
Heap::pushBin(std::uint32_t chunk)
{
    Chunk &c = chunks_[chunk];
    std::uint32_t &head = bins_[c.size];
    if (head == none) {
        c.prev = c.next = head = chunk;
        const std::size_t word = c.size / 64;
        if (bin_bits_[word] == 0) {
            if (word_bits_[word / 64] == 0)
                group_bits_ |= 1ull << (word / 64);
            word_bits_[word / 64] |= 1ull << (word % 64);
        }
        bin_bits_[word] |= 1ull << (c.size % 64);
        return;
    }
    // Append: every insertion is newer than the chunks already here.
    Chunk &first = chunks_[head];
    c.prev = first.prev;
    c.next = head;
    chunks_[first.prev].next = chunk;
    first.prev = chunk;
}

void
Heap::unlinkBin(std::uint32_t chunk)
{
    const Chunk &c = chunks_[chunk];
    std::uint32_t &head = bins_[c.size];
    if (c.next != chunk) {
        chunks_[c.prev].next = c.next;
        chunks_[c.next].prev = c.prev;
        if (head == chunk)
            head = c.next;
        return;
    }
    head = none;
    const std::size_t word = c.size / 64;
    bin_bits_[word] &= ~(1ull << (c.size % 64));
    if (bin_bits_[word] == 0) {
        word_bits_[word / 64] &= ~(1ull << (word % 64));
        if (word_bits_[word / 64] == 0)
            group_bits_ &= ~(1ull << (word / 64));
    }
}

std::uint32_t
Heap::nextBin(std::uint64_t bytes) const
{
    std::size_t word = bytes / 64;
    std::uint64_t bins = bin_bits_[word] & (~0ull << (bytes % 64));
    if (bins == 0) {
        // The first non-empty word after `word`.
        ++word;
        std::size_t group = word / 64;
        std::uint64_t words = word_bits_[group] & (~0ull << (word % 64));
        if (words == 0) {
            const std::uint64_t groups = group_bits_ & (~0ull << group << 1);
            if (groups == 0)
                return none;
            group = static_cast<std::size_t>(std::countr_zero(groups));
            words = word_bits_[group];
        }
        word = group * 64 + static_cast<std::size_t>(std::countr_zero(words));
        bins = bin_bits_[word];
    }
    return static_cast<std::uint32_t>(word * 64 +
                                      static_cast<std::size_t>(
                                          std::countr_zero(bins)));
}

std::optional<std::uint64_t>
Heap::allocate(std::uint64_t bytes)
{
    if (bytes == 0)
        throw std::invalid_argument("Heap::allocate: a request of 0 "
                                    "bytes");
    const std::uint32_t bin = bytes <= maxBinnedBytes ? nextBin(bytes)
                                                      : none;
    std::uint32_t chunk;
    const Fit *stays = nullptr; //!< the chunk's set entry, if it keeps it
    if (bin != none) {
        chunk = bins_[bin];
        unlinkBin(chunk);
    } else {
        // No bin fits, so the best fit is a large chunk.
        const auto fit = bytes <= maxBinnedBytes
            ? large_.begin()
            : large_.lower_bound(Fit{bytes, 0, 0});
        if (fit == large_.end())
            return std::nullopt;
        chunk = fit->chunk;
        large_bytes_ -= fit->size;
        // A remainder that is still large stays the smallest large
        // chunk when the chunk was: it keeps its place in the set, and
        // only its key changes.
        const std::uint64_t rest = fit->size - bytes;
        if (fit == large_.begin() && rest > maxBinnedBytes &&
            rest >= config_.dark_threshold)
            stays = &*fit;
        else
            large_.erase(fit);
    }

    // Carve from the front: the chunk keeps its end, and with it its
    // entry in the offset map, unless it is used up.
    Chunk &c = chunks_[chunk];
    const std::uint64_t offset = c.offset;
    usable_ -= c.size;
    used_ += bytes;
    free_ -= bytes;
    if (c.size == bytes) {
        ends_.erase(offset + bytes);
        releaseRecord(chunk);
        return offset;
    }
    c.offset += bytes;
    c.size -= bytes;
    c.seq = next_seq_++;
    if (stays) {
        usable_ += c.size;
        large_bytes_ += c.size;
        stays->size = c.size;
        stays->seq = c.seq;
    } else {
        indexChunk(chunk);
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
    std::vector<Block> scratch;
    const std::span<const Block> sorted = sortByOffset(blocks, scratch);

    // Freed one by one, the blocks would coalesce into maximal free
    // runs, each with the free chunks around it, and each run would
    // be inserted for the last time by the free of its last block in
    // the given order. So every run gets that block's place among
    // this batch's insertions, and the runs join the bins in that
    // order, which keeps every bin in insertion order.
    const std::uint64_t base_seq = next_seq_;
    next_seq_ += blocks.size();
    std::vector<std::uint32_t> runs(blocks.size(), none);
    const auto indexRuns = [this, &runs] {
        for (const std::uint32_t run : runs) {
            if (run != none)
                indexChunk(run);
        }
    };
    try {
        freeRuns(sorted, base_seq, runs);
    } catch (...) {
        indexRuns();
        throw;
    }
    indexRuns();
}

void
Heap::freeRuns(std::span<const Block> sorted, std::uint64_t base_seq,
               std::vector<std::uint32_t> &runs)
{
    // Where the free space after the chunk at `it` begins: the next
    // free chunk, or the end of the heap.
    const auto limitOf = [this](Ends::iterator it) {
        return it == ends_.end() ? config_.size_bytes
                                 : chunks_[it->second].offset;
    };
    std::size_t i = 0;
    while (i < sorted.size()) {
        // The run swallows the chunks [first, next): the one ending
        // where its first block starts, if any, and every chunk its
        // blocks reach. No block may reach past `limit`.
        const std::uint64_t start = sorted[i].offset;
        const auto first = ends_.lower_bound(start);
        auto next = first;
        std::uint64_t run_start = start;
        if (next != ends_.end() && next->first == start)
            run_start = chunks_[(next++)->second].offset;
        std::uint64_t limit = limitOf(next);
        if (limit <= start)
            rejectBlock(sorted[i]);

        std::uint64_t end = start;
        std::uint64_t bytes = 0;
        std::uint32_t last = 0;
        for (;;) {
            if (i < sorted.size() && sorted[i].offset == end) {
                const Block &block = sorted[i++];
                if (block.bytes == 0 || block.bytes > limit - end)
                    rejectBlock(block);
                end += block.bytes;
                bytes += block.bytes;
                last = std::max(last, block.order);
            } else if (end == limit && next != ends_.end()) {
                end = next->first;
                limit = limitOf(++next);
            } else {
                break;
            }
        }

        used_ -= bytes;
        free_ += bytes;
        for (auto it = first; it != next; ++it) {
            unindexChunk(it->second);
            releaseRecord(it->second);
        }
        ends_.erase(first, next);
        const std::uint32_t run = newRecord();
        chunks_[run] = Chunk{run_start, end - run_start, base_seq + last,
                             none, none};
        ends_.emplace_hint(next, end, run);
        runs[last] = run;
    }
}

void
Heap::rejectBlock(const Block &block) const
{
    const char *why = block.bytes == 0 ? "is empty"
        : block.bytes > config_.size_bytes ||
            block.offset > config_.size_bytes - block.bytes
        ? "runs past the end of the heap"
        : "overlaps free space (a double free)";
    throw std::invalid_argument(
        "Heap::free: the block at offset " + std::to_string(block.offset) +
        " of " + std::to_string(block.bytes) + " bytes " + why);
}

std::uint64_t
Heap::compact(std::uint64_t live_bytes)
{
    if (live_bytes > config_.size_bytes)
        throw std::invalid_argument(
            "Heap::compact: " + std::to_string(live_bytes) +
            " live bytes exceed the heap");
    const std::uint64_t dark_before = darkBytes();
    chunks_.clear();
    released_ = none;
    ends_.clear();
    std::fill(bins_.begin(), bins_.end(), none);
    bin_bits_ = {};
    word_bits_ = {};
    group_bits_ = 0;
    large_.clear();
    large_bytes_ = 0;
    usable_ = 0;
    used_ = live_bytes;
    free_ = config_.size_bytes - live_bytes;
    if (free_ > 0) {
        const std::uint32_t chunk = newRecord();
        chunks_[chunk] = Chunk{live_bytes, free_, next_seq_++, none, none};
        ends_.emplace(config_.size_bytes, chunk);
        indexChunk(chunk);
    }
    return dark_before;
}

bool
Heap::accountingConsistent() const
{
    // Every chunk in the offset map: ascending, disjoint, never
    // adjacent, and indexed by its size.
    std::uint64_t listed = 0;
    std::uint64_t listed_usable = 0;
    std::size_t binned = 0;
    std::size_t large = 0;
    std::uint64_t large_bytes = 0;
    std::uint64_t prev_end = 0;
    bool first = true;
    for (const auto &[end, chunk] : ends_) {
        const Chunk &c = chunks_[chunk];
        if (c.size == 0 || c.offset + c.size != end ||
            (!first && c.offset <= prev_end))
            return false;
        first = false;
        prev_end = end;
        listed += c.size;
        if (c.size < config_.dark_threshold)
            continue;
        listed_usable += c.size;
        if (c.size <= maxBinnedBytes) {
            if (chunks_[c.prev].next != chunk ||
                chunks_[c.next].prev != chunk)
                return false;
            ++binned;
            continue;
        }
        const auto fit = large_.find(Fit{c.size, c.seq, chunk});
        if (fit == large_.end() || fit->chunk != chunk)
            return false;
        ++large;
        large_bytes += c.size;
    }

    // Every bin the bitmap marks: non-empty, one size, insertion
    // order. The summary words mark exactly the non-zero words.
    std::size_t in_bins = 0;
    for (std::size_t word = 0; word < binWords; ++word) {
        if (((word_bits_[word / 64] >> (word % 64)) & 1) !=
            (bin_bits_[word] != 0))
            return false;
        for (std::uint64_t bits = bin_bits_[word]; bits != 0;
             bits &= bits - 1) {
            const std::size_t size =
                word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            const std::uint32_t head = bins_[size];
            if (head == none)
                return false;
            std::uint32_t chunk = head;
            do {
                const Chunk &c = chunks_[chunk];
                if (c.size != size || ++in_bins > binned ||
                    (chunk != head && c.seq <= chunks_[c.prev].seq))
                    return false;
                chunk = c.next;
            } while (chunk != head);
        }
    }
    for (std::size_t group = 0; group < binWordGroups; ++group) {
        if (((group_bits_ >> group) & 1) != (word_bits_[group] != 0))
            return false;
    }
    return in_bins == binned && large == large_.size() &&
        large_bytes == large_bytes_ && listed == free_ &&
        listed_usable == usable_ && used_ + free_ == config_.size_bytes;
}

} // namespace jasim
