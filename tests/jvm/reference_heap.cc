#include "reference_heap.h"

#include <algorithm>
#include <cassert>

namespace jasim {

ReferenceHeap::ReferenceHeap(const HeapConfig &config) : config_(config)
{
    assert(config.size_bytes > 0);
    free_ = config.size_bytes;
    insertChunk(0, config.size_bytes);
}

void
ReferenceHeap::insertChunk(std::uint64_t offset, std::uint64_t bytes)
{
    chunks_[offset] = bytes;
    if (bytes >= config_.dark_threshold) {
        by_size_.emplace(bytes, offset);
        usable_ += bytes;
    }
}

void
ReferenceHeap::eraseChunk(
    std::map<std::uint64_t, std::uint64_t>::iterator it)
{
    const auto [offset, bytes] = *it;
    if (bytes >= config_.dark_threshold) {
        auto range = by_size_.equal_range(bytes);
        for (auto s = range.first; s != range.second; ++s) {
            if (s->second == offset) {
                by_size_.erase(s);
                break;
            }
        }
        usable_ -= bytes;
    }
    chunks_.erase(it);
}

std::optional<std::uint64_t>
ReferenceHeap::allocate(std::uint64_t bytes)
{
    assert(bytes > 0);
    const auto fit = by_size_.lower_bound(bytes);
    if (fit == by_size_.end())
        return std::nullopt;
    const std::uint64_t offset = fit->second;
    const auto chunk = chunks_.find(offset);
    assert(chunk != chunks_.end());
    const std::uint64_t size = chunk->second;
    eraseChunk(chunk);
    if (size > bytes)
        insertChunk(offset + bytes, size - bytes);
    used_ += bytes;
    free_ -= bytes;
    return offset;
}

void
ReferenceHeap::free(std::uint64_t offset, std::uint64_t bytes)
{
    assert(bytes > 0);
    used_ -= bytes;
    free_ += bytes;

    auto next = chunks_.lower_bound(offset);
    if (next != chunks_.begin()) {
        auto prev = std::prev(next);
        assert(prev->first + prev->second <= offset && "double free");
        if (prev->first + prev->second == offset) {
            offset = prev->first;
            bytes += prev->second;
            eraseChunk(prev);
        }
    }
    next = chunks_.lower_bound(offset);
    if (next != chunks_.end() && offset + bytes == next->first) {
        bytes += next->second;
        eraseChunk(next);
    }
    insertChunk(offset, bytes);
}

std::uint64_t
ReferenceHeap::credit() const
{
    const std::uint64_t floor = std::max<std::uint64_t>(
        Heap::maxBinnedBytes, config_.dark_threshold);
    std::uint64_t credit = 0;
    for (const auto &[offset, bytes] : chunks_) {
        if (bytes >= config_.dark_threshold &&
            bytes > Heap::maxBinnedBytes)
            credit += bytes - floor;
    }
    return credit;
}

std::uint64_t
ReferenceHeap::compact(std::uint64_t live_bytes)
{
    assert(live_bytes <= config_.size_bytes);
    const std::uint64_t dark_before = darkBytes();
    chunks_.clear();
    by_size_.clear();
    usable_ = 0;
    used_ = live_bytes;
    free_ = config_.size_bytes - live_bytes;
    if (free_ > 0)
        insertChunk(live_bytes, free_);
    return dark_before;
}

bool
ReferenceHeap::accountingConsistent() const
{
    std::uint64_t listed = 0;
    std::uint64_t listed_usable = 0;
    std::uint64_t prev_end = 0;
    bool ordered = true;
    for (const auto &[offset, size] : chunks_) {
        listed += size;
        if (size >= config_.dark_threshold)
            listed_usable += size;
        if (offset < prev_end)
            ordered = false;
        prev_end = offset + size;
    }
    std::uint64_t sized = 0;
    for (const auto &[size, offset] : by_size_) {
        const auto it = chunks_.find(offset);
        if (it == chunks_.end() || it->second != size)
            return false;
        sized += size;
    }
    return ordered && listed == free_ && listed_usable == usable_ &&
        sized == usable_ && used_ + free_ == config_.size_bytes;
}

} // namespace jasim
