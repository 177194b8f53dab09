#include "db/buffer_pool.h"

#include <cassert>

namespace jasim {

BufferPool::BufferPool(std::size_t capacity_pages)
    : capacity_(capacity_pages)
{
    assert(capacity_pages > 0);
}

void
BufferPool::unlink(std::uint32_t frame)
{
    Frame &f = frames_[frame];
    if (f.prev == none)
        head_ = f.next;
    else
        frames_[f.prev].next = f.next;
    if (f.next == none)
        tail_ = f.prev;
    else
        frames_[f.next].prev = f.prev;
}

void
BufferPool::pushFront(std::uint32_t frame)
{
    Frame &f = frames_[frame];
    f.prev = none;
    f.next = head_;
    if (head_ == none)
        tail_ = frame;
    else
        frames_[head_].prev = frame;
    head_ = frame;
}

PinResult
BufferPool::pin(PageKey key, bool mark_dirty, std::uint64_t recovery_lsn)
{
    PinResult result;
    if (mark_dirty && recovery_lsn != 0) {
        // First dirtier wins: redo must start at the oldest change
        // that might not be on disk yet.
        dpt_.emplace(key, recovery_lsn);
    }
    if (const std::uint32_t *frame = index_.find(packed(key))) {
        result.hit = true;
        ++hits_;
        frames_[*frame].dirty |= mark_dirty;
        if (head_ != *frame) {
            unlink(*frame);
            pushFront(*frame);
        }
        return result;
    }

    ++misses_;
    std::uint32_t frame;
    if (frames_.size() >= capacity_) {
        // Reuse the LRU victim's frame.
        frame = tail_;
        const Frame &victim = frames_[frame];
        result.evicted = true;
        result.victim = victim.key;
        if (victim.dirty) {
            result.writeback = true;
            ++writebacks_;
        }
        dpt_.erase(victim.key);
        index_.erase(packed(victim.key));
        unlink(frame);
        frames_[frame] = Frame{key, none, none, mark_dirty};
    } else {
        frame = static_cast<std::uint32_t>(frames_.size());
        frames_.push_back(Frame{key, none, none, mark_dirty});
    }
    pushFront(frame);
    index_.emplace(packed(key), frame);
    return result;
}

bool
BufferPool::resident(PageKey key) const
{
    return index_.find(packed(key)) != nullptr;
}

void
BufferPool::markClean(PageKey key)
{
    if (const std::uint32_t *frame = index_.find(packed(key)))
        frames_[*frame].dirty = false;
    dpt_.erase(key);
}

void
BufferPool::markAllClean()
{
    for (Frame &frame : frames_)
        frame.dirty = false;
    dpt_.clear();
}

std::uint64_t
BufferPool::minRecoveryLsn() const
{
    std::uint64_t min_lsn = 0;
    for (const auto &[key, lsn] : dpt_) {
        (void)key;
        if (min_lsn == 0 || lsn < min_lsn)
            min_lsn = lsn;
    }
    return min_lsn;
}

void
BufferPool::clear()
{
    frames_.clear();
    head_ = none;
    tail_ = none;
    index_.clear();
    dpt_.clear();
}

} // namespace jasim
