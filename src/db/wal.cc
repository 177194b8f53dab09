#include "db/wal.h"

#include <algorithm>
#include <cassert>

namespace jasim {

std::uint64_t
Wal::append(std::uint64_t txn, WalRecordType type,
            std::uint32_t payload_bytes)
{
    return appendLogical(txn, type, payload_bytes, 0, RowId{},
                         std::nullopt, std::nullopt);
}

std::uint64_t
Wal::appendLogical(std::uint64_t txn, WalRecordType type,
                   std::uint32_t payload_bytes, std::uint32_t table,
                   RowId rid, std::optional<Row> redo,
                   std::optional<Row> undo)
{
    const std::uint32_t bytes = payload_bytes + headerBytes;
    appended_bytes_ += bytes;
    pending_bytes_ += bytes;
    if (retention_) {
        retained_bytes_ += bytes;
        records_.push_back(WalRecord{next_lsn_, txn, type, bytes, table,
                                     rid, std::move(redo),
                                     std::move(undo)});
    }
    return next_lsn_++;
}

std::uint64_t
Wal::force()
{
    const std::uint64_t pending = pending_bytes_;
    if (pending > 0) {
        forced_bytes_ += pending;
        pending_bytes_ = 0;
        ++forces_;
        issued_lsn_ = lastLsn();
    }
    return pending;
}

std::uint64_t
Wal::pendingRecords() const
{
    if (!retention_)
        return lastLsn() - issued_lsn_;
    // records_ is LSN-sorted; the unforced tail starts past issued_lsn_.
    const auto first_pending = std::partition_point(
        records_.begin(), records_.end(),
        [this](const WalRecord &r) { return r.lsn <= issued_lsn_; });
    return static_cast<std::uint64_t>(records_.end() - first_pending);
}

void
Wal::confirmDurable(std::uint64_t lsn)
{
    durable_lsn_ = std::max(durable_lsn_, std::min(lsn, issued_lsn_));
}

void
Wal::protect(std::uint64_t lsn)
{
    protected_lsn_ =
        std::max(protected_lsn_, std::min(lsn, issued_lsn_));
}

WalCrashLoss
Wal::crashDiscard(bool torn)
{
    WalCrashLoss loss;

    // Records never force()d existed only in log buffers: always lost.
    const auto first_unforced = std::partition_point(
        records_.begin(), records_.end(),
        [this](const WalRecord &r) { return r.lsn <= issued_lsn_; });
    for (auto it = first_unforced; it != records_.end(); ++it)
        retained_bytes_ -= it->bytes;
    loss.unforced_records =
        static_cast<std::uint64_t>(records_.end() - first_unforced);
    records_.erase(first_unforced, records_.end());

    if (torn) {
        // Forces whose disk I/O had not completed (and whose effects
        // no stable page flush carries) were mid-write: the device
        // kept only a prefix of the window.
        const std::uint64_t safe =
            std::max(durable_lsn_, protected_lsn_);
        const auto window_begin = std::partition_point(
            records_.begin(), records_.end(),
            [safe](const WalRecord &r) { return r.lsn <= safe; });
        const auto window =
            static_cast<std::size_t>(records_.end() - window_begin);
        const auto kept = window / 2;
        const auto tear = window_begin + static_cast<std::ptrdiff_t>(kept);
        for (auto it = tear; it != records_.end(); ++it)
            retained_bytes_ -= it->bytes;
        loss.torn_records =
            static_cast<std::uint64_t>(records_.end() - tear);
        records_.erase(tear, records_.end());
    }

    // Whatever survived the crash is on stable storage by definition.
    const std::uint64_t survivor = records_.empty()
        ? std::max(durable_lsn_, protected_lsn_)
        : records_.back().lsn;
    issued_lsn_ = std::max(issued_lsn_, survivor);
    if (torn)
        issued_lsn_ = survivor;
    durable_lsn_ = issued_lsn_;
    // Nothing is pending any more; discarded records cannot be forced.
    pending_bytes_ = 0;
    forced_bytes_ = appended_bytes_;
    return loss;
}

std::uint64_t
Wal::discardAbove(std::uint64_t watermark)
{
    assert(retention_);
    const auto first_dropped = std::partition_point(
        records_.begin(), records_.end(),
        [watermark](const WalRecord &r) { return r.lsn <= watermark; });
    const auto dropped =
        static_cast<std::uint64_t>(records_.end() - first_dropped);
    for (auto it = first_dropped; it != records_.end(); ++it)
        retained_bytes_ -= it->bytes;
    records_.erase(first_dropped, records_.end());

    // The surviving prefix is exactly what the promoted replica holds
    // durably; nothing above it was ever issued on this timeline.
    issued_lsn_ = std::min(issued_lsn_, watermark);
    durable_lsn_ = issued_lsn_;
    protected_lsn_ = std::min(protected_lsn_, issued_lsn_);
    pending_bytes_ = 0;
    forced_bytes_ = appended_bytes_;
    return dropped;
}

std::uint64_t
Wal::bytesAbove(std::uint64_t lsn) const
{
    const auto first_above = std::partition_point(
        records_.begin(), records_.end(),
        [lsn](const WalRecord &r) { return r.lsn <= lsn; });
    std::uint64_t bytes = 0;
    for (auto it = first_above; it != records_.end(); ++it)
        bytes += it->bytes;
    return bytes;
}

void
Wal::truncate(std::uint64_t up_to_lsn)
{
    assert(retention_);
    // Clamp: only forced records can be on stable storage to
    // truncate, and LSN assignment must never move backwards because
    // of an over-eager bound.
    const std::uint64_t bound = std::min(up_to_lsn, issued_lsn_);
    const auto keep_from = std::partition_point(
        records_.begin(), records_.end(),
        [bound](const WalRecord &r) { return r.lsn <= bound; });
    for (auto it = records_.begin(); it != keep_from; ++it)
        retained_bytes_ -= it->bytes;
    if (keep_from != records_.begin())
        truncated_up_to_ = std::max(truncated_up_to_, bound);
    records_.erase(records_.begin(), keep_from);
}

} // namespace jasim
