#include "db/durability_audit.h"

namespace jasim {

void
DurabilityAuditor::noteCommitted(std::uint64_t token,
                                 std::uint64_t commit_lsn)
{
    pending_.emplace(token, commit_lsn);
}

void
DurabilityAuditor::noteAcked(std::uint64_t token)
{
    acked_.insert(token);
}

void
DurabilityAuditor::noteCrash(
    const std::unordered_set<std::uint64_t> &surviving_commit_lsns,
    std::uint64_t truncated_up_to)
{
    for (const auto &[token, commit_lsn] : pending_) {
        const bool survives = commit_lsn <= truncated_up_to ||
            surviving_commit_lsns.count(commit_lsn) != 0;
        if (survives)
            committed_.insert(token);
        else
            wiped_.insert(token);
    }
    pending_.clear();
}

void
DurabilityAuditor::noteCrashOf(const Database &db, std::uint64_t watermark)
{
    std::unordered_set<std::uint64_t> surviving;
    for (const WalRecord &rec : db.wal().records()) {
        if (rec.type == WalRecordType::Commit && rec.lsn <= watermark)
            surviving.insert(rec.lsn);
    }
    noteCrash(surviving, db.wal().truncatedUpTo());
}

AuditReport
DurabilityAuditor::audit(const Database &db,
                         std::uint32_t audit_table) const
{
    AuditReport report;
    report.acked_total = acked_.size();

    // Commits since the last crash (or ever, on a healthy run) are
    // durable promises too: the WAL was forced at commit.
    std::unordered_set<std::uint64_t> expected = committed_;
    for (const auto &[token, commit_lsn] : pending_) {
        (void)commit_lsn;
        expected.insert(token);
    }

    std::unordered_map<std::uint64_t, std::uint64_t> found;
    db.table(audit_table).scan([&](RowId id, const Row &row) {
        (void)id;
        ++found[static_cast<std::uint64_t>(
            std::get<std::int64_t>(row[0]))];
        return true;
    });

    for (const auto &[token, count] : found) {
        ++report.surviving;
        if (count > 1)
            ++report.duplicates;
        if (wiped_.count(token) != 0)
            ++report.resurrected;
    }
    for (const std::uint64_t token : expected) {
        if (found.count(token) != 0)
            continue;
        if (acked_.count(token) != 0)
            ++report.lost_acked;
        else
            ++report.lost_durable;
    }
    // A wiped token may legitimately be gone -- unless the client was
    // told it committed. An ack without durability is data loss even
    // when the crash explains the missing Commit record.
    for (const std::uint64_t token : wiped_) {
        if (acked_.count(token) != 0 && found.count(token) == 0)
            ++report.lost_acked;
    }
    return report;
}

} // namespace jasim
