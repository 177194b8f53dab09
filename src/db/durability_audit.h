/**
 * @file
 * Durability audit: exactly-once accounting for acked commits.
 *
 * Every committed business transaction stamps a unique token into an
 * audit table inside the same transaction. The auditor records which
 * tokens were committed (with their Commit-record LSN) and which were
 * acknowledged to the client, learns at each crash which Commit
 * records actually survived, and after recovery scans the audit table
 * to assert:
 *
 *   - no acked commit lost (token acked but absent from the table),
 *   - no unacked-but-durable commit lost (the DB promised durability
 *     the moment the Commit record hit stable storage, ack or not),
 *   - no resurrected effect (token present that must have been wiped),
 *   - no duplicate effect (token present more than once).
 */

#ifndef JASIM_DB_DURABILITY_AUDIT_H
#define JASIM_DB_DURABILITY_AUDIT_H

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "db/database.h"

namespace jasim {

/** Outcome of one post-recovery audit scan. */
struct AuditReport
{
    std::uint64_t surviving = 0;      //!< tokens found in the table
    std::uint64_t acked_total = 0;    //!< tokens acked to clients
    std::uint64_t lost_acked = 0;     //!< acked but missing: data loss
    std::uint64_t lost_durable = 0;   //!< durable-commit but missing
    std::uint64_t resurrected = 0;    //!< present but must be gone
    std::uint64_t duplicates = 0;     //!< token appears twice

    bool pass() const
    {
        return lost_acked == 0 && lost_durable == 0 &&
            resurrected == 0 && duplicates == 0;
    }
};

/**
 * Tracks commit tokens across crash/recover cycles. Lives beside the
 * Database (it must survive the crash, like the clients do).
 */
class DurabilityAuditor
{
  public:
    /** A transaction carrying `token` committed at `commit_lsn`. */
    void noteCommitted(std::uint64_t token, std::uint64_t commit_lsn);

    /** The client received a success response for `token`. */
    void noteAcked(std::uint64_t token);

    /**
     * A crash happened. `surviving_commit_lsns` holds the LSNs of
     * Commit records still retained in the WAL after the crash;
     * `truncated_up_to` is the WAL truncation watermark (records at
     * or below it were made durable and then discarded by a
     * checkpoint, so their commits survive too). Pending commits
     * partition into expected-after-recovery and must-be-gone.
     */
    void noteCrash(
        const std::unordered_set<std::uint64_t> &surviving_commit_lsns,
        std::uint64_t truncated_up_to);

    /**
     * noteCrash() for a crash of `db`, or for a promotion that rewinds
     * it to `watermark`: the Commit records its WAL retains at or
     * below `watermark` survive, as does everything it truncated.
     */
    void noteCrashOf(
        const Database &db,
        std::uint64_t watermark = std::numeric_limits<std::uint64_t>::max());

    /**
     * Scan the audit table post-recovery and reconcile. Callable any
     * number of times; also valid on a healthy (never-crashed) run,
     * where every committed token must simply be present once.
     */
    AuditReport audit(const Database &db,
                      std::uint32_t audit_table) const;

    std::uint64_t committedCount() const { return committed_.size(); }

  private:
    /** token -> commit LSN, for commits since the last crash. */
    std::unordered_map<std::uint64_t, std::uint64_t> pending_;
    /** All tokens that must be present exactly once. */
    std::unordered_set<std::uint64_t> committed_;
    /** Tokens a crash wiped; they must never reappear. */
    std::unordered_set<std::uint64_t> wiped_;
    /** Tokens acked to clients (must be in committed_ to pass). */
    std::unordered_set<std::uint64_t> acked_;
};

} // namespace jasim

#endif // JASIM_DB_DURABILITY_AUDIT_H
