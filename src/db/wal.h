/**
 * @file
 * Write-ahead log with ARIES-style retention and crash semantics.
 *
 * Commits force the log; the forced bytes are what the disk model
 * (RAM disk vs spinning disks) turns into I/O wait -- the effect that
 * made the paper's 2-disk configuration fail its response-time SLA.
 *
 * Two operating modes:
 *
 *  - Without retention (default): the log assigns LSNs and counts
 *    bytes but keeps no records, so a long run's log footprint stays
 *    flat. Good enough when nothing ever crashes.
 *
 *  - Retention (`setRetention(true)`, armed by Database's recovery
 *    support): records survive force() and carry logical redo/undo
 *    payloads, three durability watermarks track what a crash can
 *    take (`issuedLsn` = force() called, `durableLsn` = the simulated
 *    disk I/O for that force completed, `protectedLsn` = a stable
 *    page flush implies log durability up to its pageLSN), and
 *    `crashDiscard()` models losing the volatile tail -- including a
 *    torn write that keeps only a prefix of the in-flight window.
 *    Checkpoints reclaim the durable prefix via truncate().
 */

#ifndef JASIM_DB_WAL_H
#define JASIM_DB_WAL_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "db/table.h"

namespace jasim {

/** Kinds of log records. */
enum class WalRecordType : std::uint8_t { Begin, Insert, Update, Commit,
                                          BeginCheckpoint,
                                          EndCheckpoint };

/**
 * One retained log record (retention mode only). The logical
 * redo/undo images come from appendLogical(), and recovery replays
 * them.
 */
struct WalRecord
{
    std::uint64_t lsn = 0;
    std::uint64_t txn = 0;
    WalRecordType type = WalRecordType::Begin;
    std::uint32_t bytes = 0;

    // Logical payload (retention mode only).
    std::uint32_t table = 0;
    RowId rid{};
    std::optional<Row> redo; //!< after-image (Insert/Update)
    std::optional<Row> undo; //!< before-image (Update)
};

/** What a crash took from the log. */
struct WalCrashLoss
{
    std::uint64_t unforced_records = 0; //!< never force()d: always lost
    std::uint64_t torn_records = 0;     //!< forced but not durable, torn off
};

/** Append-only log with group-force semantics. */
class Wal
{
  public:
    /** Append a record; returns its LSN. */
    std::uint64_t append(std::uint64_t txn, WalRecordType type,
                         std::uint32_t payload_bytes);

    /**
     * Append a record carrying a logical redo/undo payload; the
     * record is kept only in retention mode.
     */
    std::uint64_t appendLogical(std::uint64_t txn, WalRecordType type,
                                std::uint32_t payload_bytes,
                                std::uint32_t table, RowId rid,
                                std::optional<Row> redo,
                                std::optional<Row> undo);

    /**
     * Force the log up to the latest LSN: `issuedLsn()` advances, and
     * in retention mode the records stay for recovery.
     * @return bytes newly forced to stable storage (0 if none).
     */
    std::uint64_t force();

    /** Keep records after force() so recovery can replay them. */
    void setRetention(bool on) { retention_ = on; }
    bool retention() const { return retention_; }

    std::uint64_t appendedBytes() const { return appended_bytes_; }
    std::uint64_t forcedBytes() const { return forced_bytes_; }

    /** Records appended over the log's lifetime. */
    std::uint64_t recordCount() const { return next_lsn_ - 1; }

    /** Highest LSN handed out so far (0 when nothing appended). */
    std::uint64_t lastLsn() const { return next_lsn_ - 1; }

    /** Records not yet forced. */
    std::uint64_t pendingRecords() const;
    std::uint64_t forceCount() const { return forces_; }

    /** The retained records (always empty without retention). */
    const std::vector<WalRecord> &records() const { return records_; }

    /** Bytes currently retained in the log (replay cost of a crash). */
    std::uint64_t retainedBytes() const { return retained_bytes_; }

    // ---- durability watermarks (retention mode) ----

    /** Highest LSN a force() has been called for. */
    std::uint64_t issuedLsn() const { return issued_lsn_; }

    /** Highest LSN whose force I/O has completed on the disk model. */
    std::uint64_t durableLsn() const { return durable_lsn_; }

    /** Highest LSN protected by a stable page flush (WAL protocol). */
    std::uint64_t protectedLsn() const { return protected_lsn_; }

    /** Highest LSN ever removed by truncate() (durable by then). */
    std::uint64_t truncatedUpTo() const { return truncated_up_to_; }

    /** The simulated disk finished the force I/O up to `lsn`. */
    void confirmDurable(std::uint64_t lsn);

    /**
     * A stable page flush carried effects up to `lsn`: those records
     * can no longer be torn away (their effects are on disk).
     */
    void protect(std::uint64_t lsn);

    /**
     * Model a crash: drop every record never force()d, and -- for a
     * torn write -- the second half of the in-flight window
     * (durable/protected, issued]: force I/O that was still in the
     * device when power failed. Everything surviving is durable.
     */
    WalCrashLoss crashDiscard(bool torn);

    /**
     * Checkpoint truncation (retention mode): drop records up to the
     * given LSN. The bound is clamped to what has actually been
     * forced, so truncating "past the end" is safe and never disturbs
     * LSN assignment.
     */
    void truncate(std::uint64_t up_to_lsn);

    /**
     * Failover truncation (retention mode): drop every record above
     * `watermark` -- the tail a promoted replica never received --
     * and settle all watermarks at the surviving prefix. LSN
     * assignment is NOT rewound; the promoted history simply has a
     * gap, which ARIES tolerates (LSNs only ever need to be
     * monotone).
     * @return number of records discarded.
     */
    std::uint64_t discardAbove(std::uint64_t watermark);

    /**
     * Retained log bytes strictly above `lsn`: the divergent tail a
     * deposed primary would try to ship on heal (it bounces on the
     * fencing token and is rewound instead).
     */
    std::uint64_t bytesAbove(std::uint64_t lsn) const;

  private:
    std::vector<WalRecord> records_; //!< always sorted by LSN
    std::uint64_t next_lsn_ = 1;
    std::uint64_t appended_bytes_ = 0;
    std::uint64_t forced_bytes_ = 0;
    std::uint64_t pending_bytes_ = 0;
    std::uint64_t retained_bytes_ = 0;
    std::uint64_t forces_ = 0;
    bool retention_ = false;
    std::uint64_t issued_lsn_ = 0;
    std::uint64_t durable_lsn_ = 0;
    std::uint64_t protected_lsn_ = 0;
    std::uint64_t truncated_up_to_ = 0;

    static constexpr std::uint32_t headerBytes = 24;
};

} // namespace jasim

#endif // JASIM_DB_WAL_H
