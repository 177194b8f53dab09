/**
 * @file
 * The database facade: tables, indexes, buffer pool, WAL, transactions.
 *
 * A deliberately small but genuine relational engine standing in for
 * DB2: operations return DbCost records (page hits/misses, forced log
 * bytes, CPU estimate) that the system-level simulation converts into
 * service time and disk traffic.
 *
 * Crash recovery (opt-in via enableRecovery()) follows ARIES:
 * mutations log logical redo/undo records, the buffer pool tracks
 * dirty pages with recovery LSNs, fuzzy checkpoints flush dirty pages
 * and truncate the durable WAL prefix, and crash()/recover() discard
 * the volatile state then repeat history (pageLSN-guarded redo of
 * every retained record) before undoing loser transactions. Every
 * transaction commits, so a transaction without a Commit record is a
 * loser. Healthy runs that never call enableRecovery() are
 * byte-identical to a build without any of this machinery.
 */

#ifndef JASIM_DB_DATABASE_H
#define JASIM_DB_DATABASE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/buffer_pool.h"
#include "db/index.h"
#include "db/table.h"
#include "db/wal.h"

namespace jasim {

/** Engine sizing. */
struct DbConfig
{
    std::size_t buffer_pool_pages = 32768; //!< 128 MB of 4 KB pages
    std::uint16_t rows_per_page = 32;
};

/** Cost of one or more operations. */
struct DbCost
{
    std::uint64_t pages_hit = 0;
    std::uint64_t pages_read = 0;   //!< buffer pool misses
    std::uint64_t writebacks = 0;
    std::uint64_t rows = 0;
    std::uint64_t log_bytes_forced = 0;
    double cpu_us = 0.0;

    void add(const DbCost &other);
};

/** One fuzzy checkpoint's work. */
struct CheckpointStats
{
    std::uint64_t begin_lsn = 0;
    std::uint64_t end_lsn = 0;
    std::uint64_t pages_flushed = 0;
    std::uint64_t log_bytes_forced = 0;
    std::uint64_t truncated_records = 0;
};

/** What a crash destroyed. */
struct CrashStats
{
    std::uint64_t wal_records_lost = 0;  //!< unforced tail
    std::uint64_t torn_records = 0;      //!< torn off a partial force
    std::uint64_t dirty_pages_discarded = 0;
};

/**
 * One failover promotion: the database rewound to a replica's durable
 * watermark (failoverTo()).
 */
struct FailoverStats
{
    std::uint64_t watermark = 0;         //!< promoted durable LSN
    std::uint64_t reversed_records = 0;  //!< mutations above W rolled back
    std::uint64_t discarded_records = 0; //!< WAL tail records dropped
    std::uint64_t loser_txns = 0;        //!< open txns at W undone
    std::uint64_t undo_records = 0;      //!< loser mutations <= W undone
    std::uint64_t pages_flushed = 0;     //!< promotion checkpoint flush
    std::uint64_t replay_bytes = 0;      //!< retained WAL at W
    std::uint64_t checkpoint_bytes = 0;  //!< promotion checkpoint force
};

/** One recovery pass (redo + undo + recovery checkpoint). */
struct RecoveryStats
{
    std::uint64_t replay_bytes = 0;   //!< retained WAL read back
    std::uint64_t redo_records = 0;   //!< logical records scanned
    std::uint64_t redo_applied = 0;   //!< passed the pageLSN guard
    std::uint64_t undo_records = 0;   //!< loser records rolled back
    std::uint64_t loser_txns = 0;
    std::uint64_t winner_txns = 0;
    std::uint64_t pages_flushed = 0;  //!< recovery checkpoint flush
    std::uint64_t checkpoint_bytes = 0;
};

/** Transaction handle. */
using TxnId = std::uint64_t;

/**
 * The engine. Not thread-safe: the system simulation serializes
 * access, modelling DB2's latching at a coarser grain.
 */
class Database
{
  public:
    explicit Database(const DbConfig &config);

    /** Create a table; column 0 becomes the unique primary key. */
    std::uint32_t createTable(Schema schema);

    /**
     * Create a non-unique secondary index on an integer column and
     * index the rows already stored; no-op when the column has one.
     */
    void createSecondaryIndex(std::uint32_t table_id,
                              const std::string &column);

    std::optional<std::uint32_t> tableId(const std::string &name) const;
    const Table &table(std::uint32_t table_id) const;

    TxnId begin();
    DbCost commit(TxnId txn);

    /** Insert a row (column 0 must be a unique integer key). */
    DbCost insert(TxnId txn, std::uint32_t table_id, Row row);

    /**
     * Population's bulk path: append rows 0..count-1 to a table in
     * transactions of `batch_rows` rows, committing after every
     * `batch_rows`-th row and after the last (so a count that is a
     * multiple of `batch_rows`, 0 included, ends in an empty
     * transaction). `row_of_index(i, row)` fills row i into one
     * reused scratch row. Tables, indexes, buffer pool, WAL and
     * TxnIds end exactly as that many insert() calls in those
     * transactions would leave them, for less work: the table and its
     * primary index are sized once, each run of rows on one page is
     * one pin run, and each transaction's inserts advance the WAL
     * once. Call before enableRecovery().
     */
    void bulkLoad(std::uint32_t table_id, std::uint64_t count,
                  std::uint64_t batch_rows,
                  const std::function<void(std::uint64_t, Row &)>
                      &row_of_index);

    /** Point select by primary key. */
    std::optional<Row> pointSelect(std::uint32_t table_id,
                                   std::int64_t key, DbCost &cost);

    /** Update by primary key; cost reflects read + write + log. */
    DbCost updateByKey(TxnId txn, std::uint32_t table_id,
                       std::int64_t key, Row row);

    /** Select via a secondary index. */
    std::vector<Row> selectBySecondary(std::uint32_t table_id,
                                       const std::string &column,
                                       std::int64_t key, DbCost &cost);

    const BufferPool &bufferPool() const { return pool_; }
    const Wal &wal() const { return wal_; }

    // ---- crash recovery ----

    /**
     * Arm recovery: snapshot every table into the stable store,
     * switch the WAL to retention mode, and start logging logical
     * redo/undo payloads. Call once, after schema + population and
     * with no transaction in flight.
     */
    void enableRecovery();
    bool recoveryEnabled() const { return recovery_on_; }

    /** LSN of the most recent Commit record (recovery mode). */
    std::uint64_t lastCommitLsn() const { return last_commit_lsn_; }

    /** The simulated disk completed the WAL force up to `lsn`. */
    void confirmWalDurable(std::uint64_t lsn);

    /**
     * Fuzzy checkpoint: BeginCheckpoint record, flush every dirty
     * page to the stable store, EndCheckpoint record, force, then
     * truncate the WAL below the redo point (min active-txn firstLSN,
     * capped by the checkpoint itself). The caller charges the
     * returned flush/force bytes to the disk model.
     */
    CheckpointStats checkpoint();

    /**
     * Power off: lose the unforced WAL tail (plus, for a torn write,
     * the second half of the in-flight force window), every buffered
     * page, and all in-flight transactions. Tables revert to their
     * stable images. Queries are invalid until recover().
     */
    CrashStats crash(bool torn);

    /**
     * ARIES restart: redo every retained record whose LSN beats the
     * stable page's LSN, undo loser transactions in reverse, rebuild
     * the hash indexes, and cut a recovery checkpoint. The caller
     * charges replay_bytes (reads) and the checkpoint (writes) to the
     * disk model so recovery takes simulated time.
     */
    RecoveryStats recover();
    bool crashed() const { return crashed_; }

    // ---- replication support (jasim::repl) ----

    /**
     * Replication floor: the lowest LSN any replica still needs
     * (min replica durable watermark). Fuzzy checkpoints never
     * truncate above it -- nor above the first record of any
     * transaction that spans it, since a failover at the floor must
     * still be able to undo that transaction. Maintained by the
     * cluster as replica watermarks advance.
     */
    void setTruncationFloor(std::uint64_t lsn)
    {
        floor_on_ = true;
        floor_ = lsn;
    }
    void clearTruncationFloor() { floor_on_ = false; }

    /**
     * Failover: rewind this (live, not crashed) database to the
     * promoted replica's durable watermark W. Every mutation above W
     * is reversed from its log record, transactions still open at W
     * are undone, the unshipped WAL tail is discarded, and a
     * promotion checkpoint is cut so the promoted history starts from
     * a clean stable image. Afterwards the database serves the shard
     * exactly as the promoted replica would: acked-at-W state only.
     * The caller charges replay_bytes / pages_flushed /
     * checkpoint_bytes to the disk model.
     */
    FailoverStats failoverTo(std::uint64_t watermark);

  private:
    /** A secondary index and the position of the column it covers. */
    struct Secondary
    {
        std::string column;
        std::size_t position;
        MultiIndex index;
    };

    struct TableState
    {
        std::unique_ptr<Table> table;
        UniqueIndex primary;
        std::vector<Secondary> secondary; //!< in creation order
    };

    DbConfig config_;
    std::vector<TableState> tables_;
    std::unordered_map<std::string, std::uint32_t> table_names_;
    BufferPool pool_;
    Wal wal_;
    TxnId next_txn_ = 1;
    /** Open transactions and their Begin LSNs (0 without recovery). */
    std::unordered_map<TxnId, std::uint64_t> active_;

    bool recovery_on_ = false;
    bool crashed_ = false;
    std::uint64_t last_commit_lsn_ = 0;
    bool floor_on_ = false;
    std::uint64_t floor_ = 0;
    /** pageLSN of buffered pages / their stable images. */
    std::unordered_map<PageKey, std::uint64_t, PageKeyHash> page_lsn_;
    std::unordered_map<PageKey, std::uint64_t, PageKeyHash>
        stable_page_lsn_;
    /** Per-table stable page images (what survives a crash). */
    std::vector<std::vector<Table::PageImage>> stable_;

    TableState &state(std::uint32_t table_id);
    const TableState &state(std::uint32_t table_id) const;

    /** Charge a page touch to the pool and the cost record. */
    void touchPage(std::uint32_t table_id, std::uint32_t page,
                   bool dirty, DbCost &cost,
                   std::uint64_t recovery_lsn = 0);

    /** Log a logical mutation; returns its LSN (0 when not armed). */
    std::uint64_t logMutation(TxnId txn, WalRecordType type,
                              std::uint32_t payload_bytes,
                              std::uint32_t table_id, RowId rid,
                              std::optional<Row> redo,
                              std::optional<Row> undo);

    /** Flush one page's image to the stable store (WAL first). */
    void flushPageToStable(PageKey key, DbCost *cost);

    static std::uint32_t rowBytes(const Row &row);
    static std::int64_t keyOf(const Row &row);

    /** The table's secondary index on `column` (nullptr when none). */
    static Secondary *secondaryOn(TableState &ts,
                                  const std::string &column);

    /**
     * Maintain secondary indexes around a row mutation: both read the
     * row stored at `id`, so call indexRemove before the row changes
     * and indexAdd after.
     */
    static void indexRemove(TableState &ts, RowId id);
    static void indexAdd(TableState &ts, RowId id);

    /**
     * The one row writer under insert() and bulkLoad(): store the row
     * and index it (its key must be new).
     */
    static RowId append(TableState &ts, const Row &row);

    /** Reverse one Insert or Update record from its undo image. */
    void undoRecord(const WalRecord &rec);

    void rebuildIndexes();
};

} // namespace jasim

#endif // JASIM_DB_DATABASE_H
