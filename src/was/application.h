/**
 * @file
 * The jas2004-like J2EE application.
 *
 * Owns the database (schema + IR-scaled population, as in the real
 * benchmark, where busier servers get larger initial databases) and
 * defines each request type's transaction recipe: the DB operations,
 * the bean-call plan, the response payload and the Java allocation
 * volume, plus the per-component CPU service demands.
 */

#ifndef JASIM_WAS_APPLICATION_H
#define JASIM_WAS_APPLICATION_H

#include <cstdint>

#include "db/database.h"
#include "driver/request.h"
#include "sim/distributions.h"
#include "sim/rng.h"
#include "was/ejb_container.h"

namespace jasim {

/** Per-request-type service demands and behaviour. */
struct TxnProfile
{
    /** CPU microseconds by component (means; noise applied by SUT). */
    double was_jit_us = 0.0;   //!< app + container JITed code
    double was_other_us = 0.0; //!< interpreter/JVM/native libraries
    double web_us = 0.0;       //!< web server process (0 for RMI)
    double db_us = 0.0;        //!< DB2 engine CPU
    double kernel_us = 0.0;    //!< syscalls, network, copies

    std::uint64_t alloc_bytes = 0; //!< Java allocation per txn
    BeanPlan beans;
    double response_kb = 0.0;
    /** Java method invocations executed per transaction (JIT warmup). */
    std::uint32_t method_invocations = 0;
};

/** Outcome of the data tier for one transaction. */
struct TxnDbOutcome
{
    DbCost cost;

    // Durability-audit fields, populated only when the application's
    // audit is enabled and the transaction wrote (0 otherwise).
    std::uint64_t audit_token = 0;   //!< unique per committed write txn
    std::uint64_t commit_lsn = 0;    //!< this txn's Commit record
    std::uint64_t wal_issued_lsn = 0; //!< force issued at commit time
};

/** The application: schema, data, recipes. */
class Jas2004Application
{
  public:
    /**
     * @param db_config engine sizing.
     * @param injection_rate scales the initial population.
     */
    Jas2004Application(const DbConfig &db_config, double injection_rate,
                       std::uint64_t seed);

    /** Run the data-tier work of one transaction. */
    TxnDbOutcome runTransaction(RequestType type);

    /** Service-demand profile of a request type (one constant table). */
    static const TxnProfile &profile(RequestType type);

    Database &database() { return db_; }
    const Database &database() const { return db_; }

    std::uint64_t rowsLoaded() const { return rows_loaded_; }

    /**
     * Create the audit table and start stamping every write
     * transaction with a unique token (one extra audit-row insert per
     * write txn). Call before Database::enableRecovery() so the empty
     * audit table is part of the stable baseline.
     */
    void enableAudit();
    bool auditEnabled() const { return audit_on_; }
    std::uint32_t auditTable() const { return audit_table_; }

  private:
    Database db_;
    Rng rng_;

    std::uint32_t customers_ = 0;
    std::uint32_t vehicles_ = 0;
    std::uint32_t inventory_ = 0;
    std::uint32_t orders_ = 0;
    std::uint32_t workorders_ = 0;

    std::int64_t next_order_id_ = 0;
    std::int64_t next_workorder_id_ = 0;
    std::uint64_t rows_loaded_ = 0;

    /** Table ids, resolved once by createSchema(). */
    std::uint32_t customer_t_ = 0;
    std::uint32_t vehicle_t_ = 0;
    std::uint32_t inventory_t_ = 0;
    std::uint32_t orders_t_ = 0;
    std::uint32_t workorder_t_ = 0;

    bool audit_on_ = false;
    std::uint32_t audit_table_ = 0;
    std::int64_t next_audit_token_ = 0;

    ZipfSampler customer_keys_;
    ZipfSampler vehicle_keys_;
    ZipfSampler inventory_keys_;

    void createSchema();
    void populate();

    TxnDbOutcome runBrowse();
    TxnDbOutcome runPurchase();
    TxnDbOutcome runManage();
    TxnDbOutcome runCreateWorkOrder();

    std::int64_t pickCustomer();
    std::int64_t pickVehicle();
    std::int64_t pickInventory();

    /** Insert the audit row for a write txn (no-op when audit off). */
    void stampAudit(TxnId txn, RequestType type, TxnDbOutcome &outcome);
    /** Capture commit/force LSNs after commit (no-op when audit off). */
    void finishAudit(TxnDbOutcome &outcome);
};

} // namespace jasim

#endif // JASIM_WAS_APPLICATION_H
