#include "was/application.h"

#include <array>
#include <cassert>
#include <string>

namespace jasim {

namespace {

/** Population scale per IR unit. */
constexpr double customersPerIr = 1000.0;
constexpr double vehiclesPerIr = 2000.0;
constexpr double inventoryPerIr = 1000.0;
constexpr double ordersPerIr = 1500.0;
constexpr double workordersPerIr = 200.0;

/** Rows per population transaction. */
constexpr std::uint64_t populateBatchRows = 1024;

/** Key-popularity skew of the application's accesses. */
constexpr double keyZipfS = 0.50;

std::array<TxnProfile, requestTypeCount>
buildProfiles()
{
    std::array<TxnProfile, requestTypeCount> profiles;
    auto &browse =
        profiles[static_cast<std::size_t>(RequestType::Browse)];
    browse.was_jit_us = 9600;
    browse.was_other_us = 8600;
    browse.web_us = 3800;
    browse.db_us = 6000;
    browse.kernel_us = 6200;
    browse.alloc_bytes = 300 * 1024;
    browse.beans = BeanPlan{3, 4};
    browse.response_kb = 8.0;
    browse.method_invocations = 1500;

    auto &purchase =
        profiles[static_cast<std::size_t>(RequestType::Purchase)];
    purchase.was_jit_us = 16300;
    purchase.was_other_us = 14800;
    purchase.web_us = 5000;
    purchase.db_us = 10400;
    purchase.kernel_us = 10700;
    purchase.alloc_bytes = 550 * 1024;
    purchase.beans = BeanPlan{5, 9};
    purchase.response_kb = 6.0;
    purchase.method_invocations = 2600;

    auto &manage =
        profiles[static_cast<std::size_t>(RequestType::Manage)];
    manage.was_jit_us = 15300;
    manage.was_other_us = 13600;
    manage.web_us = 4500;
    manage.db_us = 9600;
    manage.kernel_us = 9700;
    manage.alloc_bytes = 500 * 1024;
    manage.beans = BeanPlan{4, 7};
    manage.response_kb = 6.0;
    manage.method_invocations = 2400;

    auto &workorder = profiles[static_cast<std::size_t>(
        RequestType::CreateWorkOrder)];
    workorder.was_jit_us = 19800;
    workorder.was_other_us = 17900;
    workorder.web_us = 0;
    workorder.db_us = 12100;
    workorder.kernel_us = 14500;
    workorder.alloc_bytes = 700 * 1024;
    workorder.beans = BeanPlan{6, 11};
    workorder.response_kb = 0.0;
    workorder.method_invocations = 3200;
    return profiles;
}

} // namespace

Jas2004Application::Jas2004Application(const DbConfig &db_config,
                                       double injection_rate,
                                       std::uint64_t seed)
    : db_(db_config), rng_(seed),
      customers_(static_cast<std::uint32_t>(
          customersPerIr * injection_rate)),
      vehicles_(static_cast<std::uint32_t>(
          vehiclesPerIr * injection_rate)),
      inventory_(static_cast<std::uint32_t>(
          inventoryPerIr * injection_rate)),
      orders_(static_cast<std::uint32_t>(ordersPerIr * injection_rate)),
      workorders_(static_cast<std::uint32_t>(
          workordersPerIr * injection_rate)),
      customer_keys_(std::max<std::size_t>(customers_, 1), keyZipfS),
      vehicle_keys_(std::max<std::size_t>(vehicles_, 1), keyZipfS),
      inventory_keys_(std::max<std::size_t>(inventory_, 1), keyZipfS)
{
    assert(injection_rate > 0.0);
    createSchema();
    populate();
}

const TxnProfile &
Jas2004Application::profile(RequestType type)
{
    static const std::array<TxnProfile, requestTypeCount> profiles =
        buildProfiles();
    return profiles[static_cast<std::size_t>(type)];
}

void
Jas2004Application::createSchema()
{
    customer_t_ = db_.createTable(
        Schema{"customer",
               {{"id", ColumnType::Integer},
                {"name", ColumnType::Text},
                {"region", ColumnType::Integer}}});
    vehicle_t_ = db_.createTable(
        Schema{"vehicle",
               {{"id", ColumnType::Integer},
                {"model", ColumnType::Text},
                {"price", ColumnType::Integer},
                {"category", ColumnType::Integer}}});
    inventory_t_ = db_.createTable(
        Schema{"inventory",
               {{"id", ColumnType::Integer},
                {"vehicle_id", ColumnType::Integer},
                {"quantity", ColumnType::Integer},
                {"site", ColumnType::Integer}}});
    orders_t_ = db_.createTable(
        Schema{"orders",
               {{"id", ColumnType::Integer},
                {"customer_id", ColumnType::Integer},
                {"vehicle_id", ColumnType::Integer},
                {"quantity", ColumnType::Integer},
                {"status", ColumnType::Integer}}});
    workorder_t_ = db_.createTable(
        Schema{"workorder",
               {{"id", ColumnType::Integer},
                {"assembly_id", ColumnType::Integer},
                {"quantity", ColumnType::Integer},
                {"status", ColumnType::Integer}}});
}

void
Jas2004Application::populate()
{
    rows_loaded_ = std::uint64_t{customers_} + vehicles_ + inventory_ +
        orders_ + workorders_;
    db_.bulkLoad(customer_t_, customers_, populateBatchRows,
                 [](std::uint64_t i, Row &row) {
                     row[0] = std::int64_t(i);
                     row[1] = "customer-" + std::to_string(i);
                     row[2] = std::int64_t(i % 16);
                 });
    db_.bulkLoad(vehicle_t_, vehicles_, populateBatchRows,
                 [](std::uint64_t i, Row &row) {
                     row[0] = std::int64_t(i);
                     row[1] = "model-" + std::to_string(i % 500);
                     row[2] = std::int64_t(15000 + (i * 37) % 60000);
                     row[3] = std::int64_t(i % 12);
                 });
    db_.bulkLoad(inventory_t_, inventory_, populateBatchRows,
                 [this](std::uint64_t i, Row &row) {
                     row[0] = std::int64_t(i);
                     row[1] = std::int64_t(i % std::max(vehicles_, 1u));
                     row[2] = std::int64_t(100 + i % 900);
                     row[3] = std::int64_t(i % 8);
                 });
    db_.bulkLoad(orders_t_, orders_, populateBatchRows,
                 [this](std::uint64_t i, Row &row) {
                     row[0] = std::int64_t(i);
                     row[1] = std::int64_t(i % std::max(customers_, 1u));
                     row[2] = std::int64_t(i % std::max(vehicles_, 1u));
                     row[3] = std::int64_t(1 + i % 4);
                     row[4] = std::int64_t(0);
                 });
    db_.bulkLoad(workorder_t_, workorders_, populateBatchRows,
                 [this](std::uint64_t i, Row &row) {
                     row[0] = std::int64_t(i);
                     row[1] = std::int64_t(i % std::max(inventory_, 1u));
                     row[2] = std::int64_t(1 + i % 8);
                     row[3] = std::int64_t(0);
                 });
    next_order_id_ = orders_;
    next_workorder_id_ = workorders_;

    db_.createSecondaryIndex(inventory_t_, "vehicle_id");
    db_.createSecondaryIndex(orders_t_, "customer_id");
}

void
Jas2004Application::enableAudit()
{
    assert(!audit_on_);
    audit_table_ = db_.createTable(
        Schema{"audit",
               {{"token", ColumnType::Integer},
                {"request_type", ColumnType::Integer}}});
    audit_on_ = true;
}

void
Jas2004Application::stampAudit(TxnId txn, RequestType type,
                               TxnDbOutcome &outcome)
{
    if (!audit_on_)
        return;
    outcome.audit_token = static_cast<std::uint64_t>(++next_audit_token_);
    outcome.cost.add(db_.insert(
        txn, audit_table_,
        Row{next_audit_token_,
            std::int64_t(static_cast<std::uint8_t>(type))}));
}

void
Jas2004Application::finishAudit(TxnDbOutcome &outcome)
{
    if (!audit_on_)
        return;
    outcome.commit_lsn = db_.lastCommitLsn();
    outcome.wal_issued_lsn = db_.wal().issuedLsn();
}

std::int64_t
Jas2004Application::pickCustomer()
{
    return static_cast<std::int64_t>(customer_keys_(rng_));
}

std::int64_t
Jas2004Application::pickVehicle()
{
    return static_cast<std::int64_t>(vehicle_keys_(rng_));
}

std::int64_t
Jas2004Application::pickInventory()
{
    return static_cast<std::int64_t>(inventory_keys_(rng_));
}

TxnDbOutcome
Jas2004Application::runTransaction(RequestType type)
{
    switch (type) {
      case RequestType::Browse: return runBrowse();
      case RequestType::Purchase: return runPurchase();
      case RequestType::Manage: return runManage();
      case RequestType::CreateWorkOrder: return runCreateWorkOrder();
    }
    return {};
}

TxnDbOutcome
Jas2004Application::runBrowse()
{
    TxnDbOutcome outcome;
    for (int i = 0; i < 6; ++i)
        db_.pointSelect(vehicle_t_, pickVehicle(), outcome.cost);
    for (int i = 0; i < 2; ++i) {
        db_.selectBySecondary(inventory_t_, "vehicle_id", pickVehicle(),
                              outcome.cost);
    }
    db_.pointSelect(customer_t_, pickCustomer(), outcome.cost);
    return outcome;
}

TxnDbOutcome
Jas2004Application::runPurchase()
{
    TxnDbOutcome outcome;
    const TxnId txn = db_.begin();
    const std::int64_t customer = pickCustomer();
    db_.pointSelect(customer_t_, customer, outcome.cost);
    const std::int64_t vehicle = pickVehicle();
    db_.pointSelect(vehicle_t_, vehicle, outcome.cost);
    db_.pointSelect(vehicle_t_, pickVehicle(), outcome.cost);
    db_.selectBySecondary(inventory_t_, "vehicle_id", vehicle,
                          outcome.cost);

    outcome.cost.add(db_.insert(
        txn, orders_t_,
        Row{next_order_id_++, customer, vehicle,
            std::int64_t(1 + static_cast<std::int64_t>(rng_.below(4))),
            std::int64_t(0)}));

    const std::int64_t inv = pickInventory();
    const auto inv_row = db_.pointSelect(inventory_t_, inv, outcome.cost);
    if (inv_row) {
        Row updated = *inv_row;
        auto &qty = std::get<std::int64_t>(updated[2]);
        qty = qty > 0 ? qty - 1 : 500;
        outcome.cost.add(
            db_.updateByKey(txn, inventory_t_, inv, std::move(updated)));
    }
    stampAudit(txn, RequestType::Purchase, outcome);
    outcome.cost.add(db_.commit(txn));
    finishAudit(outcome);
    return outcome;
}

TxnDbOutcome
Jas2004Application::runManage()
{
    TxnDbOutcome outcome;
    const TxnId txn = db_.begin();
    const std::int64_t customer = pickCustomer();
    db_.pointSelect(customer_t_, customer, outcome.cost);
    const auto open_orders = db_.selectBySecondary(
        orders_t_, "customer_id", customer, outcome.cost);
    std::size_t updated = 0;
    for (const auto &order : open_orders) {
        if (updated >= 2)
            break;
        Row row = order;
        std::get<std::int64_t>(row[4]) += 1; // advance status
        const std::int64_t order_id = std::get<std::int64_t>(row[0]);
        outcome.cost.add(
            db_.updateByKey(txn, orders_t_, order_id, std::move(row)));
        ++updated;
    }
    stampAudit(txn, RequestType::Manage, outcome);
    outcome.cost.add(db_.commit(txn));
    finishAudit(outcome);
    return outcome;
}

TxnDbOutcome
Jas2004Application::runCreateWorkOrder()
{
    TxnDbOutcome outcome;
    const TxnId txn = db_.begin();
    outcome.cost.add(db_.insert(
        txn, workorder_t_,
        Row{next_workorder_id_++, pickInventory(),
            std::int64_t(1 + static_cast<std::int64_t>(rng_.below(8))),
            std::int64_t(0)}));
    for (int i = 0; i < 3; ++i)
        db_.pointSelect(inventory_t_, pickInventory(), outcome.cost);
    db_.pointSelect(vehicle_t_, pickVehicle(), outcome.cost);
    for (int i = 0; i < 2; ++i) {
        const std::int64_t inv = pickInventory();
        const auto row = db_.pointSelect(inventory_t_, inv, outcome.cost);
        if (row) {
            Row updated = *row;
            std::get<std::int64_t>(updated[2]) += 1;
            outcome.cost.add(db_.updateByKey(txn, inventory_t_, inv,
                                             std::move(updated)));
        }
    }
    stampAudit(txn, RequestType::CreateWorkOrder, outcome);
    outcome.cost.add(db_.commit(txn));
    finishAudit(outcome);
    return outcome;
}

} // namespace jasim
