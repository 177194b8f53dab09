#include "jvm/gc.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "jvm/heap_worker.h"
#include "sim/distributions.h"

namespace jasim {

GarbageCollector::GarbageCollector(const GcConfig &config,
                                   std::uint64_t seed, HeapWorker *worker)
    : config_(config), heap_(config.heap), graph_(seed ^ 0x9c0full),
      rng_(seed), last_live_bytes_(config.baseline_bytes),
      object_mu_(std::log(config.object_mean_bytes) -
                 config.object_sigma * config.object_sigma / 2.0),
      worker_(worker)
{
    // Long-lived baseline: application server structures, caches,
    // class metadata. Rooted effectively forever.
    std::uint64_t allocated = 0;
    while (allocated < config_.baseline_bytes) {
        const std::uint32_t bytes = drawObjectBytes();
        const auto offset = heap_.allocate(bytes);
        if (!offset) {
            throw std::invalid_argument(
                "a heap of " + std::to_string(config_.heap.size_bytes) +
                " bytes cannot hold the startup baseline of " +
                std::to_string(config_.baseline_bytes) + " bytes");
        }
        graph_.addCell(*offset, bytes,
                       secs(config_.permanent_lifetime_s) + 1,
                       config_.edge_probability);
        allocated += bytes;
    }
    credit_ = heap_.credit();
}

GarbageCollector::~GarbageCollector()
{
    // The worker must not touch this collector once it is gone. An
    // exception a call threw stays with the worker, whose next drain
    // rethrows it.
    if (worker_)
        worker_->wait(*this);
}

SimTime
GarbageCollector::drawLifetime()
{
    const double u = rng_.uniform();
    double seconds;
    if (u < config_.transient_fraction) {
        seconds = drawExponential(rng_, 1.0 / config_.transient_mean_s);
    } else if (u < config_.transient_fraction + config_.session_fraction) {
        seconds = drawExponential(rng_, 1.0 / config_.session_mean_s);
    } else {
        seconds = config_.permanent_lifetime_s;
    }
    return secs(std::max(seconds, 1e-3));
}

std::uint32_t
GarbageCollector::drawObjectBytes()
{
    const double draw =
        drawLogNormal(rng_, object_mu_, config_.object_sigma);
    return static_cast<std::uint32_t>(std::clamp(draw, 64.0, 65536.0));
}

bool
GarbageCollector::allocate(std::uint64_t bytes, SimTime now)
{
    if (!worker_)
        return place(bytes, now);
    const std::uint64_t most = bytes + 63;
    if (most > credit_) {
        settle();
        credit_ = heap_.credit();
    }
    if (most > credit_) {
        const bool placed = place(bytes, now);
        credit_ = heap_.credit();
        return placed;
    }
    credit_ -= most;
    worker_->submit(*this, bytes, now);
    return true;
}

void
GarbageCollector::settle() const
{
    if (worker_)
        worker_->drain(*this);
}

bool
GarbageCollector::place(std::uint64_t bytes, SimTime now)
{
    std::uint64_t remaining = bytes;
    while (remaining > 0) {
        const std::uint32_t cell = std::min<std::uint64_t>(
            drawObjectBytes(), std::max<std::uint64_t>(remaining, 64));
        const auto offset = heap_.allocate(cell);
        if (!offset)
            return false;
        graph_.addCell(*offset, cell, now + drawLifetime(),
                       config_.edge_probability);
        remaining -= std::min<std::uint64_t>(cell, remaining);
    }
    return true;
}

GcEvent
GarbageCollector::collect(SimTime now, GcCause cause)
{
    settle();
    GcEvent event;
    event.start = now;
    event.cause = cause;
    event.used_before = heap_.usedBytes();

    const MarkResult mark = graph_.mark(now);
    event.live_bytes = mark.live_bytes;
    event.live_cells = mark.live_cells;
    event.mark_ms = static_cast<double>(mark.live_bytes) *
        config_.mark_ns_per_byte / 1e6;
    last_live_bytes_ = mark.live_bytes;

    // Every unmarked cell is dead, so the sweep's size is known now.
    swept_.clear();
    swept_.reserve(graph_.cellCount() - mark.live_cells);
    event.reclaimed_cells = graph_.sweep(
        [this](std::uint64_t offset, std::uint32_t bytes) {
            swept_.push_back(Heap::Block{offset, bytes, 0});
        });
    heap_.free(swept_);
    event.sweep_ms = static_cast<double>(config_.heap.size_bytes) *
        config_.sweep_ns_per_byte / 1e6;
    event.freed_bytes = event.used_before - heap_.usedBytes();

    const std::uint64_t dark = heap_.darkBytes();
    const bool need_compact = static_cast<double>(dark) >
        config_.compact_dark_fraction *
            static_cast<double>(config_.heap.size_bytes);
    if (need_compact) {
        // Slide every surviving cell to the bottom of the heap; after
        // sweep() all remaining cells are live, so a linear reassign
        // of offsets is a faithful sliding compaction.
        std::uint64_t cursor = 0;
        graph_.forEachCell([&cursor](Cell &cell) {
            cell.heap_offset = cursor;
            cursor += cell.bytes;
        });
        heap_.compact(cursor);
        event.compacted = true;
        event.compact_ms = static_cast<double>(mark.live_bytes) *
            config_.compact_ns_per_byte / 1e6;
    }

    event.used_after = heap_.usedBytes();
    event.dark_bytes = heap_.darkBytes();
    log_.record(event);
    credit_ = heap_.credit();
    return event;
}

} // namespace jasim
