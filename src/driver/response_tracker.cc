#include "driver/response_tracker.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace jasim {

ResponseTracker::ResponseTracker(double bucket_seconds)
    : bucket_seconds_(bucket_seconds)
{
    assert(bucket_seconds > 0.0);
}

void
ResponseTracker::complete(const Request &request, SimTime finish,
                          std::uint32_t node)
{
    assert(finish >= request.arrival);
    PerType &pt = per_type_[idx(request.type)];
    const double seconds = toSeconds(finish - request.arrival);
    pt.responses.add(seconds);
    pt.completions.push_back(Completion{finish, node, seconds});
}

std::uint64_t
ResponseTracker::completedCount(RequestType type) const
{
    return per_type_[idx(type)].completions.size();
}

std::uint64_t
ResponseTracker::totalCompleted() const
{
    std::uint64_t total = 0;
    for (const auto &pt : per_type_)
        total += pt.completions.size();
    return total;
}

TimeSeries
ResponseTracker::throughputSeries(RequestType type, SimTime end) const
{
    TimeSeries series(std::string(requestTypeName(type)) + " (tx/s)");
    const SimTime bucket = secs(bucket_seconds_);
    if (bucket == 0 || end == 0)
        return series;
    const std::size_t buckets =
        static_cast<std::size_t>((end + bucket - 1) / bucket);
    std::vector<std::uint64_t> counts(buckets, 0);
    for (const Completion &c : per_type_[idx(type)].completions) {
        if (c.finish < end)
            counts[static_cast<std::size_t>(c.finish / bucket)] += 1;
    }
    for (std::size_t b = 0; b < buckets; ++b) {
        series.append(static_cast<SimTime>(b) * bucket + bucket / 2,
                      static_cast<double>(counts[b]) / bucket_seconds_);
    }
    return series;
}

double
ResponseTracker::jops(SimTime from, SimTime to) const
{
    if (to <= from)
        return 0.0;
    std::uint64_t completed = 0;
    for (const auto &pt : per_type_) {
        for (const Completion &c : pt.completions) {
            if (c.finish >= from && c.finish < to)
                completed += 1;
        }
    }
    return static_cast<double>(completed) / toSeconds(to - from);
}

double
ResponseTracker::goodput(SimTime from, SimTime to,
                         double bound_seconds) const
{
    if (to <= from)
        return 0.0;
    std::uint64_t good = 0;
    for (std::size_t t = 0; t < requestTypeCount; ++t) {
        const double bound = bound_seconds > 0.0
            ? bound_seconds
            : slaSeconds(static_cast<RequestType>(t));
        for (const Completion &c : per_type_[t].completions) {
            if (c.finish >= from && c.finish < to &&
                c.seconds <= bound)
                good += 1;
        }
    }
    return static_cast<double>(good) / toSeconds(to - from);
}

double
ResponseTracker::slaAttainment(RequestType type,
                               double bound_seconds) const
{
    const PerType &pt = per_type_[idx(type)];
    if (pt.completions.empty())
        return kNoSamples;
    const double bound =
        bound_seconds > 0.0 ? bound_seconds : slaSeconds(type);
    return pt.responses.fractionAtOrBelow(bound);
}

std::uint64_t
ResponseTracker::completedOnNode(std::uint32_t node) const
{
    std::uint64_t total = 0;
    for (const auto &pt : per_type_) {
        for (const Completion &c : pt.completions) {
            if (c.node == node)
                total += 1;
        }
    }
    return total;
}

double
ResponseTracker::nodeJops(std::uint32_t node, SimTime from,
                          SimTime to) const
{
    if (to <= from)
        return 0.0;
    std::uint64_t completed = 0;
    for (const auto &pt : per_type_) {
        for (const Completion &c : pt.completions) {
            if (c.node == node && c.finish >= from && c.finish < to)
                completed += 1;
        }
    }
    return static_cast<double>(completed) / toSeconds(to - from);
}

std::array<SlaVerdict, requestTypeCount>
ResponseTracker::verdicts() const
{
    std::array<SlaVerdict, requestTypeCount> verdicts;
    for (std::size_t t = 0; t < requestTypeCount; ++t) {
        const auto type = static_cast<RequestType>(t);
        SlaVerdict &v = verdicts[t];
        v.type = type;
        v.bound_seconds = slaSeconds(type);
        v.completed = per_type_[t].completions.size();
        v.p90_seconds = per_type_[t].responses.percentile(90.0);
        v.p99_seconds = per_type_[t].responses.percentile(99.0);
        v.pass = v.completed == 0 || v.p90_seconds <= v.bound_seconds;
    }
    return verdicts;
}

bool
ResponseTracker::allPass() const
{
    for (const auto &v : verdicts()) {
        if (!v.pass)
            return false;
    }
    return true;
}

double
ResponseTracker::meanResponseSeconds(RequestType type) const
{
    const PercentileTracker &responses = per_type_[idx(type)].responses;
    if (responses.count() == 0)
        return kNoSamples;
    return responses.mean();
}

double
ResponseTracker::p99ResponseSeconds(RequestType type) const
{
    const PercentileTracker &responses = per_type_[idx(type)].responses;
    if (responses.count() == 0)
        return kNoSamples;
    return responses.percentile(99.0);
}

void
ResponseTracker::error([[maybe_unused]] const Request &request,
                       [[maybe_unused]] SimTime finish,
                       std::uint32_t node, ErrorKind kind)
{
    assert(finish >= request.arrival);
    assert(kind != ErrorKind::None);
    ++total_errors_;
    ++errors_by_kind_[static_cast<std::size_t>(kind)];
    ++errors_by_node_[node];
}

void
ResponseTracker::recordRetry(ErrorKind cause)
{
    ++retries_;
    ++retry_causes_[static_cast<std::size_t>(cause)];
}

std::uint64_t
ResponseTracker::errorsOnNode(std::uint32_t node) const
{
    const auto it = errors_by_node_.find(node);
    return it == errors_by_node_.end() ? 0 : it->second;
}

double
ResponseTracker::errorRate() const
{
    const std::uint64_t finished = total_errors_ + totalCompleted();
    if (finished == 0)
        return 0.0;
    return static_cast<double>(total_errors_) /
        static_cast<double>(finished);
}

void
ResponseTracker::noteOutage(const Outage &outage)
{
    assert(outage.to == 0 || outage.to >= outage.from);
    if (outage.kind != OutageKind::NodeDown ||
        openNodeDown(outage.target) == nullptr)
        outages_.push_back(outage);
}

void
ResponseTracker::noteNodeUp(std::uint32_t node, SimTime at)
{
    if (Outage *open = openNodeDown(node))
        open->to = at;
}

Outage *
ResponseTracker::openNodeDown(std::uint32_t node)
{
    for (auto it = outages_.rbegin(); it != outages_.rend(); ++it) {
        if (it->kind == OutageKind::NodeDown && it->target == node)
            return it->to == 0 ? &*it : nullptr;
    }
    return nullptr;
}

namespace {

bool
matches(const Outage &outage, OutageKinds kinds, std::uint32_t target)
{
    return (kinds & outageBit(outage.kind)) != 0 &&
        (target == Outage::kNoTarget || outage.target == target);
}

} // namespace

std::size_t
ResponseTracker::count(OutageKinds kinds) const
{
    return static_cast<std::size_t>(std::count_if(
        outages_.begin(), outages_.end(), [kinds](const Outage &o) {
            return matches(o, kinds, Outage::kNoTarget);
        }));
}

SimTime
ResponseTracker::closedUs(OutageKinds kinds, std::uint32_t target) const
{
    SimTime total = 0;
    for (const Outage &o : outages_) {
        if (matches(o, kinds, target) && o.to != 0)
            total += o.to - o.from;
    }
    return total;
}

DegradedSummary
ResponseTracker::coverage(OutageKinds kinds, SimTime horizon,
                          std::uint32_t target) const
{
    std::vector<std::pair<SimTime, SimTime>> windows;
    for (const Outage &o : outages_) {
        const SimTime from = std::min(o.from, horizon);
        const SimTime to = o.to == 0 ? horizon : std::min(o.to, horizon);
        if (matches(o, kinds, target) && to > from)
            windows.emplace_back(from, to);
    }
    std::sort(windows.begin(), windows.end());

    DegradedSummary summary;
    SimTime merged_to = 0;
    for (const auto &[from, to] : windows) {
        if (summary.intervals == 0 || from > merged_to) {
            ++summary.intervals;
            summary.degraded_us += to - from;
            merged_to = to;
        } else if (to > merged_to) {
            summary.degraded_us += to - merged_to;
            merged_to = to;
        }
    }
    if (horizon > 0) {
        summary.degraded_fraction =
            static_cast<double>(summary.degraded_us) /
            static_cast<double>(horizon);
    }
    return summary;
}

} // namespace jasim
