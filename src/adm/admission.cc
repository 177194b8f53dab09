#include "adm/admission.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "sim/config.h"

namespace jasim::adm {

const char *
shedPolicyName(ShedPolicy policy)
{
    switch (policy) {
      case ShedPolicy::None: return "none";
      case ShedPolicy::Static: return "static";
      case ShedPolicy::Adaptive: return "adaptive";
    }
    return "?";
}

AdmissionConfig
AdmissionConfig::parse(const std::string &raw)
{
    AdmissionConfig config;
    const std::string whole = trim(raw);
    if (whole.empty())
        return config;

    const std::size_t colon = whole.find(':');
    const std::string head = trim(whole.substr(0, colon));
    if (head == "none")
        config.policy = ShedPolicy::None;
    else if (head == "static")
        config.policy = ShedPolicy::Static;
    else if (head == "adaptive")
        config.policy = ShedPolicy::Adaptive;
    else
        throw specError("--admission", "unknown policy \"" + head + "\"",
                        whole);

    const bool adaptive = config.policy == ShedPolicy::Adaptive;
    const bool shedding = config.policy != ShedPolicy::None;
    for (const SpecItem &item :
         splitSpec("--admission", colon == std::string::npos
                                      ? ""
                                      : whole.substr(colon + 1))) {
        const std::string &key = item.key;
        if (key == "lb_cap") {
            config.lb_inflight_cap = static_cast<std::size_t>(
                parseInt(item.what, item.value, 0));
        } else if (key == "cap" && shedding) {
            config.max_concurrent = static_cast<std::size_t>(
                parseInt(item.what, item.value, 0));
        } else if (key == "queue" && shedding) {
            config.queue_capacity = static_cast<std::size_t>(
                parseInt(item.what, item.value, 0));
        } else if (key == "deadline" && shedding) {
            config.queue_deadline_s =
                parseDouble(item.what, item.value, 0.0, 1e9);
        } else if (key == "min" && adaptive) {
            config.min_concurrent = static_cast<std::size_t>(
                parseInt(item.what, item.value, 1));
        } else if (key == "target" && adaptive) {
            config.target_delay_s =
                parseDouble(item.what, item.value, kAboveZero, 1e9);
        } else if (key == "interval" && adaptive) {
            config.adjust_interval_s =
                parseDouble(item.what, item.value, kAboveZero, 1e9);
        } else {
            throw specError("--admission",
                            "unknown " +
                                std::string(shedPolicyName(config.policy)) +
                                " key \"" + key + "\"",
                            whole);
        }
    }
    return config;
}

std::string
AdmissionConfig::describe() const
{
    std::ostringstream out;
    out << shedPolicyName(policy);
    if (webEnabled()) {
        out << " cap=" << max_concurrent
            << " queue=" << queue_capacity
            << " deadline=" << queue_deadline_s << "s";
        if (policy == ShedPolicy::Adaptive) {
            out << " target=" << target_delay_s
                << "s interval=" << adjust_interval_s
                << "s min=" << min_concurrent;
        }
    }
    if (lb_inflight_cap > 0)
        out << " lb_cap=" << lb_inflight_cap;
    return out.str();
}

AdmissionController::AdmissionController(
    const AdmissionConfig &config, EventQueue &queue)
    : config_(config), queue_(queue),
      cap_(config.max_concurrent), max_cap_(config.max_concurrent)
{
    assert(config_.webEnabled());
    assert(cap_ > 0 && "max_concurrent must be resolved");
    if (config_.policy == ShedPolicy::Adaptive) {
        assert(config_.min_concurrent >= 1 &&
               config_.min_concurrent <= cap_);
        queue_.scheduleAfter(secs(config_.adjust_interval_s),
                             [this] { adjustTick(); });
    }
}

void
AdmissionController::enterService(Admit &admit, SimTime since)
{
    ++in_service_;
    stats_.peak_in_service =
        std::max(stats_.peak_in_service, in_service_);
    ++stats_.admitted;
    const SimTime now = queue_.now();
    assert(now >= since);
    stats_.queue_wait_us += now - since;
    admit(now);
}

void
AdmissionController::offer(Admit admit, Shed shed)
{
    ++stats_.offered;
    const SimTime now = queue_.now();
    if (in_service_ < cap_ && waiting_.empty()) {
        enterService(admit, now);
        return;
    }
    if (waiting_.size() >= config_.queue_capacity) {
        ++stats_.shed_queue_full;
        shed(now, ShedReason::QueueFull);
        return;
    }
    Waiter waiter;
    waiter.admit = std::move(admit);
    waiter.shed = std::move(shed);
    waiter.since = now;
    waiter.id = next_waiter_id_++;
    waiting_.push_back(std::move(waiter));
    ++stats_.queued;
    stats_.peak_queue = std::max(stats_.peak_queue, waiting_.size());
    if (config_.queue_deadline_s > 0.0) {
        const std::uint64_t id = waiting_.back().id;
        queue_.scheduleAfter(
            secs(config_.queue_deadline_s), [this, id] {
                for (auto it = waiting_.begin();
                     it != waiting_.end(); ++it) {
                    if (it->id != id)
                        continue;
                    Shed shed = std::move(it->shed);
                    waiting_.erase(it);
                    ++stats_.shed_deadline;
                    shed(queue_.now(), ShedReason::QueueDeadline);
                    return;
                }
                // Already admitted; nothing to do.
            });
    }
}

void
AdmissionController::release()
{
    assert(in_service_ > 0);
    --in_service_;
    drainQueue();
}

void
AdmissionController::drainQueue()
{
    while (!waiting_.empty() && in_service_ < cap_) {
        Waiter waiter = std::move(waiting_.front());
        waiting_.pop_front();
        observeDelay(
            toSeconds(queue_.now() - waiter.since));
        enterService(waiter.admit, waiter.since);
    }
}

void
AdmissionController::observeDelay(double delay_s)
{
    if (interval_min_delay_s_ < 0.0 ||
        delay_s < interval_min_delay_s_)
        interval_min_delay_s_ = delay_s;
}

void
AdmissionController::adjustTick()
{
    // CoDel-style signal: the minimum queueing delay over the
    // interval. If nothing left the queue, the head's current wait
    // stands in (a stalled queue must still read as congestion); an
    // empty queue reads as zero delay.
    double min_delay = interval_min_delay_s_;
    if (min_delay < 0.0) {
        min_delay = waiting_.empty()
            ? 0.0
            : toSeconds(queue_.now() - waiting_.front().since);
    }
    if (min_delay > config_.target_delay_s) {
        const std::size_t cut = std::max<std::size_t>(1, cap_ / 8);
        const std::size_t floor = config_.min_concurrent;
        if (cap_ > floor) {
            cap_ = cap_ > floor + cut ? cap_ - cut : floor;
            ++stats_.cap_cuts;
        }
    } else if (min_delay * 2.0 < config_.target_delay_s &&
               cap_ < max_cap_) {
        ++cap_;
        ++stats_.cap_raises;
        drainQueue();
    }
    interval_min_delay_s_ = -1.0;
    queue_.scheduleAfter(secs(config_.adjust_interval_s),
                         [this] { adjustTick(); });
}

} // namespace jasim::adm
