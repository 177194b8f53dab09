#include "fault/schedule.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace jasim {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::NodeCrash: return "crash";
      case FaultKind::LinkDegrade: return "degrade";
      case FaultKind::DbSlow: return "dbslow";
      case FaultKind::PoolKill: return "poolkill";
      case FaultKind::DbCrash: return "dbcrash";
      case FaultKind::DbTornWrite: return "tornwrite";
      case FaultKind::Partition: return "partition";
      case FaultKind::Switchover: return "switchover";
    }
    return "?";
}

std::string
FaultEvent::describe() const
{
    std::ostringstream os;
    os << faultKindName(kind) << "@" << toSeconds(at) << "s";
    switch (kind) {
      case FaultKind::NodeCrash:
        os << " node=" << node;
        if (restart_after > 0)
            os << " restart=" << toSeconds(restart_after) << "s";
        break;
      case FaultKind::LinkDegrade:
        if (node == kAllNodes)
            os << " node=all";
        else
            os << " node=" << node;
        os << " lat=" << latency_mult << "x drop=" << drop_probability;
        if (duration > 0)
            os << " dur=" << toSeconds(duration) << "s";
        break;
      case FaultKind::DbSlow:
        os << " mult=" << disk_mult << "x";
        if (duration > 0)
            os << " dur=" << toSeconds(duration) << "s";
        break;
      case FaultKind::PoolKill:
        os << " node=" << node;
        break;
      case FaultKind::DbCrash:
      case FaultKind::DbTornWrite:
        if (shard != kNoTarget)
            os << " shard=" << shard;
        if (replica != kNoTarget)
            os << " replica=" << replica;
        if (restart_after > 0)
            os << " restart=" << toSeconds(restart_after) << "s";
        break;
      case FaultKind::Partition:
        os << " sides=";
        for (std::size_t s = 0; s < sides.size(); ++s) {
            if (s)
                os << "|";
            for (std::size_t e = 0; e < sides[s].size(); ++e) {
                if (e)
                    os << ",";
                os << describeNetEndpoint(sides[s][e]);
            }
        }
        if (duration > 0)
            os << " dur=" << toSeconds(duration) << "s";
        break;
      case FaultKind::Switchover:
        os << " shard=" << (shard == kNoTarget ? 0 : shard);
        break;
    }
    return os.str();
}

namespace {

[[noreturn]] void
fail(const std::string &what, const std::string &token)
{
    throw std::invalid_argument("--faults: " + what + " in \"" +
                                token + "\"");
}

std::string
trim(const std::string &s)
{
    const auto begin = s.find_first_not_of(" \t\n\r");
    if (begin == std::string::npos)
        return "";
    const auto end = s.find_last_not_of(" \t\n\r");
    return s.substr(begin, end - begin + 1);
}

double
parseNumber(const std::string &value, const std::string &token)
{
    std::size_t used = 0;
    double parsed = 0.0;
    try {
        parsed = std::stod(value, &used);
    } catch (const std::exception &) {
        fail("malformed number \"" + value + "\"", token);
    }
    if (used != value.size() || !std::isfinite(parsed))
        fail("malformed number \"" + value + "\"", token);
    return parsed;
}

double
parseNonNegative(const std::string &value, const std::string &token)
{
    const double parsed = parseNumber(value, token);
    if (parsed < 0.0)
        fail("negative value \"" + value + "\"", token);
    return parsed;
}

FaultEvent
parseEvent(const std::string &raw)
{
    const std::string token = trim(raw);
    const auto at_pos = token.find('@');
    if (at_pos == std::string::npos)
        fail("missing '@<time>'", token);

    const std::string kind_name = trim(token.substr(0, at_pos));
    FaultEvent event;
    if (kind_name == "crash")
        event.kind = FaultKind::NodeCrash;
    else if (kind_name == "degrade")
        event.kind = FaultKind::LinkDegrade;
    else if (kind_name == "dbslow")
        event.kind = FaultKind::DbSlow;
    else if (kind_name == "poolkill")
        event.kind = FaultKind::PoolKill;
    else if (kind_name == "dbcrash")
        event.kind = FaultKind::DbCrash;
    else if (kind_name == "tornwrite")
        event.kind = FaultKind::DbTornWrite;
    else if (kind_name == "partition")
        event.kind = FaultKind::Partition;
    else if (kind_name == "switchover")
        event.kind = FaultKind::Switchover;
    else
        fail("unknown fault kind \"" + kind_name + "\"", token);

    const auto colon = token.find(':', at_pos);
    const std::string time_str = trim(
        token.substr(at_pos + 1, colon == std::string::npos
                                     ? std::string::npos
                                     : colon - at_pos - 1));
    event.at = secs(parseNonNegative(time_str, token));

    bool saw_node = false;
    // `sides=` values contain ','; fragments without '=' that follow
    // a sides key continue the endpoint list.
    std::string sides_str;
    bool in_sides = false;
    std::string params = colon == std::string::npos
                             ? ""
                             : token.substr(colon + 1);
    std::istringstream split(params);
    std::string kv;
    while (std::getline(split, kv, ',')) {
        kv = trim(kv);
        if (kv.empty())
            continue;
        const auto eq = kv.find('=');
        if (eq == std::string::npos) {
            if (in_sides) {
                sides_str += "," + kv;
                continue;
            }
            fail("parameter \"" + kv + "\" is not key=value", token);
        }
        const std::string key = trim(kv.substr(0, eq));
        const std::string value = trim(kv.substr(eq + 1));
        in_sides = false;

        if (key == "node" &&
            (event.kind == FaultKind::NodeCrash ||
             event.kind == FaultKind::LinkDegrade ||
             event.kind == FaultKind::PoolKill)) {
            if (value == "all") {
                if (event.kind != FaultKind::LinkDegrade)
                    fail("node=all applies to degrade only", token);
                event.node = FaultEvent::kAllNodes;
            } else {
                event.node = static_cast<std::size_t>(
                    parseNonNegative(value, token));
            }
            saw_node = true;
        } else if (key == "restart" &&
                   (event.kind == FaultKind::NodeCrash ||
                    event.kind == FaultKind::DbCrash ||
                    event.kind == FaultKind::DbTornWrite)) {
            event.restart_after =
                secs(parseNonNegative(value, token));
        } else if (key == "dur" &&
                   (event.kind == FaultKind::LinkDegrade ||
                    event.kind == FaultKind::DbSlow ||
                    event.kind == FaultKind::Partition)) {
            event.duration = secs(parseNonNegative(value, token));
        } else if (key == "lat" &&
                   event.kind == FaultKind::LinkDegrade) {
            event.latency_mult = parseNonNegative(value, token);
            if (event.latency_mult < 1.0)
                fail("lat multiplier must be >= 1", token);
        } else if (key == "drop" &&
                   event.kind == FaultKind::LinkDegrade) {
            event.drop_probability = parseNonNegative(value, token);
            if (event.drop_probability > 1.0)
                fail("drop probability must be <= 1", token);
        } else if (key == "shard" &&
                   (event.kind == FaultKind::DbCrash ||
                    event.kind == FaultKind::DbTornWrite ||
                    event.kind == FaultKind::Switchover)) {
            event.shard = static_cast<std::size_t>(
                parseNonNegative(value, token));
        } else if (key == "sides" &&
                   event.kind == FaultKind::Partition) {
            sides_str = value;
            in_sides = true;
        } else if (key == "replica" &&
                   event.kind == FaultKind::DbCrash) {
            event.replica = static_cast<std::size_t>(
                parseNonNegative(value, token));
        } else if (key == "mult" && event.kind == FaultKind::DbSlow) {
            event.disk_mult = parseNonNegative(value, token);
            if (event.disk_mult < 1.0)
                fail("disk multiplier must be >= 1", token);
        } else {
            fail("unknown key \"" + key + "\" for " + kind_name,
                 token);
        }
    }

    if (!saw_node && (event.kind == FaultKind::NodeCrash ||
                      event.kind == FaultKind::PoolKill))
        fail("missing node=<n>", token);

    if (event.kind == FaultKind::Partition) {
        if (sides_str.empty())
            fail("missing sides=<a,b|c,...>", token);
        std::istringstream side_split(sides_str);
        std::string side;
        while (std::getline(side_split, side, '|')) {
            std::vector<NetEndpoint> members;
            std::istringstream member_split(side);
            std::string member;
            while (std::getline(member_split, member, ',')) {
                member = trim(member);
                if (member.empty())
                    continue;
                bool ok = false;
                const NetEndpoint ep = parseNetEndpoint(member, ok);
                if (!ok)
                    fail("bad endpoint \"" + member +
                             "\" (want <n>, db<s>, or db<s>.<r>)",
                         token);
                for (const auto &group : event.sides)
                    for (const NetEndpoint &other : group)
                        if (other == ep)
                            fail("endpoint \"" + member +
                                     "\" listed on two sides",
                                 token);
                for (const NetEndpoint &other : members)
                    if (other == ep)
                        fail("endpoint \"" + member +
                                 "\" listed on two sides",
                             token);
                members.push_back(ep);
            }
            if (members.empty())
                fail("empty partition side", token);
            event.sides.push_back(std::move(members));
        }
        if (event.sides.size() < 2)
            fail("partition needs at least two sides", token);
    }
    return event;
}

/** Validation failure against an already-parsed event. */
[[noreturn]] void
failEvent(const std::string &what, const FaultEvent &event)
{
    throw std::invalid_argument("--faults: " + what + " in \"" +
                                event.describe() + "\"");
}

} // namespace

FaultSchedule
FaultSchedule::parse(const std::string &spec)
{
    FaultSchedule schedule;
    std::istringstream split(spec);
    std::string token;
    while (std::getline(split, token, ';')) {
        if (trim(token).empty())
            continue;
        schedule.add(parseEvent(token));
    }
    schedule.validate();
    return schedule;
}

void
FaultSchedule::validate() const
{
    // Open-ended windows use the sentinel; [at, until) is the down
    // window, and any event landing at `at` or later inside it
    // targets something already down.
    constexpr SimTime kForever = static_cast<SimTime>(-1);
    struct Window
    {
        std::size_t a = 0; // node, or shard
        std::size_t b = 0; // kNoTarget for primaries, else replica
        SimTime until = 0;
    };
    std::vector<Window> node_down;
    std::vector<Window> db_down; // b == kNoTarget → primary/tier
    SimTime partition_until = 0; // 0 = no open partition window
    bool partition_open = false;

    auto covered = [](const std::vector<Window> &windows,
                      std::size_t a, std::size_t b, SimTime t) {
        for (const Window &w : windows)
            if (w.a == a && w.b == b && t < w.until)
                return true;
        return false;
    };

    for (std::size_t i = 0; i < events_.size(); ++i) {
        const FaultEvent &e = events_[i];

        // Exact duplicates (same kind, time, target) are a spec bug.
        for (std::size_t j = 0; j < i; ++j) {
            const FaultEvent &p = events_[j];
            if (p.kind != e.kind || p.at != e.at)
                continue;
            if (p.node == e.node && p.shard == e.shard &&
                p.replica == e.replica)
                failEvent("duplicate event (same kind, time, and "
                          "target)",
                          e);
        }

        const std::size_t shard =
            e.shard == FaultEvent::kNoTarget ? 0 : e.shard;
        switch (e.kind) {
          case FaultKind::NodeCrash:
          case FaultKind::PoolKill:
            if (covered(node_down, e.node, 0, e.at))
                failEvent("node " + std::to_string(e.node) +
                              " is already down at that time",
                          e);
            if (e.kind == FaultKind::NodeCrash)
                node_down.push_back(
                    {e.node, 0,
                     e.restart_after > 0 ? e.at + e.restart_after
                                         : kForever});
            break;
          case FaultKind::DbCrash:
          case FaultKind::DbTornWrite: {
            const bool replica_scoped =
                e.kind == FaultKind::DbCrash &&
                e.replica != FaultEvent::kNoTarget;
            const std::size_t member =
                replica_scoped ? e.replica : FaultEvent::kNoTarget;
            // A tier-wide crash (no shard key anywhere) and a
            // shard-scoped crash share shard 0's bucket, which is
            // exactly the cluster's own defaulting rule.
            if (covered(db_down, shard, member, e.at))
                failEvent("shard " + std::to_string(shard) +
                              (replica_scoped
                                   ? " replica " +
                                         std::to_string(e.replica)
                                   : std::string()) +
                              " is already down at that time",
                          e);
            db_down.push_back(
                {shard, member,
                 e.restart_after > 0 ? e.at + e.restart_after
                                     : kForever});
            break;
          }
          case FaultKind::Switchover:
            if (covered(db_down, shard, FaultEvent::kNoTarget, e.at))
                failEvent("shard " + std::to_string(shard) +
                              " is already down at that time",
                          e);
            break;
          case FaultKind::Partition:
            if (partition_open &&
                (partition_until == kForever || e.at < partition_until))
                failEvent("a partition window is still open at that "
                          "time",
                          e);
            partition_open = true;
            partition_until =
                e.duration > 0 ? e.at + e.duration : kForever;
            break;
          case FaultKind::LinkDegrade:
          case FaultKind::DbSlow:
            break;
        }
    }
}

bool
FaultSchedule::hasDbFault() const
{
    return std::any_of(events_.begin(), events_.end(),
                       [](const FaultEvent &event) {
                           return event.kind == FaultKind::DbCrash ||
                               event.kind == FaultKind::DbTornWrite;
                       });
}

bool
FaultSchedule::hasPartition() const
{
    return std::any_of(events_.begin(), events_.end(),
                       [](const FaultEvent &event) {
                           return event.kind == FaultKind::Partition;
                       });
}

bool
FaultSchedule::hasSwitchover() const
{
    return std::any_of(events_.begin(), events_.end(),
                       [](const FaultEvent &event) {
                           return event.kind == FaultKind::Switchover;
                       });
}

void
FaultSchedule::add(const FaultEvent &event)
{
    // Stable insertion keeps same-time events in spec order, which
    // makes the injector's firing order reproducible.
    auto pos = std::upper_bound(
        events_.begin(), events_.end(), event,
        [](const FaultEvent &a, const FaultEvent &b) {
            return a.at < b.at;
        });
    events_.insert(pos, event);
}

std::string
FaultSchedule::summary() const
{
    std::string out;
    for (std::size_t i = 0; i < events_.size(); ++i) {
        if (i)
            out += "; ";
        out += events_[i].describe();
    }
    return out;
}

} // namespace jasim
