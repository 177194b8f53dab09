#include "fault/schedule.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "sim/config.h"

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

FaultEvent
parseEvent(const std::string &token)
{
    const auto at_pos = token.find('@');
    if (at_pos == std::string::npos)
        throw specError("--faults", "missing '@<time>'", token);

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
        throw specError("--faults",
                        "unknown fault kind \"" + kind_name + "\"", token);

    const auto colon = token.find(':', at_pos);
    event.at = secs(parseDouble(
        "--faults: " + token,
        trim(token.substr(at_pos + 1, colon == std::string::npos
                                          ? std::string::npos
                                          : colon - at_pos - 1)),
        0.0, 1e9));

    bool saw_node = false;
    std::string sides_str;
    for (const SpecItem &item :
         splitSpec("--faults", colon == std::string::npos
                                   ? ""
                                   : token.substr(colon + 1))) {
        const std::string &key = item.key;
        const std::string &value = item.value;
        if (key == "node" &&
            (event.kind == FaultKind::NodeCrash ||
             event.kind == FaultKind::LinkDegrade ||
             event.kind == FaultKind::PoolKill)) {
            if (value == "all") {
                if (event.kind != FaultKind::LinkDegrade)
                    throw specError("--faults",
                                    "node=all applies to degrade only",
                                    token);
                event.node = FaultEvent::kAllNodes;
            } else {
                event.node = static_cast<std::size_t>(
                    parseInt(item.what, value, 0));
            }
            saw_node = true;
        } else if (key == "restart" &&
                   (event.kind == FaultKind::NodeCrash ||
                    event.kind == FaultKind::DbCrash ||
                    event.kind == FaultKind::DbTornWrite)) {
            event.restart_after =
                secs(parseDouble(item.what, value, 0.0, 1e9));
        } else if (key == "dur" &&
                   (event.kind == FaultKind::LinkDegrade ||
                    event.kind == FaultKind::DbSlow ||
                    event.kind == FaultKind::Partition)) {
            event.duration = secs(parseDouble(item.what, value, 0.0, 1e9));
        } else if (key == "lat" &&
                   event.kind == FaultKind::LinkDegrade) {
            event.latency_mult = parseDouble(item.what, value, 1.0);
        } else if (key == "drop" &&
                   event.kind == FaultKind::LinkDegrade) {
            event.drop_probability =
                parseDouble(item.what, value, 0.0, 1.0);
        } else if (key == "shard" &&
                   (event.kind == FaultKind::DbCrash ||
                    event.kind == FaultKind::DbTornWrite ||
                    event.kind == FaultKind::Switchover)) {
            event.shard = static_cast<std::size_t>(
                parseInt(item.what, value, 0));
        } else if (key == "sides" &&
                   event.kind == FaultKind::Partition) {
            sides_str = value;
        } else if (key == "replica" &&
                   event.kind == FaultKind::DbCrash) {
            event.replica = static_cast<std::size_t>(
                parseInt(item.what, value, 0));
        } else if (key == "mult" && event.kind == FaultKind::DbSlow) {
            event.disk_mult = parseDouble(item.what, value, 1.0);
        } else {
            throw specError("--faults",
                            "unknown key \"" + key + "\" for " +
                                kind_name,
                            token);
        }
    }

    if (!saw_node && (event.kind == FaultKind::NodeCrash ||
                      event.kind == FaultKind::PoolKill))
        throw specError("--faults", "missing node=<n>", token);

    if (event.kind == FaultKind::Partition) {
        if (sides_str.empty())
            throw specError("--faults", "missing sides=<a,b|c,...>",
                            token);
        for (const std::string &side : splitList(sides_str, '|')) {
            std::vector<NetEndpoint> members;
            for (const std::string &member : splitList(side, ',')) {
                if (member.empty())
                    continue;
                bool ok = false;
                const NetEndpoint ep = parseNetEndpoint(member, ok);
                if (!ok)
                    throw specError("--faults",
                                    "bad endpoint \"" + member +
                                        "\" (want <n>, db<s>, or "
                                        "db<s>.<r>)",
                                    token);
                for (const auto &group : event.sides)
                    for (const NetEndpoint &other : group)
                        if (other == ep)
                            throw specError("--faults",
                                            "endpoint \"" + member +
                                                "\" listed on two sides",
                                            token);
                for (const NetEndpoint &other : members)
                    if (other == ep)
                        throw specError("--faults",
                                        "endpoint \"" + member +
                                            "\" listed on two sides",
                                        token);
                members.push_back(ep);
            }
            if (members.empty())
                throw specError("--faults", "empty partition side", token);
            event.sides.push_back(std::move(members));
        }
        if (event.sides.size() < 2)
            throw specError("--faults",
                            "partition needs at least two sides", token);
    }
    return event;
}

} // namespace

FaultSchedule
FaultSchedule::parse(const std::string &spec)
{
    FaultSchedule schedule;
    for (const std::string &token : splitList(spec, ';'))
        if (!token.empty())
            schedule.add(parseEvent(token));
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
                throw specError("--faults",
                                "duplicate event (same kind, time, and "
                                "target)",
                                e.describe());
        }

        const std::size_t shard =
            e.shard == FaultEvent::kNoTarget ? 0 : e.shard;
        switch (e.kind) {
          case FaultKind::NodeCrash:
          case FaultKind::PoolKill:
            if (covered(node_down, e.node, 0, e.at))
                throw specError("--faults",
                                "node " + std::to_string(e.node) +
                                    " is already down at that time",
                                e.describe());
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
                throw specError("--faults",
                                "shard " + std::to_string(shard) +
                                    (replica_scoped
                                         ? " replica " +
                                               std::to_string(e.replica)
                                         : std::string()) +
                                    " is already down at that time",
                                e.describe());
            db_down.push_back(
                {shard, member,
                 e.restart_after > 0 ? e.at + e.restart_after
                                     : kForever});
            break;
          }
          case FaultKind::Switchover:
            if (covered(db_down, shard, FaultEvent::kNoTarget, e.at))
                throw specError("--faults",
                                "shard " + std::to_string(shard) +
                                    " is already down at that time",
                                e.describe());
            break;
          case FaultKind::Partition:
            if (partition_open &&
                (partition_until == kForever || e.at < partition_until))
                throw specError("--faults",
                                "a partition window is still open at "
                                "that time",
                                e.describe());
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
FaultSchedule::checkTargets(std::size_t nodes, std::size_t shards,
                            std::size_t replicas) const
{
    const auto absent = [&](const FaultEvent &e) -> std::string {
        if (e.node != FaultEvent::kAllNodes && e.node >= nodes)
            return "node " + std::to_string(e.node);
        if (e.shard != FaultEvent::kNoTarget && e.shard >= shards)
            return "shard " + std::to_string(e.shard);
        if (e.replica != FaultEvent::kNoTarget && e.replica >= replicas)
            return "replica " + std::to_string(e.replica);
        for (const auto &side : e.sides) {
            for (const NetEndpoint &ep : side) {
                const bool present = ep.kind == NetEndpoint::Kind::Node
                    ? ep.index < nodes
                    : ep.index < shards &&
                        (ep.kind == NetEndpoint::Kind::DbPrimary ||
                         ep.replica < replicas);
                if (!present)
                    return "endpoint " + describeNetEndpoint(ep);
            }
        }
        return "";
    };
    for (const FaultEvent &e : events_) {
        const std::string target = absent(e);
        if (!target.empty())
            throw specError("--faults",
                            target + " is not in the largest cluster (" +
                                std::to_string(nodes) + " nodes, " +
                                std::to_string(shards) + " shards of " +
                                std::to_string(replicas) + " replicas)",
                            e.describe());
    }
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
