/**
 * @file
 * Named endpoints of the cluster fabric, as a partition can see them.
 *
 * The fault grammar's `partition` verb splits the fabric into sides;
 * each side lists endpoints by a tiny textual scheme:
 *
 *   `3`       app-server node 3
 *   `db1`     shard 1's primary slot
 *   `db1.2`   shard 1, replica 2
 *
 * The driver, load balancer, and client links are never listed — an
 * endpoint that appears on no side stays reachable from everyone, so
 * front-of-house traffic is unaffected by a DB-tier split.
 */

#ifndef JASIM_NET_ENDPOINT_H
#define JASIM_NET_ENDPOINT_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/config.h"

namespace jasim {

/** One partitionable endpoint (app node, shard primary, or replica). */
struct NetEndpoint
{
    enum class Kind : std::uint8_t
    {
        Node,      //!< app-server node `index`
        DbPrimary, //!< shard `index`'s primary slot
        DbReplica, //!< shard `index`, replica `replica`
    };

    Kind kind = Kind::Node;
    std::size_t index = 0;   //!< node number or shard number
    std::size_t replica = 0; //!< replica number (DbReplica only)

    friend bool operator==(const NetEndpoint &a, const NetEndpoint &b)
    {
        return a.kind == b.kind && a.index == b.index &&
               (a.kind != Kind::DbReplica || a.replica == b.replica);
    }
    friend bool operator!=(const NetEndpoint &a, const NetEndpoint &b)
    {
        return !(a == b);
    }

    static NetEndpoint node(std::size_t n)
    {
        return {Kind::Node, n, 0};
    }
    static NetEndpoint dbPrimary(std::size_t shard)
    {
        return {Kind::DbPrimary, shard, 0};
    }
    static NetEndpoint dbReplica(std::size_t shard, std::size_t replica)
    {
        return {Kind::DbReplica, shard, replica};
    }
};

/**
 * Parse one endpoint token (`3`, `db1`, `db1.2`). Sets `ok` false on
 * malformed input, an index that is not plain decimal digits or does
 * not fit (the endpoint returned is then meaningless); the fault
 * parser turns that into its usual `--faults:` diagnostic.
 */
inline NetEndpoint
parseNetEndpoint(const std::string &token, bool &ok)
{
    NetEndpoint ep;
    std::string index = token;
    std::string replica;
    if (token.rfind("db", 0) == 0) {
        ep.kind = NetEndpoint::Kind::DbPrimary;
        index = token.substr(2);
        // `db<k>.<r>` — a replica slot. Nodes take no suffix.
        const auto dot = index.find('.');
        if (dot != std::string::npos) {
            ep.kind = NetEndpoint::Kind::DbReplica;
            replica = index.substr(dot + 1);
            index.resize(dot);
        }
    }
    // parseInt reads base 0, where a leading zero means octal; an
    // index is decimal, so its leading zeros go first.
    const auto decimal = [&token](std::string digits, std::size_t &out) {
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos)
            return false;
        digits.erase(0, std::min(digits.find_first_not_of('0'),
                                 digits.size() - 1));
        try {
            out = static_cast<std::size_t>(parseInt(
                token, digits, 0, std::numeric_limits<std::int64_t>::max()));
        } catch (const std::invalid_argument &) {
            return false;
        }
        return true;
    };
    ok = decimal(index, ep.index) &&
        (ep.kind != NetEndpoint::Kind::DbReplica ||
         decimal(replica, ep.replica));
    return ep;
}

/** Printable endpoint name in the grammar's own scheme. */
inline std::string
describeNetEndpoint(const NetEndpoint &ep)
{
    switch (ep.kind) {
      case NetEndpoint::Kind::Node:
        return std::to_string(ep.index);
      case NetEndpoint::Kind::DbPrimary:
        return "db" + std::to_string(ep.index);
      case NetEndpoint::Kind::DbReplica:
        return "db" + std::to_string(ep.index) + "." +
               std::to_string(ep.replica);
    }
    return "?";
}

} // namespace jasim

#endif // JASIM_NET_ENDPOINT_H
