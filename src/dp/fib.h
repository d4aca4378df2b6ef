// FIB construction: converged RIBs -> forwarding entries (paper §3.3,
// "real nodes convert their RIBs into FIBs").
//
// Protocols merge by admin distance per prefix; each entry resolves to a
// forwarding action:
//   kForward  to one or more ECMP next-hop devices
//   kArrive   locally announced (network statement / loopback) — the
//             packet reached its destination
//   kExit     conditionally advertised edge prefixes (default route at a
//             border): the packet leaves the modeled network
//   kDiscard  locally originated aggregates resolve to Null0 — covered
//             packets without a more-specific route blackhole, as on real
//             devices
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "config/parser.h"
#include "cp/route.h"
#include "util/memory_tracker.h"

namespace s2::dp {

enum class FibAction : uint8_t { kForward, kArrive, kExit, kDiscard };

struct FibEntry {
  util::IpPrefix prefix;
  FibAction action = FibAction::kForward;
  std::vector<topo::NodeId> next_hops;  // kForward only

  size_t EstimateBytes() const { return 48 + 8 * next_hops.size(); }
};

// (prefix, next hop) forward edges of one node.
using ForwardEdgeList =
    std::vector<std::pair<util::IpPrefix, topo::NodeId>>;

struct Fib {
  // Longest prefix first; ties by address. Predicate construction walks
  // this order to build first-match (LPM) port predicates.
  std::vector<FibEntry> entries;

  // Builds the FIB of device `self` from its converged per-protocol
  // results (BGP best map, OSPF best map) plus connected/loopback routes
  // from the config. Charges entry bytes to `tracker` (released by the
  // caller domain when it drops the FIB).
  static Fib Build(
      const config::ParsedNetwork& network, topo::NodeId self,
      const std::map<util::IpPrefix, std::vector<cp::Route>>& bgp,
      const std::map<util::IpPrefix, std::vector<cp::Route>>& ospf,
      util::MemoryTracker* tracker);

  size_t EstimateBytes() const;

  // (prefix, next hop) of every kForward entry, one pair per ECMP next
  // hop: one node's share of the forward-edge index ForwardCone walks.
  ForwardEdgeList ForwardEdges() const;
};

// The forward cone of a query: per node in [0, num_nodes), whether a
// packet of destination space `dst` (nullopt: any destination) injected
// at `sources` can visit it. A BFS over the forward-edge index, where
// `edges_of` returns a node's edges (null: none known, the walk stops
// there) and next hops >= num_nodes are ignored.
//
// Edges are pruned under longest-prefix match. Entries strictly inside
// dst can each win for some of its addresses and are followed. Among
// entries *containing* dst, only the longest present at a node can ever
// be the match: every address of dst matches all of them, and anything
// longer that also matches lies inside dst. Following shorter covering
// entries (aggregates, default routes) would fan the cone across the
// whole fabric. Entries disjoint from dst (another family included) are
// skipped. Forwarding predicates are subsets of these entries' prefixes,
// so with a complete index the cone over-approximates every node a
// symbolic packet of the query visits: the query service's admission
// scope and the incremental engine's re-verification test.
std::vector<char> ForwardCone(
    size_t num_nodes, const std::vector<topo::NodeId>& sources,
    const std::optional<util::IpPrefix>& dst,
    const std::function<const ForwardEdgeList*(topo::NodeId)>& edges_of);

}  // namespace s2::dp
