#include "dp/fib.h"

#include <algorithm>

namespace s2::dp {

namespace {

FibAction ClassifyLocal(const config::ViConfig& config,
                        const util::IpPrefix& prefix) {
  for (const util::IpPrefix& network : config.bgp.networks) {
    if (network == prefix) return FibAction::kArrive;
  }
  for (const config::BgpCondAdv& cond : config.bgp.cond_advs) {
    if (cond.advertise == prefix) return FibAction::kExit;
  }
  for (const config::BgpAggregate& agg : config.bgp.aggregates) {
    if (agg.prefix == prefix) return FibAction::kDiscard;
  }
  return FibAction::kArrive;  // OSPF loopback / connected
}

}  // namespace

size_t Fib::EstimateBytes() const {
  size_t bytes = 0;
  for (const FibEntry& entry : entries) bytes += entry.EstimateBytes();
  return bytes;
}

ForwardEdgeList Fib::ForwardEdges() const {
  ForwardEdgeList edges;
  for (const FibEntry& entry : entries) {
    if (entry.action != FibAction::kForward) continue;
    for (topo::NodeId next : entry.next_hops) {
      edges.emplace_back(entry.prefix, next);
    }
  }
  return edges;
}

std::vector<char> ForwardCone(
    size_t num_nodes, const std::vector<topo::NodeId>& sources,
    const std::optional<util::IpPrefix>& dst,
    const std::function<const ForwardEdgeList*(topo::NodeId)>& edges_of) {
  std::vector<char> reached(num_nodes, 0);
  std::vector<topo::NodeId> frontier;
  auto visit = [&](topo::NodeId node) {
    if (node < num_nodes && !reached[node]) {
      reached[node] = 1;
      frontier.push_back(node);
    }
  };
  for (topo::NodeId src : sources) visit(src);
  enum class Relation { kCover, kInside, kDisjoint };
  std::vector<topo::NodeId> cover_hops;  // next hops of the longest cover
  while (!frontier.empty()) {
    topo::NodeId at = frontier.back();
    frontier.pop_back();
    const ForwardEdgeList* edges = edges_of(at);
    if (edges == nullptr) continue;
    if (!dst.has_value()) {
      for (const auto& [prefix, next] : *edges) visit(next);
      continue;
    }
    int longest_cover = -1;
    cover_hops.clear();
    // ECMP next hops of one entry are adjacent: relate each run once.
    const util::IpPrefix* last = nullptr;
    Relation relation = Relation::kDisjoint;
    for (const auto& [prefix, next] : *edges) {
      if (last == nullptr || !(prefix == *last)) {
        last = &prefix;
        relation = prefix.Contains(*dst)   ? Relation::kCover
                   : dst->Contains(prefix) ? Relation::kInside
                                           : Relation::kDisjoint;
      }
      if (relation == Relation::kInside) {
        visit(next);  // wins for its own addresses
      } else if (relation == Relation::kCover) {
        // Covers every address of dst: wins only if no containing entry
        // at this node is longer.
        int length = prefix.length();
        if (length > longest_cover) {
          longest_cover = length;
          cover_hops.clear();
        }
        if (length == longest_cover) cover_hops.push_back(next);
      }
    }
    for (topo::NodeId next : cover_hops) visit(next);
  }
  return reached;
}

Fib Fib::Build(
    const config::ParsedNetwork& network, topo::NodeId self,
    const std::map<util::IpPrefix, std::vector<cp::Route>>& bgp,
    const std::map<util::IpPrefix, std::vector<cp::Route>>& ospf,
    util::MemoryTracker* tracker) {
  const config::ViConfig& config = network.configs[self];

  // Merge protocols by admin distance per prefix.
  std::map<util::IpPrefix, const std::vector<cp::Route>*> chosen;
  for (const auto& [prefix, routes] : bgp) chosen[prefix] = &routes;
  for (const auto& [prefix, routes] : ospf) {
    auto it = chosen.find(prefix);
    if (it == chosen.end() ||
        cp::AdminDistance(routes.front().protocol) <
            cp::AdminDistance(it->second->front().protocol)) {
      chosen[prefix] = &routes;
    }
  }

  Fib fib;
  bool have_loopback = false;
  for (const auto& [prefix, routes] : chosen) {
    FibEntry entry;
    entry.prefix = prefix;
    if (routes->front().learned_from == topo::kInvalidNode) {
      entry.action = ClassifyLocal(config, prefix);
    } else {
      entry.action = FibAction::kForward;
      for (const cp::Route& route : *routes) {
        if (std::find(entry.next_hops.begin(), entry.next_hops.end(),
                      route.learned_from) == entry.next_hops.end()) {
          entry.next_hops.push_back(route.learned_from);
        }
      }
    }
    if (prefix == config.loopback) have_loopback = true;
    fib.entries.push_back(std::move(entry));
  }
  if (!have_loopback) {
    fib.entries.push_back(FibEntry{config.loopback, FibAction::kArrive, {}});
  }

  // Family-major order — the trie branches on address family at the root,
  // then runs the usual longest-first LPM order within each family. LPM
  // subtraction never crosses families (predicates are family-disjoint),
  // so grouping families keeps the scan a per-family trie walk. A v4-only
  // FIB sorts exactly as before.
  std::sort(fib.entries.begin(), fib.entries.end(),
            [](const FibEntry& a, const FibEntry& b) {
              if (a.prefix.family() != b.prefix.family()) {
                return a.prefix.family() < b.prefix.family();
              }
              if (a.prefix.length() != b.prefix.length()) {
                return a.prefix.length() > b.prefix.length();
              }
              return a.prefix < b.prefix;
            });
  if (tracker) tracker->Charge(fib.EstimateBytes());
  return fib;
}

}  // namespace s2::dp
