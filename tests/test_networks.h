// Shared helpers for hand-built miniature networks used across the
// control-plane and data-plane tests.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "config/parser.h"
#include "config/vendor.h"
#include "cp/engine.h"
#include "topo/graph.h"

namespace s2::testing {

// A chain r0 - r1 - ... - r(n-1) of eBGP routers; router i announces
// 10.0.i.0/24 and its loopback 172.16.0.i/32.
inline topo::Network MakeChain(int n) {
  topo::Network net;
  net.name = "chain" + std::to_string(n);
  for (int i = 0; i < n; ++i) {
    net.graph.AddNode(topo::NodeInfo{"r" + std::to_string(i),
                                     topo::Role::kEdge, 0, -1, 1.0});
  }
  for (int i = 0; i + 1 < n; ++i) net.graph.AddEdge(i, i + 1);
  net.intents.resize(n);
  for (int i = 0; i < n; ++i) {
    topo::NodeIntent& intent = net.intents[i];
    intent.asn = 65001 + static_cast<uint32_t>(i);
    intent.loopback = util::IpPrefix(
        util::IpAddress((172u << 24) | (16u << 16) | uint32_t(i)), 32);
    intent.announced.push_back(intent.loopback);
    intent.announced.push_back(util::IpPrefix(
        util::IpAddress((10u << 24) | (uint32_t(i) << 8)), 24));
    intent.max_ecmp_paths = 4;
  }
  topo::AssignLinkAddresses(net);
  return net;
}

// A diamond: r0 at the bottom, r1/r2 in the middle, r3 at the top — two
// equal-cost paths between r0 and r3 (the minimal ECMP fixture).
inline topo::Network MakeDiamond() {
  topo::Network net;
  net.name = "diamond";
  for (int i = 0; i < 4; ++i) {
    net.graph.AddNode(topo::NodeInfo{"r" + std::to_string(i),
                                     topo::Role::kEdge, 0, -1, 1.0});
  }
  net.graph.AddEdge(0, 1);
  net.graph.AddEdge(0, 2);
  net.graph.AddEdge(1, 3);
  net.graph.AddEdge(2, 3);
  net.intents.resize(4);
  for (int i = 0; i < 4; ++i) {
    topo::NodeIntent& intent = net.intents[i];
    intent.asn = 65001 + static_cast<uint32_t>(i);
    intent.loopback = util::IpPrefix(
        util::IpAddress((172u << 24) | (16u << 16) | uint32_t(i)), 32);
    intent.announced.push_back(intent.loopback);
    intent.announced.push_back(util::IpPrefix(
        util::IpAddress((10u << 24) | (uint32_t(i) << 8)), 24));
    intent.max_ecmp_paths = 4;
  }
  topo::AssignLinkAddresses(net);
  return net;
}

inline config::ParsedNetwork Parse(const topo::Network& net) {
  return config::ParseNetwork(config::SynthesizeConfigs(net));
}

// Converged BGP best routes of `node`, read back from the spill store of
// the run that converged it: every run spills there, an unsharded one as
// a single shard. The one way tests read a converged RIB; tuples intern
// into a shared test pool (routes compare attribute-deep across pools).
inline std::map<util::IpPrefix, std::vector<cp::Route>> BestRoutes(
    const cp::RibStore& store, topo::NodeId node) {
  static cp::AttrPool* pool = new cp::AttrPool();
  return store.ReadAll(node, *pool);
}

// Runs `engine` the way an unsharded run does, as one shard holding every
// prefix, and returns the store its converged routes were spilled to.
inline std::unique_ptr<cp::RibStore> RunOneShard(
    cp::MonoEngine& engine, const config::ParsedNetwork& net) {
  auto store = std::make_unique<cp::RibStore>();
  engine.Run(cp::BuildShardPlan(net, 1), *store);
  return store;
}

}  // namespace s2::testing
