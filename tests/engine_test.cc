// Monolithic engine tests: protocol sequencing, fixed-point convergence on
// reference topologies, sharded-vs-unsharded equivalence, and the
// non-convergence timeout.
#include <gtest/gtest.h>

#include "config/vendor.h"
#include "cp/engine.h"
#include "test_networks.h"
#include "topo/fattree.h"

namespace s2::cp {
namespace {

TEST(MonoEngineTest, FatTree4AllPrefixesEverywhere) {
  topo::FatTreeParams params;
  params.k = 4;
  auto parsed = testing::Parse(topo::MakeFatTree(params));
  MonoEngine engine(parsed, nullptr);
  auto store = testing::RunOneShard(engine, parsed);
  // 20 loopbacks + 8 host prefixes on every one of the 20 switches.
  size_t route_entries = 0;
  for (const auto& node : engine.nodes()) {
    auto rib = testing::BestRoutes(*store, node->id());
    EXPECT_EQ(rib.size(), 28u);
    for (const auto& [prefix, routes] : rib) {
      route_entries += routes.size();
    }
  }
  // Route entries exceed prefix entries: ECMP sets count per path.
  EXPECT_EQ(engine.stats().total_best_routes, route_entries);
  EXPECT_GT(route_entries, 28u * 20u);
  EXPECT_GT(engine.stats().bgp_rounds, 0);
  EXPECT_EQ(engine.stats().shards_executed, 1);
}

TEST(MonoEngineTest, FatTreeShortestPathsAndEcmp) {
  topo::FatTreeParams params;
  params.k = 4;
  auto parsed = testing::Parse(topo::MakeFatTree(params));
  MonoEngine engine(parsed, nullptr);
  auto store = testing::RunOneShard(engine, parsed);
  topo::NodeId e00 = parsed.graph.FindByName("edge-0-0");
  topo::NodeId e10 = parsed.graph.FindByName("edge-1-0");
  ASSERT_NE(e00, topo::kInvalidNode);
  // Cross-pod route: AS-path length 4 (agg, core, agg, edge), ECMP over
  // the 2 aggregation uplinks.
  auto p = util::MustParsePrefix("10.1.0.0/24");
  auto rib = testing::BestRoutes(*store, e00);
  const auto& routes = rib.at(p);
  EXPECT_EQ(routes.front().as_path().size(), 4u);
  EXPECT_EQ(routes.size(), 2u);
  EXPECT_EQ(routes.front().origin_node, e10);
  // Same-pod route: length 2, also ECMP 2.
  auto same_pod = util::MustParsePrefix("10.0.1.0/24");
  EXPECT_EQ(rib.at(same_pod).front().as_path().size(), 2u);
}

TEST(MonoEngineTest, ShardedMatchesUnshardedExactly) {
  topo::FatTreeParams params;
  params.k = 4;
  auto parsed = testing::Parse(topo::MakeFatTree(params));

  MonoEngine direct(parsed, nullptr);
  auto direct_store = testing::RunOneShard(direct, parsed);

  ShardPlan plan = BuildShardPlan(parsed, 6);
  RibStore store;
  MonoEngine sharded(parsed, nullptr);
  sharded.Run(plan, store);

  for (topo::NodeId id = 0; id < parsed.configs.size(); ++id) {
    EXPECT_EQ(store.ReadAll(id, sharded.attr_pool()),
              testing::BestRoutes(*direct_store, id))
        << "node " << parsed.configs[id].hostname;
  }
}

TEST(MonoEngineTest, OspfRunsBeforeBgp) {
  topo::Network net = testing::MakeChain(3);
  for (auto& intent : net.intents) {
    intent.enable_ospf = true;
    intent.redistribute_ospf_into_bgp = true;
  }
  auto parsed = testing::Parse(net);
  MonoEngine engine(parsed, nullptr);
  testing::RunOneShard(engine, parsed);
  EXPECT_GT(engine.stats().ospf_rounds, 0);
  EXPECT_GT(engine.stats().bgp_rounds, 0);
  // OSPF results feed the FIB path later; here just check they exist.
  EXPECT_FALSE(engine.node(0).ospf_routes().empty());
}

TEST(MonoEngineTest, OscillatingConditionalAdvertisementTimesOut) {
  topo::Network net = testing::MakeChain(2);
  // Pathological: advertise P iff P is absent — flips every round.
  auto p = util::MustParsePrefix("203.0.113.0/24");
  net.intents[0].cond_advs.push_back(topo::CondAdvIntent{p, p, false});
  auto parsed = testing::Parse(net);
  EngineOptions options;
  options.max_rounds_per_pass = 30;
  MonoEngine engine(parsed, nullptr, options);
  EXPECT_THROW(testing::RunOneShard(engine, parsed), util::SimulatedTimeout);
}

TEST(MonoEngineTest, RemovePrivateAsOnPrivateFabricBreaksConvergence) {
  // A documented real-world foot-gun the model reproduces: stripping
  // private ASNs on a fabric whose ASNs are all private erases the loop
  // prevention state from the AS_PATH, so a node can re-learn its own
  // prefix through a neighbor and the route computation counts to
  // infinity. The verifier reports it as non-convergence, not a hang.
  // A 3-ring with private ASNs, built before link addressing so the
  // closing edge gets interfaces too.
  topo::Network net;
  net.name = "ring3";
  for (int i = 0; i < 3; ++i) {
    net.graph.AddNode(topo::NodeInfo{"r" + std::to_string(i),
                                     topo::Role::kEdge, 0, -1, 1.0});
  }
  net.graph.AddEdge(0, 1);
  net.graph.AddEdge(1, 2);
  net.graph.AddEdge(2, 0);
  net.intents.resize(3);
  for (int i = 0; i < 3; ++i) {
    topo::NodeIntent& intent = net.intents[i];
    intent.asn = 65001 + static_cast<uint32_t>(i);
    ASSERT_TRUE(IsPrivateAsn(intent.asn));
    intent.remove_private_as = true;
    intent.loopback = util::IpPrefix(
        util::IpAddress((172u << 24) | (16u << 16) | uint32_t(i)), 32);
    intent.announced.push_back(intent.loopback);
  }
  topo::AssignLinkAddresses(net);
  auto parsed = testing::Parse(net);
  EngineOptions options;
  options.max_rounds_per_pass = 60;
  MonoEngine engine(parsed, nullptr, options);
  EXPECT_THROW(testing::RunOneShard(engine, parsed), util::SimulatedTimeout);
}

TEST(MonoEngineTest, TracksMemoryAgainstBudget) {
  topo::FatTreeParams params;
  params.k = 4;
  auto parsed = testing::Parse(topo::MakeFatTree(params));
  util::MemoryTracker tight("mono", 50'000);  // far below what k=4 needs
  MonoEngine engine(parsed, &tight);
  EXPECT_THROW(testing::RunOneShard(engine, parsed), util::SimulatedOom);
}

TEST(MonoEngineTest, ShardingLowersPeakMemory) {
  topo::FatTreeParams params;
  params.k = 4;
  auto parsed = testing::Parse(topo::MakeFatTree(params));

  util::MemoryTracker unsharded("a");
  MonoEngine direct(parsed, &unsharded);
  testing::RunOneShard(direct, parsed);

  util::MemoryTracker shardtrack("b");
  ShardPlan plan = BuildShardPlan(parsed, 8);
  RibStore store;
  MonoEngine sharded(parsed, &shardtrack);
  sharded.Run(plan, store);

  EXPECT_LT(shardtrack.peak_bytes(), unsharded.peak_bytes());
}

}  // namespace
}  // namespace s2::cp
