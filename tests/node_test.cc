// Switch-model (cp::Node) tests: origination, the pull-based round
// protocol, aggregation activation/deactivation, conditional
// advertisement, split horizon, and spilling converged results.
#include <gtest/gtest.h>

#include "cp/node.h"
#include "cp/shard.h"
#include "test_networks.h"
#include "topo/dcn.h"

namespace s2::cp {
namespace {

// Drives a set of nodes through synchronous rounds until the fix point.
int Converge(std::vector<std::unique_ptr<Node>>& nodes, int max_rounds = 50) {
  int rounds = 0;
  for (;;) {
    bool any = false;
    for (auto& node : nodes) any = node->ComputeRound() || any;
    if (!any) break;
    for (auto& node : nodes) {
      for (const Node::Session& session : node->sessions()) {
        auto updates = nodes[session.peer]->TakeUpdatesFor(node->id());
        if (!updates.empty()) node->ReceiveUpdates(session.peer, updates);
      }
    }
    if (++rounds > max_rounds) ADD_FAILURE() << "did not converge";
    if (rounds > max_rounds) break;
  }
  return rounds;
}

AttrPool& TestPool() {
  static AttrPool* pool = new AttrPool();
  return *pool;
}

std::vector<std::unique_ptr<Node>> MakeNodes(
    const config::ParsedNetwork& net) {
  std::vector<std::unique_ptr<Node>> nodes;
  for (topo::NodeId id = 0; id < net.configs.size(); ++id) {
    nodes.push_back(std::make_unique<Node>(id, net, nullptr, &TestPool()));
  }
  return nodes;
}

TEST(NodeTest, SessionsResolvePeers) {
  auto net = testing::Parse(testing::MakeChain(3));
  Node middle(1, net, nullptr, &TestPool());
  ASSERT_EQ(middle.sessions().size(), 2u);
  EXPECT_EQ(middle.sessions()[0].peer, 0u);
  EXPECT_EQ(middle.sessions()[1].peer, 2u);
}

TEST(NodeTest, ChainConvergesWithFullRibs) {
  auto net = testing::Parse(testing::MakeChain(4));
  auto nodes = MakeNodes(net);
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  RibStore store;
  for (auto& node : nodes) node->SpillBgp(store, 0);
  // Every node holds all 8 prefixes (4 loopbacks + 4 /24s).
  for (auto& node : nodes) {
    EXPECT_EQ(testing::BestRoutes(store, node->id()).size(), 8u)
        << "node " << node->id();
  }
  // AS paths grow with distance: r0's route to 10.0.3.0/24 went through
  // r1, r2, r3.
  auto p3 = util::MustParsePrefix("10.0.3.0/24");
  auto rib0 = testing::BestRoutes(store, 0);
  EXPECT_EQ(rib0.at(p3).front().as_path().size(), 3u);
  EXPECT_EQ(rib0.at(p3).front().learned_from, 1u);
}

TEST(NodeTest, DiamondProducesEcmp) {
  auto net = testing::Parse(testing::MakeDiamond());
  auto nodes = MakeNodes(net);
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  RibStore store;
  for (auto& node : nodes) node->SpillBgp(store, 0);
  auto p3 = util::MustParsePrefix("10.0.3.0/24");
  const auto paths = testing::BestRoutes(store, 0).at(p3);
  ASSERT_EQ(paths.size(), 2u);  // via r1 and via r2
  EXPECT_EQ(paths[0].learned_from, 1u);
  EXPECT_EQ(paths[1].learned_from, 2u);
}

TEST(NodeTest, EcmpRespectsMaxPaths) {
  topo::Network net = testing::MakeDiamond();
  net.intents[0].max_ecmp_paths = 1;
  auto parsed = testing::Parse(net);
  auto nodes = MakeNodes(parsed);
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  RibStore store;
  for (auto& node : nodes) node->SpillBgp(store, 0);
  EXPECT_EQ(
      testing::BestRoutes(store, 0)
          .at(util::MustParsePrefix("10.0.3.0/24"))
          .size(),
      1u);
}

TEST(NodeTest, AsPathPrependSteersTrafficAway) {
  // Diamond: r1 prepends twice on its exports toward r0, so r0 routes to
  // r3's prefix via r2 only — the classic traffic-engineering move.
  topo::Network net = testing::MakeDiamond();
  for (topo::InterfaceIntent& iface : net.intents[1].interfaces) {
    if (iface.peer == 0) iface.export_policy.as_path_prepend = 2;
  }
  auto parsed = testing::Parse(net);
  auto nodes = MakeNodes(parsed);
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  RibStore store;
  for (auto& node : nodes) node->SpillBgp(store, 0);
  auto rib0 = testing::BestRoutes(store, 0);
  const auto& paths = rib0.at(util::MustParsePrefix("10.0.3.0/24"));
  ASSERT_EQ(paths.size(), 1u);  // prepended path no longer ECMP-equal
  EXPECT_EQ(paths[0].learned_from, 2u);
  // The de-preferred path is still a candidate with the longer AS path.
  const auto& direct = rib0.at(util::MustParsePrefix("10.0.1.0/24"));
  EXPECT_EQ(direct.front().as_path().size(), 3u);  // 1 real + 2 prepended
}

TEST(NodeTest, ShardRestrictsOrigination) {
  auto net = testing::Parse(testing::MakeChain(3));
  auto nodes = MakeNodes(net);
  PrefixSet shard = {util::MustParsePrefix("10.0.0.0/24"),
                     util::MustParsePrefix("10.0.2.0/24")};
  for (auto& node : nodes) node->BeginBgp(&shard);
  Converge(nodes);
  RibStore store;
  for (auto& node : nodes) node->SpillBgp(store, 0);
  for (auto& node : nodes) {
    EXPECT_EQ(testing::BestRoutes(store, node->id()).size(), 2u);
    for (const auto& [prefix, routes] :
         testing::BestRoutes(store, node->id())) {
      EXPECT_TRUE(shard.count(prefix));
    }
  }
}

TEST(NodeTest, AggregateActivatesWithContributor) {
  topo::Network net = testing::MakeChain(3);
  // r1 aggregates r2's announcement space.
  net.intents[1].aggregates.push_back(topo::AggregateIntent{
      util::MustParsePrefix("10.0.2.0/23"), true, {777}});
  auto parsed = testing::Parse(net);
  auto nodes = MakeNodes(parsed);
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  RibStore store;
  for (auto& node : nodes) node->SpillBgp(store, 0);
  auto agg = util::MustParsePrefix("10.0.2.0/23");
  auto specific = util::MustParsePrefix("10.0.2.0/24");
  // r0 sees the aggregate (tagged) but NOT the suppressed specific.
  auto rib0 = testing::BestRoutes(store, 0);
  ASSERT_TRUE(rib0.count(agg));
  EXPECT_TRUE(rib0.at(agg).front().HasCommunity(777));
  EXPECT_FALSE(rib0.count(specific));
  // r1 keeps the specific in its own RIB (needed for forwarding).
  EXPECT_TRUE(testing::BestRoutes(store, 1).count(specific));
  // r2, the contributor itself, does not hear its own specific suppressed
  // but does receive the aggregate.
  EXPECT_TRUE(testing::BestRoutes(store, 2).count(agg));
}

TEST(NodeTest, AggregateInactiveWithoutContributor) {
  topo::Network net = testing::MakeChain(2);
  net.intents[1].aggregates.push_back(topo::AggregateIntent{
      util::MustParsePrefix("192.168.0.0/16"), true, {}});
  auto parsed = testing::Parse(net);
  auto nodes = MakeNodes(parsed);
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  RibStore store;
  for (auto& node : nodes) node->SpillBgp(store, 0);
  EXPECT_FALSE(
      testing::BestRoutes(store, 0).count(
          util::MustParsePrefix("192.168.0.0/16")));
}

TEST(NodeTest, ConditionalAdvertisementPresent) {
  topo::Network net = testing::MakeChain(2);
  // r1 advertises a default route only while it has r0's /24.
  net.intents[1].cond_advs.push_back(topo::CondAdvIntent{
      util::MustParsePrefix("0.0.0.0/0"),
      util::MustParsePrefix("10.0.0.0/24"), true});
  auto parsed = testing::Parse(net);
  auto nodes = MakeNodes(parsed);
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  RibStore store;
  for (auto& node : nodes) node->SpillBgp(store, 0);
  EXPECT_TRUE(
      testing::BestRoutes(store, 0).count(
          util::MustParsePrefix("0.0.0.0/0")));
}

TEST(NodeTest, ConditionalAdvertisementAbsentWatch) {
  topo::Network net = testing::MakeChain(2);
  // Advertise a backup prefix only if a never-announced prefix is absent:
  // fires.
  net.intents[1].cond_advs.push_back(topo::CondAdvIntent{
      util::MustParsePrefix("198.51.100.0/24"),
      util::MustParsePrefix("203.0.113.0/24"), false});
  auto parsed = testing::Parse(net);
  auto nodes = MakeNodes(parsed);
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  RibStore store;
  for (auto& node : nodes) node->SpillBgp(store, 0);
  EXPECT_TRUE(testing::BestRoutes(store, 0).count(
      util::MustParsePrefix("198.51.100.0/24")));
}

TEST(NodeTest, SplitHorizonKeepsOutboxesLean) {
  auto net = testing::Parse(testing::MakeChain(2));
  auto nodes = MakeNodes(net);
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  // After convergence a fresh ComputeRound must produce nothing — in
  // particular no echo of routes back to the neighbor they came from.
  EXPECT_FALSE(nodes[0]->ComputeRound());
  EXPECT_TRUE(nodes[0]->TakeUpdatesFor(1).empty());
}

TEST(NodeTest, OspfPassComputesShortestPaths) {
  topo::Network net = testing::MakeChain(4);
  for (auto& intent : net.intents) intent.enable_ospf = true;
  auto parsed = testing::Parse(net);
  auto nodes = MakeNodes(parsed);
  for (auto& node : nodes) node->BeginOspf();
  Converge(nodes);
  for (auto& node : nodes) node->FinishOspf();
  // r0's OSPF route to r3's loopback has metric 3.
  auto lo3 = util::MustParsePrefix("172.16.0.3/32");
  ASSERT_TRUE(nodes[0]->ospf_routes().count(lo3));
  EXPECT_EQ(nodes[0]->ospf_routes().at(lo3).front().metric, 3u);
}

TEST(NodeTest, RedistributesOspfIntoBgp) {
  topo::Network net = testing::MakeChain(3);
  // Only r0 and r1 run OSPF; r1 redistributes into BGP toward r2.
  net.intents[0].enable_ospf = true;
  net.intents[1].enable_ospf = true;
  net.intents[1].redistribute_ospf_into_bgp = true;
  // Remove r0's loopback from its own BGP announcements so the only way
  // r2 can learn it is via redistribution at r1.
  net.intents[0].announced.clear();
  auto parsed = testing::Parse(net);
  auto nodes = MakeNodes(parsed);
  for (auto& node : nodes) node->BeginOspf();
  Converge(nodes);
  for (auto& node : nodes) node->FinishOspf();
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  RibStore store;
  for (auto& node : nodes) node->SpillBgp(store, 0);
  auto lo0 = util::MustParsePrefix("172.16.0.0/32");
  ASSERT_TRUE(testing::BestRoutes(store, 2).count(lo0));
  EXPECT_EQ(testing::BestRoutes(store, 2).at(lo0).front().origin(),
            2u);  // incomplete
}

// An unsharded run is the one-shard plan. Restricting origination to that
// shard — CollectBgpPrefixes' universe — must lose nothing against a pass
// with no shard at all, on the DCN (aggregates, conditional
// advertisements) and on a chain redistributing OSPF into BGP.
TEST(NodeTest, OneShardPlanMatchesUnrestrictedPass) {
  topo::Network chain = testing::MakeChain(4);
  for (auto& intent : chain.intents) intent.enable_ospf = true;
  chain.intents[1].redistribute_ospf_into_bgp = true;
  chain.intents[0].announced.clear();
  for (const config::ParsedNetwork& net :
       {testing::Parse(topo::MakeDcn(topo::DcnParams{})),
        testing::Parse(chain)}) {
    ShardPlan plan = BuildShardPlan(net, 1);
    ASSERT_EQ(plan.num_shards(), 1u);
    auto converge = [&](const PrefixSet* shard, RibStore& store) {
      auto nodes = MakeNodes(net);
      for (auto& node : nodes) node->BeginOspf();
      Converge(nodes);
      for (auto& node : nodes) node->FinishOspf();
      for (auto& node : nodes) node->BeginBgp(shard);
      Converge(nodes);
      for (auto& node : nodes) node->SpillBgp(store, 0);
    };
    RibStore unrestricted, one_shard;
    converge(nullptr, unrestricted);
    converge(&plan.shard(0), one_shard);
    EXPECT_EQ(unrestricted.routes_written(), one_shard.routes_written());
    for (topo::NodeId id = 0; id < net.configs.size(); ++id) {
      EXPECT_EQ(testing::BestRoutes(one_shard, id),
                testing::BestRoutes(unrestricted, id))
          << net.configs[id].hostname;
    }
  }
}

}  // namespace
}  // namespace s2::cp
