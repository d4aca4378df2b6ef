// End-to-end integration tests on the DCN-like network (the substitute for
// the paper's production datacenter): the full config -> parse ->
// distributed CP -> distributed DPV -> property pipeline, intact and with
// injected misconfigurations.
#include <gtest/gtest.h>

#include "config/vendor.h"
#include "core/mono.h"
#include "core/s2.h"
#include "test_networks.h"
#include "topo/dcn.h"

namespace s2 {
namespace {

struct DcnFixture {
  topo::Network net;
  config::ParsedNetwork parsed;

  explicit DcnFixture(topo::DcnParams params = topo::DcnParams{})
      : net(topo::MakeDcn(params)),
        parsed(config::ParseNetwork(config::SynthesizeConfigs(net))) {}

  std::vector<topo::NodeId> Tors() const {
    std::vector<topo::NodeId> tors;
    for (topo::NodeId id = 0; id < parsed.graph.size(); ++id) {
      if (parsed.graph.node(id).name.find("-tor") != std::string::npos) {
        tors.push_back(id);
      }
    }
    return tors;
  }
};

dp::Query TorToTorQuery(const DcnFixture& fx) {
  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  query.sources = fx.Tors();
  query.destinations = fx.Tors();
  return query;
}

TEST(IntegrationTest, DcnAllTorPairsReachableDistributed) {
  DcnFixture fx;
  dist::ControllerOptions options;
  options.num_workers = 4;
  options.num_shards = 6;
  core::S2Verifier verifier(options);
  core::VerifyResult result = verifier.Verify(fx.parsed,
                                              {TorToTorQuery(fx)});
  ASSERT_TRUE(result.ok()) << result.failure_detail;
  EXPECT_EQ(result.queries[0].unreachable_pairs, 0u);
  EXPECT_GT(result.queries[0].reachable_pairs, 0u);
  EXPECT_TRUE(result.queries[0].loop_free);
  EXPECT_TRUE(result.queries[0].multipath_violations.empty());
}

TEST(IntegrationTest, WaypointThroughCoreHoldsCrossCluster) {
  DcnFixture fx;
  // Cross-cluster traffic must transit the core layer. Use one TOR in
  // cluster 0 and one in cluster 2 (the big cluster), with every core as
  // a waypoint alternative — check per-core bits individually: traffic
  // spreads over cores, so no single core is always traversed, but at
  // least one core waypoint must be hit by inspecting the union. Here we
  // verify the simpler directional claim on a single-core DCN.
  topo::DcnParams params;
  params.cores = 1;
  DcnFixture single(params);
  auto src = single.parsed.graph.FindByName("c0p0-tor0");
  auto dst = single.parsed.graph.FindByName("c2p0-tor0");
  auto core0 = single.parsed.graph.FindByName("core0");
  ASSERT_NE(src, topo::kInvalidNode);
  ASSERT_NE(dst, topo::kInvalidNode);
  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.2.0.0/24");
  query.sources = {src};
  query.destinations = {dst};
  query.transits = {core0};
  dist::ControllerOptions options;
  options.num_workers = 3;
  options.layout.meta_bits = 1;
  core::S2Verifier verifier(options);
  core::VerifyResult result = verifier.Verify(single.parsed, {query});
  ASSERT_TRUE(result.ok()) << result.failure_detail;
  ASSERT_EQ(result.queries[0].waypoints.size(), 1u);
  EXPECT_TRUE(result.queries[0].waypoints[0].always_traversed);
  EXPECT_EQ(result.queries[0].unreachable_pairs, 0u);
}

TEST(IntegrationTest, ManagementSpaceFilteredBetweenBorders) {
  DcnFixture fx;
  auto b0 = fx.parsed.graph.FindByName("border0");
  auto b1 = fx.parsed.graph.FindByName("border1");
  ASSERT_NE(b0, topo::kInvalidNode);
  // Loopback space injected at border0 toward border1's loopback: the
  // border-border ACL (and community filters) must keep management space
  // from transiting; expect no clean arrival of the full space.
  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("172.16.0.0/12");
  query.sources = {b0};
  query.destinations = {b1};
  core::MonoVerifier mono{core::MonoOptions{}};
  core::VerifyResult result = mono.Verify(fx.parsed, {query});
  ASSERT_TRUE(result.ok());
  // border1's loopback is still reachable via the fabric (cores), but the
  // direct border-border link drops management traffic — the query stays
  // loop-free and produces blackhole finals from the ACL drop.
  EXPECT_TRUE(result.queries[0].loop_free);
}

TEST(IntegrationTest, DroppedAnnouncementDetectedAsUnreachable) {
  DcnFixture fx;
  // Misconfiguration: one TOR forgets to announce its VLAN prefix.
  topo::Network broken = fx.net;
  auto victim = broken.graph.FindByName("c0p0-tor1");
  ASSERT_NE(victim, topo::kInvalidNode);
  auto& announced = broken.intents[victim].announced;
  ASSERT_EQ(announced.size(), 2u);
  announced.pop_back();  // drop the VLAN /24, keep the loopback
  auto parsed = config::ParseNetwork(config::SynthesizeConfigs(broken));

  DcnFixture helper;
  dp::Query query = TorToTorQuery(helper);
  dist::ControllerOptions options;
  options.num_workers = 4;
  core::S2Verifier verifier(options);
  core::VerifyResult result = verifier.Verify(parsed, {query});
  ASSERT_TRUE(result.ok()) << result.failure_detail;
  // Every other TOR now fails to reach the victim's prefix... the victim
  // announces nothing in 10/8, so pairs toward it vanish from the
  // reachability report entirely; compare pair counts against the intact
  // network.
  core::S2Verifier intact_verifier(options);
  core::VerifyResult intact = intact_verifier.Verify(fx.parsed, {query});
  EXPECT_LT(result.queries[0].reachable_pairs,
            intact.queries[0].reachable_pairs);
}

TEST(IntegrationTest, BrokenAggregateBlackholesCoveredSpace) {
  DcnFixture fx;
  // Misconfiguration: the big cluster's spines aggregate a /15 that also
  // covers cluster 3's never-announced space — packets to that space now
  // follow the aggregate and die at the spine's Null0.
  topo::Network broken = fx.net;
  for (topo::NodeId id = 0; id < broken.graph.size(); ++id) {
    for (auto& agg : broken.intents[id].aggregates) {
      if (agg.prefix == util::MustParsePrefix("10.2.0.0/16")) {
        agg.prefix = util::MustParsePrefix("10.2.0.0/15");
      }
    }
  }
  auto parsed = config::ParseNetwork(config::SynthesizeConfigs(broken));
  auto src = parsed.graph.FindByName("c0p0-tor0");
  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.3.0.0/16");
  query.sources = {src};
  core::MonoVerifier mono{core::MonoOptions{}};
  core::VerifyResult result = mono.Verify(parsed, {query});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.queries[0].blackhole_free);
  EXPECT_GT(result.queries[0].blackhole_finals, 0u);
}

TEST(IntegrationTest, RemovePrivateAsVisibleAtBorders) {
  DcnFixture fx;
  core::MonoVerifier mono{core::MonoOptions{}};
  core::VerifyResult result = mono.Verify(fx.parsed, {});
  ASSERT_TRUE(result.ok());
  // border0 learned routes from border1 (public ASN 60000, strips private
  // ASNs): any such route's AS path must contain no private ASN.
  auto border0 = fx.parsed.graph.FindByName("border0");
  auto border1 = fx.parsed.graph.FindByName("border1");
  auto rib = testing::BestRoutes(*mono.last_rib_store(), border0);
  size_t from_peer_border = 0;
  for (const auto& [prefix, routes] : rib) {
    for (const cp::Route& route : routes) {
      if (route.learned_from == border1) {
        ++from_peer_border;
        for (uint32_t asn : route.as_path()) {
          EXPECT_FALSE(cp::IsPrivateAsn(asn))
              << prefix.ToString() << " carries private ASN " << asn;
        }
      }
    }
  }
  EXPECT_GT(from_peer_border, 0u);
}

TEST(IntegrationTest, ConditionalDefaultPropagatesEverywhere) {
  DcnFixture fx;
  core::MonoVerifier mono{core::MonoOptions{}};
  core::VerifyResult result = mono.Verify(fx.parsed, {});
  ASSERT_TRUE(result.ok());
  auto dflt = util::MustParsePrefix("0.0.0.0/0");
  auto backup = util::MustParsePrefix("198.51.100.0/24");
  for (const auto& node : mono.last_engine()->nodes()) {
    auto rib = testing::BestRoutes(*mono.last_rib_store(), node->id());
    EXPECT_TRUE(rib.count(dflt))
        << node->config().hostname << " lacks the conditional default";
    // The absent-watch backup prefix must NOT have fired.
    EXPECT_FALSE(rib.count(backup)) << node->config().hostname;
  }
}

}  // namespace
}  // namespace s2
