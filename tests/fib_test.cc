// FIB construction tests: LPM ordering, protocol merge by admin distance,
// action classification (forward / arrive / exit / discard), ECMP next
// hops, and memory accounting; plus the LPM-pruned forward cone over a
// hand-built forward-edge index.
#include <gtest/gtest.h>

#include "cp/engine.h"
#include "dp/fib.h"
#include "test_networks.h"

namespace s2::dp {
namespace {

using RouteMap = std::map<util::IpPrefix, std::vector<cp::Route>>;

cp::Route Learned(const std::string& prefix, topo::NodeId from) {
  cp::Route r;
  r.prefix = util::MustParsePrefix(prefix);
  r.protocol = cp::Protocol::kBgp;
  r.learned_from = from;
  return r;
}

cp::Route Local(const std::string& prefix) {
  cp::Route r;
  r.prefix = util::MustParsePrefix(prefix);
  r.protocol = cp::Protocol::kLocal;
  r.learned_from = topo::kInvalidNode;
  return r;
}

const FibEntry* Find(const Fib& fib, const std::string& prefix) {
  auto p = util::MustParsePrefix(prefix);
  for (const FibEntry& entry : fib.entries) {
    if (entry.prefix == p) return &entry;
  }
  return nullptr;
}

TEST(FibTest, LongestPrefixFirstOrdering) {
  auto net = testing::Parse(testing::MakeChain(2));
  RouteMap bgp;
  bgp[util::MustParsePrefix("10.0.0.0/8")] = {Learned("10.0.0.0/8", 1)};
  bgp[util::MustParsePrefix("10.1.0.0/16")] = {Learned("10.1.0.0/16", 1)};
  bgp[util::MustParsePrefix("10.1.2.0/24")] = {Learned("10.1.2.0/24", 1)};
  Fib fib = Fib::Build(net, 0, bgp, {}, nullptr);
  for (size_t i = 1; i < fib.entries.size(); ++i) {
    EXPECT_GE(fib.entries[i - 1].prefix.length(),
              fib.entries[i].prefix.length());
  }
}

TEST(FibTest, ActionClassification) {
  auto net = testing::Parse(testing::MakeChain(2));
  // Make node 0's config carry an aggregate and a conditional default.
  config::ViConfig& config = net.configs[0];
  config.bgp.aggregates.push_back(config::BgpAggregate{
      util::MustParsePrefix("10.0.0.0/15"), true, {}});
  config.bgp.cond_advs.push_back(config::BgpCondAdv{
      util::MustParsePrefix("0.0.0.0/0"),
      util::MustParsePrefix("10.0.0.0/24"), true});

  RouteMap bgp;
  bgp[util::MustParsePrefix("10.0.0.0/24")] = {Local("10.0.0.0/24")};
  bgp[util::MustParsePrefix("10.0.0.0/15")] = {Local("10.0.0.0/15")};
  bgp[util::MustParsePrefix("0.0.0.0/0")] = {Local("0.0.0.0/0")};
  bgp[util::MustParsePrefix("10.0.1.0/24")] = {Learned("10.0.1.0/24", 1)};
  Fib fib = Fib::Build(net, 0, bgp, {}, nullptr);

  EXPECT_EQ(Find(fib, "10.0.0.0/24")->action, FibAction::kArrive);
  EXPECT_EQ(Find(fib, "10.0.0.0/15")->action, FibAction::kDiscard);
  EXPECT_EQ(Find(fib, "0.0.0.0/0")->action, FibAction::kExit);
  const FibEntry* fwd = Find(fib, "10.0.1.0/24");
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(fwd->action, FibAction::kForward);
  EXPECT_EQ(fwd->next_hops, std::vector<topo::NodeId>{1});
  // Loopback arrive entry always present.
  EXPECT_EQ(Find(fib, "172.16.0.0/32")->action, FibAction::kArrive);
}

TEST(FibTest, EcmpNextHopsDeduplicated) {
  auto net = testing::Parse(testing::MakeDiamond());
  RouteMap bgp;
  bgp[util::MustParsePrefix("10.0.3.0/24")] = {
      Learned("10.0.3.0/24", 1), Learned("10.0.3.0/24", 2),
      Learned("10.0.3.0/24", 1)};  // duplicate neighbor
  Fib fib = Fib::Build(net, 0, bgp, {}, nullptr);
  EXPECT_EQ(Find(fib, "10.0.3.0/24")->next_hops,
            (std::vector<topo::NodeId>{1, 2}));
}

TEST(FibTest, OspfLosesToBgpByAdminDistance) {
  auto net = testing::Parse(testing::MakeChain(3));
  RouteMap bgp, ospf;
  bgp[util::MustParsePrefix("10.0.2.0/24")] = {Learned("10.0.2.0/24", 1)};
  cp::Route o = Learned("10.0.2.0/24", 2);
  o.protocol = cp::Protocol::kOspf;
  ospf[util::MustParsePrefix("10.0.2.0/24")] = {o};
  Fib fib = Fib::Build(net, 0, bgp, ospf, nullptr);
  EXPECT_EQ(Find(fib, "10.0.2.0/24")->next_hops,
            std::vector<topo::NodeId>{1});  // BGP's next hop won
  // OSPF-only prefixes still enter the FIB.
  cp::Route lo = Learned("172.16.0.2/32", 1);
  lo.protocol = cp::Protocol::kOspf;
  ospf[util::MustParsePrefix("172.16.0.2/32")] = {lo};
  Fib fib2 = Fib::Build(net, 0, bgp, ospf, nullptr);
  EXPECT_EQ(Find(fib2, "172.16.0.2/32")->action, FibAction::kForward);
}

TEST(FibTest, ChargesTracker) {
  auto net = testing::Parse(testing::MakeChain(2));
  RouteMap bgp;
  bgp[util::MustParsePrefix("10.0.1.0/24")] = {Learned("10.0.1.0/24", 1)};
  util::MemoryTracker tracker("fib");
  Fib fib = Fib::Build(net, 0, bgp, {}, &tracker);
  EXPECT_EQ(tracker.live_bytes(), fib.EstimateBytes());
  EXPECT_GT(fib.EstimateBytes(), 0u);
}

TEST(FibTest, EndToEndFromConvergedEngine) {
  auto net = testing::Parse(testing::MakeDiamond());
  cp::MonoEngine engine(net, nullptr);
  auto store = testing::RunOneShard(engine, net);
  Fib fib = Fib::Build(net, 0, testing::BestRoutes(*store, 0),
                       engine.node(0).ospf_routes(), nullptr);
  const FibEntry* cross = Find(fib, "10.0.3.0/24");
  ASSERT_NE(cross, nullptr);
  EXPECT_EQ(cross->action, FibAction::kForward);
  EXPECT_EQ(cross->next_hops.size(), 2u);  // ECMP via r1 and r2
  EXPECT_EQ(Find(fib, "10.0.0.0/24")->action, FibAction::kArrive);
}

// A hand-built forward-edge index: node -> (prefix, next hop) edges.
struct EdgeIndex {
  std::map<topo::NodeId, ForwardEdgeList> edges;

  void Add(topo::NodeId at, const std::string& prefix, topo::NodeId next) {
    edges[at].emplace_back(util::MustParsePrefix(prefix), next);
  }

  std::vector<topo::NodeId> Cone(size_t num_nodes,
                                 std::vector<topo::NodeId> sources,
                                 std::optional<std::string> dst) const {
    std::optional<util::IpPrefix> space;
    if (dst) space = util::MustParsePrefix(*dst);
    std::vector<char> reached = ForwardCone(
        num_nodes, sources, space,
        [this](topo::NodeId id) -> const ForwardEdgeList* {
          auto it = edges.find(id);
          return it == edges.end() ? nullptr : &it->second;
        });
    EXPECT_EQ(reached.size(), num_nodes);
    std::vector<topo::NodeId> nodes;
    for (topo::NodeId id = 0; id < reached.size(); ++id) {
      if (reached[id]) nodes.push_back(id);
    }
    return nodes;
  }
};

using Nodes = std::vector<topo::NodeId>;

TEST(ForwardConeTest, FollowsInsideEntriesAndOnlyTheLongestCover) {
  EdgeIndex index;
  index.Add(0, "10.1.2.0/24", 1);     // strictly inside the dst space
  index.Add(0, "10.0.0.0/8", 2);      // the longest entry containing it
  index.Add(0, "0.0.0.0/0", 3);       // a shorter cover: never the match
  index.Add(0, "192.168.0.0/16", 4);  // disjoint
  index.Add(2, "10.1.0.0/16", 5);     // an equal-length cover is a cover
  index.Add(2, "10.1.0.0/17", 6);     // inside: followed as well
  index.Add(3, "10.1.0.0/16", 7);     // behind the skipped default route
  EXPECT_EQ(index.Cone(8, {0}, "10.1.0.0/16"), (Nodes{0, 1, 2, 5, 6}));
  // A /8 aggregate beats the default route; without it the default route
  // is the longest cover and is followed.
  EdgeIndex no_aggregate;
  no_aggregate.Add(0, "0.0.0.0/0", 3);
  no_aggregate.Add(3, "10.1.0.0/16", 7);
  EXPECT_EQ(no_aggregate.Cone(8, {0}, "10.1.0.0/16"), (Nodes{0, 3, 7}));
}

TEST(ForwardConeTest, QueryWithoutDstFollowsEveryEdge) {
  EdgeIndex index;
  index.Add(0, "10.1.2.0/24", 1);
  index.Add(0, "0.0.0.0/0", 3);
  index.Add(0, "192.168.0.0/16", 4);
  index.Add(3, "2001:db8::/32", 5);
  EXPECT_EQ(index.Cone(6, {0}, std::nullopt), (Nodes{0, 1, 3, 4, 5}));
  // Several sources, duplicates and nodes without edges are fine.
  EXPECT_EQ(index.Cone(6, {2, 2, 4}, std::nullopt), (Nodes{2, 4}));
}

TEST(ForwardConeTest, IgnoresOutOfRangeNodes) {
  EdgeIndex index;
  index.Add(0, "10.1.0.0/16", 9);  // the longest cover, but >= num_nodes
  index.Add(0, "10.1.2.0/24", 1);
  EXPECT_EQ(index.Cone(3, {0, 7}, "10.1.0.0/16"), (Nodes{0, 1}));
  EXPECT_EQ(index.Cone(3, {0}, std::nullopt), (Nodes{0, 1}));
}

// Dual stack: an entry of the other family neither contains nor lies
// inside the dst space, so it is never followed — not even a default
// route.
TEST(ForwardConeTest, OtherFamilyEntriesNeverAdmitDst) {
  EdgeIndex index;
  index.Add(0, "::/0", 1);
  index.Add(0, "2001:db8::/32", 2);
  index.Add(0, "10.0.0.0/8", 3);
  index.Add(0, "0.0.0.0/0", 4);
  EXPECT_EQ(index.Cone(5, {0}, "10.1.0.0/16"), (Nodes{0, 3}));
  EXPECT_EQ(index.Cone(5, {0}, "2001:db8:1::/48"), (Nodes{0, 2}));
}

}  // namespace
}  // namespace s2::dp
