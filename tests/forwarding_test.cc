// Symbolic forwarding engine tests: final states, Eq. 1 transformations,
// ECMP replication, waypoint write rules, TTL loop detection, and the
// remote-emission boundary.
#include <gtest/gtest.h>

#include "cp/engine.h"
#include "dp/forwarding.h"
#include "test_networks.h"
#include "topo/fattree.h"

namespace s2::dp {
namespace {

struct Fixture {
  config::ParsedNetwork net;
  std::unique_ptr<bdd::Manager> manager;
  std::unique_ptr<PacketCodec> codec;
  std::unique_ptr<ForwardingEngine> engine;

  explicit Fixture(const topo::Network& network, int max_hops = 24,
                   uint32_t meta_bits = 0) {
    net = testing::Parse(network);
    cp::MonoEngine cp_engine(net, nullptr);
    auto store = testing::RunOneShard(cp_engine, net);
    manager = std::make_unique<bdd::Manager>(32 + meta_bits);
    codec = std::make_unique<PacketCodec>(manager.get(),
                                          HeaderLayout{32, 0, meta_bits});
    ForwardingEngine::Options options;
    options.max_hops = max_hops;
    engine = std::make_unique<ForwardingEngine>(*codec, options);
    for (const auto& node : cp_engine.nodes()) {
      Fib fib = Fib::Build(net, node->id(),
                           testing::BestRoutes(*store, node->id()),
                           node->ospf_routes(), nullptr);
      engine->AddNode(node->id(),
                      BuildPredicates(net, node->id(), fib, *codec));
    }
  }

  size_t CountFinals(FinalState state) const {
    size_t n = 0;
    for (const FinalPacket& f : engine->finals()) n += f.state == state;
    return n;
  }
};

TEST(ForwardingTest, ChainDeliversToDestination) {
  Fixture fx(testing::MakeChain(4));
  fx.engine->Inject(0, fx.codec->DstIn(util::MustParsePrefix("10.0.3.0/24")));
  fx.engine->Run(nullptr);
  ASSERT_EQ(fx.engine->finals().size(), 1u);
  const FinalPacket& final = fx.engine->finals()[0];
  EXPECT_EQ(final.state, FinalState::kArrive);
  EXPECT_EQ(final.node, 3u);
  EXPECT_EQ(final.src, 0u);
  EXPECT_EQ(fx.engine->steps(), 4u);  // visited r0..r3
}

TEST(ForwardingTest, UnroutedSpaceBlackholesAtSource) {
  Fixture fx(testing::MakeChain(2));
  fx.engine->Inject(
      0, fx.codec->DstIn(util::MustParsePrefix("198.18.0.0/15")));
  fx.engine->Run(nullptr);
  ASSERT_EQ(fx.engine->finals().size(), 1u);
  EXPECT_EQ(fx.engine->finals()[0].state, FinalState::kBlackhole);
  EXPECT_EQ(fx.engine->finals()[0].node, 0u);
}

TEST(ForwardingTest, EcmpExploresAllPaths) {
  Fixture fx(testing::MakeDiamond());
  fx.engine->Inject(0, fx.codec->DstIn(util::MustParsePrefix("10.0.3.0/24")));
  fx.engine->Run(nullptr);
  // The packet fans over both ECMP paths (r1 and r2 are both processed)
  // and the copies re-merge at r3 into one arrival covering the space.
  EXPECT_EQ(fx.CountFinals(FinalState::kArrive), 1u);
  EXPECT_EQ(fx.engine->steps(), 4u);  // r0, r1, r2, merged r3
  EXPECT_EQ(fx.engine->ArrivedAt(3),
            fx.codec->DstIn(util::MustParsePrefix("10.0.3.0/24")));
}

TEST(ForwardingTest, SymbolicPacketSplitsPerDestination) {
  Fixture fx(testing::MakeDiamond());
  // Inject the whole announced space at r0: parts arrive at each node.
  bdd::Bdd space = fx.codec->DstIn(util::MustParsePrefix("10.0.0.0/14"));
  fx.engine->Inject(0, space);
  fx.engine->Run(nullptr);
  for (topo::NodeId dst = 0; dst < 4; ++dst) {
    bdd::Bdd own = fx.codec->DstIn(util::IpPrefix(
        util::IpAddress((10u << 24) | (dst << 8)), 24));
    if (dst == 0) {
      // Arrives locally without a forwarding step: recorded at injection.
      EXPECT_TRUE(own.Implies(fx.engine->ArrivedAt(0)));
    } else {
      EXPECT_TRUE(own.Implies(fx.engine->ArrivedAt(dst))) << dst;
    }
  }
}

TEST(ForwardingTest, TtlTurnsForwardingIntoLoopFinal) {
  // A forwarding loop built by hand: two nodes pointing at each other.
  bdd::Manager manager(32);
  PacketCodec codec(&manager, HeaderLayout{32, 0, 0});
  ForwardingEngine::Options options;
  options.max_hops = 6;
  ForwardingEngine engine(codec, options);
  bdd::Bdd everything = manager.One();
  NodePredicates a, b;
  a.arrive = a.exit = a.discard = manager.Zero();
  a.forward.emplace(1, everything);
  b.arrive = b.exit = b.discard = manager.Zero();
  b.forward.emplace(0, everything);
  engine.AddNode(0, std::move(a));
  engine.AddNode(1, std::move(b));
  engine.Inject(0, codec.DstIn(util::MustParsePrefix("10.0.0.0/24")));
  engine.Run(nullptr);
  ASSERT_EQ(engine.finals().size(), 1u);
  EXPECT_EQ(engine.finals()[0].state, FinalState::kLoop);
}

TEST(ForwardingTest, WaypointBitRecordsTraversal) {
  Fixture fx(testing::MakeChain(3), 24, /*meta_bits=*/1);
  fx.engine->SetWaypointBit(1, 0);  // r1 is the waypoint
  fx.engine->Inject(0, fx.codec->DstIn(util::MustParsePrefix("10.0.2.0/24")) &
                           fx.codec->MetaBit(0, false));
  fx.engine->Run(nullptr);
  ASSERT_EQ(fx.CountFinals(FinalState::kArrive), 1u);
  const FinalPacket& final = fx.engine->finals()[0];
  // The packet that arrived must carry the waypoint bit.
  EXPECT_EQ(final.set & fx.codec->MetaBit(0, true), final.set);
}

TEST(ForwardingTest, IngressAclDropsBecomeBlackholes) {
  topo::Network net = testing::MakeChain(2);
  net.intents[1].interfaces[0].acl_in.push_back(topo::AclRuleIntent{
      false, std::nullopt, util::MustParsePrefix("10.0.1.0/24")});
  Fixture fx(net);
  fx.engine->Inject(0, fx.codec->DstIn(util::MustParsePrefix("10.0.1.0/24")));
  fx.engine->Run(nullptr);
  ASSERT_EQ(fx.engine->finals().size(), 1u);
  EXPECT_EQ(fx.engine->finals()[0].state, FinalState::kBlackhole);
  EXPECT_EQ(fx.engine->finals()[0].node, 1u);  // dropped at ingress of r1
}

TEST(ForwardingTest, RemoteHopsGoThroughEmit) {
  auto net = testing::Parse(testing::MakeChain(3));
  cp::MonoEngine cp_engine(net, nullptr);
  auto store = testing::RunOneShard(cp_engine, net);
  bdd::Manager manager(32);
  PacketCodec codec(&manager, HeaderLayout{32, 0, 0});
  ForwardingEngine engine(codec, ForwardingEngine::Options{});
  // Only r0 and r1 are local; r2 is "on another worker".
  for (topo::NodeId id : {0u, 1u}) {
    Fib fib = Fib::Build(net, id, testing::BestRoutes(*store, id),
                         cp_engine.node(id).ospf_routes(), nullptr);
    engine.AddNode(id, BuildPredicates(net, id, fib, codec));
  }
  std::vector<InFlightPacket> emitted;
  engine.Inject(0, codec.DstIn(util::MustParsePrefix("10.0.2.0/24")));
  engine.Run([&](const InFlightPacket& packet) {
    emitted.push_back(packet);
  });
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].at, 2u);
  EXPECT_EQ(emitted[0].from, 1u);
  EXPECT_EQ(emitted[0].hops, 2);
  EXPECT_TRUE(engine.finals().empty());
}

TEST(ForwardingTest, ResetQueryStateKeepsPredicates) {
  Fixture fx(testing::MakeChain(2));
  fx.engine->Inject(0, fx.codec->DstIn(util::MustParsePrefix("10.0.1.0/24")));
  fx.engine->Run(nullptr);
  EXPECT_FALSE(fx.engine->finals().empty());
  fx.engine->ResetQueryState();
  EXPECT_TRUE(fx.engine->finals().empty());
  EXPECT_EQ(fx.engine->steps(), 0u);
  fx.engine->Inject(0, fx.codec->DstIn(util::MustParsePrefix("10.0.1.0/24")));
  fx.engine->Run(nullptr);
  EXPECT_EQ(fx.engine->finals().size(), 1u);
}

TEST(ForwardingTest, FatTreeAllPairArriveCounts) {
  topo::FatTreeParams params;
  params.k = 4;
  Fixture fx(topo::MakeFatTree(params));
  // Inject the host space at every edge.
  for (topo::NodeId id = 0; id < fx.net.graph.size(); ++id) {
    if (fx.net.graph.node(id).role == topo::Role::kEdge) {
      fx.engine->Inject(id,
                        fx.codec->DstIn(util::MustParsePrefix("10.0.0.0/8")));
    }
  }
  fx.engine->Run(nullptr);
  // Every (src, dst) edge pair is connected: each dst's /24 fully arrives
  // from each of the 8 sources.
  for (topo::NodeId dst = 0; dst < fx.net.graph.size(); ++dst) {
    if (fx.net.graph.node(dst).role != topo::Role::kEdge) continue;
    bdd::Bdd arrived = fx.engine->ArrivedAt(dst);
    for (const auto& prefix : fx.net.configs[dst].bgp.networks) {
      if (prefix.length() == 24) {
        EXPECT_TRUE(fx.codec->DstIn(prefix).Implies(arrived));
      }
    }
  }
  EXPECT_EQ(fx.CountFinals(FinalState::kLoop), 0u);
}

}  // namespace
}  // namespace s2::dp
