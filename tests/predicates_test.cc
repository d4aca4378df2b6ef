// Port predicate tests: the LPM-ordered partition of the destination
// space, ACL first-match predicates, and the Eq. 1 building blocks.
#include <gtest/gtest.h>

#include "cp/engine.h"
#include "dp/predicates.h"
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

TEST(PredicatesTest, PartitionIsDisjointAndComplete) {
  auto net = testing::Parse(testing::MakeDiamond());
  cp::MonoEngine engine(net, nullptr);
  auto store = testing::RunOneShard(engine, net);

  bdd::Manager manager(32);
  PacketCodec codec(&manager, HeaderLayout{32, 0, 0});
  Fib fib = Fib::Build(net, 0, testing::BestRoutes(*store, 0),
                       engine.node(0).ospf_routes(), nullptr);
  NodePredicates preds = BuildPredicates(net, 0, fib, codec);

  // Forward/arrive/exit/discard partition the full destination space.
  bdd::Bdd all = preds.arrive | preds.exit | preds.discard;
  for (const auto& [hop, pred] : preds.forward) all |= pred;
  EXPECT_TRUE(all.IsOne());

  // Disjointness between classes (ECMP overlap *within* forward is fine).
  EXPECT_FALSE(preds.arrive.Intersects(preds.discard));
  EXPECT_FALSE(preds.arrive.Intersects(preds.exit));
  for (const auto& [hop, pred] : preds.forward) {
    EXPECT_FALSE(pred.Intersects(preds.arrive));
    EXPECT_FALSE(pred.Intersects(preds.discard));
  }
}

TEST(PredicatesTest, LpmGivesSpecificEntryPriority) {
  auto net = testing::Parse(testing::MakeChain(3));
  bdd::Manager manager(32);
  PacketCodec codec(&manager, HeaderLayout{32, 0, 0});
  // Hand-built FIB: /8 to neighbor 1, /24 carve-out to neighbor 2 — wait,
  // node 0's only neighbor is 1; use arrive for the carve-out instead.
  RouteMap bgp;
  bgp[util::MustParsePrefix("10.0.0.0/8")] = {Learned("10.0.0.0/8", 1)};
  net.configs[0].bgp.networks.push_back(
      util::MustParsePrefix("10.7.7.0/24"));
  bgp[util::MustParsePrefix("10.7.7.0/24")] = {[&] {
    cp::Route r = Learned("10.7.7.0/24", 0);
    r.protocol = cp::Protocol::kLocal;
    r.learned_from = topo::kInvalidNode;
    return r;
  }()};
  Fib fib = Fib::Build(net, 0, bgp, {}, nullptr);
  NodePredicates preds = BuildPredicates(net, 0, fib, codec);
  bdd::Bdd carved = codec.DstIn(util::MustParsePrefix("10.7.7.0/24"));
  // The carve-out arrives locally; the surrounding /8 forwards.
  EXPECT_TRUE(carved.Implies(preds.arrive));
  EXPECT_FALSE(preds.forward.at(1).Intersects(carved));
  EXPECT_TRUE(
      codec.DstIn(util::MustParsePrefix("10.9.0.0/16"))
          .Implies(preds.forward.at(1)));
}

TEST(PredicatesTest, UnroutedSpaceDiscards) {
  auto net = testing::Parse(testing::MakeChain(2));
  bdd::Manager manager(32);
  PacketCodec codec(&manager, HeaderLayout{32, 0, 0});
  RouteMap bgp;
  bgp[util::MustParsePrefix("10.0.1.0/24")] = {Learned("10.0.1.0/24", 1)};
  Fib fib = Fib::Build(net, 0, bgp, {}, nullptr);
  NodePredicates preds = BuildPredicates(net, 0, fib, codec);
  EXPECT_TRUE(codec.DstIn(util::MustParsePrefix("192.168.0.0/16"))
                  .Implies(preds.discard));
}

TEST(AclPredicateTest, FirstMatchWins) {
  bdd::Manager manager(32);
  PacketCodec codec(&manager, HeaderLayout{32, 0, 0});
  config::Acl acl;
  acl.name = "A";
  acl.entries.push_back(config::AclEntry{
      false, std::nullopt, util::MustParsePrefix("172.16.0.0/12")});
  acl.entries.push_back(
      config::AclEntry{true, std::nullopt, std::nullopt});
  bdd::Bdd permit = AclPredicate(acl, codec);
  EXPECT_FALSE(codec.DstIn(util::MustParsePrefix("172.16.5.0/24"))
                   .Intersects(permit));
  EXPECT_TRUE(codec.DstIn(util::MustParsePrefix("10.0.0.0/8"))
                  .Implies(permit));
}

TEST(AclPredicateTest, NoMatchMeansDeny) {
  bdd::Manager manager(32);
  PacketCodec codec(&manager, HeaderLayout{32, 0, 0});
  config::Acl acl;
  acl.name = "A";
  acl.entries.push_back(config::AclEntry{
      true, std::nullopt, util::MustParsePrefix("10.0.0.0/8")});
  bdd::Bdd permit = AclPredicate(acl, codec);
  EXPECT_FALSE(codec.DstIn(util::MustParsePrefix("192.168.0.0/16"))
                   .Intersects(permit));
}

TEST(AclPredicateTest, SrcEntryUnderDstOnlyLayoutMatchesNothing) {
  bdd::Manager manager(32);
  PacketCodec codec(&manager, HeaderLayout{32, 0, 0});
  config::Acl acl;
  acl.name = "A";
  acl.entries.push_back(config::AclEntry{
      true, util::MustParsePrefix("10.0.0.0/8"), std::nullopt});
  EXPECT_TRUE(AclPredicate(acl, codec).IsZero());
}

TEST(AclPredicateTest, SrcMatchingWithSrcBits) {
  bdd::Manager manager(64);
  PacketCodec codec(&manager, HeaderLayout{32, 32, 0});
  config::Acl acl;
  acl.name = "A";
  acl.entries.push_back(config::AclEntry{
      false, util::MustParsePrefix("10.0.0.0/8"),
      util::MustParsePrefix("10.0.0.0/8")});
  acl.entries.push_back(config::AclEntry{true, std::nullopt, std::nullopt});
  bdd::Bdd permit = AclPredicate(acl, codec);
  bdd::Bdd internal = codec.SrcIn(util::MustParsePrefix("10.0.0.0/8")) &
                      codec.DstIn(util::MustParsePrefix("10.0.0.0/8"));
  EXPECT_FALSE(internal.Intersects(permit));
  bdd::Bdd external_src =
      codec.SrcIn(util::MustParsePrefix("192.168.0.0/16")) &
      codec.DstIn(util::MustParsePrefix("10.0.0.0/8"));
  EXPECT_TRUE(external_src.Implies(permit));
}

TEST(PredicatesTest, InterfaceAclsBecomePortPredicates) {
  topo::Network net = testing::MakeChain(2);
  net.intents[0].interfaces[0].acl_out.push_back(topo::AclRuleIntent{
      false, std::nullopt, util::MustParsePrefix("172.16.0.0/12")});
  auto parsed = testing::Parse(net);
  cp::MonoEngine engine(parsed, nullptr);
  auto store = testing::RunOneShard(engine, parsed);
  bdd::Manager manager(32);
  PacketCodec codec(&manager, HeaderLayout{32, 0, 0});
  Fib fib = Fib::Build(parsed, 0, testing::BestRoutes(*store, 0),
                       engine.node(0).ospf_routes(), nullptr);
  NodePredicates preds = BuildPredicates(parsed, 0, fib, codec);
  ASSERT_TRUE(preds.acl_out.count(1));
  EXPECT_FALSE(codec.DstIn(util::MustParsePrefix("172.16.0.1/32"))
                   .Intersects(preds.acl_out.at(1)));
}

// ------------------------------------------------- address-family codec

// Regression: a prefix whose family does not fit the layout's field must
// be a hard error at the codec boundary, never a silent truncation. The
// policy layers (ACL predicates, query evaluation) are expected to check
// CanMatchDst/CanMatchSrc *before* calling in.
TEST(PacketCodecTest, FamilyWidthMismatchIsHardError) {
  HeaderLayout v4_only = HeaderLayout::V4Only(0);
  bdd::Manager manager(v4_only.total_bits());
  PacketCodec codec(&manager, v4_only);
  EXPECT_THROW(codec.DstIn(util::MustParsePrefix("2001:db8::/32")),
               std::invalid_argument);
  EXPECT_THROW(codec.DstIn(util::MustParsePrefix("::/0")),
               std::invalid_argument);
  // No src field configured at all: any src match is an error.
  EXPECT_THROW(codec.SrcIn(util::MustParsePrefix("10.0.0.0/8")),
               std::invalid_argument);

  // A 128-bit field without the family discriminator cannot hold v4
  // either — the two spaces would alias.
  HeaderLayout no_family{128, 0, 0, 0};
  bdd::Manager wide_manager(no_family.total_bits());
  PacketCodec wide(&wide_manager, no_family);
  EXPECT_THROW(wide.DstIn(util::MustParsePrefix("10.0.0.0/8")),
               std::invalid_argument);
  EXPECT_NO_THROW(wide.DstIn(util::MustParsePrefix("2001:db8::/32")));
}

// Under the dual-stack layout the family bit keeps the v4 and v6 spaces
// disjoint: the two defaults partition the universe, and containment
// works within each family across the 64-bit hi/lo boundary.
TEST(PacketCodecTest, DualStackFamiliesPartitionTheSpace) {
  HeaderLayout layout = HeaderLayout::DualStack(0);
  bdd::Manager manager(layout.total_bits());
  PacketCodec codec(&manager, layout);

  bdd::Bdd any4 = codec.DstIn(util::MustParsePrefix("0.0.0.0/0"));
  bdd::Bdd any6 = codec.DstIn(util::MustParsePrefix("::/0"));
  EXPECT_FALSE(any4.Intersects(any6));
  EXPECT_TRUE((any4 | any6).IsOne());

  bdd::Bdd v4 = codec.DstIn(util::MustParsePrefix("10.0.0.0/8"));
  bdd::Bdd v6 = codec.DstIn(util::MustParsePrefix("2001:db8::/32"));
  EXPECT_FALSE(v4.Intersects(v6));
  EXPECT_TRUE(v4.Implies(any4));
  EXPECT_TRUE(v6.Implies(any6));
  EXPECT_FALSE(v6.Implies(any4));

  // Containment across the hi/lo boundary: /80 ⊂ /48 ⊂ /32.
  bdd::Bdd mid = codec.DstIn(util::MustParsePrefix("2001:db8:1::/48"));
  bdd::Bdd deep =
      codec.DstIn(util::MustParsePrefix("2001:db8:1:0:1::/80"));
  EXPECT_TRUE(deep.Implies(mid));
  EXPECT_TRUE(mid.Implies(v6));
  EXPECT_FALSE(mid.Implies(deep));

  // v4 LPM subtraction still behaves under the widened field: a /24 carves
  // a proper hole out of its /8.
  bdd::Bdd hole = codec.DstIn(util::MustParsePrefix("10.1.2.0/24"));
  bdd::Bdd rest = v4.Diff(hole);
  EXPECT_FALSE(rest.Intersects(hole));
  EXPECT_TRUE((rest | hole) == v4);
}

}  // namespace
}  // namespace s2::dp
