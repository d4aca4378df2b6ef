// Prefix sharding tests (§4.5): universe collection with redistribution
// closure, DPDG dependency grouping, greedy balance with equal-size
// shuffling, the runtime merge fallback, and end-to-end equivalence on the
// DCN (aggregates + conditional advertisements), and spill-store failure
// as a verdict.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <optional>

#include "core/mono.h"
#include "core/s2.h"
#include "cp/engine.h"
#include "cp/shard.h"
#include "test_networks.h"
#include "topo/dcn.h"
#include "topo/fattree.h"
#include "util/stopwatch.h"

namespace s2::cp {
namespace {

TEST(CollectBgpPrefixesTest, GathersAllOriginationSources) {
  topo::Network net = testing::MakeChain(2);
  net.intents[0].aggregates.push_back(topo::AggregateIntent{
      util::MustParsePrefix("10.0.0.0/23"), true, {}});
  net.intents[1].cond_advs.push_back(topo::CondAdvIntent{
      util::MustParsePrefix("0.0.0.0/0"),
      util::MustParsePrefix("10.0.0.0/24"), true});
  auto parsed = testing::Parse(net);
  auto prefixes = CollectBgpPrefixes(parsed);
  std::set<util::IpPrefix> set(prefixes.begin(), prefixes.end());
  // 2 loopbacks + 2 /24s + aggregate + default (watch already counted).
  EXPECT_EQ(set.size(), 6u);
  EXPECT_TRUE(set.count(util::MustParsePrefix("10.0.0.0/23")));
  EXPECT_TRUE(set.count(util::MustParsePrefix("0.0.0.0/0")));
}

TEST(CollectBgpPrefixesTest, RedistributionClosureAddsOspfPrefixes) {
  topo::Network net = testing::MakeChain(2);
  net.intents[0].enable_ospf = true;
  net.intents[0].announced.clear();  // loopback only known to OSPF
  net.intents[1].redistribute_ospf_into_bgp = true;
  auto parsed = testing::Parse(net);
  auto prefixes = CollectBgpPrefixes(parsed);
  std::set<util::IpPrefix> set(prefixes.begin(), prefixes.end());
  EXPECT_TRUE(set.count(util::MustParsePrefix("172.16.0.0/32")))
      << "OSPF-contributed prefix missing from the BGP universe";
}

TEST(BuildShardPlanTest, CoversUniverseExactlyOnce) {
  topo::FatTreeParams params;
  params.k = 4;
  auto parsed = testing::Parse(topo::MakeFatTree(params));
  ShardPlan plan = BuildShardPlan(parsed, 5);
  EXPECT_EQ(plan.num_shards(), 5u);
  auto universe = CollectBgpPrefixes(parsed);
  EXPECT_EQ(plan.total_prefixes(), universe.size());
  for (const auto& prefix : universe) {
    EXPECT_NE(plan.ShardOf(prefix), -1) << prefix.ToString();
  }
}

TEST(BuildShardPlanTest, DependentPrefixesShareAShard) {
  auto parsed = testing::Parse(topo::MakeDcn(topo::DcnParams{}));
  ShardPlan plan = BuildShardPlan(parsed, 8);
  // Aggregates sit with every covered contributor.
  for (const config::ViConfig& config : parsed.configs) {
    for (const config::BgpAggregate& agg : config.bgp.aggregates) {
      int shard = plan.ShardOf(agg.prefix);
      ASSERT_NE(shard, -1);
      for (const auto& prefix : CollectBgpPrefixes(parsed)) {
        if (prefix != agg.prefix && agg.prefix.Contains(prefix)) {
          EXPECT_EQ(plan.ShardOf(prefix), shard)
              << agg.prefix.ToString() << " vs " << prefix.ToString();
        }
      }
    }
    for (const config::BgpCondAdv& cond : config.bgp.cond_advs) {
      EXPECT_EQ(plan.ShardOf(cond.advertise), plan.ShardOf(cond.watch));
    }
  }
}

TEST(BuildShardPlanTest, BalancedSizes) {
  topo::FatTreeParams params;
  params.k = 8;
  auto parsed = testing::Parse(topo::MakeFatTree(params));
  ShardPlan plan = BuildShardPlan(parsed, 10);
  size_t smallest = SIZE_MAX, largest = 0;
  for (const PrefixSet& shard : plan.shards()) {
    smallest = std::min(smallest, shard.size());
    largest = std::max(largest, shard.size());
  }
  // FatTree prefixes are independent singleton components: near-perfect
  // balance is achievable.
  EXPECT_LE(largest - smallest, 1u);
}

TEST(BuildShardPlanTest, SeedShufflesEqualSizedComponents) {
  topo::FatTreeParams params;
  params.k = 6;
  auto parsed = testing::Parse(topo::MakeFatTree(params));
  ShardPlan a = BuildShardPlan(parsed, 4, 1);
  ShardPlan b = BuildShardPlan(parsed, 4, 1);
  ShardPlan c = BuildShardPlan(parsed, 4, 2);
  EXPECT_EQ(a, b);  // deterministic per seed
  EXPECT_NE(a, c);  // shuffled across seeds (paper §4.5)
}

TEST(BuildShardPlanTest, FewerComponentsThanShards) {
  auto parsed = testing::Parse(testing::MakeChain(2));
  ShardPlan plan = BuildShardPlan(parsed, 50);
  EXPECT_LE(plan.num_shards(), 50u);
  EXPECT_GE(plan.num_shards(), 1u);
  for (const PrefixSet& shard : plan.shards()) EXPECT_FALSE(shard.empty());
}

TEST(MergeShardsTest, MergesAndReindexes) {
  auto parsed = testing::Parse(testing::MakeChain(4));
  ShardPlan plan = BuildShardPlan(parsed, 4);
  auto a = *plan.shard(0).begin();
  auto b = *plan.shard(3).begin();
  size_t before = plan.total_prefixes();
  int merged = MergeShards(plan, a, b);
  EXPECT_EQ(merged, 0);
  EXPECT_EQ(plan.num_shards(), 3u);
  EXPECT_EQ(plan.total_prefixes(), before);
  EXPECT_EQ(plan.ShardOf(a), plan.ShardOf(b));
  // Already together: no-op.
  EXPECT_EQ(MergeShards(plan, a, b), -1);
}

TEST(ValidateShardPlanTest, FreshPlansAreClean) {
  auto parsed = testing::Parse(topo::MakeDcn(topo::DcnParams{}));
  ShardPlan plan = BuildShardPlan(parsed, 8);
  EXPECT_TRUE(ValidateShardPlan(parsed, plan).empty());
  EXPECT_EQ(RepairShardPlan(parsed, plan), 0);
}

TEST(ValidateShardPlanTest, DetectsSplitDependencies) {
  auto parsed = testing::Parse(topo::MakeDcn(topo::DcnParams{}));
  ShardPlan plan = BuildShardPlan(parsed, 8);
  // Corrupt: move one aggregate away from its contributors.
  auto agg = util::MustParsePrefix("10.2.0.0/16");
  int home = plan.ShardOf(agg);
  ASSERT_GE(home, 0);
  plan.Assign((home + 1) % plan.num_shards(), agg);
  auto violations = ValidateShardPlan(parsed, plan);
  EXPECT_FALSE(violations.empty());
  for (const ShardViolation& violation : violations) {
    EXPECT_EQ(violation.dependent, agg);
  }
}

TEST(ValidateShardPlanTest, DetectsMissingPrefixes) {
  auto parsed = testing::Parse(topo::MakeDcn(topo::DcnParams{}));
  ShardPlan plan = BuildShardPlan(parsed, 4);
  auto dflt = util::MustParsePrefix("0.0.0.0/0");
  plan.Erase(dflt);
  EXPECT_FALSE(ValidateShardPlan(parsed, plan).empty());
}

// The §7 merge-and-recompute fallback, end to end: corrupt a plan, repair
// it, and confirm the repaired sharded simulation still matches the
// unsharded fixed point.
TEST(RepairShardPlanTest, RepairedPlanComputesCorrectRibs) {
  auto parsed = testing::Parse(topo::MakeDcn(topo::DcnParams{}));
  ShardPlan plan = BuildShardPlan(parsed, 8);
  auto agg = util::MustParsePrefix("10.2.0.0/16");
  auto dflt = util::MustParsePrefix("0.0.0.0/0");
  int agg_home = plan.ShardOf(agg);
  plan.Assign((agg_home + 1) % plan.num_shards(), agg);
  plan.Erase(dflt);

  int fixes = RepairShardPlan(parsed, plan);
  EXPECT_GT(fixes, 0);
  EXPECT_TRUE(ValidateShardPlan(parsed, plan).empty());

  MonoEngine direct(parsed, nullptr);
  direct.Run(nullptr, nullptr);
  RibStore store;
  MonoEngine sharded(parsed, nullptr);
  sharded.Run(&plan, &store);
  for (topo::NodeId id = 0; id < parsed.configs.size(); ++id) {
    ASSERT_EQ(store.ReadAll(id, sharded.attr_pool()),
              direct.node(id).bgp_routes());
  }
}

// Fabricates a single-device network whose BGP universe has `pairs`
// conditional advertisements over 2*pairs otherwise-independent /24s —
// a dependency-dense universe that is cheap to build but large enough to
// expose superlinear repair behaviour.
config::ParsedNetwork BigUniverse(int pairs) {
  config::ParsedNetwork net;
  net.configs.emplace_back();
  config::ViConfig& config = net.configs.back();
  config.hostname = "big";
  config.bgp.enabled = true;
  for (int i = 0; i < pairs; ++i) {
    util::IpPrefix adv(
        util::IpAddress((10u << 24) | (uint32_t(i) << 8)), 24);
    util::IpPrefix watch(
        util::IpAddress((11u << 24) | (uint32_t(i) << 8)), 24);
    config.bgp.networks.push_back(adv);
    config.bgp.networks.push_back(watch);
    config.bgp.cond_advs.push_back(config::BgpCondAdv{adv, watch, true});
  }
  return net;
}

// Regression: repair used to re-run full validation after every single
// merge, and ShardOf was a linear scan over all shards — superquadratic in
// the dependency count. On this universe (1500 dependency pairs, every one
// violated) the old code burned minutes; the repaired loop with the O(1)
// index finishes in well under a second. The generous wall bound keeps the
// test robust on slow CI while still failing the pre-fix behaviour.
TEST(RepairShardPlanTest, RepairScalesOnLargeCorruptedPlans) {
  config::ParsedNetwork net = BigUniverse(1500);
  ShardPlan plan = BuildShardPlan(net, 64);
  ASSERT_EQ(plan.total_prefixes(), 3000u);
  // Corrupt every dependency: move each advertised prefix out of its
  // watch's shard.
  for (const config::BgpCondAdv& cond : net.configs[0].bgp.cond_advs) {
    int home = plan.ShardOf(cond.advertise);
    ASSERT_GE(home, 0);
    plan.Assign((home + 1) % plan.num_shards(), cond.advertise);
  }
  ASSERT_FALSE(ValidateShardPlan(net, plan).empty());

  util::Stopwatch wall;
  int fixes = RepairShardPlan(net, plan);
  EXPECT_GT(fixes, 0);
  EXPECT_TRUE(ValidateShardPlan(net, plan).empty());
  EXPECT_LT(wall.ElapsedSeconds(), 10.0);
  EXPECT_EQ(plan.total_prefixes(), 3000u);  // repair never loses prefixes
}

// Post-repair invariants, including the prefix->shard index the class
// maintains through Assign/Erase/Merge renumbering: every universe prefix
// is assigned, ShardOf agrees with shard membership, and repair is
// idempotent.
TEST(RepairShardPlanTest, RepairPreservesPlanInvariants) {
  auto parsed = testing::Parse(topo::MakeDcn(topo::DcnParams{}));
  ShardPlan plan = BuildShardPlan(parsed, 8);
  auto universe = CollectBgpPrefixes(parsed);

  // Corrupt three ways: split an aggregate from its contributors, split a
  // conditional advertisement, and drop a prefix entirely.
  auto agg = util::MustParsePrefix("10.2.0.0/16");
  int agg_home = plan.ShardOf(agg);
  ASSERT_GE(agg_home, 0);
  plan.Assign((agg_home + 1) % plan.num_shards(), agg);
  plan.Erase(util::MustParsePrefix("0.0.0.0/0"));

  int fixes = RepairShardPlan(parsed, plan);
  EXPECT_GT(fixes, 0);
  EXPECT_TRUE(ValidateShardPlan(parsed, plan).empty());
  EXPECT_EQ(RepairShardPlan(parsed, plan), 0);  // idempotent

  EXPECT_EQ(plan.total_prefixes(), universe.size());
  for (const auto& prefix : universe) {
    EXPECT_NE(plan.ShardOf(prefix), -1) << prefix.ToString();
  }
  // Index consistency: membership and ShardOf agree, sizes add up.
  size_t members = 0;
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    for (const auto& prefix : plan.shard(s)) {
      EXPECT_EQ(plan.ShardOf(prefix), static_cast<int>(s))
          << prefix.ToString();
      ++members;
    }
  }
  EXPECT_EQ(members, plan.total_prefixes());
}

TEST(RepairShardPlanTest, RepairsEmptyPlan) {
  auto parsed = testing::Parse(topo::MakeDcn(topo::DcnParams{}));
  ShardPlan plan;  // no shards at all
  int fixes = RepairShardPlan(parsed, plan);
  EXPECT_GT(fixes, 0);
  EXPECT_TRUE(ValidateShardPlan(parsed, plan).empty());
}

// The §4.5 correctness claim, end to end: sharded simulation of the DCN —
// whose aggregates, conditional advertisements, and community filters are
// exactly the dependency-heavy features — produces bit-identical RIBs.
class ShardEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardEquivalenceTest, DcnShardedMatchesUnsharded) {
  auto parsed = testing::Parse(topo::MakeDcn(topo::DcnParams{}));
  MonoEngine direct(parsed, nullptr);
  direct.Run(nullptr, nullptr);

  ShardPlan plan = BuildShardPlan(parsed, GetParam());
  RibStore store;
  MonoEngine sharded(parsed, nullptr);
  sharded.Run(&plan, &store);

  for (topo::NodeId id = 0; id < parsed.configs.size(); ++id) {
    ASSERT_EQ(store.ReadAll(id, sharded.attr_pool()),
              direct.node(id).bgp_routes())
        << parsed.configs[id].hostname << " with " << GetParam()
        << " shards";
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardEquivalenceTest,
                         ::testing::Values(2, 3, 7, 16));

// An unusable spill location — TMPDIR naming a regular file — makes both
// sharded verifiers, and a what-if over a converged sharded run, return a
// kSpillFailed verdict (path and errno in the detail) instead of crashing
// or throwing.
TEST(SpillFailureTest, UnusableTmpdirIsASpillFailedVerdict) {
  namespace fs = std::filesystem;
  auto parsed = testing::Parse(topo::MakeDcn(topo::DcnParams{}));
  dist::ControllerOptions s2_options;
  s2_options.num_workers = 2;
  s2_options.num_shards = 4;
  core::S2Verifier converged(s2_options);
  ASSERT_TRUE(converged.Verify(parsed, {}).ok());

  std::string file =
      (fs::temp_directory_path() / "s2-not-a-dir-XXXXXX").string();
  int fd = mkstemp(file.data());
  ASSERT_GE(fd, 0);
  close(fd);
  std::optional<std::string> saved;
  if (const char* previous = std::getenv("TMPDIR")) saved = previous;
  setenv("TMPDIR", file.c_str(), 1);

  core::VerifyResult s2 = core::S2Verifier(s2_options).Verify(parsed, {});
  core::MonoOptions mono_options;
  mono_options.num_shards = 4;
  core::VerifyResult mono =
      core::MonoVerifier(mono_options).Verify(parsed, {});
  const topo::Edge& edge = parsed.graph.edge(0);
  std::optional<core::IncrementalResult> whatif =
      converged.VerifyIncremental(core::RemoveLinkScenario(edge.a, edge.b));

  if (saved) {
    setenv("TMPDIR", saved->c_str(), 1);
  } else {
    unsetenv("TMPDIR");
  }
  fs::remove(file);
  ASSERT_TRUE(whatif.has_value());
  for (const core::VerifyResult* result : {&s2, &mono, &whatif->result}) {
    EXPECT_EQ(result->status, core::RunStatus::kSpillFailed);
    EXPECT_NE(result->failure_detail.find(file), std::string::npos)
        << result->failure_detail;
    EXPECT_NE(result->failure_detail.find("errno"), std::string::npos)
        << result->failure_detail;
  }
  EXPECT_STREQ(core::RunStatusName(core::RunStatus::kSpillFailed),
               "spill_failed");
}

// A spill segment that no longer holds its bytes makes every read a short
// read. Truncating the converged run's segment (reopened through
// /proc/self/fd: it is unlinked) turns a what-if's impact-closure read of
// the base spills into a kSpillFailed verdict, not an escaping exception.
TEST(SpillFailureTest, UnreadableBaseSpillIsASpillFailedVerdict) {
  namespace fs = std::filesystem;
  auto parsed = testing::Parse(topo::MakeDcn(topo::DcnParams{}));
  dist::ControllerOptions options;
  options.num_workers = 2;
  options.num_shards = 4;
  core::S2Verifier converged(options);
  ASSERT_TRUE(converged.Verify(parsed, {}).ok());

  int truncated = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    fs::path target = fs::read_symlink(entry.path(), ec);
    if (ec ||
        target.filename().string().rfind("s2-ribstore-", 0) != 0) {
      continue;
    }
    int fd = open(entry.path().c_str(), O_WRONLY);
    ASSERT_GE(fd, 0) << target;
    ASSERT_EQ(ftruncate(fd, 0), 0);
    close(fd);
    ++truncated;
  }
  ASSERT_GE(truncated, 1);

  const topo::Edge& edge = parsed.graph.edge(0);
  std::optional<core::IncrementalResult> whatif =
      converged.VerifyIncremental(core::RemoveLinkScenario(edge.a, edge.b));
  ASSERT_TRUE(whatif.has_value());
  EXPECT_EQ(whatif->result.status, core::RunStatus::kSpillFailed);
  EXPECT_NE(whatif->result.failure_detail.find("spill read failed"),
            std::string::npos)
      << whatif->result.failure_detail;
}

}  // namespace
}  // namespace s2::cp
