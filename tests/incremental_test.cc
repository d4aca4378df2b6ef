// Incremental what-if re-verification (core/incremental.h) differential
// suite: over randomized fattree/DCN topologies and randomized link/node
// failure scenarios, an incremental re-run against a converged sharded
// base must reproduce a cold full re-run of the edited network exactly —
// query verdicts field for field, canonical per-node predicate bytes and
// FIB byte accounting byte for byte, and the DiffReachability report
// change for change. The suite also pins the engine's economics (reuse
// actually happens on local failures) and its fallbacks (OSPF, unsharded
// base, config edits degrade to a sound whole-network re-run).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "core/s2.h"
#include "core/whatif.h"
#include "svc/query_service.h"
#include "test_networks.h"
#include "topo/dcn.h"
#include "topo/fattree.h"
#include "util/rng.h"

namespace s2 {
namespace {

using dist::ControllerOptions;

struct Instance {
  std::string label;
  topo::Network net;
};

std::vector<Instance> RandomInstances(uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Instance> instances;
  for (int i = 0; i < 6; ++i) {
    topo::FatTreeParams params;
    params.k = 4;
    params.max_ecmp_paths = static_cast<int>(rng.Between(2, 64));
    params.extra_prefixes_per_edge = static_cast<int>(rng.Between(0, 2));
    params.mixed_vendors = (rng.Next() & 1) != 0;
    instances.push_back({"fattree/seed" + std::to_string(seed) + "/i" +
                             std::to_string(i),
                         topo::MakeFatTree(params)});
  }
  for (int i = 0; i < 4; ++i) {
    topo::DcnParams params;
    params.small_clusters = static_cast<int>(rng.Between(1, 2));
    params.big_clusters = 1;
    params.tors_per_pod = static_cast<int>(rng.Between(2, 3));
    params.cores = static_cast<int>(rng.Between(2, 3));
    params.mixed_vendors = (rng.Next() & 1) != 0;
    instances.push_back({"dcn/seed" + std::to_string(seed) + "/i" +
                             std::to_string(i),
                         topo::MakeDcn(params)});
  }
  return instances;
}

std::vector<dp::Query> StandardQueries(const config::ParsedNetwork& net) {
  std::vector<dp::Query> queries;
  dp::Query all;
  all.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  for (topo::NodeId id = 0; id < net.graph.size(); ++id) {
    if (net.graph.node(id).role == topo::Role::kEdge) {
      all.sources.push_back(id);
      all.destinations.push_back(id);
    }
  }
  queries.push_back(all);
  // A narrow pair query — the candidate for scenario-insensitive reuse.
  dp::Query single = all;
  single.sources = {all.sources.front()};
  single.destinations = {all.destinations.back()};
  queries.push_back(single);
  return queries;
}

// Flattened artifacts of a controller's converged data planes.
struct Artifacts {
  std::map<topo::NodeId, std::vector<uint8_t>> predicates;
  std::map<topo::NodeId, size_t> fib_bytes;
};

Artifacts CollectArtifacts(dist::Controller* controller) {
  Artifacts artifacts;
  for (size_t w = 0; w < controller->num_workers(); ++w) {
    const dist::Worker& worker = controller->worker(w);
    std::map<topo::NodeId, std::vector<uint8_t>> predicates =
        worker.SnapshotPredicates();
    artifacts.predicates.insert(predicates.begin(), predicates.end());
    artifacts.fib_bytes.insert(worker.node_fib_bytes().begin(),
                               worker.node_fib_bytes().end());
  }
  return artifacts;
}

void ExpectSameResult(const dp::QueryResult& got, const dp::QueryResult& want,
                      const std::string& label) {
  EXPECT_EQ(got.reachable_pairs, want.reachable_pairs) << label;
  EXPECT_EQ(got.unreachable_pairs, want.unreachable_pairs) << label;
  EXPECT_EQ(got.loop_free, want.loop_free) << label;
  EXPECT_EQ(got.blackhole_free, want.blackhole_free) << label;
  EXPECT_EQ(got.loop_finals, want.loop_finals) << label;
  EXPECT_EQ(got.blackhole_finals, want.blackhole_finals) << label;
  EXPECT_EQ(got.multipath_violations.size(), want.multipath_violations.size())
      << label;
  ASSERT_EQ(got.reachability.size(), want.reachability.size()) << label;
  for (size_t i = 0; i < got.reachability.size(); ++i) {
    EXPECT_EQ(got.reachability[i].src, want.reachability[i].src) << label;
    EXPECT_EQ(got.reachability[i].dst, want.reachability[i].dst) << label;
    EXPECT_EQ(got.reachability[i].reachable, want.reachability[i].reachable)
        << label << " pair " << i;
    EXPECT_DOUBLE_EQ(got.reachability[i].fraction,
                     want.reachability[i].fraction)
        << label << " pair " << i;
  }
}

void ExpectSameDiff(const std::vector<core::ReachabilityChange>& got,
                    const std::vector<core::ReachabilityChange>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].src, want[i].src) << label << " change " << i;
    EXPECT_EQ(got[i].dst, want[i].dst) << label << " change " << i;
    EXPECT_EQ(got[i].was_reachable, want[i].was_reachable)
        << label << " change " << i;
    EXPECT_EQ(got[i].now_reachable, want[i].now_reachable)
        << label << " change " << i;
  }
}

// The oracle comparison: `incremental` (run against the converged base in
// `base_verifier`) vs a cold full verification of the edited network with
// the base's own options. Cold runs use the same worker count, seed, and
// shard count, so the partition — and with it every per-node artifact —
// must land byte-identically.
void ExpectMatchesColdRerun(const core::IncrementalResult& incremental,
                            const config::ParsedNetwork& edited,
                            ControllerOptions options,
                            const std::vector<dp::Query>& queries,
                            const core::VerifyResult& base_result,
                            const std::string& label) {
  core::S2Verifier cold_verifier(options);
  core::VerifyResult cold = cold_verifier.Verify(edited, queries);
  ASSERT_TRUE(cold.ok()) << label << ": " << cold.failure_detail;
  ASSERT_TRUE(incremental.result.ok())
      << label << ": " << incremental.result.failure_detail;

  ASSERT_EQ(incremental.result.queries.size(), cold.queries.size()) << label;
  for (size_t q = 0; q < cold.queries.size(); ++q) {
    ExpectSameResult(incremental.result.queries[q], cold.queries[q],
                     label + "/q" + std::to_string(q));
    ExpectSameDiff(
        core::DiffReachability(base_result.queries[q],
                               incremental.result.queries[q]),
        core::DiffReachability(base_result.queries[q], cold.queries[q]),
        label + "/diff" + std::to_string(q));
  }

  Artifacts cold_artifacts = CollectArtifacts(cold_verifier.last_controller());
  EXPECT_EQ(incremental.predicates, cold_artifacts.predicates)
      << label << " predicate bytes diverge";
  EXPECT_EQ(incremental.fib_bytes, cold_artifacts.fib_bytes)
      << label << " FIB byte accounting diverges";
  EXPECT_EQ(incremental.result.total_best_routes, cold.total_best_routes)
      << label;
}

TEST(IncrementalWhatIfTest, RandomScenariosMatchColdRerun) {
  std::vector<Instance> instances = RandomInstances(/*seed=*/101);
  util::Rng rng(202);
  int which = 0;
  for (const Instance& instance : instances) {
    config::ParsedNetwork net = testing::Parse(instance.net);
    std::vector<dp::Query> queries = StandardQueries(net);

    ControllerOptions options;
    options.num_workers = 1 + (which % 4);  // 1..4 workers
    options.num_shards = 4 + (which % 2) * 4;
    options.seed = 7 + which;
    ++which;

    core::S2Verifier verifier(options);
    core::VerifyResult base = verifier.Verify(net, queries);
    ASSERT_TRUE(base.ok()) << instance.label << ": " << base.failure_detail;

    // One random link failure and one random device failure per instance.
    const topo::Edge& edge = net.graph.edge(rng.Below(net.graph.edge_count()));
    topo::NodeId victim =
        static_cast<topo::NodeId>(rng.Below(net.graph.size()));
    for (const core::Scenario& scenario :
         {core::RemoveLinkScenario(edge.a, edge.b),
          core::FailNodeScenario(victim)}) {
      std::string label =
          instance.label +
          (scenario.kind == core::Scenario::Kind::kRemoveLink
               ? "/link" + std::to_string(edge.a) + "-" + std::to_string(edge.b)
               : "/node" + std::to_string(victim));
      std::optional<core::IncrementalResult> incremental =
          verifier.VerifyIncremental(scenario);
      ASSERT_TRUE(incremental.has_value()) << label;
      EXPECT_FALSE(incremental->stats.full_fallback)
          << label << ": " << incremental->stats.fallback_reason;
      EXPECT_EQ(incremental->stats.nodes_rebuilt +
                    incremental->stats.nodes_reused,
                net.graph.size())
          << label;
      EXPECT_EQ(incremental->stats.queries_reused +
                    incremental->stats.queries_reverified,
                queries.size())
          << label;
      ExpectMatchesColdRerun(*incremental,
                             core::ApplyScenario(net, scenario), options,
                             queries, base, label);
    }
  }
}

// Adversarial whole-network impact: failing a core switch disturbs the
// converged ECMP sets of every aggregation layer at once — close to the
// worst case for the impact analysis — and must still match the cold
// re-run exactly while keeping the node accounting consistent.
TEST(IncrementalWhatIfTest, WholeNetworkImpactStaysExact) {
  topo::FatTreeParams params;
  params.k = 4;
  config::ParsedNetwork net = testing::Parse(topo::MakeFatTree(params));
  std::vector<dp::Query> queries = StandardQueries(net);

  ControllerOptions options;
  options.num_workers = 4;
  options.num_shards = 8;
  core::S2Verifier verifier(options);
  core::VerifyResult base = verifier.Verify(net, queries);
  ASSERT_TRUE(base.ok()) << base.failure_detail;

  core::Scenario scenario =
      core::FailNodeScenario(net.graph.FindByName("core-0-0"));
  std::optional<core::IncrementalResult> incremental =
      verifier.VerifyIncremental(scenario);
  ASSERT_TRUE(incremental.has_value());
  EXPECT_FALSE(incremental->stats.full_fallback);
  // ECMP spreads every remote prefix over the failed core: the closure
  // covers most of the universe, so this is a genuine whole-network
  // re-simulation through the incremental path.
  EXPECT_GT(incremental->stats.impacted_prefixes,
            incremental->stats.universe_prefixes / 2);
  ExpectMatchesColdRerun(*incremental, core::ApplyScenario(net, scenario),
                         options, queries, base, "whole-network/core-0-0");
}

// A failure mostly off the converged best paths must stay mostly local.
// With ECMP truncated to a single path, per-prefix tie-breaking splits
// edge-0-0's remote prefixes across its two uplinks; removing the less
// loaded uplink impacts only that half of the universe, and — because the
// rebuild diff compares the FIB projection, not raw routes — far pods
// whose chosen next hops survive keep their data planes, so queries
// confined to a far pod never reach a changed node and are served from
// the base verbatim. This pins the economics the bench gate
// (bench/whatif_incremental.cc) depends on.
TEST(IncrementalWhatIfTest, LocalFailureReusesMostOfTheBase) {
  topo::FatTreeParams params;
  params.k = 4;
  params.max_ecmp_paths = 1;
  config::ParsedNetwork net = testing::Parse(topo::MakeFatTree(params));
  std::vector<dp::Query> queries = StandardQueries(net);
  // A pod-local pair far from the failure — the query-reuse candidate.
  dp::Query far;
  topo::NodeId far_dst = net.graph.FindByName("edge-3-0");
  far.header_space.dst = net.configs[far_dst].bgp.networks.front();
  far.sources = {net.graph.FindByName("edge-3-1")};
  far.destinations = {far_dst};
  queries.push_back(far);

  ControllerOptions options;
  options.num_workers = 2;
  options.num_shards = 4;
  core::S2Verifier verifier(options);
  core::VerifyResult base = verifier.Verify(net, queries);
  ASSERT_TRUE(base.ok()) << base.failure_detail;

  // Pick the pod-0 uplink edge-0-0's converged best routes do not use.
  topo::NodeId edge = net.graph.FindByName("edge-0-0");
  topo::NodeId agg0 = net.graph.FindByName("agg-0-0");
  topo::NodeId agg1 = net.graph.FindByName("agg-0-1");
  cp::AttrPool pool;
  std::map<util::IpPrefix, std::vector<cp::Route>> best =
      verifier.last_controller()->rib_store()->ReadAll(edge, pool);
  size_t via0 = 0, via1 = 0;
  for (const auto& [prefix, routes] : best) {
    for (const cp::Route& route : routes) {
      via0 += route.learned_from == agg0;
      via1 += route.learned_from == agg1;
    }
  }
  topo::NodeId spare = via0 <= via1 ? agg0 : agg1;

  core::Scenario scenario = core::RemoveLinkScenario(edge, spare);
  std::optional<core::IncrementalResult> incremental =
      verifier.VerifyIncremental(scenario);
  ASSERT_TRUE(incremental.has_value());
  const core::IncrementalStats& stats = incremental->stats;
  EXPECT_FALSE(stats.full_fallback) << stats.fallback_reason;
  // Only the prefixes actually routed over the dead link (at most half of
  // the tie-break split, plus the rack prefixes the spare agg heard
  // directly) are impacted.
  EXPECT_LE(stats.impacted_prefixes, stats.universe_prefixes * 3 / 5);
  // FIBs change only where the removed link was the chosen path —
  // endpoints plus a handful of reroutes; far pods reuse the base.
  EXPECT_LE(stats.nodes_rebuilt, 8u);
  EXPECT_GE(stats.nodes_reused, net.graph.size() / 2);
  // The far-pod query never reaches a changed node: served from the base.
  EXPECT_GE(stats.queries_reused, 1u);
  ExpectMatchesColdRerun(*incremental, core::ApplyScenario(net, scenario),
                         options, queries, base, "local-failure");
}

// OSPF anywhere voids the BGP-only impact argument: the engine must take
// the whole-network fallback and still agree with the cold re-run.
TEST(IncrementalWhatIfTest, OspfBaseFallsBackToFullRerun) {
  topo::Network raw = testing::MakeChain(4);
  for (topo::NodeIntent& intent : raw.intents) intent.enable_ospf = true;
  config::ParsedNetwork net = testing::Parse(raw);
  std::vector<dp::Query> queries = StandardQueries(net);

  ControllerOptions options;
  options.num_workers = 2;
  options.num_shards = 2;
  core::S2Verifier verifier(options);
  core::VerifyResult base = verifier.Verify(net, queries);
  ASSERT_TRUE(base.ok()) << base.failure_detail;

  core::Scenario scenario = core::RemoveLinkScenario(1, 2);
  std::optional<core::IncrementalResult> incremental =
      verifier.VerifyIncremental(scenario);
  ASSERT_TRUE(incremental.has_value());
  EXPECT_TRUE(incremental->stats.full_fallback);
  EXPECT_FALSE(incremental->stats.fallback_reason.empty());
  EXPECT_EQ(incremental->stats.nodes_rebuilt, net.graph.size());
  ExpectMatchesColdRerun(*incremental, core::ApplyScenario(net, scenario),
                         options, queries, base, "ospf-fallback");
}

// An unsharded base has no converged spills to overlay: fallback, but
// still exact.
TEST(IncrementalWhatIfTest, UnshardedBaseFallsBackToFullRerun) {
  config::ParsedNetwork net = testing::Parse(testing::MakeChain(5));
  std::vector<dp::Query> queries = StandardQueries(net);

  ControllerOptions options;
  options.num_workers = 2;
  options.num_shards = 0;  // retained RIBs, no spill store
  core::S2Verifier verifier(options);
  core::VerifyResult base = verifier.Verify(net, queries);
  ASSERT_TRUE(base.ok()) << base.failure_detail;

  core::Scenario scenario = core::FailNodeScenario(2);
  std::optional<core::IncrementalResult> incremental =
      verifier.VerifyIncremental(scenario);
  ASSERT_TRUE(incremental.has_value());
  EXPECT_TRUE(incremental->stats.full_fallback);
  ExpectMatchesColdRerun(*incremental, core::ApplyScenario(net, scenario),
                         options, queries, base, "unsharded-fallback");
}

// Arbitrary config edits carry no impact bound; the kConfigEdit scenario
// re-verifies the edited model through the fallback and must match a cold
// run of that model.
TEST(IncrementalWhatIfTest, ConfigEditScenarioMatchesColdRerun) {
  topo::FatTreeParams params;
  params.k = 4;
  config::ParsedNetwork net = testing::Parse(topo::MakeFatTree(params));
  std::vector<dp::Query> queries = StandardQueries(net);

  ControllerOptions options;
  options.num_workers = 2;
  options.num_shards = 4;
  core::S2Verifier verifier(options);
  core::VerifyResult base = verifier.Verify(net, queries);
  ASSERT_TRUE(base.ok()) << base.failure_detail;

  // The "edit": drop an edge uplink via the whatif helper, handed over as
  // an opaque edited model rather than a structured failure.
  config::ParsedNetwork edited = core::RemoveLink(
      net, net.graph.FindByName("edge-1-0"), net.graph.FindByName("agg-1-0"));
  core::Scenario scenario = core::ConfigEditScenario(edited);
  std::optional<core::IncrementalResult> incremental =
      verifier.VerifyIncremental(scenario);
  ASSERT_TRUE(incremental.has_value());
  EXPECT_TRUE(incremental->stats.full_fallback);
  ExpectMatchesColdRerun(*incremental, edited, options, queries, base,
                         "config-edit");
}

// The service-side what-if: ServeWhatIf against a published snapshot must
// agree with the facade's VerifyIncremental on the same scenario, and its
// base verdicts with the snapshot-served batch.
TEST(IncrementalWhatIfTest, ServeWhatIfMatchesFacade) {
  topo::FatTreeParams params;
  params.k = 4;
  config::ParsedNetwork net = testing::Parse(topo::MakeFatTree(params));
  std::vector<dp::Query> queries = StandardQueries(net);

  ControllerOptions options;
  options.num_workers = 4;
  options.num_shards = 8;
  core::S2Verifier verifier(options);
  core::VerifyResult base = verifier.Verify(net, queries);
  ASSERT_TRUE(base.ok()) << base.failure_detail;

  std::optional<svc::Snapshot> snapshot = verifier.ExportSnapshot();
  ASSERT_TRUE(snapshot.has_value());
  svc::SnapshotRegistry registry;
  registry.Publish(*snapshot);
  svc::QueryService service(&registry, svc::QueryService::Options{});

  core::Scenario scenario = core::RemoveLinkScenario(
      net.graph.FindByName("edge-0-1"), net.graph.FindByName("agg-0-1"));
  std::optional<svc::QueryService::WhatIfServed> served =
      service.ServeWhatIf(scenario, queries);
  ASSERT_TRUE(served.has_value());
  ASSERT_TRUE(served->incremental.result.ok())
      << served->incremental.result.failure_detail;
  EXPECT_FALSE(served->incremental.stats.full_fallback)
      << served->incremental.stats.fallback_reason;

  std::optional<core::IncrementalResult> facade =
      verifier.VerifyIncremental(scenario);
  ASSERT_TRUE(facade.has_value());
  ASSERT_EQ(served->incremental.result.queries.size(),
            facade->result.queries.size());
  for (size_t q = 0; q < facade->result.queries.size(); ++q) {
    ExpectSameResult(served->incremental.result.queries[q],
                     facade->result.queries[q],
                     "serve-whatif/q" + std::to_string(q));
    ExpectSameResult(served->base[q].result, base.queries[q],
                     "serve-whatif/base-q" + std::to_string(q));
  }
  EXPECT_EQ(served->incremental.predicates, facade->predicates);
  EXPECT_EQ(served->incremental.fib_bytes, facade->fib_bytes);
  EXPECT_EQ(served->incremental.result.total_best_routes,
            facade->result.total_best_routes);
}

// Scenarios must not mutate the base: after any number of what-ifs, the
// base controller re-answers the original queries bit-identically.
TEST(IncrementalWhatIfTest, BaseStaysServableAcrossScenarios) {
  config::ParsedNetwork net = testing::Parse(testing::MakeChain(5));
  std::vector<dp::Query> queries = StandardQueries(net);

  ControllerOptions options;
  options.num_workers = 2;
  options.num_shards = 2;
  core::S2Verifier verifier(options);
  core::VerifyResult base = verifier.Verify(net, queries);
  ASSERT_TRUE(base.ok()) << base.failure_detail;
  Artifacts before = CollectArtifacts(verifier.last_controller());

  for (int i = 0; i < 3; ++i) {
    std::optional<core::IncrementalResult> incremental =
        verifier.VerifyIncremental(core::FailNodeScenario(1 + i));
    ASSERT_TRUE(incremental.has_value());
    ASSERT_TRUE(incremental->result.ok());
  }
  Artifacts after = CollectArtifacts(verifier.last_controller());
  EXPECT_EQ(before.predicates, after.predicates);
  EXPECT_EQ(before.fib_bytes, after.fib_bytes);
}

// The facade captures one snapshot per converged run and shares it between
// ExportSnapshot and VerifyIncremental; a later Verify must drop it, so
// both answer for the new network, never the old one.
TEST(IncrementalWhatIfTest, SnapshotCacheFollowsTheLastVerify) {
  ControllerOptions options;
  options.num_workers = 2;
  options.num_shards = 4;
  core::S2Verifier verifier(options);

  config::ParsedNetwork chain = testing::Parse(testing::MakeChain(5));
  std::vector<dp::Query> chain_queries = StandardQueries(chain);
  ASSERT_TRUE(verifier.Verify(chain, chain_queries).ok());
  std::optional<svc::Snapshot> first = verifier.ExportSnapshot();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->worker_of.size(), chain.graph.size());
  ASSERT_TRUE(verifier.VerifyIncremental(core::FailNodeScenario(2))
                  .has_value());

  topo::FatTreeParams params;
  params.k = 4;
  config::ParsedNetwork fattree = testing::Parse(topo::MakeFatTree(params));
  ASSERT_NE(fattree.graph.size(), chain.graph.size());
  std::vector<dp::Query> queries = StandardQueries(fattree);
  core::VerifyResult base = verifier.Verify(fattree, queries);
  ASSERT_TRUE(base.ok()) << base.failure_detail;
  std::optional<svc::Snapshot> second = verifier.ExportSnapshot();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->worker_of.size(), fattree.graph.size());
  EXPECT_EQ(second->predicates.size(), fattree.graph.size());

  core::Scenario scenario = core::RemoveLinkScenario(
      fattree.graph.FindByName("edge-0-1"),
      fattree.graph.FindByName("agg-0-1"));
  std::optional<core::IncrementalResult> incremental =
      verifier.VerifyIncremental(scenario);
  ASSERT_TRUE(incremental.has_value());
  EXPECT_FALSE(incremental->stats.full_fallback)
      << incremental->stats.fallback_reason;
  ExpectMatchesColdRerun(*incremental, core::ApplyScenario(fattree, scenario),
                         options, queries, base, "second-verify");
}

}  // namespace
}  // namespace s2
