// Verification-as-a-service tests: snapshot lifecycle (publish -> query ->
// republish -> epoch reclaim), the predicate cache, cross-query BDD
// op-cache reuse, admission scoping, and the served-vs-batch verdict
// identity — plus a chaos test that serves concurrently with republish
// (run under TSan via the chaos label) to pin the epoch-pinning protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "config/vendor.h"
#include "core/s2.h"
#include "obs/registry.h"
#include "svc/query_service.h"
#include "test_networks.h"
#include "topo/dcn.h"
#include "topo/fattree.h"
#include "util/ip.h"

namespace s2 {
namespace {

dp::Query AllPairQuery(const config::ParsedNetwork& net) {
  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  for (topo::NodeId id = 0; id < net.graph.size(); ++id) {
    if (net.graph.node(id).role == topo::Role::kEdge) {
      query.sources.push_back(id);
      query.destinations.push_back(id);
    }
  }
  return query;
}

// Full structural equality of two query results — the "byte-identical
// verdicts" bar for served vs batch execution.
void ExpectIdenticalResult(const dp::QueryResult& got,
                           const dp::QueryResult& want,
                           const std::string& label) {
  EXPECT_EQ(got.reachable_pairs, want.reachable_pairs) << label;
  EXPECT_EQ(got.unreachable_pairs, want.unreachable_pairs) << label;
  ASSERT_EQ(got.reachability.size(), want.reachability.size()) << label;
  for (size_t i = 0; i < got.reachability.size(); ++i) {
    EXPECT_EQ(got.reachability[i].src, want.reachability[i].src) << label;
    EXPECT_EQ(got.reachability[i].dst, want.reachability[i].dst) << label;
    EXPECT_EQ(got.reachability[i].reachable, want.reachability[i].reachable)
        << label;
    EXPECT_DOUBLE_EQ(got.reachability[i].fraction,
                     want.reachability[i].fraction)
        << label;
  }
  EXPECT_EQ(got.loop_free, want.loop_free) << label;
  EXPECT_EQ(got.blackhole_free, want.blackhole_free) << label;
  EXPECT_EQ(got.loop_finals, want.loop_finals) << label;
  EXPECT_EQ(got.blackhole_finals, want.blackhole_finals) << label;
  EXPECT_EQ(got.multipath_violations.size(), want.multipath_violations.size())
      << label;
  ASSERT_EQ(got.waypoints.size(), want.waypoints.size()) << label;
  for (size_t i = 0; i < got.waypoints.size(); ++i) {
    EXPECT_EQ(got.waypoints[i].transit, want.waypoints[i].transit) << label;
    EXPECT_EQ(got.waypoints[i].always_traversed,
              want.waypoints[i].always_traversed)
        << label;
  }
  EXPECT_EQ(got.paths_recorded, want.paths_recorded) << label;
  EXPECT_EQ(got.valleys.size(), want.valleys.size()) << label;
}

struct Converged {
  core::S2Verifier verifier;
  core::VerifyResult result;
  svc::Snapshot snapshot;

  explicit Converged(const config::ParsedNetwork& net,
                     const std::vector<dp::Query>& queries,
                     dist::ControllerOptions options)
      : verifier(options), result(verifier.Verify(net, queries)) {
    EXPECT_TRUE(result.ok()) << result.failure_detail;
    std::optional<svc::Snapshot> exported = verifier.ExportSnapshot();
    EXPECT_TRUE(exported.has_value());
    if (exported) snapshot = std::move(*exported);
  }
};

dist::ControllerOptions TwoWorkerOptions() {
  dist::ControllerOptions options;
  options.num_workers = 2;
  return options;
}

TEST(SnapshotTest, ExportRequiresConvergedRun) {
  core::S2Verifier verifier{dist::ControllerOptions{}};
  EXPECT_FALSE(verifier.ExportSnapshot().has_value());
}

TEST(SnapshotTest, CaptureCarriesPredicatesAndEdges) {
  config::ParsedNetwork net = testing::Parse(testing::MakeChain(4));
  Converged run(net, {}, TwoWorkerOptions());
  EXPECT_EQ(run.snapshot.options.num_workers, 2u);
  EXPECT_EQ(run.snapshot.worker_of.size(), net.graph.size());
  EXPECT_EQ(run.snapshot.predicates.size(), net.graph.size());
  EXPECT_FALSE(run.snapshot.fib_edges.empty());
  ASSERT_NE(run.snapshot.network, nullptr);
  EXPECT_EQ(run.snapshot.network->graph.size(), net.graph.size());
}

TEST(SnapshotRegistryTest, PublishAcquireReclaimLifecycle) {
  config::ParsedNetwork net = testing::Parse(testing::MakeChain(4));
  Converged run(net, {}, TwoWorkerOptions());

  svc::SnapshotRegistry registry;
  EXPECT_FALSE(registry.Acquire());

  uint64_t first = registry.Publish(run.snapshot);
  EXPECT_EQ(first, 1u);
  svc::SnapshotRef ref = registry.Acquire();
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref.epoch(), first);
  EXPECT_EQ(registry.stats().pinned_refs, 1u);

  // Republish while the old epoch is pinned: the old entry must survive
  // until the pin drops, then be reclaimed.
  uint64_t second = registry.Publish(run.snapshot);
  EXPECT_EQ(second, 2u);
  EXPECT_EQ(registry.stats().live_epochs, 2u);
  EXPECT_EQ(registry.stats().current_epoch, second);
  EXPECT_EQ(ref->epoch, first);  // pinned epoch still readable

  // Copying re-pins; the copy keeps the epoch alive after the original.
  svc::SnapshotRef copy = ref;
  EXPECT_EQ(registry.stats().pinned_refs, 2u);
  ref.Release();
  EXPECT_EQ(registry.stats().live_epochs, 2u);
  copy.Release();
  svc::SnapshotRegistry::Stats stats = registry.stats();
  EXPECT_EQ(stats.live_epochs, 1u);
  EXPECT_EQ(stats.reclaimed, 1u);
  EXPECT_EQ(stats.pinned_refs, 0u);
  EXPECT_EQ(stats.published, 2u);
}

TEST(QueryServiceTest, ServeWithoutSnapshotIsAMiss) {
  svc::SnapshotRegistry registry;
  svc::QueryService service(&registry, svc::QueryService::Options{});
  svc::QueryService::Served served = service.Serve(dp::Query{});
  EXPECT_EQ(served.epoch, 0u);
  EXPECT_EQ(service.stats().snapshot_misses, 1u);
}

TEST(QueryServiceTest, ServedVerdictsMatchBatchOnChain) {
  config::ParsedNetwork net = testing::Parse(testing::MakeChain(5));
  dp::Query query = AllPairQuery(net);
  Converged run(net, {query}, TwoWorkerOptions());

  svc::SnapshotRegistry registry;
  registry.Publish(run.snapshot);
  svc::QueryService service(&registry, svc::QueryService::Options{});

  svc::QueryService::Served cold = service.Serve(query);
  EXPECT_FALSE(cold.cache_hit);
  ExpectIdenticalResult(cold.result, run.result.queries[0], "cold");

  svc::QueryService::Served warm = service.Serve(query);
  EXPECT_TRUE(warm.cache_hit);
  ExpectIdenticalResult(warm.result, run.result.queries[0], "warm");

  svc::QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
}

// Queries that differ only in destinations share one forwarding
// execution: the second query must be a cache hit with its own verdict.
TEST(QueryServiceTest, DestinationDisjointQueriesShareForwarding) {
  config::ParsedNetwork net = testing::Parse(testing::MakeChain(5));
  dp::Query all = AllPairQuery(net);
  dp::Query narrowed = all;
  narrowed.destinations = {all.destinations.front()};

  Converged run(net, {all, narrowed}, TwoWorkerOptions());
  svc::SnapshotRegistry registry;
  registry.Publish(run.snapshot);
  svc::QueryService service(&registry, svc::QueryService::Options{});

  svc::QueryService::Served first = service.Serve(all);
  EXPECT_FALSE(first.cache_hit);
  svc::QueryService::Served second = service.Serve(narrowed);
  EXPECT_TRUE(second.cache_hit);
  ExpectIdenticalResult(first.result, run.result.queries[0], "all");
  ExpectIdenticalResult(second.result, run.result.queries[1], "narrowed");
}

// The satellite regression: with the result cache disabled (every serve
// re-executes forwarding), a repeated identical query must replay >90% out
// of the persistent domains' op caches — the cross-query reuse that
// per-query rebuilt domains never achieved.
TEST(QueryServiceTest, RepeatedQueryOpCacheHitRateAbove90Percent) {
  topo::FatTreeParams params;
  params.k = 4;
  config::ParsedNetwork net =
      config::ParseNetwork(config::SynthesizeConfigs(topo::MakeFatTree(params)));
  dp::Query query = AllPairQuery(net);
  Converged run(net, {}, TwoWorkerOptions());

  svc::SnapshotRegistry registry;
  registry.Publish(run.snapshot);
  svc::QueryService::Options options;
  options.result_cache_entries = 0;  // force re-execution
  options.gc_interval_queries = 0;   // no sweep between the two serves
  svc::QueryService service(&registry, options);

  service.Serve(query);
  bdd::Manager::CacheStats before = service.OpCacheStats();
  service.Serve(query);
  bdd::Manager::CacheStats after = service.OpCacheStats();

  size_t hits = after.hits - before.hits;
  size_t misses = after.misses - before.misses;
  ASSERT_GT(hits + misses, 0u);
  double rate = double(hits) / double(hits + misses);
  EXPECT_GT(rate, 0.9) << "hits=" << hits << " misses=" << misses;
}

TEST(QueryServiceTest, AdmissionScopingPreservesVerdicts) {
  topo::DcnParams params;
  params.small_clusters = 1;
  params.big_clusters = 1;
  params.tors_per_pod = 2;
  params.cores = 2;
  config::ParsedNetwork net =
      config::ParseNetwork(config::SynthesizeConfigs(topo::MakeDcn(params)));

  // A targeted single-source query plus the all-pair sweep.
  dp::Query single;
  for (topo::NodeId id = 0; id < net.graph.size(); ++id) {
    if (net.graph.node(id).role == topo::Role::kEdge) {
      if (single.sources.empty()) {
        single.sources.push_back(id);
      } else if (single.destinations.empty()) {
        single.destinations.push_back(id);
      }
    }
  }
  single.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  dp::Query all = AllPairQuery(net);

  dist::ControllerOptions options;
  options.num_workers = 4;
  Converged run(net, {single, all}, options);

  svc::SnapshotRegistry registry;
  registry.Publish(run.snapshot);
  svc::QueryService::Options scoped_options;
  scoped_options.scope_admission = true;
  svc::QueryService scoped(&registry, scoped_options);
  svc::QueryService::Options unscoped_options;
  unscoped_options.scope_admission = false;
  svc::QueryService unscoped(&registry, unscoped_options);

  svc::QueryService::Served a = scoped.Serve(single);
  svc::QueryService::Served b = unscoped.Serve(single);
  EXPECT_LE(a.scoped_workers, a.total_workers);
  ExpectIdenticalResult(a.result, run.result.queries[0], "single/scoped");
  ExpectIdenticalResult(b.result, run.result.queries[0], "single/unscoped");

  ExpectIdenticalResult(scoped.Serve(all).result, run.result.queries[1],
                        "all/scoped");
  ExpectIdenticalResult(unscoped.Serve(all).result, run.result.queries[1],
                        "all/unscoped");
  EXPECT_EQ(scoped.stats().scope_fallbacks, 0u);
}

// A snapshot whose forward-edge index misses a node (what a recovered
// worker publishes: checkpoints carry predicates, not FIBs) under-scopes
// admission. The executor must then build the missing domains lazily
// mid-query and still answer byte-identically to batch execution.
TEST(QueryServiceTest, UnderScopedQueriesFallBackToLazyDomains) {
  topo::DcnParams params;
  params.small_clusters = 1;
  params.big_clusters = 1;
  params.tors_per_pod = 2;
  params.cores = 2;
  config::ParsedNetwork net =
      config::ParseNetwork(config::SynthesizeConfigs(topo::MakeDcn(params)));
  dist::ControllerOptions options;
  options.num_workers = 4;
  dp::Query all = AllPairQuery(net);
  Converged probe(net, {}, options);
  const std::vector<uint32_t>& worker_of = probe.snapshot.worker_of;

  // A single pair whose endpoints live on different workers, so its
  // packets must leave the source's worker.
  dp::Query single;
  single.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  single.sources = {all.sources.front()};
  for (topo::NodeId dst : all.destinations) {
    if (worker_of[dst] != worker_of[single.sources.front()]) {
      single.destinations = {dst};
      break;
    }
  }
  ASSERT_FALSE(single.destinations.empty());

  Converged run(net, {all, single}, options);
  // Erase the source's forward edges: admission then reaches only the
  // source's own worker, and every other domain is a fallback.
  ASSERT_EQ(run.snapshot.fib_edges.erase(single.sources.front()), 1u);
  svc::SnapshotRegistry registry;
  registry.Publish(run.snapshot);
  svc::QueryService::Options service_options;
  service_options.result_cache_entries = 0;  // every serve executes
  svc::QueryService service(&registry, service_options);

  svc::QueryService::Served first = service.Serve(single);
  EXPECT_GT(service.stats().scope_fallbacks, 0u);
  EXPECT_GT(first.scoped_workers, 1u);  // grew past the admitted scope
  ExpectIdenticalResult(first.result, run.result.queries[1], "single");

  // The fallback domains persist: a repeat falls back again (the index is
  // still incomplete) but builds nothing new.
  size_t built = service.stats().domains_built;
  size_t fallbacks = service.stats().scope_fallbacks;
  svc::QueryService::Served again = service.Serve(single);
  EXPECT_GT(service.stats().scope_fallbacks, fallbacks);
  EXPECT_EQ(service.stats().domains_built, built);
  ExpectIdenticalResult(again.result, run.result.queries[1], "single/again");

  ExpectIdenticalResult(service.Serve(all).result, run.result.queries[0],
                        "all");
}

TEST(QueryServiceTest, BatchGroupsCompatibleQueries) {
  config::ParsedNetwork net = testing::Parse(testing::MakeChain(5));
  dp::Query all = AllPairQuery(net);
  dp::Query narrowed = all;
  narrowed.destinations = {all.destinations.front()};
  dp::Query single;
  single.sources = {all.sources.front()};
  single.destinations = {all.destinations.back()};
  single.header_space.dst = util::MustParsePrefix("10.0.3.0/24");

  Converged run(net, {all, narrowed, single}, TwoWorkerOptions());
  svc::SnapshotRegistry registry;
  registry.Publish(run.snapshot);
  svc::QueryService service(&registry, svc::QueryService::Options{});

  std::vector<svc::QueryService::Served> served =
      service.ServeBatch({all, narrowed, single});
  ASSERT_EQ(served.size(), 3u);
  for (size_t q = 0; q < served.size(); ++q) {
    ExpectIdenticalResult(served[q].result, run.result.queries[q],
                          "batch/q" + std::to_string(q));
  }
  // all+narrowed share a scope (same sources/header), single may not:
  // grouping must produce fewer batches than queries.
  svc::QueryService::Stats stats = service.stats();
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LT(stats.batches, 3u);
}

TEST(QueryServiceTest, RepublishRebindsLaneAndReclaimsOldEpoch) {
  config::ParsedNetwork net = testing::Parse(testing::MakeChain(4));
  dp::Query query = AllPairQuery(net);
  Converged run(net, {query}, TwoWorkerOptions());

  svc::SnapshotRegistry registry;
  registry.Publish(run.snapshot);
  svc::QueryService service(&registry, svc::QueryService::Options{});

  svc::QueryService::Served first = service.Serve(query);
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_TRUE(service.Serve(query).cache_hit);

  registry.Publish(run.snapshot);
  svc::QueryService::Served second = service.Serve(query);
  EXPECT_EQ(second.epoch, 2u);
  // New epoch: the predicate cache is epoch-scoped, so this was a miss...
  EXPECT_FALSE(second.cache_hit);
  // ...but the verdict is unchanged (same snapshot content).
  ExpectIdenticalResult(second.result, first.result, "across epochs");
  EXPECT_EQ(service.stats().epoch_rebuilds, 2u);

  // The old epoch had no pins left once its serve finished.
  svc::SnapshotRegistry::Stats stats = registry.stats();
  EXPECT_EQ(stats.live_epochs, 1u);
  EXPECT_EQ(stats.reclaimed, 1u);
}

TEST(QueryServiceTest, PublishesSvcMetrics) {
  config::ParsedNetwork net = testing::Parse(testing::MakeChain(4));
  dp::Query query = AllPairQuery(net);
  Converged run(net, {query}, TwoWorkerOptions());

  svc::SnapshotRegistry registry;
  registry.Publish(run.snapshot);
  svc::QueryService service(&registry, svc::QueryService::Options{});
  service.Serve(query);
  service.Serve(query);

  obs::Registry metrics;
  service.PublishMetrics(metrics);
  registry.PublishMetrics(metrics);
  EXPECT_EQ(metrics.counter("svc.queries"), 2);
  EXPECT_EQ(metrics.counter("svc.cache.hits"), 1);
  EXPECT_EQ(metrics.counter("svc.cache.misses"), 1);
  EXPECT_TRUE(metrics.Has("svc.cache.evictions"));
  EXPECT_TRUE(metrics.Has("svc.cache.entries"));
  EXPECT_TRUE(metrics.Has("svc.opcache.hits"));
  EXPECT_EQ(metrics.counter("svc.snapshots.published"), 1);
  EXPECT_GT(metrics.counter("svc.opcache.misses"), 0);
}

// Chaos: queries racing a republish loop. Every serve must see a
// consistent epoch (verdicts identical across all epochs since the
// snapshot content never changes), and when the dust settles exactly one
// epoch survives — no use-after-reclaim, which TSan/ASan verify at the
// memory level via the chaos CI legs.
TEST(QueryServiceChaosTest, ConcurrentServeAndRepublish) {
  config::ParsedNetwork net = testing::Parse(testing::MakeChain(5));
  dp::Query query = AllPairQuery(net);
  dp::Query single;
  single.sources = {query.sources.front()};
  single.destinations = {query.destinations.back()};
  single.header_space.dst = util::MustParsePrefix("10.0.3.0/24");
  Converged run(net, {query, single}, TwoWorkerOptions());

  svc::SnapshotRegistry registry;
  registry.Publish(run.snapshot);
  svc::QueryService::Options options;
  options.lanes = 2;
  options.gc_interval_queries = 8;
  svc::QueryService service(&registry, options);

  constexpr int kServesPerThread = 40;
  constexpr int kRepublishes = 10;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kServesPerThread; ++i) {
        const dp::Query& q = (i + t) % 2 == 0 ? query : single;
        const dp::QueryResult& want =
            (i + t) % 2 == 0 ? run.result.queries[0] : run.result.queries[1];
        svc::QueryService::Served served = service.Serve(q);
        if (served.epoch == 0 ||
            served.result.reachable_pairs != want.reachable_pairs ||
            served.result.loop_free != want.loop_free) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (int r = 0; r < kRepublishes; ++r) {
    registry.Publish(run.snapshot);
    std::this_thread::yield();
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  svc::SnapshotRegistry::Stats stats = registry.stats();
  EXPECT_EQ(stats.published, size_t(kRepublishes) + 1);
  EXPECT_EQ(stats.pinned_refs, 0u);
  EXPECT_EQ(stats.live_epochs, 1u);
  EXPECT_EQ(stats.reclaimed, size_t(kRepublishes));
  EXPECT_EQ(service.stats().queries, 3u * kServesPerThread);
}

}  // namespace
}  // namespace s2
