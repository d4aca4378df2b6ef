// Direct orchestrator tests: the CPO's round/shard bookkeeping (per-shard
// metrics, observed peaks, round barriers in the cost model) and the DPO's
// gather path — the pieces the end-to-end suites exercise only indirectly.
#include <gtest/gtest.h>

#include <stdexcept>

#include "dist/controller.h"
#include "test_networks.h"
#include "topo/fattree.h"

namespace s2::dist {
namespace {

config::ParsedNetwork FatTree4() {
  topo::FatTreeParams params;
  params.k = 4;
  return testing::Parse(topo::MakeFatTree(params));
}

TEST(CpoTest, PerShardMetricsCoverThePlan) {
  auto net = FatTree4();
  ControllerOptions options;
  options.num_workers = 2;
  options.num_shards = 6;
  Controller controller(net, options);
  controller.Setup();
  ASSERT_GT(controller.shard_plan().num_shards(), 1u);
  RoundMetrics total = controller.RunControlPlane();

  const std::vector<ShardMetrics>& shards = controller.shard_metrics();
  ASSERT_EQ(shards.size(), controller.shard_plan().num_shards());
  int rounds = 0;
  double modeled = 0;
  for (const ShardMetrics& shard : shards) {
    EXPECT_GT(shard.rounds.rounds, 0);
    EXPECT_GT(shard.max_worker_peak, 0u);
    rounds += shard.rounds.rounds;
    modeled += shard.rounds.modeled_seconds;
  }
  EXPECT_EQ(rounds, total.rounds);
  EXPECT_NEAR(modeled, total.modeled_seconds, 1e-9);
}

TEST(CpoTest, ObservedPeakIsMaxOfShardPeaks) {
  auto net = FatTree4();
  ControllerOptions options;
  options.num_workers = 2;
  options.num_shards = 4;
  Controller controller(net, options);
  controller.Setup();
  controller.RunControlPlane();
  size_t max_shard_peak = 0;
  for (const ShardMetrics& shard : controller.shard_metrics()) {
    max_shard_peak = std::max(max_shard_peak, shard.max_worker_peak);
  }
  EXPECT_EQ(controller.MaxWorkerPeakBytes(), max_shard_peak);
}

// An unsharded run is one shard holding the whole BGP prefix universe,
// spilled like any other: one shard record, every route in the store.
TEST(CpoTest, UnshardedRunIsOneSpilledShard) {
  auto net = FatTree4();
  ControllerOptions options;
  options.num_workers = 2;
  Controller controller(net, options);
  controller.Setup();
  ASSERT_EQ(controller.shard_plan().num_shards(), 1u);
  EXPECT_EQ(controller.shard_plan().total_prefixes(),
            cp::CollectBgpPrefixes(net).size());
  controller.RunControlPlane();
  ASSERT_EQ(controller.shard_metrics().size(), 1u);
  EXPECT_EQ(controller.MaxWorkerPeakBytes(),
            controller.shard_metrics()[0].max_worker_peak);
  EXPECT_GT(controller.MaxWorkerPeakBytes(), 0u);
  EXPECT_GT(controller.TotalBestRoutes(), 0u);
  EXPECT_EQ(controller.TotalBestRoutes(),
            controller.rib_store()->routes_written());
}

TEST(CpoTest, NegativeShardCountIsRejected) {
  ControllerOptions options;
  options.num_workers = 2;
  options.num_shards = -1;
  Controller controller(FatTree4(), options);
  EXPECT_THROW(controller.Setup(), std::invalid_argument);
}

TEST(CpoTest, RoundLatencyEntersModeledTime) {
  auto net = FatTree4();
  double with = 0, without = 0;
  for (double latency : {0.0, 0.01}) {
    ControllerOptions options;
    options.num_workers = 2;
    options.cost.round_latency_seconds = latency;
    Controller controller(net, options);
    controller.Setup();
    RoundMetrics metrics = controller.RunControlPlane();
    (latency > 0 ? with : without) = metrics.modeled_seconds;
    if (latency > 0) {
      // The latency term contributes exactly rounds x latency.
      EXPECT_NEAR(with - without, metrics.rounds * latency, 0.05);
    }
  }
  EXPECT_GT(with, without);
}

TEST(CpoTest, TotalBestRoutesMatchesStoreOrNodes) {
  auto net = FatTree4();
  size_t sharded_total = 0, unsharded_total = 0;
  for (int shards : {0, 5}) {
    ControllerOptions options;
    options.num_workers = 2;
    options.num_shards = shards;
    Controller controller(net, options);
    controller.Setup();
    controller.RunControlPlane();
    (shards ? sharded_total : unsharded_total) =
        controller.TotalBestRoutes();
  }
  EXPECT_EQ(sharded_total, unsharded_total);
  EXPECT_GT(sharded_total, 0u);
}

TEST(DpoTest, GatherMovesFinalsToTheControllerDomain) {
  auto net = FatTree4();
  ControllerOptions options;
  options.num_workers = 4;
  Controller controller(net, options);
  controller.Setup();
  controller.RunControlPlane();
  controller.BuildDataPlanes();

  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.0.0.0/24");
  query.sources = {net.graph.FindByName("edge-1-0")};
  query.destinations = {net.graph.FindByName("edge-0-0")};
  Controller::QueryOutcome outcome = controller.RunQuery(query);
  EXPECT_GT(outcome.gather_bytes, 0u);  // finals were serialized back
  EXPECT_EQ(outcome.result.reachable_pairs, 1u);
  EXPECT_GT(outcome.forwarding_steps, 0u);
}

TEST(RoundMetricsTest, AddAccumulates) {
  RoundMetrics a, b;
  a.rounds = 3;
  a.wall_seconds = 1.0;
  a.modeled_seconds = 2.0;
  a.comm_bytes = 10;
  b.rounds = 2;
  b.wall_seconds = 0.5;
  b.modeled_seconds = 0.25;
  b.comm_bytes = 5;
  a.Add(b);
  EXPECT_EQ(a.rounds, 5);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 1.5);
  EXPECT_DOUBLE_EQ(a.modeled_seconds, 2.25);
  EXPECT_EQ(a.comm_bytes, 15u);
}

}  // namespace
}  // namespace s2::dist
