// Chaos tests: the full verifier under the fault injector. The contract
// (ISSUE: fault-injection fabric) is that a run with ≥10% frame drops plus
// scheduled worker crashes converges to results identical to the
// fault-free run — same verdicts, same RIBs, same FIB semantics — because
// the reliable-delivery envelope and checkpoint/replay recovery hide every
// injected fault from the application.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "core/s2.h"
#include "test_networks.h"
#include "topo/fattree.h"

namespace s2::dist {
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

// ≥10% drops on every link, plus duplication, reordering, delay, and two
// scheduled worker crashes at control-plane barriers.
fault::FaultPlan ChaosPlan() {
  fault::FaultPlan plan;
  plan.seed = 2025;
  plan.default_link.drop = 0.12;
  plan.default_link.duplicate = 0.05;
  plan.default_link.reorder = 0.10;
  plan.default_link.max_delay_rounds = 1;
  plan.checkpoint_interval = 2;
  plan.crashes.push_back({fault::CrashPhase::kControlPlaneRound, 2, 1});
  plan.crashes.push_back({fault::CrashPhase::kControlPlaneRound, 4, 2});
  return plan;
}

// Canonical per-node predicate bytes — equal bytes mean equal forwarding
// semantics (bdd_io's encoding is structural), so this is the FIB hash.
std::map<topo::NodeId, std::vector<uint8_t>> FibHashes(
    Controller* controller) {
  std::map<topo::NodeId, std::vector<uint8_t>> hashes;
  for (size_t w = 0; w < controller->num_workers(); ++w) {
    fault::WorkerCheckpoint checkpoint;
    controller->worker(w).CheckpointDataPlane(checkpoint);
    for (auto& [node, bytes] : checkpoint.predicate_state) {
      hashes[node] = std::move(bytes);
    }
  }
  return hashes;
}

struct RunOutcome {
  core::VerifyResult result;
  std::map<topo::NodeId,
           std::map<util::IpPrefix, std::vector<cp::Route>>>
      ribs;
  std::map<topo::NodeId, std::vector<uint8_t>> fib_hashes;
};

RunOutcome RunVerifier(const config::ParsedNetwork& net, const dp::Query& query,
               int shards, std::optional<fault::FaultPlan> plan) {
  ControllerOptions options;
  options.num_workers = 4;
  options.num_shards = shards;
  options.fault_plan = std::move(plan);
  core::S2Verifier verifier(options);
  RunOutcome outcome;
  outcome.result = verifier.Verify(net, {query});
  Controller* controller = verifier.last_controller();
  for (topo::NodeId id = 0; id < net.configs.size(); ++id) {
    outcome.ribs[id] = testing::BestRoutes(*controller->rib_store(), id);
  }
  outcome.fib_hashes = FibHashes(controller);
  return outcome;
}

void ExpectSameVerdicts(const core::VerifyResult& a,
                        const core::VerifyResult& b) {
  ASSERT_TRUE(a.ok()) << a.failure_detail;
  ASSERT_TRUE(b.ok()) << b.failure_detail;
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].reachable_pairs, b.queries[i].reachable_pairs);
    EXPECT_EQ(a.queries[i].unreachable_pairs,
              b.queries[i].unreachable_pairs);
    EXPECT_EQ(a.queries[i].loop_free, b.queries[i].loop_free);
    EXPECT_EQ(a.queries[i].blackhole_finals, b.queries[i].blackhole_finals);
  }
  EXPECT_EQ(a.total_best_routes, b.total_best_routes);
}

class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo::FatTreeParams params;
    params.k = 4;
    net_ = new config::ParsedNetwork(
        testing::Parse(topo::MakeFatTree(params)));
  }
  static void TearDownTestSuite() {
    delete net_;
    net_ = nullptr;
  }
  static config::ParsedNetwork* net_;
};

config::ParsedNetwork* ChaosTest::net_ = nullptr;

// ISSUE acceptance criterion: ≥10% drop + 2 scheduled crashes produce
// results identical to the fault-free run.
TEST_F(ChaosTest, DropsAndCrashesAreInvisibleToVerdicts) {
  dp::Query query = AllPairQuery(*net_);
  RunOutcome clean = RunVerifier(*net_, query, /*shards=*/0, std::nullopt);
  RunOutcome chaotic = RunVerifier(*net_, query, /*shards=*/0, ChaosPlan());

  ExpectSameVerdicts(chaotic.result, clean.result);
  EXPECT_EQ(chaotic.ribs, clean.ribs);          // same final RIBs
  EXPECT_EQ(chaotic.fib_hashes, clean.fib_hashes);  // same FIB semantics

  // The faults actually happened — this was not a quiet run.
  EXPECT_EQ(chaotic.result.worker_recoveries, 2u);
  EXPECT_GT(chaotic.result.frames_dropped, 0u);
  EXPECT_GT(chaotic.result.retransmits, 0u);
  EXPECT_EQ(clean.result.worker_recoveries, 0u);
  EXPECT_EQ(clean.result.frames_dropped, 0u);
}

TEST_F(ChaosTest, ShardedRunSurvivesChaosToo) {
  dp::Query query = AllPairQuery(*net_);
  RunOutcome clean = RunVerifier(*net_, query, /*shards=*/5, std::nullopt);
  RunOutcome chaotic = RunVerifier(*net_, query, /*shards=*/5, ChaosPlan());
  ExpectSameVerdicts(chaotic.result, clean.result);
  EXPECT_EQ(chaotic.fib_hashes, clean.fib_hashes);
  EXPECT_EQ(chaotic.result.worker_recoveries, 2u);
}

TEST_F(ChaosTest, DataPlaneCrashRestoresFromPredicateCheckpoint) {
  dp::Query query = AllPairQuery(*net_);
  RunOutcome clean = RunVerifier(*net_, query, /*shards=*/0, std::nullopt);
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.default_link.drop = 0.10;
  plan.crashes.push_back({fault::CrashPhase::kDataPlaneBuild, 0, 3});
  RunOutcome chaotic = RunVerifier(*net_, query, /*shards=*/0, plan);
  ExpectSameVerdicts(chaotic.result, clean.result);
  EXPECT_EQ(chaotic.fib_hashes, clean.fib_hashes);
  EXPECT_EQ(chaotic.result.worker_recoveries, 1u);
}

// Same plan + same seed ⇒ bit-identical fault schedule and results.
TEST_F(ChaosTest, FaultScheduleReplaysDeterministically) {
  dp::Query query = AllPairQuery(*net_);
  RunOutcome first = RunVerifier(*net_, query, /*shards=*/0, ChaosPlan());
  RunOutcome second = RunVerifier(*net_, query, /*shards=*/0, ChaosPlan());
  ExpectSameVerdicts(first.result, second.result);
  EXPECT_EQ(first.ribs, second.ribs);
  EXPECT_EQ(first.fib_hashes, second.fib_hashes);
  EXPECT_EQ(first.result.frames_dropped, second.result.frames_dropped);
  EXPECT_EQ(first.result.retransmits, second.result.retransmits);
  EXPECT_EQ(first.result.duplicates_suppressed,
            second.result.duplicates_suppressed);
  EXPECT_EQ(first.result.comm_bytes, second.result.comm_bytes);
}

// Pure reliability (no injector): the envelope itself must not change any
// result relative to the direct fabric.
TEST_F(ChaosTest, ReliableEnvelopeAloneChangesNothing) {
  dp::Query query = AllPairQuery(*net_);
  RunOutcome direct = RunVerifier(*net_, query, /*shards=*/0, std::nullopt);

  ControllerOptions options;
  options.num_workers = 4;
  options.reliable_delivery = true;
  core::S2Verifier verifier(options);
  core::VerifyResult result = verifier.Verify(*net_, {query});
  ExpectSameVerdicts(result, direct.result);
  EXPECT_EQ(FibHashes(verifier.last_controller()), direct.fib_hashes);
  EXPECT_EQ(result.retransmits, 0u);
  EXPECT_EQ(result.frames_dropped, 0u);
  EXPECT_EQ(result.worker_recoveries, 0u);
}

}  // namespace
}  // namespace s2::dist
