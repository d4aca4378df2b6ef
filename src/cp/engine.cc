#include "cp/engine.h"

#include "util/status.h"

namespace s2::cp {

MonoEngine::MonoEngine(const config::ParsedNetwork& network,
                       util::MemoryTracker* tracker, EngineOptions options)
    : network_(&network), tracker_(tracker), options_(options),
      pool_(tracker) {
  nodes_.reserve(network.configs.size());
  for (topo::NodeId id = 0; id < network.configs.size(); ++id) {
    nodes_.push_back(std::make_unique<Node>(id, network, tracker, &pool_));
  }
}

int MonoEngine::RunRounds() {
  int rounds = 0;
  for (;;) {
    util::Stopwatch round_watch;
    // Phase A: every node computes and fills outboxes.
    bool any = false;
    for (auto& node : nodes_) any = node->ComputeRound() || any;
    if (!any) {
      stats_.compute_seconds += round_watch.ElapsedSeconds();
      stats_.modeled_seconds += round_watch.ElapsedSeconds();
      break;
    }
    // Phase B: every node pulls from each neighbor (paper Alg. 1).
    for (auto& node : nodes_) {
      for (const Node::Session& session : node->sessions()) {
        std::vector<RouteUpdate> updates =
            nodes_[session.peer]->TakeUpdatesFor(node->id());
        if (!updates.empty()) node->ReceiveUpdates(session.peer, updates);
      }
    }
    double round_seconds = round_watch.ElapsedSeconds();
    stats_.compute_seconds += round_seconds;
    // The monolithic engine pays the same per-round costs the cost model
    // charges a single worker: a thread barrier and (when memory is
    // tight) GC pauses.
    stats_.modeled_seconds +=
        round_seconds + options_.cost.round_latency_seconds;
    if (tracker_) {
      stats_.modeled_seconds +=
          util::GcPenaltySeconds(*tracker_, options_.cost);
    }
    if (++rounds > options_.max_rounds_per_pass) {
      throw util::SimulatedTimeout("control plane did not converge within " +
                                   std::to_string(rounds) + " rounds");
    }
  }
  return rounds;
}

void MonoEngine::Run(const ShardPlan& plan, RibStore& store) {
  // IGP pass first (§4.2: IGP protocols before EGP).
  bool any_ospf = false;
  for (const config::ViConfig& config : network_->configs) {
    any_ospf = any_ospf || config.ospf.enabled;
  }
  if (any_ospf) {
    for (auto& node : nodes_) node->BeginOspf();
    stats_.ospf_rounds = RunRounds();
    for (auto& node : nodes_) node->FinishOspf();
  }

  for (size_t shard = 0; shard < plan.num_shards(); ++shard) {
    for (auto& node : nodes_) node->BeginBgp(&plan.shard(shard));
    stats_.bgp_rounds += RunRounds();
    ++stats_.shards_executed;
    // Route entries (an ECMP set contributes one per path), matching the
    // RibStore's routes_written measure.
    for (auto& node : nodes_) {
      stats_.total_best_routes +=
          node->SpillBgp(store, static_cast<int>(shard));
    }
  }
}

}  // namespace s2::cp
