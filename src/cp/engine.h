// Monolithic control-plane simulation engine — the "Batfish" baseline:
// every node lives in one process/domain, rounds run over all of them,
// and prefix sharding splits the computation into rounds per shard (the
// paper also evaluates "Batfish + prefix sharding", Fig 4; plain Batfish
// is the one-shard plan).
//
// The round structure is the synchronous two-phase exchange described in
// cp/node.h; the distributed engine (dist/) runs the *same* phases with
// barriers across workers, which is why the two produce identical RIBs —
// the invariant the integration tests pin down.
#pragma once

#include <memory>
#include <vector>

#include "cp/node.h"
#include "cp/shard.h"
#include "util/cost_model.h"
#include "util/memory_tracker.h"
#include "util/stopwatch.h"

namespace s2::cp {

struct EngineOptions {
  // Fixed-point safety valve: exceeding this raises SimulatedTimeout
  // (the paper's §7 limitation: a non-converging control plane).
  int max_rounds_per_pass = 1000;
  // The GC-pressure cost model (DESIGN.md §3), applied per round against
  // the engine's tracker to produce modeled_seconds.
  util::CostModelParams cost;
};

struct EngineStats {
  int ospf_rounds = 0;
  int bgp_rounds = 0;       // summed over shards
  int shards_executed = 0;
  double compute_seconds = 0;  // wall time spent in node computation
  double modeled_seconds = 0;  // wall + per-round GC penalties
  size_t total_best_routes = 0;
};

class MonoEngine {
 public:
  MonoEngine(const config::ParsedNetwork& network,
             util::MemoryTracker* tracker, EngineOptions options = {});

  // Runs the full protocol sequence (IGP before EGP, §4.2): an OSPF pass
  // if any device enables OSPF, then BGP one shard of `plan` at a time,
  // spilling each converged shard to `store` — the only home of converged
  // BGP routes (an unsharded run is a one-shard plan).
  void Run(const ShardPlan& plan, RibStore& store);

  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }
  Node& node(topo::NodeId id) { return *nodes_[id]; }
  const EngineStats& stats() const { return stats_; }

  // The engine's attribute-interning domain (diagnostics / benchmarks).
  const AttrPool& attr_pool() const { return pool_; }
  AttrPool& attr_pool() { return pool_; }

 private:
  // Runs synchronous rounds until the fix point; returns rounds executed.
  int RunRounds();

  const config::ParsedNetwork* network_;
  util::MemoryTracker* tracker_;
  EngineOptions options_;
  // Declared before nodes_: nodes release their interned handles on
  // destruction, so the pool must be destroyed last.
  AttrPool pool_;
  std::vector<std::unique_ptr<Node>> nodes_;
  EngineStats stats_;
};

}  // namespace s2::cp
