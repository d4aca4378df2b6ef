// Control Plane Orchestrator (paper §3.2/§4.2, Algorithm 1).
//
// Schedules protocols in sequence (IGP before EGP), and for BGP runs the
// distributed fix-point computation one prefix shard at a time. Each round
// is two barrier-synchronized phases across workers (compute+ship, then
// deliver+merge); phases run on a thread pool, one task per worker.
//
// The CPO also accumulates the cost model's raw measurements: per-round
// critical-path worker busy time, serialized bytes, and GC-pressure
// penalties (DESIGN.md §3 — how 1-core hardware reports the parallel
// time a real deployment would see).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cp/shard.h"
#include "dist/handle.h"
#include "fault/injector.h"
#include "util/cost_model.h"
#include "util/thread_pool.h"

namespace s2::dist {

using CostModelParams = util::CostModelParams;

struct RoundMetrics {
  int rounds = 0;
  double wall_seconds = 0;     // real elapsed time on this machine
  double modeled_seconds = 0;  // Σ_rounds (max_w busy + comm + gc)
  size_t comm_bytes = 0;       // total sidecar traffic
  size_t comm_messages = 0;
  // BDD op-cache behavior during the phase, summed across the managers
  // involved (per-worker managers for distributed phases, the single manager
  // for mono runs). Deltas, not lifetime totals.
  size_t bdd_cache_hits = 0;
  size_t bdd_cache_misses = 0;
  size_t bdd_cache_evictions = 0;

  void Add(const RoundMetrics& other);
};

// Metrics of one shard's round set, recorded for the §7 prefix-parallelism
// analysis: since shards are computationally independent, executing them
// in parallel (one node replica per shard) would take max-over-shards time
// at sum-over-shards memory — both derivable from these records.
struct ShardMetrics {
  RoundMetrics rounds;
  size_t max_worker_peak = 0;  // highest per-worker peak within the shard
};

// Barrier callbacks wiring the CPO into the controller's fault machinery
// (src/fault). Active when checkpointing is installed: always under a
// fault plan, and always in process worker mode (real deaths need fresh
// checkpoints whether or not any fault is scheduled). The injector is
// additionally set only when a fault plan schedules crashes.
struct FaultHooks {
  fault::FaultInjector* injector = nullptr;
  // Control-plane rounds between periodic checkpoints; checkpoints are
  // also taken at every pass/shard begin barrier.
  int checkpoint_interval = 0;
  std::function<void(int shard)> checkpoint;      // snapshot every worker
  std::function<void(uint32_t worker)> recover;   // rebuild a crashed one
  bool active() const { return static_cast<bool>(checkpoint); }
};

class Cpo {
 public:
  Cpo(std::vector<std::unique_ptr<WorkerHandle>>* workers,
      SidecarFabric* fabric, util::ThreadPool* pool, CostModelParams cost,
      int max_rounds, FaultHooks hooks = {});

  // Full control-plane simulation: an OSPF pass when any device enables
  // OSPF, then BGP — one round set per shard of `plan`, spilling converged
  // results through the handles (`store` as for WorkerHandle::SpillBgp).
  RoundMetrics Run(bool any_ospf, const cp::ShardPlan& plan,
                   cp::RibStore* store);

  // Per-shard records of the last Run.
  const std::vector<ShardMetrics>& shard_metrics() const {
    return shard_metrics_;
  }
  // Highest per-worker peak observed across the whole run (worker peaks
  // are reset per shard to attribute them, so callers combine this with
  // the trackers' current peaks).
  size_t observed_peak() const { return observed_peak_; }

  // Cumulative control-plane rounds across passes and shards of the last
  // Run — the clock CrashEvent::round is scheduled against.
  int total_rounds() const { return cp_round_total_; }

 private:
  RoundMetrics RunRounds();
  void AtBarrier();  // end-of-round checkpoints and scheduled crashes
  double GcPenalty() const;
  size_t MaxWorkerPeakNow() const;

  std::vector<std::unique_ptr<WorkerHandle>>* workers_;
  SidecarFabric* fabric_;
  util::ThreadPool* pool_;
  CostModelParams cost_;
  int max_rounds_;
  FaultHooks hooks_;
  std::vector<ShardMetrics> shard_metrics_;
  size_t observed_peak_ = 0;
  int cp_round_total_ = 0;
  int current_shard_ = -1;
};

}  // namespace s2::dist
