#include "dist/cpo.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace s2::dist {

void RoundMetrics::Add(const RoundMetrics& other) {
  rounds += other.rounds;
  wall_seconds += other.wall_seconds;
  modeled_seconds += other.modeled_seconds;
  comm_bytes += other.comm_bytes;
  comm_messages += other.comm_messages;
  bdd_cache_hits += other.bdd_cache_hits;
  bdd_cache_misses += other.bdd_cache_misses;
  bdd_cache_evictions += other.bdd_cache_evictions;
}

Cpo::Cpo(std::vector<std::unique_ptr<WorkerHandle>>* workers,
         SidecarFabric* fabric, util::ThreadPool* pool, CostModelParams cost,
         int max_rounds, FaultHooks hooks)
    : workers_(workers),
      fabric_(fabric),
      pool_(pool),
      cost_(cost),
      max_rounds_(max_rounds),
      hooks_(std::move(hooks)) {}

double Cpo::GcPenalty() const {
  // Same formula as util::GcPenaltySeconds, fed from the handle's mirror
  // of the worker's tracker (which may live in another process).
  double worst = 0;
  for (const auto& worker : *workers_) {
    if (worker->gc_pressure() <= cost_.gc_pressure_threshold) continue;
    worst = std::max(worst, cost_.gc_seconds_per_gb *
                                (static_cast<double>(worker->live_bytes()) /
                                 1e9));
  }
  return worst;
}

RoundMetrics Cpo::RunRounds() {
  RoundMetrics metrics;
  util::Stopwatch wall;
  size_t num_workers = workers_->size();
  std::vector<char> produced(num_workers, 0);
  for (;;) {
    obs::Span round_span("cp", "cp.round");
    round_span.Arg("shard", current_shard_);
    round_span.Arg("round", cp_round_total_);
    // Phase A (barrier): every worker computes its nodes' round and ships
    // outboxes through its sidecar.
    size_t bytes_before = fabric_->total_bytes();
    pool_->ParallelFor(num_workers, [&](size_t w) {
      produced[w] = (*workers_)[w]->ComputeAndShip() ? 1 : 0;
    });
    double busy_a = 0;
    bool any = false;
    for (size_t w = 0; w < num_workers; ++w) {
      busy_a = std::max(busy_a, (*workers_)[w]->last_phase_seconds());
      any = any || produced[w];
    }
    // Global fix point: no worker produced updates AND the fabric is
    // quiescent (in reliable mode, in-flight/delayed/unacked frames keep
    // the rounds going until every message is delivered and acked).
    if (!any && !fabric_->HasPending()) break;

    // Phase B (barrier): deliver and merge.
    pool_->ParallelFor(num_workers,
                       [&](size_t w) { (*workers_)[w]->Deliver(); });
    double busy_b = 0;
    for (size_t w = 0; w < num_workers; ++w) {
      busy_b = std::max(busy_b, (*workers_)[w]->last_phase_seconds());
    }
    size_t bytes_after = fabric_->total_bytes();
    metrics.comm_bytes += bytes_after - bytes_before;
    metrics.modeled_seconds +=
        busy_a + busy_b +
        double(bytes_after - bytes_before) / double(num_workers) /
            cost_.bandwidth_bytes_per_sec +
        GcPenalty() + cost_.round_latency_seconds;
    ++cp_round_total_;
    AtBarrier();
    if (++metrics.rounds > max_rounds_) {
      throw util::SimulatedTimeout(
          "distributed control plane did not converge within " +
          std::to_string(metrics.rounds) + " rounds");
    }
  }
  metrics.wall_seconds = wall.ElapsedSeconds();
  return metrics;
}

void Cpo::AtBarrier() {
  if (!hooks_.active()) return;
  // Checkpoint first: a crash due at the same barrier then recovers from
  // the freshest possible snapshot with an empty replay window.
  if (hooks_.checkpoint_interval > 0 &&
      cp_round_total_ % hooks_.checkpoint_interval == 0) {
    hooks_.checkpoint(current_shard_);
  }
  if (hooks_.injector == nullptr) return;
  for (uint32_t w : hooks_.injector->TakeCrashes(
           fault::CrashPhase::kControlPlaneRound, cp_round_total_)) {
    hooks_.recover(w);
  }
}

size_t Cpo::MaxWorkerPeakNow() const {
  size_t peak = 0;
  for (const auto& worker : *workers_) {
    peak = std::max(peak, worker->peak_bytes());
  }
  return peak;
}

RoundMetrics Cpo::Run(bool any_ospf, const cp::ShardPlan& plan,
                      cp::RibStore* store) {
  RoundMetrics total;
  shard_metrics_.clear();
  observed_peak_ = 0;
  cp_round_total_ = 0;
  if (any_ospf) {
    obs::Span span("cp", "cp.ospf_pass");
    pool_->ParallelFor(workers_->size(),
                       [&](size_t w) { (*workers_)[w]->BeginOspf(); });
    current_shard_ = -1;
    if (hooks_.active()) hooks_.checkpoint(-1);
    total.Add(RunRounds());
    pool_->ParallelFor(workers_->size(),
                       [&](size_t w) { (*workers_)[w]->FinishOspf(); });
  }
  for (size_t shard = 0; shard < plan.num_shards(); ++shard) {
    obs::Span span("cp", "cp.shard");
    span.Arg("shard", static_cast<int64_t>(shard));
    const cp::PrefixSet* prefixes = &plan.shard(shard);
    // Reset per-worker peaks so the shard's own peak is attributable
    // (the paper's per-round peak memory, Fig 9).
    observed_peak_ = std::max(observed_peak_, MaxWorkerPeakNow());
    for (const auto& worker : *workers_) worker->ResetPeak();
    pool_->ParallelFor(workers_->size(), [&](size_t w) {
      (*workers_)[w]->BeginBgp(prefixes, static_cast<int>(shard));
    });
    current_shard_ = static_cast<int>(shard);
    if (hooks_.active()) hooks_.checkpoint(current_shard_);
    ShardMetrics metrics;
    metrics.rounds = RunRounds();
    total.Add(metrics.rounds);
    // End of shard round: spill to persistent storage, freeing worker
    // memory before the next shard (§4.5).
    pool_->ParallelFor(workers_->size(), [&](size_t w) {
      (*workers_)[w]->SpillBgp(store, static_cast<int>(shard));
    });
    if (hooks_.active()) hooks_.checkpoint(current_shard_);
    metrics.max_worker_peak = MaxWorkerPeakNow();
    observed_peak_ = std::max(observed_peak_, metrics.max_worker_peak);
    span.Arg("rounds", metrics.rounds.rounds);
    span.Arg("peak_bytes", static_cast<int64_t>(metrics.max_worker_peak));
    shard_metrics_.push_back(metrics);
  }
  return total;
}

}  // namespace s2::dist
