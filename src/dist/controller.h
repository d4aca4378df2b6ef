// The S2 Controller (paper §3.2): parser + partitioner + CPO + DPO.
//
// Owns the parsed network, the partition, the sidecar fabric, the workers
// and their thread pool, and exposes the verification workflow phase by
// phase so the core facade (core/s2.h) and the benchmarks can time and
// meter each stage exactly as the paper's figures slice them.
#pragma once

#include <memory>
#include <optional>

#include "dist/dpo.h"
#include "dist/process.h"
#include "dist/transport.h"
#include "fault/plan.h"
#include "obs/registry.h"
#include "topo/partition.h"

namespace s2::dist {

struct ControllerOptions {
  uint32_t num_workers = 4;
  topo::PartitionScheme scheme = topo::PartitionScheme::kMetisLike;
  // Prefix shards (paper §4.5); 0 or 1 runs every prefix as one shard.
  // Either way each shard's converged routes are spilled to the RibStore
  // and the FIBs are built from there.
  int num_shards = 0;
  // Per-worker memory budget in bytes (0 = unlimited): the knob that makes
  // the paper's OOM crossovers observable at laptop scale.
  size_t worker_memory_budget = 0;
  size_t max_bdd_nodes = 0;
  dp::HeaderLayout layout;
  int max_hops = 24;
  int max_rounds = 1000;
  uint64_t seed = 1;
  CostModelParams cost;
  // Query-level parallelism for RunQueries: how many queries the modeled
  // schedule may run concurrently (0 = one per query, capped at 8).
  size_t query_lanes = 0;

  // Fault injection (src/fault): when set, the fabric runs the reliable-
  // delivery envelope perturbed by this plan, workers are checkpointed at
  // barriers, and scheduled crashes are recovered via RecoverWorker.
  std::optional<fault::FaultPlan> fault_plan;
  // Run the reliability envelope (sequence numbers, acks, retransmit
  // timers) even without a fault plan — what bench/fault_overhead.cc
  // measures against the default direct fabric.
  bool reliable_delivery = false;

  // Physical layer under the sidecar fabric (dist/transport.h):
  // kInProcess (default) is the deterministic test double; kUnixSocket /
  // kTcp move every cross-worker message over real loopback stream
  // sockets. Verdicts, predicate bytes, and route accounting are
  // transport-invariant; only timing and the transport.stream.* counters
  // change.
  TransportKind transport = TransportKind::kInProcess;
  TransportOptions transport_options;

  // Worker execution mode (dist/process.h): kInProcess (default) keeps the
  // historical byte-identical in-process workers; kProcess fork/execs one
  // s2_worker OS process per worker behind the same WorkerHandle interface,
  // with controller-side liveness monitoring and inline crash recovery.
  // Requires network.source_texts (children re-parse the configs). The
  // fabric always runs the reliable envelope with replay logs in this mode.
  WorkerMode worker_mode = WorkerMode::kInProcess;
  ProcessOptions process_options;
};

class Controller {
 public:
  Controller(config::ParsedNetwork network, ControllerOptions options);
  ~Controller();

  // A shard plan and spill store built outside the controller — the
  // incremental what-if's synthetic closure shard and its overlay over a
  // converged base run's spills (core/incremental.h). In-process workers
  // only.
  struct PresetShards {
    cp::ShardPlan plan;
    std::shared_ptr<cp::RibStore> store;
  };

  // Partition the network, set up workers (real + shadow nodes) on a pool
  // of min(num_workers, hardware concurrency) threads, and take the shard
  // plan and spill store: `preset`'s when given, else a plan built from
  // options.num_shards with a store the controller opens here (process-
  // mode children each open their own). The control plane then runs one
  // round set per shard of the plan.
  void Setup(std::optional<PresetShards> preset = std::nullopt);

  // Distributed control-plane simulation, one round set per shard.
  RoundMetrics RunControlPlane();

  // Distributed FIB + predicate computation. With `reuse` (incremental
  // what-if; in-process workers only), nodes in reuse->rebuild recompute
  // FIB + predicates from the spill store and every other node adopts the
  // converged base artifacts.
  RoundMetrics BuildDataPlanes(
      const Worker::ReusableDataPlane* reuse = nullptr);

  struct QueryOutcome {
    dp::QueryResult result;
    RoundMetrics metrics;
    size_t gather_bytes = 0;
    size_t forwarding_steps = 0;
  };
  QueryOutcome RunQuery(const dp::Query& query);

  // Runs independent queries concurrently (Dpo::RunQueries): per-query
  // rebuilt worker domains, finals gathered and evaluated in input order.
  // `aggregate.modeled_seconds` is the LPT makespan over query_lanes.
  struct MultiQueryOutcome {
    std::vector<QueryOutcome> outcomes;  // per query, in input order
    RoundMetrics aggregate;
  };
  MultiQueryOutcome RunQueries(const std::vector<dp::Query>& queries);

  // ------------------------------------------------------------- metrics
  // Highest per-worker peak memory (the paper's "per-worker peak memory").
  size_t MaxWorkerPeakBytes() const;
  std::vector<size_t> WorkerPeakBytes() const;
  size_t TotalCommBytes() const { return fabric_->total_bytes(); }
  // Converged best-route entries spilled across the network (an ECMP set
  // counts once per path — RibStore::routes_written's measure, which the
  // benchmarks report across verifiers).
  size_t TotalBestRoutes() const;

  const topo::PartitionResult& partition() const { return partition_; }
  const cp::ShardPlan& shard_plan() const { return plan_; }
  // Per-shard control-plane metrics of the last run (§7 prefix-parallelism
  // analysis; one entry for an unsharded run).
  const std::vector<ShardMetrics>& shard_metrics() const {
    return cpo_->shard_metrics();
  }
  const config::ParsedNetwork& network() const { return network_; }
  const ControllerOptions& options() const { return options_; }
  // The in-process worker behind handle `index`. Only valid in in_process
  // worker mode (callers needing rich worker state — snapshot capture,
  // incremental what-if — are gated off in process mode).
  Worker& worker(size_t index) { return *handles_[index]->local(); }
  const Worker& worker(size_t index) const {
    return *handles_[index]->local();
  }
  WorkerHandle& handle(size_t index) { return *handles_[index]; }
  const WorkerHandle& handle(size_t index) const { return *handles_[index]; }
  size_t num_workers() const { return handles_.size(); }
  // The converged RIB spill store (null in process mode, where the
  // children hold the spills). Shared so a published svc::Snapshot can
  // keep the spills alive past this controller's lifetime; the store is
  // read-only after convergence.
  std::shared_ptr<const cp::RibStore> rib_store() const { return store_; }

  // ------------------------------------------------ fault tolerance
  // Rebuilds worker `w` from its latest checkpoint and replays the rounds
  // it lost (fault/checkpoint.h). Called by the CPO's barrier hook for
  // scheduled crashes; public so tests can crash workers directly.
  void RecoverWorker(uint32_t w);

  // Snapshots every worker (also truncates the fabric replay logs).
  void CheckpointWorkers(int shard);

  const fault::FaultInjector* injector() const { return injector_.get(); }
  // Process/liveness counters (null in in_process mode).
  const ProcessStats* process_stats() const { return process_stats_.get(); }
  // Total recoveries: explicit (scheduled faults, tests) plus any a
  // process-backed handle performed inline on a detected death/hang.
  size_t worker_recoveries() const {
    size_t total = worker_recoveries_;
    for (const auto& handle : handles_) total += handle->recoveries();
    return total;
  }
  const SidecarFabric& fabric() const { return *fabric_; }

  // Publishes everything the controller can observe into `registry`:
  // per-worker peaks and fabric counters (bytes/messages/queue depth),
  // per-shard control-plane metrics, reliable-transport stats, and
  // recovery counts. The facade combines this with the per-phase
  // RoundMetrics into the RunReport (core/report.h).
  void PublishMetrics(obs::Registry& registry) const;

 private:
  config::ParsedNetwork network_;
  ControllerOptions options_;
  Worker::Options worker_options_;

  topo::PartitionResult partition_;
  cp::ShardPlan plan_;
  std::shared_ptr<cp::RibStore> store_;
  // Declared before handles_: ProcessWorkerHandle destructors (Shutdown)
  // still tick these counters, so the stats must outlive the handles.
  std::unique_ptr<ProcessStats> process_stats_;
  std::unique_ptr<SidecarFabric> fabric_;
  std::vector<std::unique_ptr<WorkerHandle>> handles_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<Cpo> cpo_;
  std::unique_ptr<Dpo> dpo_;

  // The controller's own BDD domain for verdict computation over gathered
  // finals.
  std::unique_ptr<bdd::Manager> gather_manager_;

  // Fault machinery (null/empty without a fault plan).
  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<fault::WorkerCheckpoint> checkpoints_;
  size_t worker_recoveries_ = 0;
};

}  // namespace s2::dist
