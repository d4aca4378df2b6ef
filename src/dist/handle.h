// Worker handles: the controller-side face of one worker, independent of
// where the worker actually executes.
//
// The CPO/DPO/Controller drive workers exclusively through this interface.
// `LocalWorkerHandle` owns an in-process `dist::Worker` — the historical
// (and byte-identical default) execution mode. `ProcessWorkerHandle`
// (dist/process.h) speaks a length-framed control channel to a `s2_worker`
// child process and adds liveness monitoring plus inline crash recovery.
#pragma once

#include <memory>
#include <vector>

#include "dist/worker.h"

namespace s2::dist {

class WorkerHandle {
 public:
  virtual ~WorkerHandle() = default;

  // ------------------------------------------------- control plane (CPO)
  virtual void BeginOspf() = 0;
  virtual void FinishOspf() = 0;
  // `shard_index` is the plan index behind `shard`; a process-backed
  // worker re-derives the prefix set from the index so the shard never
  // crosses the wire.
  virtual void BeginBgp(const cp::PrefixSet* shard, int shard_index) = 0;
  virtual bool ComputeAndShip() = 0;
  virtual void Deliver() = 0;
  // Spills the converged shard `shard` and counts its routes into
  // spilled_routes(). `store` is the controller's spill store; it is null
  // in process mode, where each child spills into a segment of its own.
  virtual void SpillBgp(cp::RibStore* store, int shard) = 0;

  // --------------------------------------------------- data plane (DPO)
  // Builds FIBs from the spills (`store` as for SpillBgp).
  virtual void BuildDataPlane(const cp::RibStore* store) = 0;
  virtual std::map<topo::NodeId, std::vector<uint8_t>>
  SnapshotPredicates() = 0;
  virtual bool has_data_plane() const = 0;

  // -------------------------------------------- crash recovery (src/fault)
  virtual fault::WorkerCheckpoint Checkpoint(int shard) = 0;
  virtual void CheckpointDataPlane(fault::WorkerCheckpoint& checkpoint) = 0;
  // Rebuilds the worker from `checkpoint` and replays rounds
  // [checkpoint.fabric_round, to_round) from `log`. For a process-backed
  // worker this kills any live child first (a scheduled fault), respawns,
  // and re-ships checkpoint + spills + log.
  virtual void Recover(const fault::WorkerCheckpoint& checkpoint,
                       const cp::PrefixSet* shard, int to_round,
                       const std::vector<fault::LoggedDelivery>& log) = 0;
  // Recoveries this handle performed on its own (liveness-detected deaths
  // and hangs); explicit Recover calls are counted by the controller.
  virtual size_t recoveries() const { return 0; }

  // ------------------------------------------------------------- metrics
  virtual double last_phase_seconds() const = 0;
  virtual size_t live_bytes() const = 0;
  virtual size_t peak_bytes() const = 0;
  virtual void ResetPeak() = 0;
  // live/budget fraction (0 when unlimited) — the GC-pressure input.
  virtual double gc_pressure() const = 0;
  // Tracker charged by controller-side per-query BDD domains
  // (Dpo::RunQueries). The worker's own tracker for a local worker; a
  // handle-local tracker with the same budget for a process-backed one.
  virtual util::MemoryTracker& query_tracker() = 0;
  virtual bdd::Manager::CacheStats bdd_cache_stats() const = 0;
  virtual size_t forwarding_steps() const = 0;
  virtual cp::AttrPool::Stats attr_stats() const = 0;
  // Converged best-route entries this worker has spilled (an ECMP set
  // counts once per path).
  size_t spilled_routes() const { return spilled_routes_; }
  // PIDs of every OS process this handle ever spawned (empty for local
  // workers); tests assert none survive teardown.
  virtual std::vector<int> spawned_pids() const { return {}; }

  // The in-process worker behind this handle, or nullptr for a
  // process-backed one. Callers needing rich in-process state (snapshot
  // capture, incremental what-if, Dpo::RunQuery's engine loop) go through
  // this and are gated off in process mode.
  virtual Worker* local() = 0;
  const Worker* local() const {
    return const_cast<WorkerHandle*>(this)->local();
  }

 protected:
  size_t spilled_routes_ = 0;
};

// The historical in-process execution mode. Every call forwards to the
// owned Worker, so in_process runs are byte-identical to the pre-handle
// code path.
class LocalWorkerHandle : public WorkerHandle {
 public:
  LocalWorkerHandle(uint32_t index, const config::ParsedNetwork& network,
                    SidecarFabric* fabric, Worker::Options options);

  void BeginOspf() override;
  void FinishOspf() override;
  void BeginBgp(const cp::PrefixSet* shard, int shard_index) override;
  bool ComputeAndShip() override;
  void Deliver() override;
  void SpillBgp(cp::RibStore* store, int shard) override;

  void BuildDataPlane(const cp::RibStore* store) override;
  std::map<topo::NodeId, std::vector<uint8_t>> SnapshotPredicates() override;
  bool has_data_plane() const override;

  fault::WorkerCheckpoint Checkpoint(int shard) override;
  void CheckpointDataPlane(fault::WorkerCheckpoint& checkpoint) override;
  void Recover(const fault::WorkerCheckpoint& checkpoint,
               const cp::PrefixSet* shard, int to_round,
               const std::vector<fault::LoggedDelivery>& log) override;

  double last_phase_seconds() const override;
  size_t live_bytes() const override;
  size_t peak_bytes() const override;
  void ResetPeak() override;
  double gc_pressure() const override;
  util::MemoryTracker& query_tracker() override;
  bdd::Manager::CacheStats bdd_cache_stats() const override;
  size_t forwarding_steps() const override;
  cp::AttrPool::Stats attr_stats() const override;

  Worker* local() override { return worker_.get(); }

 private:
  uint32_t index_;
  const config::ParsedNetwork* network_;
  SidecarFabric* fabric_;
  Worker::Options options_;
  std::unique_ptr<Worker> worker_;
};

}  // namespace s2::dist
