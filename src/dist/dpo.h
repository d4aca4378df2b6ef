// Data Plane Orchestrator (paper §3.2/§4.3).
//
// Workflow: first every worker computes FIBs and forwarding/ACL predicates
// for its nodes in parallel (each in its own BDD manager — the design that
// gives Fig 10 its predicate-phase speedup), then queries run as rounds of
// distributed symbolic forwarding: workers forward to local quiescence,
// cross-worker packets travel serialized through the sidecars, and the
// round loop continues until no worker moves a packet. Finals are gathered
// (serialized) into the controller's BDD domain for verdict computation.
#pragma once

#include "dist/cpo.h"  // CostModelParams, RoundMetrics
#include "dp/properties.h"

namespace s2::dist {

class Dpo {
 public:
  Dpo(std::vector<std::unique_ptr<WorkerHandle>>* workers,
      SidecarFabric* fabric, util::ThreadPool* pool, CostModelParams cost,
      Worker::Options worker_options = {});

  // Parallel FIB + predicate computation from the spilled RIBs in `store`
  // (null in process mode: children read their own). With `reuse`
  // (incremental what-if, core/incremental.h), only nodes in
  // reuse->rebuild recompute; all others adopt the converged base
  // artifacts.
  RoundMetrics BuildDataPlanes(
      const cp::RibStore* store,
      const Worker::ReusableDataPlane* reuse = nullptr);

  struct QueryRun {
    RoundMetrics metrics;
    // Finals re-encoded in the controller's manager via `gather_codec`.
    std::vector<dp::FinalPacket> finals;
    size_t gather_bytes = 0;
  };

  // The live sidecar path: drives every worker's own forwarding engine
  // through the fabric in barrier rounds.
  QueryRun RunQuery(const dp::Query& query,
                    const dp::PacketCodec& gather_codec);

  // Query-level parallelism: independent queries run concurrently, each on
  // its own QueryExecutor (dist/query_executor.h) over every worker —
  // per-worker BDD domains rebuilt from the workers' canonical predicate
  // bytes (SnapshotPredicates), shared-nothing, per-query and per-worker.
  // Its finals match RunQuery's byte for byte (pinned by the differential
  // tests). `lanes` bounds the modeled concurrency: per-query busy is
  // measured as thread-CPU time and the aggregate's modeled_seconds is the
  // LPT makespan of those busies over `lanes` slots (DESIGN.md §3 — this
  // 1-core box interleaves; the model reports what an L-thread box would).
  struct MultiQueryRun {
    std::vector<QueryRun> runs;  // per query, in input order
    RoundMetrics aggregate;
  };
  MultiQueryRun RunQueries(const std::vector<dp::Query>& queries,
                           const dp::PacketCodec& gather_codec,
                           size_t lanes);

 private:
  std::vector<std::unique_ptr<WorkerHandle>>* workers_;
  SidecarFabric* fabric_;
  util::ThreadPool* pool_;
  CostModelParams cost_;
  Worker::Options worker_options_;
};

}  // namespace s2::dist
