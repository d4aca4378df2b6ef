// A worker: one segment of the network plus the machinery to simulate and
// verify it (paper §3.2, "Workers").
//
// Control plane: real cp::Node objects for assigned switches, ShadowNodes
// for remote neighbors; synchronous phases driven by the CPO with all
// cross-worker traffic flowing through the sidecar fabric as serialized
// bytes.
//
// Data plane: one private forwarding domain, a bdd::Manager plus a
// dp::ForwardingEngine over every local node (§4.3, option 2: per-worker
// node tables). Symbolic packets crossing workers are serialized with
// bdd_io and re-encoded on arrival, batched per destination worker into
// kPacketBatch frames.
//
// Every byte of control- and data-plane state a worker holds is charged to
// its own MemoryTracker, whose budget makes per-worker OOM observable.
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "cp/engine.h"
#include "dist/query_executor.h"
#include "dist/shadow.h"
#include "dist/sidecar.h"
#include "dp/fib.h"
#include "fault/checkpoint.h"
#include "util/stopwatch.h"

namespace s2::dist {

class Worker {
 public:
  struct Options {
    size_t memory_budget = 0;   // bytes; 0 = unlimited
    size_t max_bdd_nodes = 0;   // 0 = unbounded node table
    dp::HeaderLayout layout;
    int max_hops = 24;
  };

  Worker(uint32_t index, const config::ParsedNetwork& network,
         SidecarFabric* fabric, Options options);

  uint32_t index() const { return index_; }
  util::MemoryTracker& tracker() { return tracker_; }
  // The worker's attribute-interning domain: inbound batches re-intern
  // here, and the RunReport's attr.* counters sum these per-worker stats.
  const cp::AttrPool& attr_pool() const { return attr_pool_; }
  const std::vector<topo::NodeId>& local_nodes() const { return local_; }
  bool IsLocal(topo::NodeId id) const {
    return fabric_->WorkerOf(id) == index_;
  }

  // ------------------------------------------------- control plane (CPO)
  void BeginOspf();
  void FinishOspf();
  void BeginBgp(const cp::PrefixSet* shard);

  // Phase A: one ComputeRound per local node, then ship every outbox entry
  // (local ones are buffered, remote ones serialized through the sidecar).
  // Returns true if any node produced updates.
  bool ComputeAndShip();

  // Phase B: drain the sidecar into shadow nodes, then let every local
  // node pull from each neighbor — real or shadow — identically.
  void Deliver();

  // Spills every local node's converged shard results to `store` (the
  // end of every BGP shard, an unsharded run's single shard included).
  // Returns the route entries written.
  size_t SpillBgp(cp::RibStore& store, int shard);

  // --------------------------------------------------- data plane (DPO)
  // Converged per-node artifacts an incremental what-if run adopts
  // verbatim for nodes its scenario provably leaves untouched
  // (core/incremental.h): every local node outside `rebuild`. The three
  // artifact maps must cover every reused node.
  struct ReusableDataPlane {
    const std::unordered_set<topo::NodeId>* rebuild = nullptr;
    // Canonical predicate bytes (fault::SerializePredicates).
    const NodePredicates* predicates = nullptr;
    const std::map<topo::NodeId, dp::ForwardEdgeList>* fib_edges = nullptr;
    const std::map<topo::NodeId, size_t>* fib_bytes = nullptr;
  };

  // Builds FIBs and port predicates for local nodes, replacing any
  // existing data plane. Reads converged BGP routes from `store`, where
  // every shard spilled them. With `reuse`, a local node
  // outside reuse->rebuild instead re-encodes the base run's predicate
  // bytes into the fresh domain (byte-equal predicates mean byte-equal
  // forwarding) and adopts its forward edges and FIB accounting.
  void BuildDataPlane(const cp::RibStore& store,
                      const ReusableDataPlane* reuse = nullptr);

  // Installs a query: waypoint write rules and injections at local
  // sources. Clears any previous query's runtime state.
  void PrepareQuery(const dp::Query& query);

  // One forwarding round, split in two barrier phases (mirroring the
  // CPO's ComputeAndShip/Deliver split): first every worker accepts the
  // serialized packets its sidecar holds, then every worker runs its local
  // engine to quiescence and ships cross-worker batches. The barrier
  // between the phases is what keeps the round partitioning — and with it
  // batching, coalescing, and finals fragmentation — independent of the
  // thread schedule. Each returns true if anything was processed/moved.
  bool AcceptPackets();
  bool ForwardAndShip();

  // Drains final packets, serialized for the controller (engine order).
  std::vector<SerializedFinal> TakeFinals();

  // Canonical predicate bytes of every local node (the FIB fingerprint;
  // also what Dpo::RunQueries rebuilds per-query domains from). With
  // `only` non-null, restricted to local nodes in that set — the
  // incremental engine serializes just the rebuilt nodes and copies the
  // base run's bytes for the rest.
  std::map<topo::NodeId, std::vector<uint8_t>> SnapshotPredicates(
      const std::unordered_set<topo::NodeId>* only = nullptr) const;

  bool has_data_plane() const { return engine_ != nullptr; }

  // Per local node, the (prefix, next hop) forward edges of its FIB —
  // retained by BuildDataPlane for snapshot capture (svc/snapshot.h) and
  // admission scoping. Empty after RestoreDataPlane (a checkpoint carries
  // predicates, not FIBs); the query service's lazy-scope fallback keeps
  // scoping sound on a recovered worker.
  const std::map<topo::NodeId, dp::ForwardEdgeList>& fib_edges() const {
    return fib_edges_;
  }

  // Per local node, Fib::EstimateBytes of the FIB behind its predicates —
  // what the incremental engine carries over for reused nodes so its
  // accounting matches a cold rebuild byte for byte. Empty after
  // RestoreDataPlane (checkpoints carry only the per-worker total).
  const std::map<topo::NodeId, size_t>& node_fib_bytes() const {
    return node_fib_bytes_;
  }

  // -------------------------------------------- crash recovery (src/fault)
  // Snapshots this worker's control-plane state at a barrier. `shard` is
  // the active shard index (-1 = none); the caller stamps fabric_round.
  fault::WorkerCheckpoint Checkpoint(int shard) const;

  // Adds the data-plane snapshot (canonical predicate bytes + FIB size) to
  // an existing checkpoint. Call after BuildDataPlane.
  void CheckpointDataPlane(fault::WorkerCheckpoint& checkpoint) const;

  // Restores a freshly constructed worker from a checkpoint. `shard` must
  // resolve checkpoint.shard against the live partition plan.
  void Restore(const fault::WorkerCheckpoint& checkpoint,
               const cp::PrefixSet* shard);

  // Re-executes the rounds lost between the checkpoint and the crash: for
  // each round in [from_round, to_round), one local compute with remote
  // sends suppressed (receivers already hold them — they are in the
  // surviving sidecar's custody), then the round's logged deliveries.
  // Because the checkpoint restores dirty marks exactly, this reproduces
  // the pre-crash state bit for bit.
  void ReplayDelivered(int from_round, int to_round,
                       const std::vector<fault::LoggedDelivery>& log);

  // Rebuilds the data-plane engine from checkpointed predicate bytes
  // (re-encoded into a fresh manager) instead of recomputing FIBs.
  void RestoreDataPlane(const fault::WorkerCheckpoint& checkpoint);

  // ------------------------------------------------------------- metrics
  // Wall time this worker spent computing in the last phase call.
  double last_phase_seconds() const { return last_phase_seconds_; }
  // Cumulative predicate-computation time (Fig 10's first phase).
  double predicate_seconds() const { return predicate_seconds_; }
  size_t forwarding_steps() const { return engine_ ? engine_->steps() : 0; }
  // BDD op-cache counters of the data-plane manager.
  bdd::Manager::CacheStats bdd_cache_stats() const {
    return manager_ ? manager_->cache_stats() : bdd::Manager::CacheStats{};
  }
  const cp::Node& node(topo::NodeId id) const { return *nodes_.at(id); }

 private:
  bool ComputeAndShipImpl(bool suppress_remote);
  void DeliverBatch(std::vector<Message> messages);
  // Frees the data-plane state and releases its FIB accounting (a no-op
  // on a worker without a data plane).
  void ResetDataPlane();
  // Replaces the data-plane domain with a fresh, empty one.
  void NewDataPlane();

  uint32_t index_;
  const config::ParsedNetwork* network_;
  SidecarFabric* fabric_;
  Options options_;
  util::MemoryTracker tracker_;
  // Declared after tracker_ (entries charge it) and before nodes_ /
  // shadows_ / local_pending_ (they hold handles into it).
  cp::AttrPool attr_pool_;

  std::vector<topo::NodeId> local_;
  std::unordered_map<topo::NodeId, std::unique_ptr<cp::Node>> nodes_;
  std::unordered_map<topo::NodeId, ShadowNode> shadows_;
  // Buffered same-worker deliveries of the current round: (to, from).
  std::map<std::pair<topo::NodeId, topo::NodeId>,
           std::vector<cp::RouteUpdate>>
      local_pending_;

  // Declared owner-first: the engine holds handles into the manager.
  std::unique_ptr<bdd::Manager> manager_;
  std::unique_ptr<dp::ForwardingEngine> engine_;
  size_t fib_bytes_ = 0;
  std::map<topo::NodeId, size_t> node_fib_bytes_;
  std::map<topo::NodeId, dp::ForwardEdgeList> fib_edges_;

  double last_phase_seconds_ = 0;
  double predicate_seconds_ = 0;
};

}  // namespace s2::dist
