// Verification-as-a-service, part 1: the servable artifact.
//
// A converged S2 run (control plane + data planes) is captured as an
// immutable Snapshot: per-node canonical predicate bytes (the FIB BDD
// roots in bdd_io's structural encoding), the per-node forward-edge index
// for admission scoping, the partition map, and shared handles to the
// parsed network and the RIB spill store. It is the one capture of a
// converged run: a QueryService answers reachability/loop/waypoint
// queries from it without re-running the control plane, and
// core::VerifyIncremental re-verifies what-if scenarios against it.
//
// The SnapshotRegistry publishes snapshots under monotonically increasing
// epochs with epoch-based reclaim: a republish makes the new epoch current
// immediately, while in-flight queries keep the epoch they pinned (an RAII
// SnapshotRef) alive until they finish. A non-current epoch with zero pins
// is reclaimed; the current epoch is never reclaimed. Use-after-reclaim is
// structurally impossible — a ref holds shared ownership — but the
// registry's pin counts make the reclaim protocol observable and testable.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "config/parser.h"
#include "cp/rib.h"
#include "cp/shard.h"
#include "dist/controller.h"
#include "dist/query_executor.h"
#include "dp/fib.h"
#include "obs/registry.h"

namespace s2::svc {

struct Snapshot {
  // Stamped by SnapshotRegistry::Publish; 0 = never published.
  uint64_t epoch = 0;

  // The option set of the run that converged: serving domains take their
  // header format, hop and BDD-node limits and worker count from it, and
  // an incremental what-if re-run of a scenario inherits it
  // (core/incremental.h).
  dist::ControllerOptions options;
  // The shard plan whose converged spills rib_spills holds (nullopt when
  // sharding was off; what-if then degrades to a full re-run).
  std::optional<cp::ShardPlan> shard_plan;

  // worker_of[node] = owning worker (the partition assignment).
  std::vector<uint32_t> worker_of;

  // Shared, read-only after convergence: the parsed network (verdict
  // evaluation needs announced prefixes) and the per-shard RIB spills
  // (null when sharding was off).
  std::shared_ptr<const config::ParsedNetwork> network;
  std::shared_ptr<const cp::RibStore> rib_spills;

  // Per node: canonical predicate bytes (bdd_io structural encoding —
  // equal bytes mean equal forwarding semantics).
  dist::NodePredicates predicates;

  // Per node: (prefix, next hop) FIB forward edges — the admission-scoping
  // index. May be empty for recovered workers (see Worker::fib_edges).
  std::map<topo::NodeId, dp::ForwardEdgeList> fib_edges;

  // Per node, Fib::EstimateBytes of the FIB behind its predicates — lets
  // an incremental re-run account reused nodes exactly as a cold rebuild
  // would. May be empty for recovered workers (like fib_edges).
  std::map<topo::NodeId, size_t> node_fib_bytes;

  size_t total_best_routes = 0;
};

// Captures the controller's converged state. Requires RunControlPlane and
// BuildDataPlanes to have completed (every worker holds a data plane).
Snapshot CaptureSnapshot(const dist::Controller& controller);

class SnapshotRegistry;

// RAII pin on one published epoch. Copyable (re-pins); the pinned
// snapshot stays readable for the ref's lifetime even across republish
// and reclaim of its epoch.
class SnapshotRef {
 public:
  SnapshotRef() = default;
  ~SnapshotRef() { Release(); }
  SnapshotRef(const SnapshotRef& other);
  SnapshotRef(SnapshotRef&& other) noexcept;
  SnapshotRef& operator=(const SnapshotRef& other);
  SnapshotRef& operator=(SnapshotRef&& other) noexcept;

  explicit operator bool() const { return snapshot_ != nullptr; }
  const Snapshot& operator*() const { return *snapshot_; }
  const Snapshot* operator->() const { return snapshot_.get(); }
  const Snapshot* get() const { return snapshot_.get(); }
  uint64_t epoch() const { return snapshot_ ? snapshot_->epoch : 0; }

  // Drops the pin early (idempotent).
  void Release();

 private:
  friend class SnapshotRegistry;
  SnapshotRef(SnapshotRegistry* registry,
              std::shared_ptr<const Snapshot> snapshot)
      : registry_(registry), snapshot_(std::move(snapshot)) {}

  SnapshotRegistry* registry_ = nullptr;
  std::shared_ptr<const Snapshot> snapshot_;
};

class SnapshotRegistry {
 public:
  struct Stats {
    uint64_t current_epoch = 0;  // 0 = nothing published yet
    size_t published = 0;        // total Publish calls
    size_t reclaimed = 0;        // epochs whose entry was dropped
    size_t live_epochs = 0;      // entries still held by the registry
    size_t pinned_refs = 0;      // outstanding pins across all epochs
  };

  // Publishes `snapshot` as the new current epoch and returns the epoch.
  // Non-current epochs with no outstanding pins are reclaimed here (and on
  // every unpin), so republish coexists with in-flight queries.
  uint64_t Publish(Snapshot snapshot);

  // Pins the current epoch; an empty ref if nothing is published.
  SnapshotRef Acquire();

  Stats stats() const;

  // svc.snapshots.* counters.
  void PublishMetrics(obs::Registry& registry) const;

 private:
  friend class SnapshotRef;
  void Pin(uint64_t epoch);
  void Unpin(uint64_t epoch);
  void ReclaimLocked();

  struct Entry {
    std::shared_ptr<const Snapshot> snapshot;
    size_t pins = 0;
  };

  mutable std::mutex mutex_;
  std::map<uint64_t, Entry> entries_;
  uint64_t current_ = 0;
  uint64_t next_epoch_ = 1;
  size_t published_ = 0;
  size_t reclaimed_ = 0;
};

}  // namespace s2::svc
