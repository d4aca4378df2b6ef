#include "svc/snapshot.h"

#include <utility>

#include "dist/controller.h"

namespace s2::svc {

Snapshot CaptureSnapshot(const dist::Controller& controller) {
  Snapshot snapshot;
  snapshot.options = controller.options();
  snapshot.worker_of = controller.partition().assignment;
  // A private copy: the controller may be mutated or destroyed while
  // queries are still being served against this epoch.
  snapshot.network =
      std::make_shared<const config::ParsedNetwork>(controller.network());
  snapshot.rib_spills = controller.rib_store();
  for (size_t w = 0; w < controller.num_workers(); ++w) {
    const dist::Worker& worker = controller.worker(w);
    if (!worker.has_data_plane()) continue;
    snapshot.predicates.merge(worker.SnapshotPredicates());
    snapshot.fib_edges.insert(worker.fib_edges().begin(),
                              worker.fib_edges().end());
    snapshot.node_fib_bytes.insert(worker.node_fib_bytes().begin(),
                                   worker.node_fib_bytes().end());
  }
  snapshot.total_best_routes = controller.TotalBestRoutes();
  return snapshot;
}

// ------------------------------------------------------------ SnapshotRef

SnapshotRef::SnapshotRef(const SnapshotRef& other)
    : registry_(other.registry_), snapshot_(other.snapshot_) {
  if (registry_ && snapshot_) registry_->Pin(snapshot_->epoch);
}

SnapshotRef::SnapshotRef(SnapshotRef&& other) noexcept
    : registry_(other.registry_), snapshot_(std::move(other.snapshot_)) {
  other.registry_ = nullptr;
  other.snapshot_.reset();
}

SnapshotRef& SnapshotRef::operator=(const SnapshotRef& other) {
  if (this == &other) return *this;
  Release();
  registry_ = other.registry_;
  snapshot_ = other.snapshot_;
  if (registry_ && snapshot_) registry_->Pin(snapshot_->epoch);
  return *this;
}

SnapshotRef& SnapshotRef::operator=(SnapshotRef&& other) noexcept {
  if (this == &other) return *this;
  Release();
  registry_ = other.registry_;
  snapshot_ = std::move(other.snapshot_);
  other.registry_ = nullptr;
  other.snapshot_.reset();
  return *this;
}

void SnapshotRef::Release() {
  if (registry_ && snapshot_) registry_->Unpin(snapshot_->epoch);
  registry_ = nullptr;
  snapshot_.reset();
}

// ------------------------------------------------------- SnapshotRegistry

uint64_t SnapshotRegistry::Publish(Snapshot snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t epoch = next_epoch_++;
  snapshot.epoch = epoch;
  entries_[epoch].snapshot =
      std::make_shared<const Snapshot>(std::move(snapshot));
  current_ = epoch;
  ++published_;
  ReclaimLocked();
  return epoch;
}

SnapshotRef SnapshotRegistry::Acquire() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (current_ == 0) return SnapshotRef();
  Entry& entry = entries_.at(current_);
  ++entry.pins;
  return SnapshotRef(this, entry.snapshot);
}

SnapshotRegistry::Stats SnapshotRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.current_epoch = current_;
  stats.published = published_;
  stats.reclaimed = reclaimed_;
  stats.live_epochs = entries_.size();
  for (const auto& [epoch, entry] : entries_) stats.pinned_refs += entry.pins;
  return stats;
}

void SnapshotRegistry::PublishMetrics(obs::Registry& registry) const {
  Stats s = stats();
  registry.SetCounter("svc.snapshots.current_epoch",
                      static_cast<int64_t>(s.current_epoch));
  registry.SetCounter("svc.snapshots.published",
                      static_cast<int64_t>(s.published));
  registry.SetCounter("svc.snapshots.reclaimed",
                      static_cast<int64_t>(s.reclaimed));
  registry.SetCounter("svc.snapshots.live_epochs",
                      static_cast<int64_t>(s.live_epochs));
  registry.SetCounter("svc.snapshots.pinned_refs",
                      static_cast<int64_t>(s.pinned_refs));
}

void SnapshotRegistry::Pin(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(epoch);
  // A copied ref can outlive its epoch's registry entry (the shared_ptr
  // keeps the snapshot itself alive); only count pins on live entries.
  if (it != entries_.end()) ++it->second.pins;
}

void SnapshotRegistry::Unpin(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(epoch);
  if (it == entries_.end()) return;
  if (it->second.pins > 0) --it->second.pins;
  ReclaimLocked();
}

void SnapshotRegistry::ReclaimLocked() {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first != current_ && it->second.pins == 0) {
      it = entries_.erase(it);
      ++reclaimed_;
    } else {
      ++it;
    }
  }
}

}  // namespace s2::svc
