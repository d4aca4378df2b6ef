#include "cp/rib.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>

#include "util/status.h"

namespace s2::cp {

void Rib::ChargeRoute(const Route& route) {
  // Amortized accounting: the copy's fixed footprint only — the shared
  // tuple bytes are charged once by the AttrPool on first intern. The
  // pool's shadow counters track what the pre-flyweight layout would
  // have charged (DESIGN.md §4).
  if (tracker_) tracker_->Charge(route.UniqueBytes());
  if (pool_) pool_->ChargePlain(route.PlainBytes());
}

void Rib::ReleaseRoute(const Route& route) {
  if (tracker_) tracker_->Release(route.UniqueBytes());
  if (pool_) pool_->ReleasePlain(route.PlainBytes());
}

void Rib::Upsert(topo::NodeId from, const Route& route) {
  auto& per_neighbor = candidates_[route.prefix];
  auto it = per_neighbor.find(from);
  if (it != per_neighbor.end() && it->second == route) return;  // unchanged
  // Charge before mutating: a SimulatedOom mid-upsert must leave the maps
  // and the accounting consistent, or Clear() releases bytes that were
  // never charged (caught by the assertions CI leg).
  ChargeRoute(route);
  if (it != per_neighbor.end()) {
    ReleaseRoute(it->second);
    it->second = route;
  } else {
    per_neighbor.emplace(from, route);
    ++candidate_count_;
  }
  dirty_.insert(route.prefix);
}

void Rib::Withdraw(topo::NodeId from, const util::IpPrefix& prefix) {
  auto it = candidates_.find(prefix);
  if (it == candidates_.end()) return;
  auto candidate = it->second.find(from);
  if (candidate == it->second.end()) return;
  ReleaseRoute(candidate->second);
  it->second.erase(candidate);
  --candidate_count_;
  if (it->second.empty()) candidates_.erase(it);
  dirty_.insert(prefix);
}

std::vector<util::IpPrefix> Rib::RecomputeDirty(int max_paths) {
  std::vector<util::IpPrefix> changed;
  for (const util::IpPrefix& prefix : dirty_) {
    std::vector<Route> selected;
    auto it = candidates_.find(prefix);
    if (it != candidates_.end() && !it->second.empty()) {
      // Deterministic order: gather and sort by the full decision process.
      std::vector<const Route*> all;
      all.reserve(it->second.size());
      for (const auto& [from, route] : it->second) all.push_back(&route);
      std::sort(all.begin(), all.end(), [](const Route* a, const Route* b) {
        return BetterRoute(*a, *b);
      });
      selected.push_back(*all[0]);
      for (size_t i = 1;
           i < all.size() && selected.size() < size_t(max_paths); ++i) {
        if (EcmpEquivalent(*all[i], *all[0])) selected.push_back(*all[i]);
      }
    }
    auto best_it = best_.find(prefix);
    const bool had = best_it != best_.end();
    if (selected.empty()) {
      if (had) {
        for (const Route& r : best_it->second) ReleaseRoute(r);
        best_.erase(best_it);
        changed.push_back(prefix);
      }
    } else if (!had || best_it->second != selected) {
      // Charge the new set before releasing the old: on SimulatedOom the
      // partial charges are rolled back and best_ is untouched.
      size_t charged = 0;
      try {
        for (; charged < selected.size(); ++charged) {
          ChargeRoute(selected[charged]);
        }
      } catch (...) {
        for (size_t i = 0; i < charged; ++i) ReleaseRoute(selected[i]);
        throw;
      }
      if (had) {
        for (const Route& r : best_it->second) ReleaseRoute(r);
      }
      best_[prefix] = std::move(selected);
      changed.push_back(prefix);
    }
  }
  dirty_.clear();
  // Sort for determinism: callers iterate this to build exports.
  std::sort(changed.begin(), changed.end());
  return changed;
}

const std::vector<Route>* Rib::Best(const util::IpPrefix& prefix) const {
  auto it = best_.find(prefix);
  return it == best_.end() ? nullptr : &it->second;
}

bool Rib::HasContributor(const util::IpPrefix& prefix) const {
  // best_ is ordered by (family, address, length); covered prefixes sort
  // at or after the aggregate's own position and within its family.
  const util::IpAddress last = prefix.LastAddress();
  for (auto it = best_.lower_bound(prefix); it != best_.end(); ++it) {
    if (!prefix.Contains(it->first)) {
      if (it->first.family() != prefix.family() ||
          it->first.address() > last) {
        break;  // past the covered address range (or into the next family)
      }
      continue;
    }
    if (it->first != prefix) return true;
  }
  return false;
}

void Rib::SerializeState(std::vector<uint8_t>& out,
                         AttrTableBuilder& table) const {
  // Candidates, grouped by contributing neighbor (map order on both levels
  // keeps the bytes deterministic).
  std::map<topo::NodeId, std::vector<RouteUpdate>> by_neighbor;
  for (const auto& [prefix, per_neighbor] : candidates_) {
    for (const auto& [from, route] : per_neighbor) {
      by_neighbor[from].push_back(RouteUpdate{prefix, false, route});
    }
  }
  util::WireWriter w(out);
  w.U32(static_cast<uint32_t>(by_neighbor.size()));
  for (const auto& [from, updates] : by_neighbor) {
    w.U32(from);
    PutRoutesSection(out, updates, table);
  }
  // Best/ECMP sets, flattened in (prefix, rank) order.
  std::vector<RouteUpdate> best;
  for (const auto& [prefix, routes] : best_) {
    for (const Route& route : routes) {
      best.push_back(RouteUpdate{prefix, false, route});
    }
  }
  PutRoutesSection(out, best, table);
  // Dirty prefixes, encoded as withdraw entries (sorted: the set itself is
  // unordered and checkpoint bytes should not depend on hashing).
  std::vector<util::IpPrefix> dirty(dirty_.begin(), dirty_.end());
  std::sort(dirty.begin(), dirty.end());
  std::vector<RouteUpdate> marks;
  marks.reserve(dirty.size());
  for (const util::IpPrefix& prefix : dirty) {
    marks.push_back(RouteUpdate{prefix, true, Route{}});
  }
  PutRoutesSection(out, marks, table);
}

void Rib::RestoreState(util::WireReader& in, const AttrTable& table) {
  uint32_t groups = in.U32();
  for (uint32_t g = 0; g < groups; ++g) {
    topo::NodeId from = in.U32();
    for (RouteUpdate& update : GetRoutesSection(in, table)) {
      ChargeRoute(update.route);
      candidates_[update.prefix].emplace(from, std::move(update.route));
      ++candidate_count_;
    }
  }
  for (RouteUpdate& update : GetRoutesSection(in, table)) {
    ChargeRoute(update.route);
    best_[update.prefix].push_back(std::move(update.route));
  }
  for (const RouteUpdate& update : GetRoutesSection(in, table)) {
    dirty_.insert(update.prefix);
  }
}

void Rib::Clear() {
  if (tracker_) {
    for (const auto& [prefix, per_neighbor] : candidates_) {
      for (const auto& [from, route] : per_neighbor) ReleaseRoute(route);
    }
    for (const auto& [prefix, routes] : best_) {
      for (const Route& r : routes) ReleaseRoute(r);
    }
  }
  candidates_.clear();
  best_.clear();
  dirty_.clear();
  candidate_count_ = 0;
}

// ------------------------------------------------------------- RibStore

RibStore::RibStore() {
  std::error_code ec;
  std::filesystem::path dir = std::filesystem::temp_directory_path(ec);
  if (ec) {
    // Some standard libraries leave the rejected directory out of the
    // error; TMPDIR is the setting an operator would need to fix.
    const char* tmpdir = std::getenv("TMPDIR");
    throw util::SpillError("open", tmpdir ? tmpdir : "temp directory",
                           ec.value());
  }
  std::string name =
      (dir / ("s2-ribstore-" + std::to_string(::getpid()) + "-XXXXXX"))
          .string();
  fd_ = ::mkostemp(name.data(), O_CLOEXEC);
  if (fd_ < 0) throw util::SpillError("open", name, errno);
  // Unlinked at once: the segment lives exactly as long as the fd, so no
  // exit path (destructor, _Exit, SIGKILL) can leave it behind.
  ::unlink(name.c_str());
  path_ = std::move(name);
}

RibStore::RibStore(std::shared_ptr<const RibStore> base,
                   std::unordered_set<util::IpPrefix> masked)
    : RibStore() {
  base_ = std::move(base);
  masked_ = std::move(masked);
}

RibStore::~RibStore() { ::close(fd_); }

void RibStore::Append(int shard, topo::NodeId node,
                      const std::vector<uint8_t>& bytes) {
  Extent extent;
  extent.size = bytes.size();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    extent.offset = end_;
    end_ += extent.size;
  }
  for (size_t done = 0; done < bytes.size();) {
    ssize_t n = ::pwrite(fd_, bytes.data() + done, bytes.size() - done,
                         static_cast<off_t>(extent.offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw util::SpillError("write", path_, n < 0 ? errno : EIO);
    done += static_cast<size_t>(n);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  index_[node][shard] = extent;
}

std::vector<uint8_t> RibStore::ReadExtent(const Extent& extent) const {
  std::vector<uint8_t> bytes(extent.size);
  for (size_t done = 0; done < bytes.size();) {
    ssize_t n = ::pread(fd_, bytes.data() + done, bytes.size() - done,
                        static_cast<off_t>(extent.offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw util::SpillError("read", path_, n < 0 ? errno : EIO);
    done += static_cast<size_t>(n);
  }
  return bytes;
}

size_t RibStore::Write(
    int shard, topo::NodeId node,
    const std::map<util::IpPrefix, std::vector<Route>>& best,
    AttrPool* stats_pool) {
  std::vector<RouteUpdate> updates;
  for (const auto& [prefix, routes] : best) {
    for (const Route& route : routes) {
      updates.push_back(RouteUpdate{prefix, false, route});
    }
  }
  std::vector<uint8_t> bytes;
  SerializeRoutes(updates, bytes, stats_pool);
  Append(shard, node, bytes);
  std::lock_guard<std::mutex> lock(mutex_);
  bytes_written_ += bytes.size();
  routes_written_ += updates.size();
  for (const auto& [prefix, routes] : best) {
    routes_per_prefix_[prefix] += routes.size();
  }
  if (base_ != nullptr) {
    std::map<util::IpPrefix, std::vector<topo::NodeId>>& projection =
        projections_[node];
    for (const auto& [prefix, routes] : best) {
      if (routes.empty() ||
          routes.front().learned_from == topo::kInvalidNode) {
        continue;
      }
      std::vector<topo::NodeId>& hops = projection[prefix];
      for (const Route& route : routes) {
        if (std::find(hops.begin(), hops.end(), route.learned_from) ==
            hops.end()) {
          hops.push_back(route.learned_from);
        }
      }
    }
  }
  return updates.size();
}

void RibStore::SeedBlob(int shard, topo::NodeId node,
                        const std::vector<uint8_t>& bytes) {
  Append(shard, node, bytes);
}

std::map<topo::NodeId, std::vector<uint8_t>> RibStore::Blobs(
    int shard) const {
  std::vector<std::pair<topo::NodeId, Extent>> extents;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [node, shards] : index_) {
      auto it = shards.find(shard);
      if (it != shards.end()) extents.emplace_back(node, it->second);
    }
  }
  std::map<topo::NodeId, std::vector<uint8_t>> blobs;
  for (const auto& [node, extent] : extents) {
    blobs.emplace(node, ReadExtent(extent));
  }
  return blobs;
}

const std::map<util::IpPrefix, std::vector<topo::NodeId>>*
RibStore::Projection(topo::NodeId node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = projections_.find(node);
  return it == projections_.end() ? nullptr : &it->second;
}

size_t RibStore::CountRoutes(
    const std::unordered_set<util::IpPrefix>& prefixes) const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t total = 0;
  for (const util::IpPrefix& prefix : prefixes) {
    auto it = routes_per_prefix_.find(prefix);
    if (it != routes_per_prefix_.end()) total += it->second;
  }
  return total;
}

std::map<util::IpPrefix, std::vector<Route>> RibStore::ReadAll(
    topo::NodeId node, AttrPool& pool) const {
  std::map<int, Extent> extents;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(node);
    if (it != index_.end()) extents = it->second;
  }
  // Shards hold disjoint prefixes, so each merged[prefix] is filled from a
  // single extent.
  std::map<util::IpPrefix, std::vector<Route>> merged;
  for (const auto& [shard, extent] : extents) {
    for (RouteUpdate& update : DeserializeRoutes(ReadExtent(extent), pool)) {
      merged[update.prefix].push_back(std::move(update.route));
    }
  }
  if (base_ != nullptr) {
    // The base layer serves every prefix outside the mask; own spills stay
    // within the mask (the overlay contract), so the layers are disjoint.
    std::map<util::IpPrefix, std::vector<Route>> from_base =
        base_->ReadAll(node, pool);
    for (auto& [prefix, routes] : from_base) {
      if (masked_.count(prefix) != 0) continue;
      merged[prefix] = std::move(routes);
    }
  }
  return merged;
}

}  // namespace s2::cp
