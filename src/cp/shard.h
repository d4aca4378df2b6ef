// Prefix sharding (paper §4.5).
//
// Route computations for different prefixes are mostly independent; the
// exceptions are (a) aggregates, which activate based on contributing
// (covered) prefixes, and (b) conditional advertisements, which watch
// another prefix. Both become edges of the directed prefix dependency
// graph (DPDG). Shards are built from the DPDG's weakly connected
// components with a largest-first greedy packing; components of equal size
// are shuffled so shards don't end up dominated by prefixes originating
// from switches on the same worker (the paper's balance note).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "config/parser.h"
#include "cp/node.h"

namespace s2::cp {

// A partition of the BGP prefix universe into shards. Mutations go through
// Assign/Erase/Merge so the prefix->shard index stays consistent: ShardOf
// is O(1), which is what keeps ValidateShardPlan/RepairShardPlan linear in
// the number of dependency pairs (a linear-scan ShardOf made them
// superquadratic on real prefix counts).
class ShardPlan {
 public:
  size_t num_shards() const { return shards_.size(); }
  const std::vector<PrefixSet>& shards() const { return shards_; }
  const PrefixSet& shard(size_t i) const { return shards_[i]; }
  bool empty() const { return shards_.empty(); }

  // Every prefix lives in exactly one shard.
  size_t total_prefixes() const { return index_.size(); }

  // Index of the shard containing `prefix`, or -1.
  int ShardOf(const util::IpPrefix& prefix) const {
    auto it = index_.find(prefix);
    return it == index_.end() ? -1 : it->second;
  }

  // Sets the shard count. Prefixes in shards beyond the new count (when
  // shrinking) are dropped from the plan.
  void ResizeShards(size_t n);

  // Puts `prefix` into `shard`, moving it out of its current shard if it
  // is already assigned elsewhere.
  void Assign(size_t shard, const util::IpPrefix& prefix);

  // Removes `prefix` from the plan entirely (no-op when absent).
  void Erase(const util::IpPrefix& prefix);

  // Merges the shards containing `a` and `b` into the lower-indexed one
  // and erases the higher-indexed shard (shards above it shift down).
  // Returns the merged shard's index, or -1 when the prefixes already
  // share a shard or either is unassigned.
  int Merge(const util::IpPrefix& a, const util::IpPrefix& b);

  friend bool operator==(const ShardPlan& lhs, const ShardPlan& rhs) {
    return lhs.shards_ == rhs.shards_;
  }

 private:
  std::vector<PrefixSet> shards_;
  std::unordered_map<util::IpPrefix, int> index_;
};

// The BGP prefix universe: network statements, aggregates, conditional
// advertisements (both sides), and — for devices redistributing OSPF —
// the prefixes OSPF can contribute (loopbacks of OSPF-enabled devices),
// mirroring the paper's redistribution closure.
std::vector<util::IpPrefix> CollectBgpPrefixes(
    const config::ParsedNetwork& network);

// The DPDG's weakly connected components over CollectBgpPrefixes(network).
// Component membership is the exact cross-prefix coupling: route
// computation for a prefix can read or influence only prefixes in its own
// component (aggregate-contributor and conditional-advertisement edges).
// Shard packing groups whole components, and the incremental what-if
// engine (core/incremental.h) closes its impact set over them so a
// restricted re-simulation sees every prefix its fixed point depends on.
struct DpdgComponents {
  std::vector<util::IpPrefix> prefixes;  // the universe, sorted
  // Per universe index, the owning component, numbered 0..count-1 in
  // first-appearance order over the sorted universe (deterministic).
  std::vector<int> component_of;
  int count = 0;

  // Expands `impacted` to the union of every component it touches.
  PrefixSet Closure(const PrefixSet& impacted) const;
};

DpdgComponents BuildDpdgComponents(const config::ParsedNetwork& network);

// Builds `num_shards` shards (fewer if there are fewer components, and
// always at least one: 0 or 1 yields the one-shard plan an unsharded run
// spills through). A negative count throws std::invalid_argument.
ShardPlan BuildShardPlan(const config::ParsedNetwork& network, int num_shards,
                         uint64_t seed = 1);

// The §7 unforeseen-dependency fallback: merges the shards containing two
// prefixes discovered to depend on each other at runtime; the merged shard
// replaces the lower-indexed one. Returns the index of the merged shard,
// or -1 when the prefixes already share a shard.
int MergeShards(ShardPlan& plan, const util::IpPrefix& a,
                const util::IpPrefix& b);

// A dependency between two prefixes that a shard plan fails to respect
// (they sit in different shards, or one is missing entirely).
struct ShardViolation {
  util::IpPrefix dependent;  // aggregate / advertised prefix
  util::IpPrefix required;   // contributor / watched prefix
};

// Checks that `plan` co-locates every dependent pair the configurations
// induce: each aggregate with its potential contributors, each conditional
// advertisement with its watch. The same check the paper's §7 extension
// performs at runtime; with plans built by BuildShardPlan it never fires,
// but plans can also come from users or stale caches.
std::vector<ShardViolation> ValidateShardPlan(
    const config::ParsedNetwork& network, const ShardPlan& plan);

// Repairs `plan` in place by merging shards (and inserting missing
// prefixes into the dependent's shard) until ValidateShardPlan is clean —
// the paper's merge-and-recompute fallback. Returns the number of fixes.
int RepairShardPlan(const config::ParsedNetwork& network, ShardPlan& plan);

}  // namespace s2::cp
