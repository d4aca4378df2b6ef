#include "cp/shard.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace s2::cp {

namespace {

// Union-find over dense indices.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

void ShardPlan::ResizeShards(size_t n) {
  for (size_t s = n; s < shards_.size(); ++s) {
    for (const util::IpPrefix& prefix : shards_[s]) index_.erase(prefix);
  }
  shards_.resize(n);
}

void ShardPlan::Assign(size_t shard, const util::IpPrefix& prefix) {
  auto it = index_.find(prefix);
  if (it != index_.end()) {
    if (it->second == static_cast<int>(shard)) return;
    shards_[it->second].erase(prefix);
    it->second = static_cast<int>(shard);
  } else {
    index_.emplace(prefix, static_cast<int>(shard));
  }
  shards_[shard].insert(prefix);
}

void ShardPlan::Erase(const util::IpPrefix& prefix) {
  auto it = index_.find(prefix);
  if (it == index_.end()) return;
  shards_[it->second].erase(prefix);
  index_.erase(it);
}

int ShardPlan::Merge(const util::IpPrefix& a, const util::IpPrefix& b) {
  int sa = ShardOf(a), sb = ShardOf(b);
  if (sa < 0 || sb < 0 || sa == sb) return -1;
  int lo = std::min(sa, sb), hi = std::max(sa, sb);
  shards_[lo].insert(shards_[hi].begin(), shards_[hi].end());
  for (const util::IpPrefix& prefix : shards_[hi]) index_[prefix] = lo;
  shards_.erase(shards_.begin() + hi);
  // Shards above the erased one shift down by one.
  for (auto& [prefix, shard] : index_) {
    if (shard > hi) --shard;
  }
  return lo;
}

std::vector<util::IpPrefix> CollectBgpPrefixes(
    const config::ParsedNetwork& network) {
  PrefixSet universe;
  // OSPF-contributed prefixes (the redistribution closure): loopbacks of
  // OSPF speakers can appear in any redistributing device's BGP RIB.
  PrefixSet ospf_prefixes;
  bool any_redistributes = false;
  for (const config::ViConfig& config : network.configs) {
    if (config.ospf.enabled) ospf_prefixes.insert(config.loopback);
    if (config.bgp.redistribute_ospf) any_redistributes = true;
  }
  for (const config::ViConfig& config : network.configs) {
    for (const util::IpPrefix& p : config.bgp.networks) universe.insert(p);
    for (const config::BgpAggregate& agg : config.bgp.aggregates) {
      universe.insert(agg.prefix);
    }
    for (const config::BgpCondAdv& cond : config.bgp.cond_advs) {
      universe.insert(cond.advertise);
      universe.insert(cond.watch);
    }
  }
  if (any_redistributes) {
    universe.insert(ospf_prefixes.begin(), ospf_prefixes.end());
  }
  std::vector<util::IpPrefix> out(universe.begin(), universe.end());
  std::sort(out.begin(), out.end());
  return out;
}

DpdgComponents BuildDpdgComponents(const config::ParsedNetwork& network) {
  DpdgComponents out;
  out.prefixes = CollectBgpPrefixes(network);
  std::map<util::IpPrefix, size_t> index;
  for (size_t i = 0; i < out.prefixes.size(); ++i) index[out.prefixes[i]] = i;

  // DPDG edges -> weakly connected components via union-find. Directions
  // don't matter for components, so edges are unioned directly.
  UnionFind uf(out.prefixes.size());
  for (const config::ViConfig& config : network.configs) {
    for (const config::BgpAggregate& agg : config.bgp.aggregates) {
      size_t a = index.at(agg.prefix);
      // An aggregate depends on every (potential) contributing prefix.
      for (size_t i = 0; i < out.prefixes.size(); ++i) {
        if (out.prefixes[i] != agg.prefix &&
            agg.prefix.Contains(out.prefixes[i])) {
          uf.Union(a, i);
        }
      }
    }
    for (const config::BgpCondAdv& cond : config.bgp.cond_advs) {
      uf.Union(index.at(cond.advertise), index.at(cond.watch));
    }
  }

  out.component_of.assign(out.prefixes.size(), -1);
  std::map<size_t, int> root_to_component;
  for (size_t i = 0; i < out.prefixes.size(); ++i) {
    size_t root = uf.Find(i);
    auto [it, fresh] = root_to_component.emplace(root, out.count);
    if (fresh) ++out.count;
    out.component_of[i] = it->second;
  }
  return out;
}

PrefixSet DpdgComponents::Closure(const PrefixSet& impacted) const {
  std::vector<bool> touched(static_cast<size_t>(count), false);
  for (size_t i = 0; i < prefixes.size(); ++i) {
    if (impacted.count(prefixes[i]) != 0) touched[component_of[i]] = true;
  }
  PrefixSet closed;
  for (size_t i = 0; i < prefixes.size(); ++i) {
    if (touched[component_of[i]]) closed.insert(prefixes[i]);
  }
  return closed;
}

ShardPlan BuildShardPlan(const config::ParsedNetwork& network, int num_shards,
                         uint64_t seed) {
  if (num_shards < 0) {
    throw std::invalid_argument("BuildShardPlan: negative shard count " +
                                std::to_string(num_shards));
  }
  DpdgComponents dpdg = BuildDpdgComponents(network);
  const std::vector<util::IpPrefix>& prefixes = dpdg.prefixes;

  // Components, largest first; shuffle equal sizes (paper §4.5).
  std::vector<std::vector<size_t>> ccs(static_cast<size_t>(dpdg.count));
  for (size_t i = 0; i < prefixes.size(); ++i) {
    ccs[dpdg.component_of[i]].push_back(i);
  }
  util::Rng rng(seed);
  rng.Shuffle(ccs);
  std::stable_sort(ccs.begin(), ccs.end(),
                   [](const auto& a, const auto& b) {
                     return a.size() > b.size();
                   });

  ShardPlan plan;
  size_t shard_count = std::max<size_t>(
      1, std::min<size_t>(static_cast<size_t>(num_shards), ccs.size()));
  plan.ResizeShards(shard_count);
  for (const std::vector<size_t>& cc : ccs) {
    size_t smallest = 0;
    for (size_t s = 1; s < plan.num_shards(); ++s) {
      if (plan.shard(s).size() < plan.shard(smallest).size()) smallest = s;
    }
    for (size_t i : cc) plan.Assign(smallest, prefixes[i]);
  }
  return plan;
}

int MergeShards(ShardPlan& plan, const util::IpPrefix& a,
                const util::IpPrefix& b) {
  return plan.Merge(a, b);
}

namespace {

// Visits every (dependent, required) prefix pair the configs induce.
template <typename Fn>
void ForEachDependency(const config::ParsedNetwork& network,
                       const std::vector<util::IpPrefix>& universe,
                       Fn&& fn) {
  for (const config::ViConfig& config : network.configs) {
    for (const config::BgpAggregate& agg : config.bgp.aggregates) {
      for (const util::IpPrefix& prefix : universe) {
        if (prefix != agg.prefix && agg.prefix.Contains(prefix)) {
          fn(agg.prefix, prefix);
        }
      }
    }
    for (const config::BgpCondAdv& cond : config.bgp.cond_advs) {
      fn(cond.advertise, cond.watch);
    }
  }
}

}  // namespace

std::vector<ShardViolation> ValidateShardPlan(
    const config::ParsedNetwork& network, const ShardPlan& plan) {
  std::vector<ShardViolation> violations;
  auto universe = CollectBgpPrefixes(network);
  ForEachDependency(network, universe,
                    [&](const util::IpPrefix& dependent,
                        const util::IpPrefix& required) {
                      int sd = plan.ShardOf(dependent);
                      int sr = plan.ShardOf(required);
                      if (sd < 0 || sr < 0 || sd != sr) {
                        violations.push_back(
                            ShardViolation{dependent, required});
                      }
                    });
  return violations;
}

int RepairShardPlan(const config::ParsedNetwork& network, ShardPlan& plan) {
  int fixes = 0;
  // Apply every violation of a pass before re-validating: ShardOf is
  // re-queried per violation, so earlier merges in the same pass are
  // already reflected (the plan's index absorbs the shard renumbering a
  // merge causes). The old one-merge-per-validation loop re-scanned the
  // whole dependency set after every single merge, which together with a
  // linear ShardOf made repair superquadratic. A merged pair can co-locate
  // a previously split third prefix, never the reverse, so the fixed point
  // is reached in few passes; the plan only ever shrinks, so this
  // terminates.
  for (;;) {
    std::vector<ShardViolation> violations =
        ValidateShardPlan(network, plan);
    if (violations.empty()) return fixes;
    for (const ShardViolation& violation : violations) {
      int sd = plan.ShardOf(violation.dependent);
      int sr = plan.ShardOf(violation.required);
      if (sd < 0 && sr < 0) {
        if (plan.empty()) plan.ResizeShards(1);
        plan.Assign(0, violation.dependent);
        plan.Assign(0, violation.required);
        ++fixes;
      } else if (sd < 0) {
        plan.Assign(sr, violation.dependent);
        ++fixes;
      } else if (sr < 0) {
        plan.Assign(sd, violation.required);
        ++fixes;
      } else if (sd != sr) {
        plan.Merge(violation.dependent, violation.required);
        ++fixes;
      }
    }
  }
}

}  // namespace s2::cp
