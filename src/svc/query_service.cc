#include "svc/query_service.h"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/trace.h"

namespace s2::svc {

namespace {

// FNV-1a over the parts of a query that determine its forwarding work
// (everything but the destinations — see the cache-key rationale in the
// header). Used only for lane stickiness, so collisions are harmless.
uint64_t QueryKeyHash(const dp::Query& query) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t value) {
    h ^= value;
    h *= 1099511628211ULL;
  };
  auto mix_prefix = [&mix](const util::IpPrefix& p) {
    mix(static_cast<uint64_t>(p.family()));
    mix(p.address().Hi());
    mix(p.address().Lo());
    mix(p.length());
  };
  if (query.header_space.dst) mix_prefix(*query.header_space.dst);
  if (query.header_space.src) mix_prefix(*query.header_space.src);
  for (topo::NodeId src : query.sources) mix(src);
  for (topo::NodeId transit : query.transits) mix(transit);
  mix(query.record_paths ? 1 : 0);
  return h;
}

}  // namespace

QueryService::QueryService(SnapshotRegistry* registry, Options options)
    : registry_(registry), options_(options) {
  if (options_.lanes == 0) options_.lanes = 1;
  for (size_t i = 0; i < options_.lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
}

QueryService::~QueryService() = default;

size_t QueryService::LaneFor(const dp::Query& query) const {
  return static_cast<size_t>(QueryKeyHash(query) % lanes_.size());
}

QueryService::Served QueryService::Serve(const dp::Query& query) {
  SnapshotRef ref = registry_->Acquire();
  if (!ref) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.snapshot_misses;
    return Served{};
  }
  Lane& lane = *lanes_[LaneFor(query)];
  std::lock_guard<std::mutex> lock(lane.mutex);
  return ServeLocked(lane, ref, query);
}

std::vector<QueryService::Served> QueryService::ServeBatch(
    const std::vector<dp::Query>& queries) {
  std::vector<Served> served(queries.size());
  if (queries.empty()) return served;
  SnapshotRef ref = registry_->Acquire();
  if (!ref) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.snapshot_misses += queries.size();
    return served;
  }
  // Group by lane (domain affinity), input order within a lane, lanes in
  // ascending order: each group runs back to back under one lock, so the
  // lane's domains and op caches stay hot. Grouping needs no forward cone;
  // ServeLocked computes one only on a cache miss.
  std::map<size_t, std::vector<size_t>> groups;
  for (size_t q = 0; q < queries.size(); ++q) {
    groups[LaneFor(queries[q])].push_back(q);
  }
  for (const auto& [lane_index, indices] : groups) {
    Lane& lane = *lanes_[lane_index];
    std::lock_guard<std::mutex> lock(lane.mutex);
    for (size_t q : indices) {
      served[q] = ServeLocked(lane, ref, queries[q]);
    }
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.batches;
  }
  return served;
}

std::optional<QueryService::WhatIfServed> QueryService::ServeWhatIf(
    const core::Scenario& scenario, const std::vector<dp::Query>& queries) {
  // Pin the epoch the scenario applies to, then serve the base verdicts
  // through the normal path. A republish racing between the pin and the
  // batch would split the epochs; re-pin and retry once, then accept the
  // latest pin (base verdicts are re-derived from it below if needed).
  SnapshotRef ref = registry_->Acquire();
  if (!ref) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.snapshot_misses;
    return std::nullopt;
  }
  std::vector<Served> base_served = ServeBatch(queries);
  auto consistent = [&]() {
    for (const Served& served : base_served) {
      if (served.epoch != ref.epoch()) return false;
    }
    return true;
  };
  if (!consistent()) {
    ref = registry_->Acquire();
    if (!ref) return std::nullopt;
    base_served = ServeBatch(queries);
  }
  WhatIfServed out;
  out.epoch = ref.epoch();
  out.base = base_served;
  std::vector<dp::QueryResult> base_results;
  base_results.reserve(base_served.size());
  for (const Served& served : base_served) {
    base_results.push_back(served.result);
  }
  // An epoch still split after the retry leaves queries/results coherent
  // with each other but not with `ref`; drop the base results so the
  // incremental engine re-runs every query instead of splicing verdicts
  // from another epoch.
  if (!consistent()) base_results.clear();
  out.incremental =
      core::VerifyIncremental(*ref, queries, base_results, scenario);
  return out;
}

QueryService::Served QueryService::ServeLocked(Lane& lane,
                                               const SnapshotRef& ref,
                                               const dp::Query& query) {
  obs::Span span("svc", "svc.serve");
  const Snapshot& snapshot = *ref;
  if (lane.epoch != snapshot.epoch) BindEpoch(lane, snapshot);

  Served served;
  served.epoch = snapshot.epoch;
  const uint32_t num_workers = snapshot.options.num_workers;
  served.total_workers = num_workers;

  // Cache first: the warm path is hash + finals decode + verdict, no
  // scoping and no forwarding.
  bdd::Bdd header = query.header_space.ToBdd(*lane.gather_codec);
  CacheEntry* hit = FindCached(lane, snapshot.epoch, header, query);
  std::vector<dist::SerializedFinal> computed;
  const std::vector<dist::SerializedFinal>* finals_bytes = nullptr;
  if (hit != nullptr) {
    served.cache_hit = true;
    hit->stamp = ++lane.stamp;
    finals_bytes = &hit->finals;
  } else {
    std::vector<uint32_t> scope;
    if (options_.scope_admission) {
      scope = ScopeWorkers(snapshot, query);
    } else {
      scope.resize(num_workers);
      for (uint32_t w = 0; w < num_workers; ++w) scope[w] = w;
    }
    dist::QueryExecutor::Run run;
    {
      obs::Span execute_span("svc", "svc.execute");
      run = lane.executor->Execute(query, scope);
    }
    served.rounds = run.rounds;
    served.scoped_workers = scope.size();  // includes fallback growth
    computed = std::move(run.finals);
    if (options_.result_cache_entries > 0) {
      if (lane.cache.size() >= options_.result_cache_entries) {
        auto victim = std::min_element(
            lane.cache.begin(), lane.cache.end(),
            [](const CacheEntry& a, const CacheEntry& b) {
              return a.stamp < b.stamp;
            });
        lane.cache.erase(victim);
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.cache_evictions;
      }
      CacheEntry entry;
      entry.epoch = snapshot.epoch;
      entry.header = header;
      entry.sources = query.sources;
      entry.transits = query.transits;
      entry.record_paths = query.record_paths;
      entry.finals = computed;
      entry.stamp = ++lane.stamp;
      lane.cache.push_back(std::move(entry));
    }
    finals_bytes = &computed;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.workers_scoped += served.scoped_workers;
      stats_.workers_total += num_workers;
      stats_.domains_built += run.domains_built;
      stats_.scope_fallbacks += run.fallbacks;
    }
  }

  // Decode into the lane's gather domain and evaluate against this
  // query's own destinations — the step that makes destination-disjoint
  // queries shareable upstream.
  std::vector<dp::FinalPacket> finals;
  dist::DeserializeFinals(*finals_bytes, *lane.gather_manager, finals,
                          served.gather_bytes);
  served.result =
      dp::EvaluateQuery(query, *lane.gather_codec, finals, *snapshot.network);

  MaybeCollect(lane);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries;
    if (options_.result_cache_entries > 0) {
      if (served.cache_hit) {
        ++stats_.cache_hits;
      } else {
        ++stats_.cache_misses;
      }
    }
  }
  return served;
}

void QueryService::BindEpoch(Lane& lane, const Snapshot& snapshot) {
  // Order matters: cache entries hold handles into the gather manager —
  // drop users before owners.
  lane.cache.clear();
  lane.executor.reset();
  lane.gather_codec.reset();
  const dist::ControllerOptions& options = snapshot.options;
  lane.gather_manager =
      std::make_unique<bdd::Manager>(options.layout.total_bits());
  // Serving domains hold GC: dead intermediates (and the op-cache entries
  // over them) persist between queries; MaybeCollect runs explicit sweeps
  // on a query-count cadence instead.
  lane.gather_manager->PauseGc();
  lane.gather_codec.emplace(lane.gather_manager.get(), options.layout);
  dist::QueryExecutor::Options executor_options;
  executor_options.layout = options.layout;
  executor_options.max_hops = options.max_hops;
  executor_options.max_bdd_nodes = options.max_bdd_nodes;
  executor_options.hold_gc = true;
  lane.executor.emplace(options.num_workers, &snapshot.predicates,
                        &snapshot.worker_of, std::move(executor_options));
  lane.epoch = snapshot.epoch;
  lane.queries_since_gc = 0;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.epoch_rebuilds;
}

std::vector<uint32_t> QueryService::ScopeWorkers(
    const Snapshot& snapshot, const dp::Query& query) const {
  size_t num_nodes = snapshot.worker_of.size();
  std::vector<char> cone = dp::ForwardCone(
      num_nodes, query.sources, query.header_space.dst,
      [&](topo::NodeId id) -> const dp::ForwardEdgeList* {
        auto it = snapshot.fib_edges.find(id);
        return it == snapshot.fib_edges.end() ? nullptr : &it->second;
      });
  std::vector<char> admitted(snapshot.options.num_workers, 0);
  for (topo::NodeId id = 0; id < num_nodes; ++id) {
    if (cone[id]) admitted[snapshot.worker_of[id]] = 1;
  }
  std::vector<uint32_t> scope;
  for (uint32_t w = 0; w < admitted.size(); ++w) {
    if (admitted[w]) scope.push_back(w);
  }
  return scope;
}

QueryService::CacheEntry* QueryService::FindCached(Lane& lane,
                                                   uint64_t epoch,
                                                   const bdd::Bdd& header,
                                                   const dp::Query& query) {
  if (options_.result_cache_entries == 0) return nullptr;
  for (CacheEntry& entry : lane.cache) {
    if (entry.epoch != epoch) continue;
    // Hash-consing makes the root id a complete fingerprint of the header
    // space; the entry's handle keeps the id from being recycled.
    if (entry.header.id() != header.id()) continue;
    if (entry.record_paths != query.record_paths) continue;
    if (entry.sources != query.sources) continue;
    if (entry.transits != query.transits) continue;
    return &entry;
  }
  return nullptr;
}

void QueryService::MaybeCollect(Lane& lane) {
  if (options_.gc_interval_queries == 0) return;
  if (++lane.queries_since_gc < options_.gc_interval_queries) return;
  lane.queries_since_gc = 0;
  // Explicit sweeps on the held-GC serving domains: dead intermediates
  // accumulated across the interval are freed (and their op-cache entries
  // purged); pinned predicate roots and cached header handles survive.
  lane.executor->Collect();
  lane.gather_manager->GarbageCollect();
}

QueryService::Stats QueryService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

bdd::Manager::CacheStats QueryService::OpCacheStats() const {
  bdd::Manager::CacheStats total;
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane->mutex);
    if (lane->executor) total += lane->executor->cache_stats();
    if (lane->gather_manager) total += lane->gather_manager->cache_stats();
  }
  return total;
}

void QueryService::PublishMetrics(obs::Registry& registry) const {
  Stats s = stats();
  registry.SetCounter("svc.queries", static_cast<int64_t>(s.queries));
  registry.SetCounter("svc.batches", static_cast<int64_t>(s.batches));
  registry.SetCounter("svc.cache.hits", static_cast<int64_t>(s.cache_hits));
  registry.SetCounter("svc.cache.misses",
                      static_cast<int64_t>(s.cache_misses));
  registry.SetCounter("svc.cache.evictions",
                      static_cast<int64_t>(s.cache_evictions));
  registry.SetCounter("svc.domains_built",
                      static_cast<int64_t>(s.domains_built));
  registry.SetCounter("svc.epoch_rebuilds",
                      static_cast<int64_t>(s.epoch_rebuilds));
  registry.SetCounter("svc.scope.fallbacks",
                      static_cast<int64_t>(s.scope_fallbacks));
  registry.SetCounter("svc.scope.workers_scoped",
                      static_cast<int64_t>(s.workers_scoped));
  registry.SetCounter("svc.scope.workers_total",
                      static_cast<int64_t>(s.workers_total));
  registry.SetCounter("svc.snapshot_misses",
                      static_cast<int64_t>(s.snapshot_misses));
  size_t entries = 0;
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane->mutex);
    entries += lane->cache.size();
  }
  registry.SetCounter("svc.cache.entries", static_cast<int64_t>(entries));
  bdd::Manager::CacheStats op = OpCacheStats();
  registry.SetCounter("svc.opcache.hits", static_cast<int64_t>(op.hits));
  registry.SetCounter("svc.opcache.misses", static_cast<int64_t>(op.misses));
  registry.SetCounter("svc.opcache.evictions",
                      static_cast<int64_t>(op.evictions));
}

}  // namespace s2::svc
