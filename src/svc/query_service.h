// Verification-as-a-service, part 2: the query frontend.
//
// A QueryService answers dp::Query requests against the SnapshotRegistry's
// current epoch without ever re-running the control plane. Three layers:
//
//  Admission scoping — before executing, the query's forward cone over the
//  snapshot's FIB forward-edge index (dp::ForwardCone: a BFS from the
//  query sources, pruned under longest-prefix match to edges a packet of
//  the destination space can take) computes which workers the query can
//  possibly touch. The cone over-approximates every node a symbolic
//  packet can visit — excluded workers provably see no packets, and
//  skipping their domains cannot change a verdict. If a packet does cross
//  into an unscoped worker (possible only when the edge index is
//  incomplete, e.g. a recovered worker), the domain is built lazily
//  mid-query and a scope_fallbacks counter records the miss — scoping
//  degrades to a perf hint, never a soundness risk.
//
//  Serving lanes — each lane owns one dist::QueryExecutor per epoch
//  (dist/query_executor.h), the executor Dpo::RunQueries runs per query.
//  Here its per-worker domains live across queries with GC held
//  (bdd::Manager::PauseGc), so the hash-consed node ids of the predicate
//  roots — and the op/ITE cache entries over them — are stable from query
//  to query: a repeated query replays almost entirely out of the op
//  caches. Explicit collections run every gc_interval_queries to bound
//  table growth. Queries are dispatched to lanes by a key hash, so
//  identical queries always land on the lane that has them warm.
//
//  Predicate cache — per lane, keyed on (epoch, header-space BDD root id
//  in the lane's gather manager, sources, transits, record_paths). The
//  root id is stable because the gather manager is persistent and
//  hash-conses: equal header spaces get equal ids, and the cached entry
//  holds the Bdd handle so the id can never be recycled. Destinations are
//  deliberately NOT part of the key — forwarding is destination-
//  independent — so queries that differ only in destinations share one
//  forwarding execution. The cached value is the serialized finals;
//  verdicts are re-evaluated per query against its own destinations,
//  keeping served results byte-identical to batch execution.
#pragma once

#include <optional>

#include "core/incremental.h"
#include "dist/query_executor.h"
#include "svc/snapshot.h"

namespace s2::svc {

class QueryService {
 public:
  struct Options {
    // Serving lanes: independent domain sets that can execute queries
    // concurrently. Dispatch is by query-key hash (sticky).
    size_t lanes = 1;
    // Per-lane predicate-cache capacity in entries; 0 disables caching.
    size_t result_cache_entries = 256;
    // Explicit GC cadence per lane (queries between collections); 0 never
    // collects — tables then grow with distinct-query churn.
    size_t gc_interval_queries = 64;
    // Admission scoping on/off (off = every query runs on all workers).
    bool scope_admission = true;
  };

  struct Served {
    dp::QueryResult result;
    uint64_t epoch = 0;        // snapshot epoch this was served against
    bool cache_hit = false;    // answered from the predicate cache
    size_t scoped_workers = 0;  // domains the admission pass admitted
    size_t total_workers = 0;
    size_t rounds = 0;        // cross-domain ferry rounds (miss path only)
    size_t gather_bytes = 0;  // serialized finals decoded for evaluation
  };

  struct Stats {
    size_t queries = 0;
    size_t batches = 0;  // lane groups executed by ServeBatch
    size_t cache_hits = 0;
    size_t cache_misses = 0;
    size_t cache_evictions = 0;
    size_t domains_built = 0;
    size_t epoch_rebuilds = 0;
    size_t scope_fallbacks = 0;    // lazily built out-of-scope domains
    size_t workers_scoped = 0;     // summed over executed (miss) queries
    size_t workers_total = 0;
    size_t snapshot_misses = 0;  // serves with nothing published
  };

  QueryService(SnapshotRegistry* registry, Options options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Serves one query against the current epoch. If nothing is published,
  // returns a default Served with epoch 0. Thread-safe; concurrent calls
  // on different lanes proceed in parallel.
  Served Serve(const dp::Query& query);

  // Serves a batch: queries are grouped by lane, in input order within a
  // lane, and each group executes back to back on its lane — its domains
  // stay hot within the group. Results come back in input order, all
  // against one consistent epoch.
  std::vector<Served> ServeBatch(const std::vector<dp::Query>& queries);

  // What-if mode: "would these verdicts survive `scenario`?" against the
  // current epoch. The queries are first served normally (ServeBatch, warm
  // lanes), then the incremental engine (core/incremental.h) re-verifies
  // them under the scenario using the pinned snapshot as its converged
  // base — re-simulating only the impacted prefix closure and re-running
  // only queries that can observe a change. nullopt when nothing is
  // published.
  struct WhatIfServed {
    uint64_t epoch = 0;        // base epoch the scenario was applied to
    std::vector<Served> base;  // base-network verdicts, input order
    core::IncrementalResult incremental;
  };
  std::optional<WhatIfServed> ServeWhatIf(
      const core::Scenario& scenario, const std::vector<dp::Query>& queries);

  Stats stats() const;

  // Summed op/ITE cache counters across every lane's serving domains —
  // the cross-query reuse signal (satellite: repeated identical queries
  // must replay >90% out of these caches).
  bdd::Manager::CacheStats OpCacheStats() const;

  // svc.* counters (cache hit/miss/evict, scoping, domain builds).
  void PublishMetrics(obs::Registry& registry) const;

 private:
  struct CacheEntry {
    uint64_t epoch = 0;
    bdd::Bdd header;  // pins the key root id in the lane's gather manager
    std::vector<topo::NodeId> sources;
    std::vector<topo::NodeId> transits;
    bool record_paths = false;
    std::vector<dist::SerializedFinal> finals;
    uint64_t stamp = 0;  // LRU clock
  };

  struct Lane {
    std::mutex mutex;
    uint64_t epoch = 0;  // 0 = not bound yet
    // Destruction order matters: cache entries hold handles into
    // gather_manager, so members are declared owner-first (reverse
    // destruction runs users first).
    std::unique_ptr<bdd::Manager> gather_manager;
    std::optional<dp::PacketCodec> gather_codec;
    // Reads the bound epoch's predicate bytes and worker map; it only
    // builds domains inside ServeLocked, which holds a pin on that epoch.
    std::optional<dist::QueryExecutor> executor;
    std::vector<CacheEntry> cache;
    uint64_t stamp = 0;
    size_t queries_since_gc = 0;
  };

  size_t LaneFor(const dp::Query& query) const;
  Served ServeLocked(Lane& lane, const SnapshotRef& ref,
                     const dp::Query& query);
  void BindEpoch(Lane& lane, const Snapshot& snapshot);
  std::vector<uint32_t> ScopeWorkers(const Snapshot& snapshot,
                                     const dp::Query& query) const;
  CacheEntry* FindCached(Lane& lane, uint64_t epoch, const bdd::Bdd& header,
                         const dp::Query& query);
  void MaybeCollect(Lane& lane);

  SnapshotRegistry* registry_;
  Options options_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  mutable std::mutex stats_mutex_;
  Stats stats_;
};

}  // namespace s2::svc
