// The snapshot-domain query executor (paper §4.3, option 2): a query runs
// over per-worker forwarding domains, one BDD manager and engine each,
// rebuilt from the workers' canonical predicate bytes. Packets crossing
// workers travel between domains as serialized sets.
//
// Two callers, two domain lifetimes. Dpo::RunQueries builds one executor
// per query over every worker, so concurrent queries stay shared-nothing,
// and charges each domain to its worker's query tracker. Each
// QueryService lane keeps one executor per snapshot epoch with GC held,
// so the hash-consed predicate roots, and the op-cache entries over them,
// stay stable from query to query; the lane sweeps with Collect().
//
// Execute is the round loop both share: every scoped domain runs to
// quiescence in ascending worker order, the serialized crossing packets
// are ferried to their owners, and the loop repeats until silent. A packet
// crossing into a worker outside the scope builds that domain lazily (a
// scope fallback), so a scope is a performance hint, never a soundness
// gate.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "dp/properties.h"
#include "util/memory_tracker.h"

namespace s2::dist {

// A final packet in transit back to the controller (BDD serialized).
struct SerializedFinal {
  topo::NodeId src = topo::kInvalidNode;
  topo::NodeId node = topo::kInvalidNode;
  dp::FinalState state = dp::FinalState::kArrive;
  std::vector<topo::NodeId> path;  // path-recording queries only
  std::vector<uint8_t> set;

  size_t WireBytes() const { return 16 + set.size() + 4 * path.size(); }
};

// Appends `finals` to `out`, each set in canonical bdd_io bytes.
void SerializeFinals(const std::vector<dp::FinalPacket>& finals,
                     std::vector<SerializedFinal>& out);

// Appends `finals` to `out` re-encoded in `manager`, in order, and adds
// their wire size to `wire_bytes`.
void DeserializeFinals(const std::vector<SerializedFinal>& finals,
                       bdd::Manager& manager,
                       std::vector<dp::FinalPacket>& out,
                       size_t& wire_bytes);

// Per node: canonical predicate bytes (fault::SerializePredicates).
using NodePredicates = std::map<topo::NodeId, std::vector<uint8_t>>;

class QueryExecutor {
 public:
  struct Options {
    dp::HeaderLayout layout;
    int max_hops = 24;
    size_t max_bdd_nodes = 0;
    // Per worker, the tracker its domain's manager charges (empty: none).
    std::vector<util::MemoryTracker*> trackers;
    // Domains hold GC between queries; the owner sweeps with Collect().
    bool hold_gc = false;
  };

  // Domain w of `num_workers` holds the nodes with worker_of[id] == w, in
  // ascending id order. `predicates` and `worker_of` (node -> worker) must
  // outlive every call that builds a domain.
  QueryExecutor(size_t num_workers, const NodePredicates* predicates,
                const std::vector<uint32_t>* worker_of, Options options);

  struct Run {
    std::vector<SerializedFinal> finals;  // worker-major
    int rounds = 0;
    size_t comm_bytes = 0;
    size_t comm_messages = 0;
    size_t domains_built = 0;  // by this call, fallbacks included
    size_t fallbacks = 0;      // out-of-scope domains built mid-query
    bdd::Manager::CacheStats cache;  // op-cache delta of this call
  };

  // Runs `query` on the domains of `scope` (ascending worker indices).
  // Fallback domains are inserted into `scope`, so on return it names
  // every domain the query touched.
  Run Execute(const dp::Query& query, std::vector<uint32_t>& scope);

  // Explicit GC sweep over every built domain.
  void Collect();

  // Summed op-cache counters across the built domains.
  bdd::Manager::CacheStats cache_stats() const;

 private:
  struct Domain {
    // Declared owner-first: the engine holds handles into the manager.
    std::unique_ptr<bdd::Manager> manager;
    std::unique_ptr<dp::ForwardingEngine> engine;
  };

  // Builds domain `w` unless it exists; returns whether it built.
  bool EnsureDomain(uint32_t w);

  const NodePredicates* predicates_;
  const std::vector<uint32_t>* worker_of_;
  Options options_;
  std::vector<Domain> domains_;
};

}  // namespace s2::dist
