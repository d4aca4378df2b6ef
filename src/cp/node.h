// The switch model — the paper's "real node".
//
// A Node wraps one device's VI configuration and simulates its route
// computation through synchronous rounds:
//
//   phase A  ComputeRound(): refresh origination (aggregates and
//            conditional advertisements can (de)activate as the RIB
//            evolves), recompute best routes for dirty prefixes, and fill
//            per-neighbor outboxes with export deltas;
//   phase B  neighbors pull with TakeUpdatesFor() (paper Alg. 1
//            ExchangeRoutes) and merge with ReceiveUpdates().
//
// The same class runs unmodified under the monolithic engine (cp/engine)
// and inside distributed workers (dist/worker); remote neighbors pull via
// shadow nodes + sidecars without this class knowing — the decoupling the
// paper gets by sub-classing Batfish's node (§3.1/§4.2).
#pragma once

#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

#include "config/parser.h"
#include "cp/bgp.h"
#include "cp/rib.h"

namespace s2::cp {

// The set of prefixes active in the current shard round; null = all.
using PrefixSet = std::unordered_set<util::IpPrefix>;

class Node {
 public:
  // `network`, `tracker` and `pool` must outlive the node. Tracker and
  // pool are the owning domain's (worker or monolithic process): every
  // route the node holds is charged to the tracker, every attribute tuple
  // it creates is interned in the pool.
  Node(topo::NodeId id, const config::ParsedNetwork& network,
       util::MemoryTracker* tracker, AttrPool* pool);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  topo::NodeId id() const { return id_; }
  const config::ViConfig& config() const { return network_->configs[id_]; }

  // A resolved BGP session: the config entry plus the peer's device id.
  struct Session {
    const config::BgpNeighbor* neighbor = nullptr;
    topo::NodeId peer = topo::kInvalidNode;
  };
  const std::vector<Session>& sessions() const { return sessions_; }

  // ------------------------------------------------------------ lifecycle
  enum class Pass { kIdle, kOspf, kBgp };

  // Starts an OSPF pass (no-op producing no work if OSPF is disabled).
  void BeginOspf();

  // Starts a BGP pass restricted to `shard` (null = every prefix).
  // Requires any OSPF pass to have been finished (FinishOspf).
  void BeginBgp(const PrefixSet* shard);

  // Saves the OSPF results for redistribution/FIB and frees the working
  // RIB.
  void FinishOspf();

  // Spills the converged BGP shard results to `store` and frees the
  // working RIB (the §4.5 end-of-round write to persistent storage). Every
  // run ends its BGP rounds here — an unsharded run is one shard holding
  // every prefix — so the store is the only home of converged BGP routes.
  // Returns the route entries written (an ECMP set counts once per path).
  size_t SpillBgp(RibStore& store, int shard);

  // ----------------------------------------------------------- the round
  // Phase A. Returns true if any update was produced (the node has not
  // yet converged this round).
  bool ComputeRound();

  // Phase B pull interface: drains updates addressed to `neighbor`.
  std::vector<RouteUpdate> TakeUpdatesFor(topo::NodeId neighbor);

  // Phase B merge of updates pulled from `from`.
  void ReceiveUpdates(topo::NodeId from, const std::vector<RouteUpdate>&
                                             updates);

  // ------------------------------------------------------------- results
  // OSPF best routes (after FinishOspf).
  const std::map<util::IpPrefix, std::vector<Route>>& ospf_routes() const {
    return ospf_results_;
  }
  // The live working RIB (tests / diagnostics).
  const Rib& rib() const { return rib_; }

  // ------------------------------------------------ checkpoint (src/fault)
  // Serializes the full control-plane state (pass, working RIB including
  // dirty marks, OSPF results) with the cp/route.cc wire
  // format. Taken at phase barriers, where outboxes are always empty.
  void SerializeState(std::vector<uint8_t>& out) const;

  // Restores SerializeState bytes into a freshly constructed node. `shard`
  // must be the prefix shard that was active when the checkpoint was taken
  // (null for OSPF / idle).
  void RestoreState(const std::vector<uint8_t>& bytes, const PrefixSet* shard);

 private:
  void OriginateStatic();      // network statements + redistribution
  void RefreshConditional();   // aggregates + conditional advertisements
  void ChargeResult(const Route& route);
  void ReleaseResults(std::map<util::IpPrefix, std::vector<Route>>&
                          results);
  bool InShard(const util::IpPrefix& prefix) const {
    return shard_ == nullptr || shard_->count(prefix) != 0;
  }

  topo::NodeId id_;
  const config::ParsedNetwork* network_;
  util::MemoryTracker* tracker_;
  AttrPool* pool_;
  std::vector<Session> sessions_;

  Pass pass_ = Pass::kIdle;
  const PrefixSet* shard_ = nullptr;
  Rib rib_;
  std::map<topo::NodeId, std::vector<RouteUpdate>> outbox_;

  std::map<util::IpPrefix, std::vector<Route>> ospf_results_;
};

}  // namespace s2::cp
