// Incremental what-if re-verification (the ROADMAP item; the paper's §6.2
// scenario workflow made fast the way LIGHTYEAR/Kirigami localize work).
//
// A converged run fixes, per prefix, a best/ECMP assignment at every node.
// A failure scenario (link or device) only *removes* BGP candidates, and a
// removed candidate can matter only where it was part of a converged
// best/ECMP set: every best path that traverses the failed element does so
// over one of its adjacencies, so scanning the converged spills of the
// element's endpoints for routes learned across it yields every prefix the
// failure can disturb. That impact set is closed over the DPDG's weakly
// connected components (cp/shard.h) — aggregates and conditional
// advertisements are the only cross-prefix couplings — and just the
// closure is re-simulated as one synthetic shard on the edited network,
// its spills overlaid on the base run's (cp::RibStore overlay). FIBs are
// rebuilt only for nodes whose converged routes or interfaces changed;
// every other node re-encodes its canonical predicate bytes verbatim.
// Queries re-run only if their forward cone over the post-scenario
// forward-edge index (dp::ForwardCone, the cone the query service scopes
// admission with) reaches a node whose predicates changed; all others
// reuse their base verdicts.
//
// The converged base is a svc::Snapshot — the same capture the query
// service serves from — read by reference: nothing is copied per what-if.
//
// Soundness is pinned, not assumed: tests/incremental_test.cc runs a
// scenario-randomizing differential suite proving verdicts, per-node
// predicate bytes, and FIB bytes identical to a cold full re-run.
// Hazards that break the localization argument (OSPF's global pass, an
// unsharded base with no spills, arbitrary config edits) degrade to a
// whole-network re-simulation through the same machinery — never to an
// unsound answer.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/results.h"
#include "core/whatif.h"
#include "svc/snapshot.h"

namespace s2::core {

// A hypothetical change applied to a converged network.
struct Scenario {
  enum class Kind { kRemoveLink, kFailNode, kConfigEdit };
  Kind kind = Kind::kRemoveLink;
  topo::NodeId a = topo::kInvalidNode;  // link endpoint / failed device
  topo::NodeId b = topo::kInvalidNode;  // second endpoint (kRemoveLink)
  // kConfigEdit: the fully edited model. Arbitrary edits carry no impact
  // bound, so they re-verify through the whole-network fallback path.
  std::shared_ptr<const config::ParsedNetwork> edited;
};

Scenario RemoveLinkScenario(topo::NodeId a, topo::NodeId b);
Scenario FailNodeScenario(topo::NodeId node);
Scenario ConfigEditScenario(config::ParsedNetwork edited);

// The edited model (core/whatif.h dispatch).
config::ParsedNetwork ApplyScenario(const config::ParsedNetwork& network,
                                    const Scenario& scenario);

struct IncrementalStats {
  size_t universe_prefixes = 0;  // BGP prefix universe of the base network
  size_t impacted_prefixes = 0;  // re-simulated (after DPDG closure)
  size_t nodes_total = 0;
  size_t nodes_rebuilt = 0;  // FIB + predicates recomputed
  size_t nodes_reused = 0;   // predicate bytes adopted from the base
  size_t changed_nodes = 0;  // rebuilt nodes whose predicates differ
  size_t queries_total = 0;
  size_t queries_reverified = 0;
  size_t queries_reused = 0;
  bool full_fallback = false;
  std::string fallback_reason;  // empty unless full_fallback
};

struct IncrementalResult {
  // Verdicts in base query order; phase metrics cover only the work the
  // incremental run actually did.
  VerifyResult result;
  IncrementalStats stats;
  // Post-scenario canonical predicate bytes and FIB sizes per node — the
  // fingerprint a cold full re-run of the edited network must match byte
  // for byte (what the differential suite compares).
  std::map<topo::NodeId, std::vector<uint8_t>> predicates;
  std::map<topo::NodeId, size_t> fib_bytes;
};

// Re-verifies the converged run `base` under `scenario`, re-simulating
// only the DPDG closure of the impacted prefixes, rebuilding only changed
// FIBs, and re-running only queries that can observe a changed node.
// `queries` are the base run's queries and `results` their base verdicts,
// index-aligned (a size mismatch re-verifies everything); `base.network`
// must be set.
IncrementalResult VerifyIncremental(
    const svc::Snapshot& base, const std::vector<dp::Query>& queries,
    const std::vector<dp::QueryResult>& results, const Scenario& scenario);

}  // namespace s2::core
