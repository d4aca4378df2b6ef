// MonoVerifier — the monolithic simulation-based baseline ("Batfish" in
// the paper's figures): one process/domain holds every node, one BDD node
// table serves all data-plane work, and the per-domain memory budget makes
// the single-server OOM wall observable. Optionally runs with prefix
// sharding ("Batfish + prefix sharding", Fig 4), which the paper shows is
// what lets the monolithic verifier survive the real DCN. Either way the
// converged BGP routes are spilled to one RibStore and the FIBs are built
// from there.
//
// It shares the exact switch model (cp::Node) and property machinery
// (dp::*) with S2 — the integration tests rely on this to pin down the
// RIB/verdict equivalence invariant.
#pragma once

#include "core/results.h"
#include "cp/engine.h"

namespace s2::core {

struct MonoOptions {
  // Memory budget of the single domain (0 = unlimited).
  size_t memory_budget = 0;
  // Prefix shards; 0 or 1 runs every prefix as one shard (no sharding).
  int num_shards = 0;
  // Single shared BDD node table capacity (0 = unbounded). The paper notes
  // centralized DPV is bounded by the 2^32 node table (§2.2).
  size_t max_bdd_nodes = 0;
  dp::HeaderLayout layout;
  int max_hops = 24;
  int max_rounds = 1000;
  uint64_t seed = 1;
  util::CostModelParams cost;
};

class MonoVerifier {
 public:
  explicit MonoVerifier(MonoOptions options) : options_(options) {}

  VerifyResult Verify(const config::ParsedNetwork& network,
                      const std::vector<dp::Query>& queries);

  // The engine of the last Verify and the store holding its converged BGP
  // routes (valid until the next call); integration tests read the RIBs
  // back from the store.
  cp::MonoEngine* last_engine() { return engine_.get(); }
  const cp::RibStore* last_rib_store() const { return store_.get(); }

 private:
  MonoOptions options_;
  // Tracker outlives the engine: nodes release their accounted memory on
  // destruction.
  std::unique_ptr<util::MemoryTracker> tracker_;
  std::unique_ptr<cp::MonoEngine> engine_;
  std::unique_ptr<cp::RibStore> store_;
};

}  // namespace s2::core
