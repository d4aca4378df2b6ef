// DCN policy check: exercises the production-style policies of the paper's
// §2.3 on the synthesized DCN — route aggregation with community tagging,
// AS_PATH overwrite across shared-ASN layers, vendor-divergent
// remove-private-as at the borders, conditional default origination,
// management-plane filtering, and a waypoint query through the core.
//
//   ./dcn_policy_check
#include <cstdio>

#include "config/vendor.h"
#include "core/mono.h"
#include "core/s2.h"
#include "topo/dcn.h"

using namespace s2;

int main() {
  topo::DcnParams params;
  params.cores = 1;  // single core layer makes the waypoint query crisp
  topo::Network network = topo::MakeDcn(params);
  auto parsed = config::ParseNetwork(config::SynthesizeConfigs(network));
  std::printf("DCN: %zu switches (%d small + %d big clusters), %zu links\n",
              parsed.graph.size(), params.small_clusters,
              params.big_clusters, parsed.graph.edge_count());

  // --- Query 1: TOR-to-TOR reachability across clusters, with the core
  // as a waypoint and multipath-consistency checking.
  auto src = parsed.graph.FindByName("c0p0-tor0");
  auto dst = parsed.graph.FindByName("c2p1-tor3");
  auto core0 = parsed.graph.FindByName("core0");
  dp::Query crossing;
  crossing.header_space.dst = util::MustParsePrefix("10.2.0.0/16");
  crossing.sources = {src};
  crossing.destinations = {dst};
  crossing.transits = {core0};

  dist::ControllerOptions options;
  options.num_workers = 4;
  options.num_shards = 6;
  options.layout.meta_bits = 1;
  core::S2Verifier verifier(options);
  core::VerifyResult result = verifier.Verify(parsed, {crossing});
  if (!result.ok()) {
    std::printf("verification failed: %s\n", result.failure_detail.c_str());
    return 1;
  }
  const dp::QueryResult& q = result.queries[0];
  std::printf("\ncross-cluster c0p0-tor0 -> c2p1-tor3:\n");
  std::printf("  reachable pairs: %zu / %zu\n", q.reachable_pairs,
              q.reachable_pairs + q.unreachable_pairs);
  std::printf("  waypoint core0 always traversed: %s\n",
              q.waypoints[0].always_traversed ? "yes" : "NO");
  std::printf("  multipath consistent: %s\n",
              q.multipath_violations.empty() ? "yes" : "NO");

  // --- Inspect the control plane for the policy effects (via the
  // monolithic verifier, whose spill store holds the converged RIBs).
  core::MonoVerifier mono{core::MonoOptions{}};
  core::VerifyResult mono_result = mono.Verify(parsed, {});
  cp::AttrPool pool;

  // Aggregation: the TOR sees the big cluster as one tagged /16, not its
  // individual /24s (the §2.3 route-count reduction).
  const auto tor_rib = mono.last_rib_store()->ReadAll(src, pool);
  auto big_agg = util::MustParsePrefix("10.2.0.0/16");
  auto big_specific = util::MustParsePrefix("10.2.0.0/24");
  std::printf("\naggregation at big-cluster spines:\n");
  std::printf("  c0p0-tor0 has 10.2.0.0/16 aggregate: %s (communities:",
              tor_rib.count(big_agg) ? "yes" : "NO");
  if (tor_rib.count(big_agg)) {
    for (uint32_t c : tor_rib.at(big_agg).front().communities()) {
      std::printf(" %u", c);
    }
  }
  std::printf(")\n  c0p0-tor0 has suppressed specific 10.2.0.0/24: %s\n",
              tor_rib.count(big_specific) ? "YES (bug!)" : "no");
  std::printf("  TOR RIB size: %zu prefixes\n", tor_rib.size());

  // Conditional default from the borders.
  std::printf("\nconditional advertisement at borders:\n");
  std::printf("  c0p0-tor0 has 0.0.0.0/0: %s\n",
              tor_rib.count(util::MustParsePrefix("0.0.0.0/0")) ? "yes"
                                                                : "NO");

  // AS_PATH overwrite: the TOR's cross-cluster route has a short path even
  // though it crossed 6+ devices.
  if (tor_rib.count(big_agg)) {
    std::printf("  AS path of the cross-cluster aggregate (length %zu):",
                tor_rib.at(big_agg).front().as_path().size());
    for (uint32_t asn : tor_rib.at(big_agg).front().as_path()) {
      std::printf(" %u", asn);
    }
    std::printf("\n");
  }

  // Management filtering between borders (ACL + community deny).
  auto b0 = parsed.graph.FindByName("border0");
  dp::Query mgmt;
  mgmt.header_space.dst = util::MustParsePrefix("172.16.0.0/12");
  mgmt.sources = {b0};
  core::MonoVerifier mono2{core::MonoOptions{}};
  core::VerifyResult mgmt_result = mono2.Verify(parsed, {mgmt});
  std::printf("\nmanagement space injected at border0: %zu blackhole "
              "finals (filters at work), loop-free: %s\n",
              mgmt_result.queries[0].blackhole_finals,
              mgmt_result.queries[0].loop_free ? "yes" : "NO");

  std::printf("\nper-worker peak memory (S2, 4 workers): %s\n",
              core::HumanBytes(result.peak_memory_bytes).c_str());
  return 0;
}
