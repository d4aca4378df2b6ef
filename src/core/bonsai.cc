#include "core/bonsai.h"

#include <algorithm>

#include "config/parser.h"
#include "config/vendor.h"
#include "cp/engine.h"
#include "util/stopwatch.h"

namespace s2::core {

namespace {

// One destination to compress for: the edge switch and the prefix it
// announces.
struct Destination {
  topo::NodeId edge;
  util::IpPrefix prefix;
};

// The per-destination compression pass. Scans the whole topology grouping
// switches into the abstraction's equivalence classes (destination edge /
// same-pod edge / same-pod aggregation / core / other-pod aggregation /
// other-pod edge) — the honest O(V) work that makes compression time grow
// with network size. Returns the class sizes (used only as a checksum so
// the scan cannot be optimized away).
std::array<size_t, 6> CompressionScan(const topo::Network& network,
                                      topo::NodeId dest) {
  std::array<size_t, 6> classes{};
  int dest_pod = network.graph.node(dest).pod;
  for (topo::NodeId id = 0; id < network.graph.size(); ++id) {
    const topo::NodeInfo& info = network.graph.node(id);
    size_t klass;
    if (id == dest) {
      klass = 0;
    } else if (info.role == topo::Role::kCore) {
      klass = 3;
    } else if (info.pod == dest_pod) {
      klass = info.role == topo::Role::kEdge ? 1 : 2;
    } else {
      klass = info.role == topo::Role::kEdge ? 5 : 4;
    }
    ++classes[klass];
  }
  return classes;
}

// Builds the 6-node compressed instance for one destination prefix.
topo::Network BuildCompressed(const util::IpPrefix& dest_prefix) {
  topo::Network net;
  net.name = "bonsai-compressed";
  auto add = [&](const char* name, topo::Role role, int layer, int pod) {
    return net.graph.AddNode(topo::NodeInfo{name, role, layer, pod, 1.0});
  };
  topo::NodeId dest_edge = add("edge-0-0", topo::Role::kEdge, 0, 0);
  topo::NodeId same_edge = add("edge-0-1", topo::Role::kEdge, 0, 0);
  topo::NodeId same_agg = add("agg-0-0", topo::Role::kAggregation, 1, 0);
  topo::NodeId core = add("core-0-0", topo::Role::kCore, 2, -1);
  topo::NodeId other_agg = add("agg-1-0", topo::Role::kAggregation, 1, 1);
  topo::NodeId other_edge = add("edge-1-0", topo::Role::kEdge, 0, 1);
  net.graph.AddEdge(dest_edge, same_agg);
  net.graph.AddEdge(same_edge, same_agg);
  net.graph.AddEdge(same_agg, core);
  net.graph.AddEdge(core, other_agg);
  net.graph.AddEdge(other_agg, other_edge);

  net.intents.resize(net.graph.size());
  for (topo::NodeId id = 0; id < net.graph.size(); ++id) {
    topo::NodeIntent& intent = net.intents[id];
    intent.asn = 100000 + id;
    intent.loopback = util::IpPrefix(
        util::IpAddress((172u << 24) | (16u << 16) | id), 32);
    intent.announced.push_back(intent.loopback);
    intent.max_ecmp_paths = 64;
  }
  net.intents[dest_edge].announced.push_back(dest_prefix);
  topo::AssignLinkAddresses(net);
  return net;
}

}  // namespace

VerifyResult BonsaiVerifier::Verify(const topo::Network& network) {
  VerifyResult result;
  util::Stopwatch total_watch;
  double sequential_seconds = 0;
  size_t peak = 0;

  // Destinations: every edge-announced non-loopback prefix.
  std::vector<Destination> destinations;
  for (topo::NodeId id = 0; id < network.graph.size(); ++id) {
    if (network.graph.node(id).role != topo::Role::kEdge) continue;
    for (const util::IpPrefix& prefix : network.intents[id].announced) {
      if (prefix != network.intents[id].loopback) {
        destinations.push_back(Destination{id, prefix});
      }
    }
  }

  size_t checksum = 0;
  size_t reachable = 0, unreachable = 0;
  for (const Destination& destination : destinations) {
    util::Stopwatch dest_watch;
    // Phase 1: compression (scans the full topology).
    auto classes = CompressionScan(network, destination.edge);
    checksum += classes[3];

    // Phase 2: simulate the compressed instance with the monolithic
    // engine and check reachability of the destination prefix.
    topo::Network compressed = BuildCompressed(destination.prefix);
    auto parsed =
        config::ParseNetwork(config::SynthesizeConfigs(compressed));
    util::MemoryTracker tracker("bonsai", options_.memory_budget);
    cp::EngineOptions engine_options;
    engine_options.max_rounds_per_pass = options_.max_rounds;
    try {
      cp::MonoEngine engine(parsed, &tracker, engine_options);
      cp::RibStore store;
      engine.Run(cp::BuildShardPlan(parsed, 1), store);
      // Reachable iff the representative other-pod edge learned the
      // destination prefix.
      topo::NodeId probe = parsed.graph.FindByName("edge-1-0");
      bool ok = store.ReadAll(probe, engine.attr_pool())
                    .count(destination.prefix) > 0;
      (ok ? reachable : unreachable) += 1;
    } catch (const util::SimulatedOom& oom) {
      result.status = RunStatus::kOutOfMemory;
      result.failure_detail = oom.what();
      return result;
    } catch (const util::SpillError& spill) {
      result.status = RunStatus::kSpillFailed;
      result.failure_detail = spill.what();
      return result;
    }
    peak = std::max(peak, tracker.peak_bytes());
    sequential_seconds +=
        dest_watch.ElapsedSeconds() +
        options_.modeled_seconds_per_scan_node *
            static_cast<double>(network.graph.size());

    // Destinations fan across cores; the modeled deadline applies to the
    // parallelized time.
    double modeled =
        sequential_seconds / std::max(1, options_.cores);
    if (modeled > options_.timeout_seconds) {
      result.status = RunStatus::kTimeout;
      result.failure_detail =
          "bonsai exceeded the deadline after " +
          std::to_string(&destination - destinations.data() + 1) + " of " +
          std::to_string(destinations.size()) + " destinations";
      break;
    }
  }

  dp::QueryResult query;
  query.reachable_pairs = reachable;
  query.unreachable_pairs = unreachable;
  result.queries.push_back(query);
  result.control_plane.wall_seconds = total_watch.ElapsedSeconds();
  result.control_plane.modeled_seconds =
      sequential_seconds / std::max(1, options_.cores);
  result.peak_memory_bytes = peak + checksum * 0;  // checksum kept live
  result.worker_peaks = {result.peak_memory_bytes};
  result.total_best_routes = destinations.size() * 6;
  return result;
}

}  // namespace s2::core
