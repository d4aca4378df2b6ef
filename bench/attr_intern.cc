// Attribute hash-consing on the paper's DCN: what the flyweight buys.
//
// Runs the default topo::MakeDcn() control plane through a MonoEngine
// with a MemoryTracker and compares the amortized accounting (every route
// copy at Route::UniqueBytes + each distinct attribute tuple charged once,
// DESIGN.md §4) against the pool's shadow counters for the pre-flyweight
// layout (Route::PlainBytes per copy). The shadow peak is what the same
// run would have cost before interning, so peak_ratio is the memory
// reduction the candidate/best tables see — the EXPERIMENTS.md claim is
// peak_ratio >= 2. Also reports the intern dedup ratio and the wire-side
// attribute-table savings. Writes BENCH_attr_intern.json.
//
//   ./attr_intern
#include <cstdio>

#include "config/parser.h"
#include "config/vendor.h"
#include "core/s2.h"
#include "cp/engine.h"
#include "topo/dcn.h"
#include "util/memory_tracker.h"

using namespace s2;

int main() {
  topo::Network network = topo::MakeDcn(topo::DcnParams{});
  auto parsed = config::ParseNetwork(config::SynthesizeConfigs(network));
  std::printf("=== attribute interning: default DCN (%zu switches, %zu "
              "links) ===\n\n",
              parsed.graph.size(), parsed.graph.edge_count());

  util::MemoryTracker tracker("attr-bench");
  cp::MonoEngine engine(parsed, &tracker);
  cp::RibStore store;
  engine.Run(cp::BuildShardPlan(parsed, 1), store);

  const cp::AttrPool::Stats stats = engine.attr_pool().stats();
  const size_t interned_peak = tracker.peak_bytes();
  const size_t plain_peak = stats.peak_plain_bytes;
  const double peak_ratio =
      interned_peak > 0 ? double(plain_peak) / double(interned_peak) : 0.0;

  std::printf("%-38s %zu\n", "best routes at the fixed point:",
              engine.stats().total_best_routes);
  std::printf("%-38s %s\n", "candidate-table peak (interned):",
              core::HumanBytes(interned_peak).c_str());
  std::printf("%-38s %s\n", "candidate-table peak (pre-flyweight):",
              core::HumanBytes(plain_peak).c_str());
  std::printf("%-38s %.2fx\n", "peak-memory reduction:", peak_ratio);
  std::printf("%-38s %llu hits / %llu misses (%.4f)\n",
              "intern dedup (hits/misses/ratio):",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              stats.DedupRatio());
  std::printf("%-38s %zu (peak %zu, %s shared)\n",
              "distinct live tuples:", stats.live_entries,
              stats.peak_entries,
              core::HumanBytes(stats.peak_shared_bytes).c_str());
  std::printf("%-38s %llu written / %llu reused / %s saved\n",
              "wire attr tables (spill batches):",
              static_cast<unsigned long long>(stats.wire_tuples_written),
              static_cast<unsigned long long>(stats.wire_tuples_reused),
              core::HumanBytes(stats.wire_bytes_saved).c_str());

  std::FILE* json = std::fopen("BENCH_attr_intern.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n"
        "  \"benchmark\": \"attr_intern_dcn\",\n"
        "  \"topology\": \"dcn-default\",\n"
        "  \"switches\": %zu,\n"
        "  \"best_routes\": %zu,\n"
        "  \"interned_peak_bytes\": %zu,\n"
        "  \"plain_equivalent_peak_bytes\": %zu,\n"
        "  \"peak_reduction_ratio\": %.3f,\n"
        "  \"intern_hits\": %llu,\n"
        "  \"intern_misses\": %llu,\n"
        "  \"dedup_ratio\": %.6f,\n"
        "  \"peak_distinct_tuples\": %zu,\n"
        "  \"peak_shared_bytes\": %zu,\n"
        "  \"wire_tuples_written\": %llu,\n"
        "  \"wire_tuples_reused\": %llu,\n"
        "  \"wire_bytes_saved\": %llu\n"
        "}\n",
        parsed.graph.size(), engine.stats().total_best_routes,
        interned_peak, plain_peak, peak_ratio,
        static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.misses), stats.DedupRatio(),
        stats.peak_entries, stats.peak_shared_bytes,
        static_cast<unsigned long long>(stats.wire_tuples_written),
        static_cast<unsigned long long>(stats.wire_tuples_reused),
        static_cast<unsigned long long>(stats.wire_bytes_saved));
    std::fclose(json);
    std::printf("\nwrote BENCH_attr_intern.json\n");
  }

  if (peak_ratio < 2.0) {
    std::printf("FAIL: expected >= 2x peak-memory reduction\n");
    return 1;
  }
  return 0;
}
