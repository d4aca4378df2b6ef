#include "dist/query_executor.h"

#include <algorithm>

#include "bdd/bdd_io.h"
#include "fault/checkpoint.h"
#include "obs/trace.h"

namespace s2::dist {

void SerializeFinals(const std::vector<dp::FinalPacket>& finals,
                     std::vector<SerializedFinal>& out) {
  for (const dp::FinalPacket& final : finals) {
    SerializedFinal serialized;
    serialized.src = final.src;
    serialized.node = final.node;
    serialized.state = final.state;
    serialized.path = final.path;
    serialized.set = bdd::Serialize(final.set);
    out.push_back(std::move(serialized));
  }
}

void DeserializeFinals(const std::vector<SerializedFinal>& finals,
                       bdd::Manager& manager,
                       std::vector<dp::FinalPacket>& out,
                       size_t& wire_bytes) {
  for (const SerializedFinal& final : finals) {
    wire_bytes += final.WireBytes();
    dp::FinalPacket packet;
    packet.src = final.src;
    packet.node = final.node;
    packet.state = final.state;
    packet.path = final.path;
    packet.set = bdd::DeserializeInto(manager, final.set);
    out.push_back(std::move(packet));
  }
}

QueryExecutor::QueryExecutor(size_t num_workers,
                             const NodePredicates* predicates,
                             const std::vector<uint32_t>* worker_of,
                             Options options)
    : predicates_(predicates),
      worker_of_(worker_of),
      options_(std::move(options)),
      domains_(num_workers) {}

bool QueryExecutor::EnsureDomain(uint32_t w) {
  Domain& domain = domains_[w];
  if (domain.engine != nullptr) return false;
  obs::Span span("dp", "dp.domain_build");
  span.Arg("worker", static_cast<int64_t>(w));
  bdd::Manager::Options manager_options;
  manager_options.max_nodes = options_.max_bdd_nodes;
  if (w < options_.trackers.size()) {
    manager_options.tracker = options_.trackers[w];
  }
  auto manager = std::make_unique<bdd::Manager>(
      options_.layout.total_bits(), manager_options);
  if (options_.hold_gc) manager->PauseGc();
  dp::ForwardingEngine::Options engine_options;
  engine_options.max_hops = options_.max_hops;
  auto engine = std::make_unique<dp::ForwardingEngine>(
      dp::PacketCodec(manager.get(), options_.layout), engine_options);
  for (const auto& [id, bytes] : *predicates_) {
    if ((*worker_of_)[id] != w) continue;
    // AddNode pins the predicate roots: the snapshot surface is immutable
    // for the domain's lifetime (bdd.h, PinRoot).
    engine->AddNode(id, fault::DeserializePredicates(*manager, bytes));
  }
  // Installed only once complete: a SimulatedOom mid-build leaves the
  // slot empty, not half-built.
  domain.manager = std::move(manager);
  domain.engine = std::move(engine);
  return true;
}

QueryExecutor::Run QueryExecutor::Execute(const dp::Query& query,
                                          std::vector<uint32_t>& scope) {
  Run run;
  bdd::Manager::CacheStats before = cache_stats();
  for (uint32_t w : scope) run.domains_built += EnsureDomain(w) ? 1 : 0;
  for (uint32_t w : scope) dp::PrepareQuery(*domains_[w].engine, query);

  std::vector<dp::WirePacket> crossing;
  for (;;) {
    size_t steps_before = 0, steps_after = 0;
    for (uint32_t w : scope) {
      dp::ForwardingEngine& engine = *domains_[w].engine;
      steps_before += engine.steps();
      engine.Run([&](const dp::InFlightPacket& packet) {
        crossing.push_back(dp::ToWire(packet));
      });
      steps_after += engine.steps();
    }
    ++run.rounds;
    if (crossing.empty()) {
      if (steps_after == steps_before) break;
      continue;
    }
    for (const dp::WirePacket& wire : crossing) {
      run.comm_bytes += wire.WireBytes();
      ++run.comm_messages;
      uint32_t dest = (*worker_of_)[wire.at];
      if (!std::binary_search(scope.begin(), scope.end(), dest)) {
        if (EnsureDomain(dest)) ++run.domains_built;
        dp::PrepareQuery(*domains_[dest].engine, query);
        scope.insert(std::upper_bound(scope.begin(), scope.end(), dest),
                     dest);
        ++run.fallbacks;
      }
      Domain& domain = domains_[dest];
      domain.engine->Accept(dp::FromWire(wire, *domain.manager));
    }
    crossing.clear();
  }

  // Ascending worker order: the order Dpo::RunQuery gathers in (unscoped
  // workers contribute nothing by construction).
  for (uint32_t w : scope) {
    SerializeFinals(domains_[w].engine->finals(), run.finals);
  }
  bdd::Manager::CacheStats after = cache_stats();
  run.cache.hits = after.hits - before.hits;
  run.cache.misses = after.misses - before.misses;
  run.cache.evictions = after.evictions - before.evictions;
  return run;
}

void QueryExecutor::Collect() {
  for (const Domain& domain : domains_) {
    if (domain.manager) domain.manager->GarbageCollect();
  }
}

bdd::Manager::CacheStats QueryExecutor::cache_stats() const {
  bdd::Manager::CacheStats total;
  for (const Domain& domain : domains_) {
    if (domain.manager) total += domain.manager->cache_stats();
  }
  return total;
}

}  // namespace s2::dist
