// s2perf — the repository benchmark: one workload, one seed per run.
//
//   s2perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          --tmp <dir>
//
// Every workload runs the same phases on its own network (see README.md
// for why each was chosen):
//
//   set-up   config text -> verdicts on a fresh Controller,
//            ExportSnapshot, Publish, QueryService construction. This
//            first, cold set-up's service stays up for the serve cycles.
//   warm-up  one untimed Serve per serve key fills the predicate cache.
//   timed    for --seconds, interleaved: verifications from config text
//            to verdicts, each layer call timed from outside (parse,
//            Controller construction + Setup, RunControlPlane,
//            BuildDataPlanes, RunQuery, destruction), and serve cycles — a
//            seeded closed-loop stream of single-source Serve calls with a
//            single-link-failure ServeWhatIf after every 64. The share of
//            time spent verifying is set per workload. Seven more set-ups,
//            each building a service it then drops, are spread evenly
//            over the phase; setup_s is their median.
//   oracle   untimed: every verdict is checked against MonoVerifier and
//            every distinct what-if against a cold re-verification.
//
// Spills go to `--tmp`, a directory the caller creates for this run; the
// run counts what is left in it after every teardown, then deletes it.
//
// With --trace 1 the tracer (obs::Tracer) is switched on for every other
// operation; benchmark spans around each layer call give per-layer self
// time, and the untraced operations in between give the per-layer ledger
// and the tracing overhead. The last stdout line is the result object.

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "config/vendor.h"
#include "core/mono.h"
#include "core/s2.h"
#include "ledger.h"
#include "svc/query_service.h"
#include "topo/dcn.h"
#include "topo/fattree.h"
#include "util/rng.h"
#include "util/status.h"

using namespace s2;
using s2perf::Cost;
using s2perf::Fmt;
using s2perf::Measure;
using s2perf::Median;
using s2perf::MetricTable;
using s2perf::Ratio;

namespace {

constexpr uint32_t kWorkers = 4;
// Set-ups timed for setup_s, after the first (cold) one.
constexpr int kSetups = 7;
// 1.5x the predicate cache's 256 entries: under uniform draws about a
// third of the serves miss and evict, the rest hit, so the median serve
// takes the hit path and the tail the miss path.
constexpr size_t kServeKeys = 384;
constexpr int kMinVerifications = 3;
constexpr size_t kServesPerWhatIf = 64;
constexpr size_t kMinWhatIfs = 3;
// Distinct single-link failures the what-if stream draws from. The oracle
// re-verifies each one cold, which costs a full verification.
constexpr size_t kWhatIfLinks = 2;

// Fig 4's stand-in for the production DCN: 3 three-layer and 2 five-layer
// clusters under a shared core (131 switches, 60 TORs).
topo::Network Fig4Dcn() {
  topo::DcnParams params;
  params.small_clusters = 3;
  params.big_clusters = 2;
  params.tors_per_pod = 6;
  params.leafs_per_pod = 3;
  params.pods_per_cluster = 2;
  params.spines_per_cluster = 3;
  params.fabrics_per_cluster = 3;
  params.cores = 6;
  params.borders = 2;
  return topo::MakeDcn(params);
}

topo::Network FatTree12() {
  topo::FatTreeParams params;
  params.k = 12;
  return topo::MakeFatTree(params);
}

struct WorkloadSpec {
  const char* name;
  topo::Network (*make_network)();
  int shards;
  // Share of --seconds spent on repeated verification; the serve stream
  // gets the rest. A what-if on the unsharded FatTree is a whole-network
  // re-simulation, so it gets more of the run.
  double verify_share;
};

const WorkloadSpec kWorkloads[] = {
    {"verify-dcn-sharded", Fig4Dcn, 20, 0.6},
    {"verify-fattree-flat", FatTree12, 0, 0.4},
};

// ------------------------------------------------------------------ inputs

// Everything the seed determines. The networks themselves are fixed (the
// device order decides the partition, and so how much work a run does);
// the seed draws the serve keys, the serve stream and the failed links.
struct Inputs {
  std::vector<std::string> config_texts;
  size_t config_bytes = 0;
  dp::Query verify_query;  // all edge/TOR pairs over 10.0.0.0/8
  size_t expected_pairs = 0;
  std::vector<dp::Query> serve_keys;
  std::vector<std::pair<topo::NodeId, topo::NodeId>> whatif_links;
  uint64_t seed = 0;
};

// The destination's own business prefix: its shortest announced prefix
// inside 10.0.0.0/8.
util::IpPrefix BusinessPrefix(const config::ViConfig& config) {
  const util::IpPrefix space = util::MustParsePrefix("10.0.0.0/8");
  std::optional<util::IpPrefix> best;
  for (const util::IpPrefix& prefix : config.bgp.networks) {
    if (!space.Contains(prefix)) continue;
    if (!best || prefix.length() < best->length()) best = prefix;
  }
  return best.value_or(space);
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs inputs;
  inputs.seed = seed;
  inputs.config_texts = config::SynthesizeConfigs(spec.make_network());
  for (const std::string& text : inputs.config_texts) {
    inputs.config_bytes += text.size();
  }
  config::ParsedNetwork parsed = config::ParseNetwork(inputs.config_texts);

  std::vector<topo::NodeId> edges;
  for (topo::NodeId id = 0; id < parsed.graph.size(); ++id) {
    if (parsed.graph.node(id).role == topo::Role::kEdge) edges.push_back(id);
  }
  inputs.verify_query.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  inputs.verify_query.sources = edges;
  inputs.verify_query.destinations = edges;
  inputs.expected_pairs = edges.size() * (edges.size() - 1);

  util::Rng rng(seed);
  std::vector<std::pair<topo::NodeId, topo::NodeId>> keys;
  for (topo::NodeId src : edges) {
    for (topo::NodeId dst : edges) {
      if (dst != src) keys.emplace_back(src, dst);
    }
  }
  rng.Shuffle(keys);
  keys.resize(std::min(keys.size(), kServeKeys));
  for (const auto& [src, dst] : keys) {
    dp::Query query;
    query.sources = {src};
    query.destinations = {dst};
    query.header_space.dst = BusinessPrefix(parsed.configs[dst]);
    inputs.serve_keys.push_back(std::move(query));
  }

  std::vector<size_t> links(parsed.graph.edge_count());
  for (size_t e = 0; e < links.size(); ++e) links[e] = e;
  rng.Shuffle(links);
  links.resize(std::min(links.size(), kWhatIfLinks));
  for (size_t e : links) {
    const topo::Edge& edge = parsed.graph.edge(e);
    inputs.whatif_links.emplace_back(edge.a, edge.b);
  }
  return inputs;
}

// ------------------------------------------------------------ verification

// The first difference between two verdicts on the same query, or "" when
// they agree. Final counts are compared exactly only between runs on the
// same worker count: a final set that crosses a worker boundary is
// recorded once per worker-side fragment, so across verifiers (S2 against
// the monolithic baseline) the counts are compared as presence, as the
// differential suite does.
std::string VerdictDiff(const dp::QueryResult& a, const dp::QueryResult& b,
                        bool exact_finals) {
  if (a.reachability.size() != b.reachability.size()) {
    return "reachability pair lists differ in length";
  }
  for (size_t i = 0; i < a.reachability.size(); ++i) {
    const dp::ReachabilityPair& x = a.reachability[i];
    const dp::ReachabilityPair& y = b.reachability[i];
    if (x.src != y.src || x.dst != y.dst || x.fraction != y.fraction ||
        x.reachable != y.reachable) {
      return "reachability pair " + std::to_string(i) + " differs";
    }
  }
  if (a.reachable_pairs != b.reachable_pairs ||
      a.unreachable_pairs != b.unreachable_pairs) {
    return "pair counts differ";
  }
  if (a.loop_free != b.loop_free || a.blackhole_free != b.blackhole_free) {
    return "loop/blackhole verdicts differ";
  }
  if (a.multipath_violations.size() != b.multipath_violations.size()) {
    return "multipath violations differ";
  }
  bool finals_agree =
      exact_finals ? a.loop_finals == b.loop_finals &&
                         a.blackhole_finals == b.blackhole_finals
                   : (a.loop_finals > 0) == (b.loop_finals > 0) &&
                         (a.blackhole_finals > 0) == (b.blackhole_finals > 0);
  if (!finals_agree) {
    return "finals differ: loop " + std::to_string(a.loop_finals) + " vs " +
           std::to_string(b.loop_finals) + ", blackhole " +
           std::to_string(a.blackhole_finals) + " vs " +
           std::to_string(b.blackhole_finals);
  }
  return "";
}

// One verification from config text to verdict, with every layer call
// measured and every count read from public return values and accessors.
struct VerifySample {
  bool ok = false;
  std::string failure;
  Cost total, parse, setup, cp, build, query, teardown;
  dist::RoundMetrics cp_rounds, build_rounds, query_rounds;
  double shard_wall_max_s = 0;
  size_t comm_bytes = 0;
  size_t best_routes = 0;
  size_t max_worker_peak = 0;
  double worker_peak_imbalance = 0;
  size_t spill_bytes = 0;
  size_t spill_routes = 0;
  size_t forwarding_steps = 0;
  size_t gather_bytes = 0;
  dp::QueryResult result;
};

// `before_teardown` (may be empty) sees the converged controller just
// before it is destroyed; set-up captures its snapshot there.
VerifySample Verify(const Inputs& inputs,
                    const dist::ControllerOptions& options,
                    const std::function<void(dist::Controller&)>&
                        before_teardown = {}) {
  VerifySample sample;
  sample.total = Measure("verify", [&] {
    config::ParsedNetwork network;
    sample.parse = Measure("config.parse", [&] {
      network = config::ParseNetwork(inputs.config_texts);
    });
    std::unique_ptr<dist::Controller> controller;
    try {
      sample.setup = Measure("dist.setup", [&] {
        controller = std::make_unique<dist::Controller>(std::move(network),
                                                        options);
        controller->Setup();
      });
      sample.cp = Measure("cp.run", [&] {
        sample.cp_rounds = controller->RunControlPlane();
      });
      sample.build = Measure("dp.build", [&] {
        sample.build_rounds = controller->BuildDataPlanes();
      });
      dist::Controller::QueryOutcome outcome;
      sample.query = Measure("dp.query", [&] {
        outcome = controller->RunQuery(inputs.verify_query);
      });
      sample.query_rounds = outcome.metrics;
      sample.forwarding_steps = outcome.forwarding_steps;
      sample.gather_bytes = outcome.gather_bytes;
      sample.result = std::move(outcome.result);
      sample.ok = true;
    } catch (const util::SimulatedOom& error) {
      sample.failure = std::string("out of memory: ") + error.what();
    } catch (const util::SimulatedTimeout& error) {
      sample.failure = std::string("timeout: ") + error.what();
    } catch (const util::WorkerLost& error) {
      sample.failure = std::string("worker lost: ") + error.what();
    }
    if (controller) {
      for (const dist::ShardMetrics& shard : controller->shard_metrics()) {
        sample.shard_wall_max_s =
            std::max(sample.shard_wall_max_s, shard.rounds.wall_seconds);
      }
      sample.comm_bytes = controller->TotalCommBytes();
      sample.best_routes = controller->TotalBestRoutes();
      sample.max_worker_peak = controller->MaxWorkerPeakBytes();
      std::vector<size_t> peaks = controller->WorkerPeakBytes();
      double sum = 0;
      for (size_t peak : peaks) sum += static_cast<double>(peak);
      sample.worker_peak_imbalance =
          peaks.empty() ? 0
                        : Ratio(static_cast<double>(sample.max_worker_peak),
                                sum / static_cast<double>(peaks.size()));
      if (std::shared_ptr<const cp::RibStore> store = controller->rib_store()) {
        sample.spill_bytes = store->bytes_written();
        sample.spill_routes = store->routes_written();
      }
      if (sample.ok && before_teardown) before_teardown(*controller);
    }
    sample.teardown = Measure("dist.teardown", [&] { controller.reset(); });
  });
  return sample;
}

// The known answer for the all-pair query on these networks.
bool KnownAnswer(const VerifySample& sample, const Inputs& inputs) {
  return sample.ok && sample.result.reachable_pairs == inputs.expected_pairs &&
         sample.result.unreachable_pairs == 0 && sample.result.loop_free;
}

// -------------------------------------------------------------- the run

struct TraceSelf {
  std::vector<double> config, dist, cp, dp_build, dp_query, unattributed;
  std::vector<double> verify_wall, serve_ms, whatif_ms, capture;
};

// Runs `op`, traced when `traced`; returns the benchmark spans' self times.
std::map<std::string, double> Traced(bool traced,
                                     const std::function<void()>& op) {
  if (!traced) {
    op();
    return {};
  }
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Enable();
  op();
  tracer.Disable();
  std::map<std::string, double> self = s2perf::SelfSeconds(tracer.events());
  tracer.Clear();
  return self;
}

class Run {
 public:
  Run(const WorkloadSpec& spec, const Inputs& inputs, bool trace)
      : spec_(spec), inputs_(inputs), trace_(trace) {
    options_.num_workers = kWorkers;
    options_.num_shards = spec.shards;
  }

  // The first set-up converges the base the serves run on and warms up
  // the timed verifications. It runs cold, so it is not one of setup_s's
  // samples; those are taken during the timed phase.
  void SetUp() {
    Service first = SetUpOnce(false, false);
    registry_ = std::move(first.registry);
    service_ = std::move(first.service);
  }

  struct Service {
    std::unique_ptr<svc::SnapshotRegistry> registry;
    std::unique_ptr<svc::QueryService> service;
  };

  // One set-up: config text -> verdicts on a fresh Controller,
  // ExportSnapshot, Publish and QueryService construction. `record` keeps
  // its times. Returns no service if it failed.
  Service SetUpOnce(bool traced, bool record) {
    Service built;
    std::optional<svc::Snapshot> snapshot;
    Cost capture;
    VerifySample sample;
    Cost total;
    auto self = Traced(traced, [&] {
      total = Measure("setup", [&] {
        sample = Verify(inputs_, options_, [&](dist::Controller& c) {
          capture = Measure("svc.capture",
                            [&] { snapshot = svc::CaptureSnapshot(c); });
        });
        if (!snapshot) return;
        Measure("svc.publish", [&] {
          built.registry = std::make_unique<svc::SnapshotRegistry>();
          built.registry->Publish(std::move(*snapshot));
        });
        Measure("svc.construct", [&] {
          built.service = std::make_unique<svc::QueryService>(
              built.registry.get(), svc::QueryService::Options{});
        });
      });
    });
    ++attempted_;
    if (!KnownAnswer(sample, inputs_) || !built.service) {
      Fail("set-up: " +
           (sample.ok ? "wrong verdict or no snapshot" : sample.failure));
      return {};
    }
    if (reference_) {
      Check(VerdictDiff(sample.result, *reference_, true),
            "set-up against the first verification");
    }
    if (!record) return built;
    if (traced) {
      trace_self_.capture.push_back(self["svc.capture"]);
    } else {
      setup_s_.push_back(total.wall_s);
      capture_s_.push_back(capture.wall_s);
    }
    return built;
  }

  // Serves every key once, untimed, so the timed stream starts from the
  // predicate cache's steady state rather than from 256 cold misses.
  void WarmCache() {
    if (!service_) return;
    for (size_t key = 0; key < inputs_.serve_keys.size(); ++key) {
      svc::QueryService::Served served =
          service_->Serve(inputs_.serve_keys[key]);
      ++attempted_;
      if (served.epoch == 0) {
        Fail("warm-up serve answered from an empty epoch");
        continue;
      }
      served_.emplace(key, std::move(served.result));
    }
  }

  // The timed phase: verifications and serve cycles (64 serves, then one
  // what-if) interleaved over `seconds`, each kind getting its workload's
  // share of the time, and kSetups set-ups spread evenly between them
  // (their time is on top of `seconds`). Interleaving spreads every
  // metric's samples over the whole run, so a burst of load on the machine
  // lands on all of them alike.
  void TimedPhase(double seconds, double verify_share) {
    if (!service_) return;
    svc::QueryService::Stats stats0 = service_->stats();
    bdd::Manager::CacheStats op0 = service_->OpCacheStats();
    util::Rng draw(inputs_.seed ^ 0x5e57e5e5ULL);
    double verify_s = 0, serve_s = 0, last = 0;
    int verifications = 0, setups = 0;
    size_t cycles = 0;
    const int min_verifications = kMinVerifications * (trace_ ? 2 : 1);
    const size_t min_cycles = kMinWhatIfs * (trace_ ? 2 : 1);
    for (;;) {
      double spent = verify_s + serve_s;
      bool time_left = spent + last <= seconds;
      if (setups < kSetups &&
          (!time_left || (setups + 0.5) * seconds / kSetups <= spent)) {
        SetUpOnce(trace_ && setups % 2 == 1, true);
        ++setups;
        continue;
      }
      if (!time_left && verifications >= min_verifications &&
          cycles >= min_cycles) {
        break;
      }
      bool verify_next =
          time_left ? verify_s * (1 - verify_share) <= serve_s * verify_share
                    : verifications < min_verifications;
      if (verify_next) {
        last = VerifyOnce(trace_ && verifications % 2 == 1);
        verify_s += last;
        ++verifications;
      } else {
        last = ServeCycle(draw, trace_ && cycles % 2 == 1);
        serve_s += last;
        ++cycles;
      }
    }
    svc::QueryService::Stats stats1 = service_->stats();
    bdd::Manager::CacheStats op1 = service_->OpCacheStats();
    svc_.cache_hits = stats1.cache_hits - stats0.cache_hits;
    svc_.cache_misses = stats1.cache_misses - stats0.cache_misses;
    svc_.cache_evictions = stats1.cache_evictions - stats0.cache_evictions;
    svc_.workers_scoped = stats1.workers_scoped - stats0.workers_scoped;
    svc_.workers_total = stats1.workers_total - stats0.workers_total;
    svc_.domains_built = stats1.domains_built;  // since construction
    op_hits_ = op1.hits - op0.hits;
    op_lookups_ = op_hits_ + (op1.misses - op0.misses);
  }

  // One timed verification; returns its wall time.
  double VerifyOnce(bool traced) {
    VerifySample sample;
    auto self = Traced(traced, [&] { sample = Verify(inputs_, options_); });
    double wall = sample.total.wall_s;
    ++attempted_;
    if (!KnownAnswer(sample, inputs_)) {
      Fail("verification: " + (sample.ok ? "wrong verdict" : sample.failure));
      return wall;
    }
    if (!reference_) {
      reference_ = sample.result;
      reference_routes_ = sample.best_routes;
    } else {
      Check(VerdictDiff(sample.result, *reference_, true),
            "verification against the first verification");
      if (sample.best_routes != reference_routes_) {
        Fail("best-route count differs from the first verification");
      }
    }
    if (traced) {
      trace_self_.verify_wall.push_back(wall);
      trace_self_.config.push_back(self["config.parse"]);
      trace_self_.dist.push_back(self["dist.setup"] + self["dist.teardown"]);
      trace_self_.cp.push_back(self["cp.run"]);
      trace_self_.dp_build.push_back(self["dp.build"]);
      trace_self_.dp_query.push_back(self["dp.query"]);
      trace_self_.unattributed.push_back(self["verify"]);
    } else {
      verifications_.push_back(std::move(sample));
      verifications_.back().result = {};  // the reference keeps one copy
    }
    return wall;
  }

  // 64 seeded serves, then one single-link-failure what-if; returns the
  // wall time of the calls.
  double ServeCycle(util::Rng& draw, bool traced) {
    double elapsed = 0;
    for (size_t i = 0; i < kServesPerWhatIf; ++i) {
      size_t key = draw.Below(inputs_.serve_keys.size());
      svc::QueryService::Served served;
      Cost cost;
      auto self = Traced(traced, [&] {
        cost = Measure("svc.serve", [&] {
          served = service_->Serve(inputs_.serve_keys[key]);
        });
      });
      elapsed += cost.wall_s;
      ++attempted_;
      if (served.epoch == 0) {
        Fail("serve answered from an empty epoch");
        continue;
      }
      // Warm-up served every key once; each timed answer, hit or miss,
      // must match that first one exactly.
      auto first = served_.find(key);
      if (first == served_.end()) {
        served_.emplace(key, std::move(served.result));
      } else {
        Check(VerdictDiff(served.result, first->second, true),
              "serve key " + std::to_string(key) + " against its first answer");
      }
      if (traced) {
        trace_self_.serve_ms.push_back(1e3 * self["svc.serve"]);
        continue;
      }
      serve_ms_.push_back(1e3 * cost.wall_s);
      (served.cache_hit ? warm_ms_ : cold_ms_).push_back(1e3 * cost.wall_s);
    }

    size_t link = draw.Below(inputs_.whatif_links.size());
    const auto& [a, b] = inputs_.whatif_links[link];
    std::optional<svc::QueryService::WhatIfServed> whatif;
    Cost cost;
    auto self = Traced(traced, [&] {
      cost = Measure("incr.whatif", [&] {
        whatif = service_->ServeWhatIf(core::RemoveLinkScenario(a, b),
                                       {inputs_.verify_query});
      });
    });
    elapsed += cost.wall_s;
    ++attempted_;
    if (!whatif || whatif->epoch == 0 || !whatif->incremental.result.ok() ||
        whatif->incremental.result.queries.size() != 1 ||
        whatif->base.size() != 1) {
      Fail("what-if on link " + std::to_string(link) + " failed");
      return elapsed;
    }
    if (reference_) {
      Check(VerdictDiff(whatif->base[0].result, *reference_, true),
            "what-if base verdict against the verification");
    }
    const core::IncrementalResult& inc = whatif->incremental;
    // A repeated what-if must match the link's first one, which the oracle
    // checks against a cold re-verification.
    auto first = whatifs_.find(link);
    if (first == whatifs_.end()) {
      whatifs_.emplace(link, std::make_pair(inc.result.queries[0],
                                            inc.result.total_best_routes));
    } else {
      std::string what = "what-if on link " + std::to_string(link) +
                         " against its first answer";
      Check(VerdictDiff(inc.result.queries[0], first->second.first, true),
            what);
      if (inc.result.total_best_routes != first->second.second) {
        Fail(what + ": best-route counts differ");
      }
    }
    if (traced) {
      trace_self_.whatif_ms.push_back(1e3 * self["incr.whatif"]);
      return elapsed;
    }
    whatif_ms_.push_back(1e3 * cost.wall_s);
    incr_cp_s_.push_back(inc.result.control_plane.wall_seconds);
    incr_dp_s_.push_back(inc.result.dp_build.wall_seconds);
    incr_query_s_.push_back(inc.result.dp_forward.wall_seconds);
    const core::IncrementalStats& st = inc.stats;
    incr_.impacted_prefixes += st.impacted_prefixes;
    incr_.universe_prefixes += st.universe_prefixes;
    incr_.nodes_rebuilt += st.nodes_rebuilt;
    incr_.nodes_total += st.nodes_total;
    incr_.queries_reverified += st.queries_reverified;
    incr_.queries_total += st.queries_total;
    if (st.full_fallback) ++fallbacks_;
    return elapsed;
  }

  // Untimed: the verdicts against the monolithic verifier, every distinct
  // what-if against a cold re-verification of the edited network.
  void Oracle() {
    peak_rss_mb_ = s2perf::PeakRssMb();
    config::ParsedNetwork network = config::ParseNetwork(inputs_.config_texts);
    std::vector<dp::Query> queries = {inputs_.verify_query};
    std::vector<size_t> keys;
    for (const auto& [key, result] : served_) {
      keys.push_back(key);
      queries.push_back(inputs_.serve_keys[key]);
    }
    core::MonoVerifier mono(core::MonoOptions{});
    core::VerifyResult expected = mono.Verify(network, queries);
    if (!expected.ok() || expected.queries.size() != queries.size()) {
      Fail("monolithic oracle did not complete");
      return;
    }
    if (reference_) {
      Check(VerdictDiff(*reference_, expected.queries[0], false),
            "verification against MonoVerifier");
    }
    if (reference_routes_ != expected.total_best_routes) {
      Fail("cp.best_routes " + std::to_string(reference_routes_) +
           " differs from MonoVerifier's " +
           std::to_string(expected.total_best_routes));
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      Check(VerdictDiff(served_.at(keys[i]), expected.queries[i + 1], false),
            "serve key " + std::to_string(keys[i]) + " against MonoVerifier");
    }
    for (const auto& [link, whatif] : whatifs_) {
      const auto& [a, b] = inputs_.whatif_links[link];
      core::S2Verifier cold(options_);
      core::VerifyResult result = cold.Verify(
          core::ApplyScenario(network, core::RemoveLinkScenario(a, b)),
          {inputs_.verify_query});
      std::string what = "what-if on link " + std::to_string(link) +
                         " against a cold re-verification";
      if (!result.ok() || result.queries.size() != 1) {
        Fail(what + ": cold run failed");
        continue;
      }
      Check(VerdictDiff(whatif.first, result.queries[0], true), what);
      if (result.total_best_routes != whatif.second) {
        Fail(what + ": best-route counts differ");
      }
    }
  }

  // Drops the service and its snapshot; returns the entries the spill
  // store left in `dir`.
  size_t Teardown(const std::filesystem::path& dir) {
    service_.reset();
    registry_.reset();
    size_t residue = 0;
    std::error_code ec;
    for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
         !ec && it != std::filesystem::recursive_directory_iterator();
         it.increment(ec)) {
      ++residue;
    }
    return residue;
  }

  void Report(size_t residue) const {
    MetricTable e2e = EndToEnd();
    MetricTable layers = PerLayer(residue);
    std::printf("workload %s, seed %llu, %u workers, %d shards\n", spec_.name,
                static_cast<unsigned long long>(inputs_.seed), kWorkers,
                spec_.shards);
    e2e.Print("end-to-end:");
    layers.Print("per layer:");
    std::printf("fail_frac %.6f (%zu failed of %zu attempted)\n",
                Ratio(static_cast<double>(failed_),
                      static_cast<double>(attempted_)),
                failed_, attempted_);
    std::printf(
        "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
        "\"metrics\": {%s}}\n",
        failed_ == 0 ? "true" : "false", attempted_, failed_,
        (trace_ ? layers : e2e).JsonMembers().c_str());
  }

  bool correct() const { return failed_ == 0; }

 private:
  void Fail(const std::string& what) {
    ++failed_;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }

  void Check(const std::string& diff, const std::string& what) {
    if (!diff.empty()) Fail(what + ": " + diff);
  }

  template <typename Field>
  std::vector<double> Each(Field field) const {
    std::vector<double> values;
    for (const VerifySample& sample : verifications_) {
      values.push_back(field(sample));
    }
    return values;
  }

  MetricTable EndToEnd() const {
    MetricTable table;
    size_t n = verifications_.size();
    std::string of_n = "median of " + std::to_string(n);
    table.Add("verify_s", Median(Each([](auto& s) { return s.total.wall_s; })),
              "s", of_n + " verifications");
    table.Add("verify_cpu_s",
              Median(Each([](auto& s) { return s.total.cpu_s(); })), "s",
              of_n + ", user+sys");
    table.Add("peak_worker_mb",
              Median(Each([](auto& s) {
                return static_cast<double>(s.max_worker_peak) / 1e6;
              })),
              "MB", of_n);
    table.Add("peak_rss_mb", peak_rss_mb_, "MB", "before the oracle");
    table.Add("setup_s", Median(setup_s_), "s",
              "median of " + std::to_string(setup_s_.size()) + " set-ups");
    AddLatency(table, "serve", serve_ms_);
    AddLatency(table, "whatif", whatif_ms_);
    return table;
  }

  static void AddLatency(MetricTable& table, const std::string& name,
                         const std::vector<double>& ms) {
    s2perf::Tail tail = s2perf::TailOf(ms);
    table.Add(name + "_p50_ms", Median(ms), "ms",
              "n=" + std::to_string(ms.size()));
    table.Add(name + "_tail_ms", tail.value, "ms",
              Fmt("p%.1f of n=%.0f", tail.percentile,
                  static_cast<double>(tail.samples)));
  }

  MetricTable PerLayer(size_t residue) const {
    MetricTable t;
    auto med = [&](auto field) { return Median(Each(field)); };
    auto mb = [](size_t bytes) { return static_cast<double>(bytes) / 1e6; };
    const double parse_s = med([](auto& s) { return s.parse.wall_s; });
    t.Add("config.parse_s", parse_s, "s");
    t.Add("config.parse_mb_per_s",
          Ratio(mb(inputs_.config_bytes), parse_s), "MB/s",
          Fmt("%.3f MB of config text", mb(inputs_.config_bytes)));
    t.Add("dist.setup_s", med([](auto& s) { return s.setup.wall_s; }), "s",
          "Controller construction + Setup");
    t.Add("dist.teardown_s", med([](auto& s) { return s.teardown.wall_s; }),
          "s", "Controller destruction");
    t.Add("dist.comm_mb",
          med([&](auto& s) { return mb(s.comm_bytes); }), "MB",
          "fabric bytes per verification");
    t.Add("dist.worker_peak_imbalance",
          med([](auto& s) { return s.worker_peak_imbalance; }), "ratio",
          "max over mean of WorkerPeakBytes");
    t.Add("cp.wall_s", med([](auto& s) { return s.cp.wall_s; }), "s");
    t.Add("cp.user_s", med([](auto& s) { return s.cp.user_s; }), "s");
    t.Add("cp.sys_s", med([](auto& s) { return s.cp.sys_s; }), "s");
    t.Add("cp.rounds",
          med([](auto& s) { return double(s.cp_rounds.rounds); }), "count");
    t.Add("cp.shard_wall_max_s",
          med([](auto& s) { return s.shard_wall_max_s; }), "s",
          spec_.shards > 0 ? "slowest shard's rounds" : "unsharded: no shards");
    t.Add("cp.best_routes",
          med([](auto& s) { return double(s.best_routes); }), "count");
    t.Add("ribstore.mb_written",
          med([&](auto& s) { return mb(s.spill_bytes); }), "MB",
          spec_.shards > 0 ? "" : "unsharded: no spill store");
    t.Add("ribstore.routes_written",
          med([](auto& s) { return double(s.spill_routes); }), "count");
    t.Add("ribstore.residue_entries", double(residue), "count",
          "left in the run's temp dir after every teardown");
    t.Add("dp.build_s", med([](auto& s) { return s.build.wall_s; }), "s");
    t.Add("dp.build_cpu_s", med([](auto& s) { return s.build.cpu_s(); }), "s");
    AddHitRatio(t, "bdd.build_hit_ratio", [](auto& s) -> auto& {
      return s.build_rounds;
    });
    t.Add("bdd.build_evictions",
          med([](auto& s) { return double(s.build_rounds.bdd_cache_evictions); }),
          "count");
    t.Add("dp.query_s", med([](auto& s) { return s.query.wall_s; }), "s");
    t.Add("dp.forwarding_steps",
          med([](auto& s) { return double(s.forwarding_steps); }), "count");
    t.Add("dp.gather_mb", med([&](auto& s) { return mb(s.gather_bytes); }),
          "MB");
    AddHitRatio(t, "bdd.query_hit_ratio", [](auto& s) -> auto& {
      return s.query_rounds;
    });

    t.Add("svc.capture_s", Median(capture_s_), "s",
          "ExportSnapshot, median of set-ups");
    t.Add("svc.cold_serve_ms", Median(cold_ms_), "ms",
          "n=" + std::to_string(cold_ms_.size()) + " cache misses");
    t.Add("svc.warm_serve_ms", Median(warm_ms_), "ms",
          "n=" + std::to_string(warm_ms_.size()) + " cache hits");
    t.Add("svc.cache_hit_ratio",
          Ratio(double(svc_.cache_hits),
                double(svc_.cache_hits + svc_.cache_misses)),
          "ratio",
          Fmt("%.0f hits / %.0f lookups", double(svc_.cache_hits),
              double(svc_.cache_hits + svc_.cache_misses)));
    t.Add("svc.cache_evictions", double(svc_.cache_evictions), "count");
    t.Add("svc.opcache_hit_ratio", Ratio(double(op_hits_), double(op_lookups_)),
          "ratio",
          Fmt("%.0f hits / %.0f lookups", double(op_hits_),
              double(op_lookups_)));
    t.Add("svc.scoped_worker_ratio",
          Ratio(double(svc_.workers_scoped), double(svc_.workers_total)),
          "ratio",
          Fmt("%.0f admitted / %.0f worker domains",
              double(svc_.workers_scoped), double(svc_.workers_total)));
    t.Add("svc.domains_built", double(svc_.domains_built), "count",
          "since the service was constructed");

    t.Add("incr.cp_s", Median(incr_cp_s_), "s",
          "n=" + std::to_string(incr_cp_s_.size()) + " what-ifs");
    t.Add("incr.dp_s", Median(incr_dp_s_), "s");
    t.Add("incr.query_s", Median(incr_query_s_), "s");
    t.Add("incr.impacted_prefix_ratio",
          Ratio(double(incr_.impacted_prefixes),
                double(incr_.universe_prefixes)),
          "ratio",
          Fmt("%.0f impacted / %.0f prefixes", double(incr_.impacted_prefixes),
              double(incr_.universe_prefixes)));
    t.Add("incr.rebuilt_node_ratio",
          Ratio(double(incr_.nodes_rebuilt), double(incr_.nodes_total)),
          "ratio",
          Fmt("%.0f rebuilt / %.0f nodes", double(incr_.nodes_rebuilt),
              double(incr_.nodes_total)));
    t.Add("incr.reverified_query_ratio",
          Ratio(double(incr_.queries_reverified), double(incr_.queries_total)),
          "ratio",
          Fmt("%.0f re-run / %.0f queries", double(incr_.queries_reverified),
              double(incr_.queries_total)));
    t.Add("incr.fallbacks", double(fallbacks_), "count",
          "whole-network re-simulations");

    if (trace_) {
      const TraceSelf& ts = trace_self_;
      std::string of_n =
          "median of " + std::to_string(ts.verify_wall.size()) + " traced";
      t.Add("trace.self.config_s", Median(ts.config), "s", of_n);
      t.Add("trace.self.dist_s", Median(ts.dist), "s",
            "construction + Setup + destruction");
      t.Add("trace.self.cp_s", Median(ts.cp), "s");
      t.Add("trace.self.dp_build_s", Median(ts.dp_build), "s");
      t.Add("trace.self.dp_query_s", Median(ts.dp_query), "s");
      t.Add("trace.self.svc_capture_s", Median(ts.capture), "s");
      t.Add("trace.self.svc_serve_ms", Median(ts.serve_ms), "ms",
            "n=" + std::to_string(ts.serve_ms.size()));
      t.Add("trace.self.incr_whatif_ms", Median(ts.whatif_ms), "ms",
            "n=" + std::to_string(ts.whatif_ms.size()));
      t.Add("trace.unattributed_s", Median(ts.unattributed), "s",
            "verify_s covered by no layer span");
      double traced = Median(ts.verify_wall);
      double untraced = Median(Each([](auto& s) { return s.total.wall_s; }));
      t.Add("trace.verify_s", traced, "s", of_n);
      t.Add("trace.overhead_ratio", Ratio(traced, untraced), "ratio",
            Fmt("traced %.4f s / untraced %.4f s", traced, untraced));
    }
    return t;
  }

  template <typename Rounds>
  void AddHitRatio(MetricTable& t, const char* name, Rounds rounds) const {
    double hits = 0, lookups = 0;
    for (const VerifySample& sample : verifications_) {
      const dist::RoundMetrics& r = rounds(sample);
      hits += double(r.bdd_cache_hits);
      lookups += double(r.bdd_cache_hits + r.bdd_cache_misses);
    }
    t.Add(name, Ratio(hits, lookups), "ratio",
          Fmt("%.0f hits / %.0f lookups", hits, lookups));
  }

  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  const bool trace_;
  dist::ControllerOptions options_;

  std::unique_ptr<svc::SnapshotRegistry> registry_;
  std::unique_ptr<svc::QueryService> service_;

  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<double> setup_s_, capture_s_;
  std::vector<VerifySample> verifications_;
  std::optional<dp::QueryResult> reference_;
  size_t reference_routes_ = 0;
  double peak_rss_mb_ = 0;

  std::vector<double> serve_ms_, cold_ms_, warm_ms_, whatif_ms_;
  std::vector<double> incr_cp_s_, incr_dp_s_, incr_query_s_;
  core::IncrementalStats incr_;  // sums over the untraced what-ifs
  size_t fallbacks_ = 0;
  svc::QueryService::Stats svc_;  // deltas over the timed phase
  size_t op_hits_ = 0, op_lookups_ = 0;
  // First served verdict per serve key / what-if per link: every later
  // answer is checked against it, and the oracle checks it.
  std::map<size_t, dp::QueryResult> served_;
  std::map<size_t, std::pair<dp::QueryResult, size_t>> whatifs_;
  TraceSelf trace_self_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: s2perf --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --tmp <dir>\nworkloads:");
  for (const WorkloadSpec& spec : kWorkloads) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* key : {"--workload", "--seed", "--seconds", "--trace",
                          "--tmp"}) {
    if (args.count(key) == 0) return Usage();
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& candidate : kWorkloads) {
    if (args["--workload"] == candidate.name) spec = &candidate;
  }
  if (spec == nullptr) return Usage();
  uint64_t seed = std::stoull(args["--seed"]);
  double seconds = std::stod(args["--seconds"]);
  bool trace = args["--trace"] == "1";

  // Every spill store (cp::RibStore) is created under the temp directory;
  // pointing it at the run's own directory lets the run count residue.
  std::filesystem::path dir = args["--tmp"];
  if (!std::filesystem::is_directory(dir) ||
      setenv("TMPDIR", dir.c_str(), 1) != 0) {
    std::fprintf(stderr, "--tmp %s is not a directory\n", dir.c_str());
    return 2;
  }

  Inputs inputs = MakeInputs(*spec, seed);
  Run run(*spec, inputs, trace);
  double setup = Measure("setup.phase", [&] {
                   run.SetUp();
                   run.WarmCache();
                 }).wall_s;
  double timed = Measure("timed.phase", [&] {
                   run.TimedPhase(seconds, spec->verify_share);
                 }).wall_s;
  double oracle = Measure("oracle.phase", [&] { run.Oracle(); }).wall_s;
  size_t residue = run.Teardown(dir);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::printf("phase wall times: set-up %.1f s, timed %.1f s, oracle %.1f s\n",
              setup, timed, oracle);
  run.Report(residue);
  return run.correct() ? 0 : 1;
}
