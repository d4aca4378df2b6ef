// s2cli — the operator-facing command line.
//
//   s2cli synth fattree <k> <outdir>       write FatTree(k) config files
//   s2cli synth dcn <outdir>               write the DCN-like config files
//   s2cli verify <configdir> [options]     verify a directory of configs
//
// verify options:
//   --workers N     worker count (default 4)
//   --shards N      prefix shards (default 0 = off)
//   --budget MB     per-worker memory budget in MB (default unlimited)
//   --scheme S      partition scheme: metis|random|expert (default metis)
//   --baseline      use the monolithic verifier instead of S2
//   --json PATH     also write the machine-readable JSON report
//
// The query is all-pair reachability between devices announcing
// non-loopback prefixes, over 10.0.0.0/8.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "config/vendor.h"
#include "core/mono.h"
#include "core/report.h"
#include "core/s2.h"
#include "topo/dcn.h"
#include "topo/fattree.h"

using namespace s2;
namespace fs = std::filesystem;

namespace {

int WriteConfigs(const topo::Network& network, const std::string& outdir) {
  fs::create_directories(outdir);
  std::vector<std::string> configs = config::SynthesizeConfigs(network);
  for (topo::NodeId id = 0; id < network.graph.size(); ++id) {
    fs::path path = fs::path(outdir) / (network.graph.node(id).name + ".cfg");
    std::ofstream out(path);
    out << configs[id];
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
  }
  std::printf("wrote %zu config files to %s\n", configs.size(),
              outdir.c_str());
  return 0;
}

int Synth(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[0], "fattree") == 0 && argc >= 3) {
    topo::FatTreeParams params;
    params.k = std::atoi(argv[1]);
    return WriteConfigs(topo::MakeFatTree(params), argv[2]);
  }
  if (argc >= 2 && std::strcmp(argv[0], "dcn") == 0) {
    return WriteConfigs(topo::MakeDcn(topo::DcnParams{}), argv[1]);
  }
  std::fprintf(stderr, "usage: s2cli synth fattree <k> <outdir>\n"
                       "       s2cli synth dcn <outdir>\n");
  return 2;
}

int Verify(int argc, char** argv) {
  if (argc < 1) {
    std::fprintf(stderr, "usage: s2cli verify <configdir> [options]\n");
    return 2;
  }
  std::string dir = argv[0];
  uint32_t workers = 4;
  int shards = 0;
  size_t budget = 0;
  bool baseline = false;
  std::string json_path;
  topo::PartitionScheme scheme = topo::PartitionScheme::kMetisLike;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (std::strcmp(argv[i], "--workers") == 0) {
      workers = static_cast<uint32_t>(std::atoi(next()));
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      shards = std::atoi(next());
      if (shards < 0) {
        std::fprintf(stderr, "--shards must be 0 (off) or positive\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--budget") == 0) {
      budget = static_cast<size_t>(std::atof(next()) * (1 << 20));
    } else if (std::strcmp(argv[i], "--scheme") == 0) {
      const char* name = next();
      if (std::strcmp(name, "random") == 0) {
        scheme = topo::PartitionScheme::kRandom;
      } else if (std::strcmp(name, "expert") == 0) {
        scheme = topo::PartitionScheme::kExpert;
      }
    } else if (std::strcmp(argv[i], "--baseline") == 0) {
      baseline = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = next();
    } else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return 2;
    }
  }

  // Load configs; parse individually first so a malformed file is
  // reported with its name.
  std::vector<std::string> texts;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& path : paths) {
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    auto parsed = config::ParseConfig(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   parsed.error().c_str());
      return 1;
    }
    texts.push_back(std::move(text));
  }
  if (texts.empty()) {
    std::fprintf(stderr, "no config files in %s\n", dir.c_str());
    return 1;
  }
  config::ParsedNetwork network = config::ParseNetwork(texts);
  std::printf("parsed %zu devices, inferred %zu links\n",
              network.configs.size(), network.graph.edge_count());

  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  for (topo::NodeId id = 0; id < network.configs.size(); ++id) {
    for (const auto& prefix : network.configs[id].bgp.networks) {
      if (prefix != network.configs[id].loopback) {
        query.sources.push_back(id);
        query.destinations.push_back(id);
        break;
      }
    }
  }
  std::printf("query: all-pair reachability over %zu endpoints\n",
              query.sources.size());

  core::VerifyResult result;
  if (baseline) {
    core::MonoOptions options;
    options.memory_budget = budget;
    options.num_shards = shards;
    core::MonoVerifier verifier(options);
    result = verifier.Verify(network, {query});
  } else {
    dist::ControllerOptions options;
    options.num_workers = workers;
    options.num_shards = shards;
    options.worker_memory_budget = budget;
    options.scheme = scheme;
    core::S2Verifier verifier(options);
    result = verifier.Verify(network, {query});  // copy: names used below
  }

  if (!json_path.empty() &&
      !core::WriteJsonReport(result, json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("status: %s\n", core::RunStatusName(result.status));
  if (!result.ok()) {
    std::printf("  %s\n", result.failure_detail.c_str());
    return 1;
  }
  const dp::QueryResult& q = result.queries[0];
  std::printf("routes: %zu   per-worker peak: %s   wall: %s\n",
              result.total_best_routes,
              core::HumanBytes(result.peak_memory_bytes).c_str(),
              core::HumanSeconds(result.TotalWallSeconds()).c_str());
  std::printf("reachability: %zu/%zu pairs   loop-free: %s   "
              "blackhole finals: %zu\n",
              q.reachable_pairs, q.reachable_pairs + q.unreachable_pairs,
              q.loop_free ? "yes" : "NO", q.blackhole_finals);
  for (const dp::ReachabilityPair& pair : q.reachability) {
    if (!pair.reachable) {
      std::printf("  UNREACHABLE: %s -> %s (%.0f%%)\n",
                  network.graph.node(pair.src).name.c_str(),
                  network.graph.node(pair.dst).name.c_str(),
                  100 * pair.fraction);
    }
  }
  return q.unreachable_pairs == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "synth") == 0) {
    return Synth(argc - 2, argv + 2);
  }
  if (argc >= 2 && std::strcmp(argv[1], "verify") == 0) {
    return Verify(argc - 2, argv + 2);
  }
  std::fprintf(stderr,
               "usage: s2cli synth fattree <k> <outdir>\n"
               "       s2cli synth dcn <outdir>\n"
               "       s2cli verify <configdir> [--workers N] [--shards N]"
               " [--budget MB] [--scheme metis|random|expert]"
               " [--baseline]\n");
  return 2;
}
