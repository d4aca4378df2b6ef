// S2Verifier — the library's public entry point for distributed
// verification (the paper's system, end to end).
//
// Typical use:
//
//   auto network = s2::config::ParseNetwork(config_texts);
//   s2::dist::ControllerOptions options;
//   options.num_workers = 8;
//   options.num_shards = 20;
//   s2::core::S2Verifier verifier(options);
//   s2::core::VerifyResult result = verifier.Verify(std::move(network),
//                                                   queries);
//
// Simulated resource exhaustion (per-worker memory budget, BDD node-table
// capacity) and non-convergence become result statuses, never crashes.
#pragma once

#include <optional>
#include <vector>

#include "core/incremental.h"
#include "core/results.h"
#include "dist/controller.h"
#include "svc/snapshot.h"

namespace s2::core {

class S2Verifier {
 public:
  explicit S2Verifier(dist::ControllerOptions options)
      : options_(options) {}

  // Full workflow: partition -> distributed control plane -> distributed
  // data plane -> queries. With `queries` empty the data plane (FIBs +
  // predicates) is still built unless skip_data_plane_without_queries is
  // set — the control-plane-only mode Figures 8/9 measure.
  bool skip_data_plane_without_queries = false;

  VerifyResult Verify(config::ParsedNetwork network,
                      const std::vector<dp::Query>& queries);

  // Convenience: parse raw config texts first (parse time is reported).
  VerifyResult Verify(const std::vector<std::string>& config_texts,
                      const std::vector<dp::Query>& queries);

  // The controller of the last Verify call (valid until the next call);
  // exposes partition/shard-plan details for diagnostics and benchmarks.
  dist::Controller* last_controller() { return controller_.get(); }

  // Incremental what-if (core/incremental.h): re-verifies the last
  // Verify's queries under `scenario`, re-simulating only the impacted
  // DPDG closure, rebuilding only changed FIBs, and re-running only
  // queries that can observe a change. nullopt when no converged base run
  // with a data plane is available. The base controller stays untouched;
  // call repeatedly with different scenarios.
  std::optional<IncrementalResult> VerifyIncremental(
      const Scenario& scenario) const;

  // The last Verify's converged state as an immutable servable snapshot
  // (svc/snapshot.h) for the query service: publish it to a
  // SnapshotRegistry and serve queries without re-running the pipeline.
  // A copy of the capture VerifyIncremental also reads. nullopt if no run
  // converged with a data plane (failed run, the control-plane-only mode,
  // or process-mode workers).
  std::optional<svc::Snapshot> ExportSnapshot() const;

  // One RunReport JSON object combining `result`'s phase metrics with the
  // last controller's live counters (per-worker fabric traffic, per-shard
  // control-plane metrics, reliable-transport stats). Deterministic key
  // order; schema label "s2.run_report.v1".
  std::string RunReportJson(const VerifyResult& result) const;
  // Writes RunReportJson(result) to `path`; false on I/O failure.
  bool WriteRunReport(const VerifyResult& result,
                      const std::string& path) const;

 private:
  dist::ControllerOptions options_;
  std::unique_ptr<dist::Controller> controller_;
  // The last Verify's queries and verdicts — the incremental base.
  std::vector<dp::Query> last_queries_;
  std::vector<dp::QueryResult> last_results_;
  // The last Verify's converged run, captured once by the first
  // ExportSnapshot or VerifyIncremental call and shared by both across
  // scenarios; Verify clears it.
  mutable std::optional<svc::Snapshot> snapshot_;
  // Captures snapshot_ on first use; null if no run converged with a data
  // plane in process (see ExportSnapshot).
  const svc::Snapshot* ConvergedSnapshot() const;
};

}  // namespace s2::core
