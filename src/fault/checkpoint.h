// Worker checkpoints: the controller-side snapshots that make scheduled
// worker crashes recoverable (paper §3.2's controller observes worker
// liveness at barriers; this is the state it would re-ship to a restarted
// worker process).
//
// A checkpoint is taken at a phase barrier and holds, per local node, the
// full control-plane state in the cp/route.cc wire format, plus — once the
// data plane is built — the node's port predicates in the bdd/bdd_io.cc
// canonical encoding. Recovery pairs a checkpoint with the sidecar's
// replay log (fault/reliable.h): restore the snapshot, then re-execute the
// lost rounds against the logged deliveries.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "dp/predicates.h"
#include "topo/graph.h"

namespace s2::fault {

struct WorkerCheckpoint {
  // The prefix shard active when the snapshot was taken (-1 = none: OSPF
  // pass or idle).
  int shard = -1;
  // The fabric's completed-drain round at the barrier; replay re-executes
  // rounds [fabric_round, crash round).
  int fabric_round = 0;

  // Per local node: cp::Node::SerializeState bytes.
  std::map<topo::NodeId, std::vector<uint8_t>> node_state;

  // Data-plane snapshot (present after BuildDataPlanes).
  bool has_data_plane = false;
  std::map<topo::NodeId, std::vector<uint8_t>> predicate_state;
  size_t fib_bytes = 0;

  size_t TotalBytes() const;
};

// Canonical wire encoding of one node's port predicates. Because bdd_io's
// encoding is structural (independent of manager node ids), equal bytes
// mean equal forwarding semantics — tests use this as the FIB hash.
std::vector<uint8_t> SerializePredicates(const dp::NodePredicates& preds);
dp::NodePredicates DeserializePredicates(bdd::Manager& manager,
                                         const std::vector<uint8_t>& bytes);

// Whole-checkpoint wire codec, used by the multi-process worker harness to
// ship checkpoints across the control channel (worker -> controller at
// barriers, controller -> respawned worker on restore). Decode throws
// util::WireFormatError on truncation, length fields exceeding the
// remaining bytes, or an out-of-range has_data_plane flag — it never
// trusts a length enough to allocate past the input.
std::vector<uint8_t> EncodeWorkerCheckpoint(const WorkerCheckpoint& ckpt);
WorkerCheckpoint DecodeWorkerCheckpoint(const std::vector<uint8_t>& bytes);

}  // namespace s2::fault
