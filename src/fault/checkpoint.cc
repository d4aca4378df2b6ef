#include "fault/checkpoint.h"

#include <algorithm>

#include "bdd/bdd_io.h"
#include "util/status.h"
#include "util/wire.h"

namespace s2::fault {

namespace {

// Per-port predicate maps are unordered; serialize in sorted neighbor
// order so equal predicates always produce equal bytes.
void WritePortMap(util::WireWriter& out,
                  const std::unordered_map<topo::NodeId, bdd::Bdd>& ports) {
  std::vector<topo::NodeId> ids;
  ids.reserve(ports.size());
  for (const auto& [id, f] : ports) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  out.U32(static_cast<uint32_t>(ids.size()));
  for (topo::NodeId id : ids) {
    out.U32(id);
    out.Blob(bdd::Serialize(ports.at(id)));
  }
}

std::unordered_map<topo::NodeId, bdd::Bdd> ReadPortMap(bdd::Manager& manager,
                                                       util::WireReader& in) {
  std::unordered_map<topo::NodeId, bdd::Bdd> ports;
  // Each entry is at least an id plus an empty BDD section (two u32s).
  const size_t count = in.Count(8);
  for (size_t i = 0; i < count; ++i) {
    topo::NodeId id = in.U32();
    ports.emplace(id, bdd::DeserializeInto(manager, in.BlobView()));
  }
  return ports;
}

}  // namespace

size_t WorkerCheckpoint::TotalBytes() const {
  size_t total = 0;
  for (const auto& [node, bytes] : node_state) total += bytes.size();
  for (const auto& [node, bytes] : predicate_state) total += bytes.size();
  return total;
}

std::vector<uint8_t> SerializePredicates(const dp::NodePredicates& preds) {
  std::vector<uint8_t> out;
  util::WireWriter w(out);
  w.Blob(bdd::Serialize(preds.arrive));
  w.Blob(bdd::Serialize(preds.exit));
  w.Blob(bdd::Serialize(preds.discard));
  WritePortMap(w, preds.forward);
  WritePortMap(w, preds.acl_in);
  WritePortMap(w, preds.acl_out);
  return out;
}

dp::NodePredicates DeserializePredicates(bdd::Manager& manager,
                                         std::span<const uint8_t> bytes) {
  util::WireReader in(bytes);
  dp::NodePredicates preds;
  preds.arrive = bdd::DeserializeInto(manager, in.BlobView());
  preds.exit = bdd::DeserializeInto(manager, in.BlobView());
  preds.discard = bdd::DeserializeInto(manager, in.BlobView());
  preds.forward = ReadPortMap(manager, in);
  preds.acl_in = ReadPortMap(manager, in);
  preds.acl_out = ReadPortMap(manager, in);
  return preds;
}

std::vector<uint8_t> EncodeWorkerCheckpoint(const WorkerCheckpoint& ckpt) {
  std::vector<uint8_t> out;
  util::WireWriter w(out);
  w.U32(static_cast<uint32_t>(ckpt.shard));
  w.U32(static_cast<uint32_t>(ckpt.fabric_round));
  w.BlobMap(ckpt.node_state);
  w.U32(ckpt.has_data_plane ? 1u : 0u);
  w.BlobMap(ckpt.predicate_state);
  w.U64(ckpt.fib_bytes);
  return out;
}

WorkerCheckpoint DecodeWorkerCheckpoint(std::span<const uint8_t> bytes) {
  util::WireReader in(bytes);
  WorkerCheckpoint ckpt;
  ckpt.shard = static_cast<int32_t>(in.U32());
  ckpt.fabric_round = static_cast<int32_t>(in.U32());
  ckpt.node_state = in.BlobMap();
  uint32_t dp_flag = in.U32();
  if (dp_flag > 1) {
    throw util::WireFormatError("checkpoint data-plane flag out of range");
  }
  ckpt.has_data_plane = dp_flag == 1;
  ckpt.predicate_state = in.BlobMap();
  ckpt.fib_bytes = in.U64();
  in.ExpectEnd("checkpoint");
  return ckpt;
}

}  // namespace s2::fault
