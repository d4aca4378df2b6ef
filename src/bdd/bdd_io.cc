#include "bdd/bdd_io.h"

#include <string>
#include <unordered_map>

#include "util/status.h"
#include "util/wire.h"

namespace s2::bdd {

namespace {

constexpr uint32_t kMagic = 0x53324244;  // 'S2BD'

}  // namespace

std::vector<uint8_t> Serialize(const Bdd& f) {
  Manager* m = f.manager();
  // Collect reachable internal nodes children-first (post-order DFS).
  std::unordered_map<uint32_t, uint32_t> index;  // node id -> wire index
  std::vector<uint32_t> order;                   // node ids, children first
  index.emplace(Manager::kZero, 0);
  index.emplace(Manager::kOne, 1);
  std::vector<std::pair<uint32_t, bool>> stack;  // (node, children_done)
  if (f.id() > Manager::kOne) stack.emplace_back(f.id(), false);
  while (!stack.empty()) {
    auto [node, children_done] = stack.back();
    stack.pop_back();
    if (index.count(node)) continue;
    const auto& rec = m->nodes_[node];
    if (children_done) {
      index.emplace(node, static_cast<uint32_t>(order.size() + 2));
      order.push_back(node);
    } else {
      stack.emplace_back(node, true);
      if (rec.high > Manager::kOne && !index.count(rec.high)) {
        stack.emplace_back(rec.high, false);
      }
      if (rec.low > Manager::kOne && !index.count(rec.low)) {
        stack.emplace_back(rec.low, false);
      }
    }
  }

  std::vector<uint8_t> out;
  out.reserve(16 + order.size() * 12);
  util::WireWriter w(out);
  w.U32(kMagic);
  w.U32(m->num_vars());
  w.U32(static_cast<uint32_t>(order.size()));
  w.U32(index.at(f.id()));
  for (uint32_t node : order) {
    const auto& rec = m->nodes_[node];
    w.U32(rec.var);
    w.U32(index.at(rec.low));
    w.U32(index.at(rec.high));
  }
  return out;
}

Bdd DeserializeInto(Manager& manager, std::span<const uint8_t> bytes) {
  util::WireReader in(bytes);
  if (in.U32() != kMagic) {
    throw util::WireFormatError("bad BDD blob magic");
  }
  uint32_t wire_vars = in.U32();
  if (wire_vars > manager.num_vars()) {
    throw util::WireFormatError("BDD blob var count " +
                                std::to_string(wire_vars) +
                                " exceeds manager's " +
                                std::to_string(manager.num_vars()));
  }
  const size_t count = in.Count(12);  // node records are 12 bytes each
  const uint32_t root = in.U32();

  std::vector<uint32_t> local(count + 2);
  local[0] = Manager::kZero;
  local[1] = Manager::kOne;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t var = in.U32();
    uint32_t low = in.U32();
    uint32_t high = in.U32();
    if (var >= manager.num_vars() || low >= i + 2 || high >= i + 2) {
      throw util::WireFormatError("malformed BDD node record " +
                                  std::to_string(i));
    }
    local[i + 2] = manager.MakeNode(var, local[low], local[high]);
  }
  if (root >= count + 2) {
    throw util::WireFormatError("BDD blob root index out of range");
  }
  return Bdd(&manager, local[root]);
}

}  // namespace s2::bdd
