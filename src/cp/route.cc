#include "cp/route.h"

#include <algorithm>

#include "util/status.h"
#include "util/wire.h"

namespace s2::cp {

uint32_t AdminDistance(Protocol protocol) {
  switch (protocol) {
    case Protocol::kConnected:
      return 0;
    case Protocol::kLocal:
      return 5;
    case Protocol::kBgp:
      return 20;
    case Protocol::kOspf:
      return 110;
  }
  return 255;
}

bool BetterRoute(const Route& a, const Route& b) {
  uint32_t ad_a = AdminDistance(a.protocol), ad_b = AdminDistance(b.protocol);
  if (ad_a != ad_b) return ad_a < ad_b;
  if (a.protocol == Protocol::kOspf && b.protocol == Protocol::kOspf) {
    if (a.metric != b.metric) return a.metric < b.metric;
  }
  // Shared attr entry: every attribute comparison ties, skip to the
  // provenance tie-breaks. Entry identity never decides an ordering.
  const bool same_attrs = a.attrs.SameEntry(b.attrs);
  if (!same_attrs) {
    const AttrTuple& ta = *a.attrs;
    const AttrTuple& tb = *b.attrs;
    if (ta.local_pref != tb.local_pref) return ta.local_pref > tb.local_pref;
    if (ta.as_path.size() != tb.as_path.size()) {
      return ta.as_path.size() < tb.as_path.size();
    }
    if (ta.origin != tb.origin) return ta.origin < tb.origin;
    if (ta.med != tb.med) return ta.med < tb.med;
  }
  if (a.learned_from != b.learned_from) return a.learned_from < b.learned_from;
  if (a.origin_node != b.origin_node) return a.origin_node < b.origin_node;
  return !same_attrs && a.as_path() < b.as_path();
}

bool EcmpEquivalent(const Route& a, const Route& b) {
  if (AdminDistance(a.protocol) != AdminDistance(b.protocol) ||
      a.metric != b.metric) {
    return false;
  }
  if (a.attrs.SameEntry(b.attrs)) return true;
  const AttrTuple& ta = *a.attrs;
  const AttrTuple& tb = *b.attrs;
  return ta.local_pref == tb.local_pref &&
         ta.as_path.size() == tb.as_path.size() && ta.origin == tb.origin &&
         ta.med == tb.med;
}

namespace {

// Inline encoding cost of one tuple's attributes in the pre-table format:
// local_pref + med (4 each), origin (1), two length-prefixed u32 lists.
size_t InlineAttrBytes(const AttrTuple& tuple) {
  return 17 + 4 * tuple.as_path.size() + 4 * tuple.communities.size();
}

void WriteTuple(util::WireWriter& out, const AttrTuple& tuple) {
  out.U32(tuple.local_pref);
  out.U32(tuple.med);
  out.U8(tuple.origin);
  out.U32List(tuple.as_path);
  out.U32List(tuple.communities);
}

// The smallest possible wire footprints, used to validate counts before
// reserving (every tuple is at least 17 bytes; a route entry is at least
// a withdraw: 6 bytes in the compact v4 encoding, 7 in the generic one
// with its per-entry family byte).
constexpr size_t kMinTupleBytes = 17;
constexpr size_t kMinRouteBytesV4 = 6;
constexpr size_t kMinRouteBytesGeneric = 7;

[[noreturn]] void ThrowUnknownFamily(uint8_t af, size_t pos) {
  throw util::WireFormatError("unknown address family " +
                              std::to_string(af) + " at offset " +
                              std::to_string(pos));
}

void WritePrefixGeneric(util::WireWriter& out, const util::IpPrefix& prefix) {
  out.U8(static_cast<uint8_t>(prefix.family()));
  if (prefix.IsV4()) {
    out.U32(prefix.address().V4Bits());
  } else {
    out.U64(prefix.address().Lo());
    out.U64(prefix.address().Hi());
  }
  out.U8(prefix.length());
}

util::IpPrefix ReadPrefixGeneric(util::WireReader& in) {
  const uint8_t af = in.U8();
  if (af == kAfV4) {
    uint32_t addr = in.U32();
    uint8_t length = in.U8();
    return util::IpPrefix(util::IpAddress(addr), length);
  }
  if (af == kAfV6) {
    uint64_t lo = in.U64();
    uint64_t hi = in.U64();
    uint8_t length = in.U8();
    return util::IpPrefix(util::IpAddress::V6(hi, lo), length);
  }
  ThrowUnknownFamily(af, in.pos() - 1);
}

// Routes-only body: the address-family byte, then count + entries
// referencing `table` by index. The batch uses the compact v4 encoding
// exactly when every prefix in it is v4 — byte-identical to the pre-v6
// format modulo the leading AF byte.
void WriteRoutesBody(util::WireWriter& out,
                     const std::vector<RouteUpdate>& updates,
                     AttrTableBuilder& table) {
  bool all_v4 = true;
  for (const RouteUpdate& update : updates) {
    all_v4 = all_v4 && update.prefix.IsV4();
  }
  out.U8(all_v4 ? kAfV4 : kAfV6);
  out.U32(static_cast<uint32_t>(updates.size()));
  for (const RouteUpdate& update : updates) {
    if (all_v4) {
      out.U32(update.prefix.address().V4Bits());
      out.U8(update.prefix.length());
    } else {
      WritePrefixGeneric(out, update.prefix);
    }
    out.Bool(update.withdraw);
    if (update.withdraw) continue;
    const Route& r = update.route;
    out.U8(static_cast<uint8_t>(r.protocol));
    out.U32(r.metric);
    out.U32(r.origin_node);
    out.U32(r.learned_from);
    out.U32(table.IndexOf(r));
  }
}

std::vector<RouteUpdate> ReadRoutesBody(util::WireReader& in,
                                        const AttrTable& table) {
  const uint8_t af = in.U8();
  if (af != kAfV4 && af != kAfV6) ThrowUnknownFamily(af, in.pos() - 1);
  const bool compact_v4 = af == kAfV4;
  std::vector<RouteUpdate> updates(
      in.Count(compact_v4 ? kMinRouteBytesV4 : kMinRouteBytesGeneric));
  for (RouteUpdate& update : updates) {
    if (compact_v4) {
      uint32_t addr = in.U32();
      uint8_t length = in.U8();
      update.prefix = util::IpPrefix(util::IpAddress(addr), length);
    } else {
      update.prefix = ReadPrefixGeneric(in);
    }
    update.withdraw = in.U8() != 0;
    if (!update.withdraw) {
      Route& r = update.route;
      r.prefix = update.prefix;
      r.protocol = in.Enum(Protocol::kOspf);
      r.metric = in.U32();
      r.origin_node = in.U32();
      r.learned_from = in.U32();
      r.attrs = table.at(in.U32());
    }
  }
  return updates;
}

}  // namespace

// ------------------------------------------------- per-batch attr tables

uint32_t AttrTableBuilder::IndexOf(const Route& route) {
  const AttrTuple& tuple = route.attrs.get();
  inline_bytes_ += InlineAttrBytes(tuple);
  // Identity fast path: the same pool entry (or the static default tuple)
  // resolves without a deep compare.
  auto identity = by_identity_.find(&tuple);
  if (identity != by_identity_.end()) {
    ++reused_;
    return identity->second;
  }
  // Value dedup: distinct entries (e.g. from different pools, or the
  // default tuple vs an equal one) still share a table slot.
  size_t hash = tuple.Hash();
  for (uint32_t index : by_hash_[hash]) {
    if (*tuples_[index] == tuple) {
      ++reused_;
      by_identity_.emplace(&tuple, index);
      return index;
    }
  }
  uint32_t index = static_cast<uint32_t>(tuples_.size());
  tuples_.push_back(&tuple);
  by_identity_.emplace(&tuple, index);
  by_hash_[hash].push_back(index);
  return index;
}

void AttrTableBuilder::Serialize(std::vector<uint8_t>& out) const {
  util::WireWriter w(out);
  w.U32(static_cast<uint32_t>(tuples_.size()));
  for (const AttrTuple* tuple : tuples_) WriteTuple(w, *tuple);
}

size_t AttrTableBuilder::table_bytes() const {
  size_t bytes = 4;
  for (const AttrTuple* tuple : tuples_) bytes += InlineAttrBytes(*tuple);
  return bytes;
}

AttrTable AttrTable::Read(util::WireReader& in, AttrPool& pool) {
  const size_t count = in.Count(kMinTupleBytes);
  AttrTable table;
  table.handles_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    AttrTuple tuple;
    tuple.local_pref = in.U32();
    tuple.med = in.U32();
    tuple.origin = in.U8();
    tuple.as_path = in.U32List();
    tuple.communities = in.U32List();
    table.handles_.push_back(pool.Intern(std::move(tuple)));
  }
  return table;
}

AttrTable AttrTable::Read(const std::vector<uint8_t>& bytes, size_t& pos,
                          AttrPool& pool) {
  util::WireReader in(bytes, pos);
  AttrTable table = Read(in, pool);
  pos = in.pos();
  return table;
}

const AttrHandle& AttrTable::at(uint32_t index) const {
  if (index >= handles_.size()) {
    throw util::WireFormatError("attr index " + std::to_string(index) +
                                " out of range (table size " +
                                std::to_string(handles_.size()) + ")");
  }
  return handles_[index];
}

// --------------------------------------------------------- full batches

void SerializeRoutes(const std::vector<RouteUpdate>& updates,
                     std::vector<uint8_t>& out, AttrPool* stats_pool) {
  // The table leads the batch but is complete only once the body has
  // referenced every tuple: encode the body aside, then emit both.
  AttrTableBuilder table;
  std::vector<uint8_t> body;
  util::WireWriter body_writer(body);
  WriteRoutesBody(body_writer, updates, table);
  table.Serialize(out);
  out.insert(out.end(), body.begin(), body.end());
  if (stats_pool != nullptr) {
    size_t references = table.distinct() + table.reused();
    size_t packed = table.table_bytes() + 4 * references;
    size_t inline_cost = table.inline_bytes();
    stats_pool->NoteWireSavings(
        table.distinct(), table.reused(),
        inline_cost > packed ? inline_cost - packed : 0);
  }
}

std::vector<RouteUpdate> DeserializeRoutes(std::span<const uint8_t> bytes,
                                           AttrPool& pool) {
  util::WireReader in(bytes);
  AttrTable table = AttrTable::Read(in, pool);
  return ReadRoutesBody(in, table);
}

void PutRoutesSection(std::vector<uint8_t>& out,
                      const std::vector<RouteUpdate>& updates,
                      AttrTableBuilder& table) {
  util::WireWriter w(out);
  const size_t slot = w.BeginSection();
  WriteRoutesBody(w, updates, table);
  w.EndSection(slot);
}

std::vector<RouteUpdate> GetRoutesSection(util::WireReader& in,
                                          const AttrTable& table) {
  util::WireReader section = in.Section();
  return ReadRoutesBody(section, table);
}

std::vector<RouteUpdate> GetRoutesSection(const std::vector<uint8_t>& bytes,
                                          size_t& pos,
                                          const AttrTable& table) {
  util::WireReader in(bytes, pos);
  std::vector<RouteUpdate> updates = GetRoutesSection(in, table);
  pos = in.pos();
  return updates;
}

}  // namespace s2::cp
