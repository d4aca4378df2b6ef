#include "cp/node.h"

#include "cp/ospf.h"
#include "util/status.h"

namespace s2::cp {

Node::Node(topo::NodeId id, const config::ParsedNetwork& network,
           util::MemoryTracker* tracker, AttrPool* pool)
    : id_(id),
      network_(&network),
      tracker_(tracker),
      pool_(pool),
      rib_(tracker, pool) {
  for (const config::BgpNeighbor& neighbor : config().bgp.neighbors) {
    Session session;
    session.neighbor = &neighbor;
    session.peer = network.FindByAddress(neighbor.peer_address);
    if (session.peer == topo::kInvalidNode) continue;  // dangling neighbor
    sessions_.push_back(session);
  }
}

void Node::BeginOspf() {
  pass_ = Pass::kOspf;
  shard_ = nullptr;
  if (!config().ospf.enabled) return;
  Route loopback = OspfOriginate(config().loopback, id_);
  rib_.Upsert(topo::kInvalidNode, loopback);
}

Node::~Node() {
  ReleaseResults(ospf_results_);
}

void Node::ChargeResult(const Route& route) {
  if (tracker_) tracker_->Charge(route.UniqueBytes());
  if (pool_) pool_->ChargePlain(route.PlainBytes());
}

void Node::ReleaseResults(
    std::map<util::IpPrefix, std::vector<Route>>& results) {
  for (const auto& [prefix, routes] : results) {
    for (const Route& r : routes) {
      if (tracker_) tracker_->Release(r.UniqueBytes());
      if (pool_) pool_->ReleasePlain(r.PlainBytes());
    }
  }
  results.clear();
}

void Node::FinishOspf() {
  ReleaseResults(ospf_results_);
  for (const auto& [prefix, routes] : rib_.all_best()) {
    ospf_results_[prefix] = routes;
    for (const Route& r : routes) ChargeResult(r);
  }
  rib_.Clear();
  outbox_.clear();
  pass_ = Pass::kIdle;
}

void Node::BeginBgp(const PrefixSet* shard) {
  pass_ = Pass::kBgp;
  shard_ = shard;
  OriginateStatic();
}

void Node::OriginateStatic() {
  if (!config().bgp.enabled) return;
  // Redistribution first; an explicit network statement for the same
  // prefix overrides it.
  if (config().bgp.redistribute_ospf) {
    for (const auto& [prefix, routes] : ospf_results_) {
      if (!InShard(prefix)) continue;
      Route route;
      route.prefix = prefix;
      route.protocol = Protocol::kLocal;
      AttrTuple tuple;
      tuple.origin = 2;  // incomplete
      tuple.med = routes.front().metric;
      route.attrs = pool_->Intern(std::move(tuple));
      route.origin_node = id_;
      rib_.Upsert(topo::kInvalidNode, route);
    }
  }
  for (const util::IpPrefix& prefix : config().bgp.networks) {
    if (!InShard(prefix)) continue;
    // Default attributes (origin IGP) — the null handle, no intern needed.
    Route route;
    route.prefix = prefix;
    route.protocol = Protocol::kLocal;
    route.origin_node = id_;
    rib_.Upsert(topo::kInvalidNode, route);
  }
}

void Node::RefreshConditional() {
  for (const config::BgpAggregate& agg : config().bgp.aggregates) {
    if (!InShard(agg.prefix)) continue;
    if (rib_.HasContributor(agg.prefix)) {
      Route route;
      route.prefix = agg.prefix;
      route.protocol = Protocol::kLocal;
      route.origin_node = id_;
      if (!agg.communities.empty()) {
        AttrTuple tuple;
        for (uint32_t community : agg.communities) {
          tuple.AddCommunity(community);
        }
        route.attrs = pool_->Intern(std::move(tuple));
      }
      rib_.Upsert(topo::kInvalidNode, route);
    } else {
      rib_.Withdraw(topo::kInvalidNode, agg.prefix);
    }
  }
  for (const config::BgpCondAdv& cond : config().bgp.cond_advs) {
    if (!InShard(cond.advertise)) continue;
    bool active = rib_.Contains(cond.watch) == cond.advertise_if_present;
    if (active) {
      Route route;
      route.prefix = cond.advertise;
      route.protocol = Protocol::kLocal;
      route.origin_node = id_;
      rib_.Upsert(topo::kInvalidNode, route);
    } else {
      rib_.Withdraw(topo::kInvalidNode, cond.advertise);
    }
  }
}

bool Node::ComputeRound() {
  if (pass_ == Pass::kIdle) return false;
  if (pass_ == Pass::kBgp) RefreshConditional();
  std::vector<util::IpPrefix> changed =
      rib_.RecomputeDirty(config().bgp.max_paths);
  if (changed.empty()) return false;

  bool produced = false;
  for (const util::IpPrefix& prefix : changed) {
    const std::vector<Route>* best = rib_.Best(prefix);
    for (const Session& session : sessions_) {
      RouteUpdate update;
      update.prefix = prefix;
      update.withdraw = true;
      if (best != nullptr) {
        const Route& top = best->front();
        bool suppressed = pass_ == Pass::kBgp &&
                          SuppressedByAggregate(prefix, config());
        bool split_horizon = top.learned_from == session.peer;
        if (!suppressed && !split_horizon) {
          if (pass_ == Pass::kBgp) {
            auto exported =
                TransformForExport(top, config(), *session.neighbor, *pool_);
            if (exported) {
              update.withdraw = false;
              update.route = std::move(*exported);
            }
          } else {
            update.withdraw = false;
            update.route = OspfExport(top);
          }
        }
      }
      outbox_[session.peer].push_back(std::move(update));
      produced = true;
    }
  }
  return produced;
}

std::vector<RouteUpdate> Node::TakeUpdatesFor(topo::NodeId neighbor) {
  auto it = outbox_.find(neighbor);
  if (it == outbox_.end()) return {};
  std::vector<RouteUpdate> updates = std::move(it->second);
  outbox_.erase(it);
  return updates;
}

void Node::ReceiveUpdates(topo::NodeId from,
                          const std::vector<RouteUpdate>& updates) {
  const config::BgpNeighbor* session = nullptr;
  if (pass_ == Pass::kBgp) {
    for (const Session& s : sessions_) {
      if (s.peer == from) session = s.neighbor;
    }
    if (session == nullptr) return;  // not a neighbor of ours
  }
  for (const RouteUpdate& update : updates) {
    if (update.withdraw) {
      rib_.Withdraw(from, update.prefix);
      continue;
    }
    if (pass_ == Pass::kBgp) {
      auto imported =
          ProcessImport(update.route, config(), *session, from, *pool_);
      if (imported) {
        rib_.Upsert(from, *imported);
      } else {
        // A rejected announcement implicitly withdraws any previous
        // candidate from this neighbor.
        rib_.Withdraw(from, update.prefix);
      }
    } else {
      Route route = update.route;
      route.learned_from = from;
      rib_.Upsert(from, route);
    }
  }
}

namespace {

// Flattens a best-route map to announcements (prefix-major, rank-minor) —
// the same shape RibStore::Write uses — and back.
std::vector<RouteUpdate> FlattenResults(
    const std::map<util::IpPrefix, std::vector<Route>>& results) {
  std::vector<RouteUpdate> updates;
  for (const auto& [prefix, routes] : results) {
    for (const Route& route : routes) {
      updates.push_back(RouteUpdate{prefix, false, route});
    }
  }
  return updates;
}

}  // namespace

void Node::SerializeState(std::vector<uint8_t>& out) const {
  // One attribute table for the whole blob, shared by every route section
  // (candidates, best sets, OSPF results): serialize the sections into a
  // scratch body while the builder collects distinct tuples, then emit
  // table followed by body.
  AttrTableBuilder table;
  std::vector<uint8_t> body;
  body.push_back(static_cast<uint8_t>(pass_));
  rib_.SerializeState(body, table);
  PutRoutesSection(body, FlattenResults(ospf_results_), table);
  table.Serialize(out);
  out.insert(out.end(), body.begin(), body.end());
}

void Node::RestoreState(const std::vector<uint8_t>& bytes,
                        const PrefixSet* shard) {
  size_t pos = 0;
  AttrTable table = AttrTable::Read(bytes, pos, *pool_);
  if (pos >= bytes.size()) {
    throw util::WireFormatError("truncated node checkpoint");
  }
  pass_ = static_cast<Pass>(bytes[pos++]);
  shard_ = pass_ == Pass::kBgp ? shard : nullptr;
  rib_.RestoreState(bytes, pos, table);
  for (RouteUpdate& update : GetRoutesSection(bytes, pos, table)) {
    ChargeResult(update.route);
    ospf_results_[update.prefix].push_back(std::move(update.route));
  }
}

size_t Node::SpillBgp(RibStore& store, int shard) {
  size_t routes = store.Write(shard, id_, rib_.all_best(), pool_);
  rib_.Clear();
  outbox_.clear();
  pass_ = Pass::kIdle;
  return routes;
}

}  // namespace s2::cp
