#include "dist/worker.h"

#include "dp/fib.h"
#include "obs/trace.h"

namespace s2::dist {

Worker::Worker(uint32_t index, const config::ParsedNetwork& network,
               SidecarFabric* fabric, Options options)
    : index_(index),
      network_(&network),
      fabric_(fabric),
      options_(options),
      tracker_("worker-" + std::to_string(index), options.memory_budget),
      attr_pool_(&tracker_) {
  for (topo::NodeId id = 0; id < network.configs.size(); ++id) {
    if (fabric_->WorkerOf(id) == index_) {
      local_.push_back(id);
      nodes_.emplace(id, std::make_unique<cp::Node>(id, network, &tracker_,
                                                    &attr_pool_));
    }
  }
  // Shadow every remote switch adjacent to a local one.
  for (topo::NodeId id : local_) {
    for (const cp::Node::Session& session : nodes_.at(id)->sessions()) {
      if (!IsLocal(session.peer) && !shadows_.count(session.peer)) {
        shadows_.emplace(session.peer, ShadowNode(session.peer));
      }
    }
  }
}

// ---------------------------------------------------------- control plane

void Worker::BeginOspf() {
  for (topo::NodeId id : local_) nodes_.at(id)->BeginOspf();
}

void Worker::FinishOspf() {
  for (topo::NodeId id : local_) nodes_.at(id)->FinishOspf();
}

void Worker::BeginBgp(const cp::PrefixSet* shard) {
  for (topo::NodeId id : local_) nodes_.at(id)->BeginBgp(shard);
}

bool Worker::ComputeAndShip() { return ComputeAndShipImpl(false); }

bool Worker::ComputeAndShipImpl(bool suppress_remote) {
  util::Stopwatch watch;
  bool any = false;
  for (topo::NodeId id : local_) {
    any = nodes_.at(id)->ComputeRound() || any;
  }
  // Ship outboxes: local deliveries are buffered for phase B; remote ones
  // are serialized and sent through the sidecar. During post-crash replay
  // remote sends are suppressed — they were shipped before the crash and
  // live on in the surviving sidecar — but outboxes are still drained.
  for (topo::NodeId id : local_) {
    cp::Node& node = *nodes_.at(id);
    for (const cp::Node::Session& session : node.sessions()) {
      std::vector<cp::RouteUpdate> updates =
          node.TakeUpdatesFor(session.peer);
      if (updates.empty()) continue;
      if (IsLocal(session.peer)) {
        auto& box = local_pending_[{session.peer, id}];
        box.insert(box.end(), std::make_move_iterator(updates.begin()),
                   std::make_move_iterator(updates.end()));
      } else if (!suppress_remote) {
        Message message;
        message.type = MessageType::kRouteUpdates;
        message.to_node = session.peer;
        message.from_node = id;
        cp::SerializeRoutes(updates, message.payload, &attr_pool_);
        fabric_->Send(index_, std::move(message));
      }
    }
  }
  last_phase_seconds_ = watch.ElapsedSeconds();
  return any;
}

void Worker::Deliver() {
  util::Stopwatch watch;
  DeliverBatch(fabric_->Drain(index_));
  last_phase_seconds_ += watch.ElapsedSeconds();
}

void Worker::DeliverBatch(std::vector<Message> messages) {
  for (Message& message : messages) {
    if (message.type != MessageType::kRouteUpdates) continue;
    // Re-intern into this worker's pool: each distinct tuple in the batch
    // crossed the boundary once and costs one intern here.
    shadows_.at(message.from_node)
        .Deliver(message.to_node,
                 cp::DeserializeRoutes(message.payload, attr_pool_));
  }
  // Every local node pulls from each neighbor, agnostic of whether the
  // neighbor is a real node (same worker) or a shadow (paper Alg. 1).
  for (topo::NodeId id : local_) {
    cp::Node& node = *nodes_.at(id);
    for (const cp::Node::Session& session : node.sessions()) {
      std::vector<cp::RouteUpdate> updates;
      if (IsLocal(session.peer)) {
        auto it = local_pending_.find({id, session.peer});
        if (it != local_pending_.end()) {
          updates = std::move(it->second);
          local_pending_.erase(it);
        }
      } else {
        updates = shadows_.at(session.peer).TakeUpdatesFor(id);
      }
      if (!updates.empty()) node.ReceiveUpdates(session.peer, updates);
    }
  }
}

size_t Worker::SpillBgp(cp::RibStore& store, int shard) {
  size_t routes = 0;
  for (topo::NodeId id : local_) {
    routes += nodes_.at(id)->SpillBgp(store, shard);
  }
  return routes;
}

// ------------------------------------------------------------- data plane

void Worker::NewDataPlane() {
  bdd::Manager::Options manager_options;
  manager_options.max_nodes = options_.max_bdd_nodes;
  manager_options.tracker = &tracker_;
  auto manager = std::make_unique<bdd::Manager>(options_.layout.total_bits(),
                                                manager_options);
  dp::ForwardingEngine::Options engine_options;
  engine_options.max_hops = options_.max_hops;
  auto engine = std::make_unique<dp::ForwardingEngine>(
      dp::PacketCodec(manager.get(), options_.layout), engine_options);
  // Users before owners: the old engine goes while its manager lives.
  engine_ = std::move(engine);
  manager_ = std::move(manager);
}

void Worker::BuildDataPlane(const cp::RibStore& store,
                            const ReusableDataPlane* reuse) {
  ResetDataPlane();
  util::Stopwatch watch;
  NewDataPlane();
  for (topo::NodeId id : local_) {
    if (reuse != nullptr && reuse->rebuild->count(id) == 0) {
      // The scenario provably left this node's converged FIB untouched:
      // re-encode the base run's canonical predicate bytes instead of
      // recomputing, and adopt its forward edges and FIB accounting.
      engine_->AddNode(id, fault::DeserializePredicates(
                               *manager_, reuse->predicates->at(id)));
      size_t bytes = reuse->fib_bytes->at(id);
      tracker_.Charge(bytes);
      fib_bytes_ += bytes;
      node_fib_bytes_[id] = bytes;
      fib_edges_[id] = reuse->fib_edges->at(id);
      continue;
    }
    dp::Fib fib = dp::Fib::Build(*network_, id, store.ReadAll(id, attr_pool_),
                                 nodes_.at(id)->ospf_routes(), &tracker_);
    fib_bytes_ += fib.EstimateBytes();
    node_fib_bytes_[id] = fib.EstimateBytes();
    fib_edges_[id] = fib.ForwardEdges();
    engine_->AddNode(id,
                     dp::BuildPredicates(*network_, id, fib, engine_->codec()));
  }
  predicate_seconds_ += watch.ElapsedSeconds();
  last_phase_seconds_ = watch.ElapsedSeconds();
}

void Worker::PrepareQuery(const dp::Query& query) {
  dp::PrepareQuery(*engine_, query);
}

bool Worker::AcceptPackets() {
  util::Stopwatch watch;
  bool any = false;
  for (Message& message : fabric_->Drain(index_)) {
    if (message.type == MessageType::kPacketBatch) {
      for (const dp::WirePacket& frame : DecodePacketBatch(message.payload)) {
        engine_->Accept(dp::FromWire(frame, *manager_));
        any = true;
      }
      continue;
    }
    if (message.type != MessageType::kSymbolicPacket) continue;
    dp::WirePacket frame;
    frame.at = message.to_node;
    frame.from = message.from_node;
    frame.src = message.packet_src;
    frame.hops = message.packet_hops;
    frame.path = std::move(message.packet_path);
    frame.set = std::move(message.payload);
    engine_->Accept(dp::FromWire(frame, *manager_));
    any = true;
  }
  last_phase_seconds_ = watch.ElapsedSeconds();
  return any;
}

bool Worker::ForwardAndShip() {
  util::Stopwatch watch;
  size_t steps_before = engine_->steps();
  // Buffer emissions per destination worker; one kPacketBatch per
  // destination amortizes the message envelope, and sending after the run
  // in ascending destination order keeps the fabric order deterministic.
  std::map<uint32_t, std::vector<dp::WirePacket>> outgoing;
  {
    obs::Span span("dp", "dp.forward");
    span.Arg("worker", index_);
    engine_->Run([&](const dp::InFlightPacket& packet) {
      outgoing[fabric_->WorkerOf(packet.at)].push_back(dp::ToWire(packet));
    });
  }
  for (auto& [dest, frames] : outgoing) {
    Message message;
    message.type = MessageType::kPacketBatch;
    message.to_node = frames.front().at;
    message.from_node = frames.front().from;
    EncodePacketBatch(frames, message.payload);
    fabric_->Send(index_, std::move(message));
  }
  last_phase_seconds_ += watch.ElapsedSeconds();
  return engine_->steps() != steps_before;
}

std::vector<SerializedFinal> Worker::TakeFinals() {
  std::vector<SerializedFinal> out;
  SerializeFinals(engine_->finals(), out);
  return out;
}

std::map<topo::NodeId, std::vector<uint8_t>> Worker::SnapshotPredicates(
    const std::unordered_set<topo::NodeId>* only) const {
  std::map<topo::NodeId, std::vector<uint8_t>> snapshot;
  for (topo::NodeId id : local_) {
    if (only != nullptr && only->count(id) == 0) continue;
    snapshot[id] = fault::SerializePredicates(engine_->node_predicates(id));
  }
  return snapshot;
}

void Worker::ResetDataPlane() {
  engine_.reset();
  manager_.reset();
  fib_edges_.clear();
  node_fib_bytes_.clear();
  if (fib_bytes_ > 0) {
    tracker_.Release(fib_bytes_);
    fib_bytes_ = 0;
  }
}

// ---------------------------------------------- crash recovery (src/fault)

fault::WorkerCheckpoint Worker::Checkpoint(int shard) const {
  fault::WorkerCheckpoint checkpoint;
  checkpoint.shard = shard;
  for (topo::NodeId id : local_) {
    nodes_.at(id)->SerializeState(checkpoint.node_state[id]);
  }
  return checkpoint;
}

void Worker::CheckpointDataPlane(fault::WorkerCheckpoint& checkpoint) const {
  checkpoint.has_data_plane = true;
  checkpoint.fib_bytes = fib_bytes_;
  checkpoint.predicate_state.clear();
  for (topo::NodeId id : local_) {
    checkpoint.predicate_state[id] =
        fault::SerializePredicates(engine_->node_predicates(id));
  }
}

void Worker::Restore(const fault::WorkerCheckpoint& checkpoint,
                     const cp::PrefixSet* shard) {
  for (topo::NodeId id : local_) {
    nodes_.at(id)->RestoreState(checkpoint.node_state.at(id), shard);
  }
}

void Worker::ReplayDelivered(int from_round, int to_round,
                             const std::vector<fault::LoggedDelivery>& log) {
  size_t i = 0;
  for (int round = from_round; round < to_round; ++round) {
    ComputeAndShipImpl(/*suppress_remote=*/true);
    std::vector<Message> batch;
    while (i < log.size() && log[i].round <= round) {
      batch.push_back(log[i++].message);
    }
    DeliverBatch(std::move(batch));
  }
}

void Worker::RestoreDataPlane(const fault::WorkerCheckpoint& checkpoint) {
  util::Stopwatch watch;
  NewDataPlane();
  // Checkpoints carry predicate bytes, not FIBs, so the forward-edge index
  // is lost on recovery (see fib_edges() in the header).
  fib_edges_.clear();
  for (topo::NodeId id : local_) {
    engine_->AddNode(id, fault::DeserializePredicates(
                             *manager_, checkpoint.predicate_state.at(id)));
  }
  fib_bytes_ = checkpoint.fib_bytes;
  tracker_.Charge(fib_bytes_);
  predicate_seconds_ += watch.ElapsedSeconds();
}

}  // namespace s2::dist
