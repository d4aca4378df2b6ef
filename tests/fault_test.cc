// Fault subsystem unit tests: injector determinism, the reliable-delivery
// protocol (exactly-once, in-order under drop/duplicate/reorder/delay),
// and the checkpoint serializers recovery is built on.
#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#include "bdd/bdd.h"
#include "cp/rib.h"
#include "fault/checkpoint.h"
#include "fault/injector.h"
#include "fault/reliable.h"
#include "util/wire.h"

namespace s2::fault {
namespace {

// ------------------------------------------------------------- injector

FaultPlan LossyPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.default_link.drop = 0.3;
  plan.default_link.duplicate = 0.2;
  plan.default_link.reorder = 0.2;
  plan.default_link.max_delay_rounds = 2;
  return plan;
}

std::tuple<bool, bool, bool, int, int> FateTuple(const FrameFate& fate) {
  return {fate.drop, fate.duplicate, fate.reorder, fate.delay_rounds,
          fate.duplicate_delay_rounds};
}

TEST(FaultInjectorTest, ClassifyIsPureAndSeeded) {
  FaultInjector a(LossyPlan(42));
  FaultInjector b(LossyPlan(42));
  FaultInjector c(LossyPlan(43));
  bool any_difference = false;
  for (uint64_t seq = 1; seq <= 200; ++seq) {
    FrameFate fa = a.Classify(0, 1, seq, 0);
    EXPECT_EQ(FateTuple(fa), FateTuple(a.Classify(0, 1, seq, 0)));
    EXPECT_EQ(FateTuple(fa), FateTuple(b.Classify(0, 1, seq, 0)));
    if (FateTuple(fa) != FateTuple(c.Classify(0, 1, seq, 0))) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);  // the seed actually matters
}

TEST(FaultInjectorTest, RetransmitAttemptsRollFreshDice) {
  // With drop = 0.5, some attempt of every frame must survive within a
  // handful of retries — attempts are independent coin flips, so a frame
  // cannot be doomed forever.
  FaultPlan plan;
  plan.seed = 7;
  plan.default_link.drop = 0.5;
  FaultInjector injector(plan);
  for (uint64_t seq = 1; seq <= 100; ++seq) {
    bool survived = false;
    for (uint32_t attempt = 0; attempt < 32 && !survived; ++attempt) {
      survived = !injector.Classify(0, 1, seq, attempt).drop;
    }
    EXPECT_TRUE(survived) << "seq " << seq;
  }
}

TEST(FaultInjectorTest, ZeroPlanNeverFaults) {
  FaultInjector injector(FaultPlan{});
  for (uint64_t seq = 1; seq <= 50; ++seq) {
    FrameFate fate = injector.Classify(2, 3, seq, 0);
    EXPECT_FALSE(fate.drop);
    EXPECT_FALSE(fate.duplicate);
    EXPECT_FALSE(fate.reorder);
    EXPECT_EQ(fate.delay_rounds, 0);
  }
}

TEST(FaultInjectorTest, PerLinkOverridesDefault) {
  FaultPlan plan;
  plan.default_link.drop = 1.0;
  plan.per_link[{0, 1}] = LinkFaults{};  // this link is perfect
  FaultInjector injector(plan);
  EXPECT_FALSE(injector.Classify(0, 1, 1, 0).drop);
  EXPECT_TRUE(injector.Classify(1, 0, 1, 0).drop);
}

TEST(FaultInjectorTest, CrashesFireOnceAtOrPastTheirRound) {
  FaultPlan plan;
  plan.crashes.push_back({CrashPhase::kControlPlaneRound, 3, 1});
  plan.crashes.push_back({CrashPhase::kControlPlaneRound, 5, 2});
  plan.crashes.push_back({CrashPhase::kDataPlaneBuild, 0, 0});
  FaultInjector injector(plan);

  EXPECT_TRUE(injector.TakeCrashes(CrashPhase::kControlPlaneRound, 2).empty());
  EXPECT_EQ(injector.TakeCrashes(CrashPhase::kControlPlaneRound, 3),
            (std::vector<uint32_t>{1}));
  // Already fired: not returned again.
  EXPECT_TRUE(injector.TakeCrashes(CrashPhase::kControlPlaneRound, 3).empty());
  // A barrier past the scheduled round still fires the event (fault-induced
  // retransmit rounds shift convergence, so exact matches would be brittle).
  EXPECT_EQ(injector.TakeCrashes(CrashPhase::kControlPlaneRound, 9),
            (std::vector<uint32_t>{2}));
  EXPECT_EQ(injector.TakeCrashes(CrashPhase::kDataPlaneBuild, 0),
            (std::vector<uint32_t>{0}));
  EXPECT_EQ(injector.crashes_fired(), 3u);
}

// ------------------------------------------------------------ transport

dist::Message Msg(uint8_t tag) {
  dist::Message m;
  m.to_node = tag;
  m.payload = {tag};
  return m;
}

// Drains every worker once per round until quiescent; returns the messages
// worker `watch` received, in delivery order.
std::vector<dist::Message> DriveToQuiescence(ReliableTransport& transport,
                                             uint32_t num_workers,
                                             uint32_t watch,
                                             int max_rounds = 500) {
  std::vector<dist::Message> delivered;
  for (int round = 0; round < max_rounds; ++round) {
    for (uint32_t w = 0; w < num_workers; ++w) {
      auto batch = transport.Drain(w);
      if (w == watch) {
        delivered.insert(delivered.end(), batch.begin(), batch.end());
      }
    }
    if (!transport.HasPending()) break;
  }
  return delivered;
}

TEST(ReliableTransportTest, ZeroFaultDeliveryIsInOrderAndQuiescent) {
  ReliableTransport transport(2, FaultPlan{}, nullptr, false);
  for (uint8_t i = 0; i < 20; ++i) transport.Ship(0, 1, Msg(i));
  auto delivered = DriveToQuiescence(transport, 2, 1);
  ASSERT_EQ(delivered.size(), 20u);
  for (uint8_t i = 0; i < 20; ++i) EXPECT_EQ(delivered[i].payload[0], i);
  EXPECT_FALSE(transport.HasPending());
  EXPECT_EQ(transport.stats().retransmits, 0u);
  EXPECT_EQ(transport.stats().dropped, 0u);
  EXPECT_EQ(transport.stats().data_frames, 20u);
}

TEST(ReliableTransportTest, ExactlyOnceInOrderUnderHeavyFaults) {
  FaultPlan plan = LossyPlan(99);
  FaultInjector injector(plan);
  ReliableTransport transport(3, plan, &injector, false);
  constexpr int kCount = 60;
  for (int i = 0; i < kCount; ++i) {
    transport.Ship(0, 1, Msg(static_cast<uint8_t>(i)));
    transport.Ship(2, 1, Msg(static_cast<uint8_t>(100 + i)));
  }
  auto delivered = DriveToQuiescence(transport, 3, 1);
  EXPECT_FALSE(transport.HasPending());

  // Exactly once, in order, per channel.
  std::vector<uint8_t> from0, from2;
  for (const auto& m : delivered) {
    (m.payload[0] < 100 ? from0 : from2).push_back(m.payload[0]);
  }
  ASSERT_EQ(from0.size(), size_t(kCount));
  ASSERT_EQ(from2.size(), size_t(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(from0[i], i);
    EXPECT_EQ(from2[i], 100 + i);
  }
  // The plan is lossy enough that the protocol actually worked for a living.
  EXPECT_GT(transport.stats().dropped, 0u);
  EXPECT_GT(transport.stats().retransmits, 0u);
  EXPECT_GT(transport.stats().duplicates_suppressed, 0u);
}

TEST(ReliableTransportTest, IdenticalRunsProduceIdenticalStats) {
  auto run = [] {
    FaultPlan plan = LossyPlan(1234);
    FaultInjector injector(plan);
    ReliableTransport transport(2, plan, &injector, false);
    for (int i = 0; i < 40; ++i) {
      transport.Ship(0, 1, Msg(static_cast<uint8_t>(i)));
      transport.Ship(1, 0, Msg(static_cast<uint8_t>(i)));
    }
    DriveToQuiescence(transport, 2, 0);
    const auto& s = transport.stats();
    return std::tuple(s.data_frames, s.retransmits, s.acks, s.wire_bytes,
                      s.dropped, s.duplicated, s.delayed, s.reordered,
                      s.duplicates_suppressed, s.out_of_order);
  };
  EXPECT_EQ(run(), run());
}

TEST(ReliableTransportTest, ReplayLogRecordsDeliveriesUntilCheckpoint) {
  ReliableTransport transport(2, FaultPlan{}, nullptr,
                              /*keep_replay_log=*/true);
  transport.Ship(0, 1, Msg(1));
  transport.Ship(0, 1, Msg(2));
  DriveToQuiescence(transport, 2, 1);
  auto log = transport.ReplayLog(1);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].message.payload[0], 1);
  EXPECT_EQ(log[1].message.payload[0], 2);
  EXPECT_GE(log[0].round, 0);
  transport.MarkCheckpoint(1);
  EXPECT_TRUE(transport.ReplayLog(1).empty());
  // Later deliveries accumulate again.
  transport.Ship(0, 1, Msg(3));
  DriveToQuiescence(transport, 2, 1);
  ASSERT_EQ(transport.ReplayLog(1).size(), 1u);
}

TEST(ReliableTransportTest, TracksMaxQueueDepth) {
  ReliableTransport transport(2, FaultPlan{}, nullptr, false);
  for (uint8_t i = 0; i < 5; ++i) transport.Ship(0, 1, Msg(i));
  EXPECT_GE(transport.MaxQueueDepth(1), 5u);
  DriveToQuiescence(transport, 2, 1);
  EXPECT_EQ(transport.QueueDepth(1), 0u);
  EXPECT_GE(transport.MaxQueueDepth(1), 5u);  // high-water sticks
}

TEST(ReliableTransportTest, RtoBackoffNeverOverflowsAtHighAttempts) {
  constexpr int kIntMax = std::numeric_limits<int>::max();
  // The regression: with a huge max_rto the old `rto *= 2` loop hit signed
  // overflow (UB) past 31 doublings. The cap must pin the result instead.
  EXPECT_EQ(ReliableTransport::RtoRoundsFor(1, kIntMax, 64), kIntMax);
  EXPECT_EQ(ReliableTransport::RtoRoundsFor(1, kIntMax, 1000), kIntMax);
  EXPECT_EQ(ReliableTransport::RtoRoundsFor(2, kIntMax, 4000000000u),
            kIntMax);
  // Monotone non-decreasing in attempts, never above the cap.
  int prev = 0;
  for (uint32_t attempts = 0; attempts < 40; ++attempts) {
    int rto = ReliableTransport::RtoRoundsFor(2, 16, attempts);
    EXPECT_GE(rto, prev);
    EXPECT_LE(rto, 16);
    prev = rto;
  }
  // Ordinary doubling still happens below the cap.
  EXPECT_EQ(ReliableTransport::RtoRoundsFor(2, 64, 0), 2);
  EXPECT_EQ(ReliableTransport::RtoRoundsFor(2, 64, 1), 4);
  EXPECT_EQ(ReliableTransport::RtoRoundsFor(2, 64, 3), 16);
  EXPECT_EQ(ReliableTransport::RtoRoundsFor(2, 64, 10), 64);
  // Degenerate tunings are clamped, not trusted.
  EXPECT_EQ(ReliableTransport::RtoRoundsFor(0, 0, 5), 1);
  EXPECT_EQ(ReliableTransport::RtoRoundsFor(-3, 8, 2), 4);
}

TEST(ReliableTransportTest, AckFateSeqStaysInTopHalfAtBoundary) {
  constexpr uint64_t kBase = uint64_t{1} << 63;
  // Ack randomness keys must never collide with data-frame keys (channel
  // sequences, which live in [1, 2^63)), even when the ack counter itself
  // crosses 2^63 — the old `kAckSeqBase + counter` carried out of the top
  // half exactly there.
  EXPECT_EQ(ReliableTransport::AckFateSeq(0), kBase);
  EXPECT_EQ(ReliableTransport::AckFateSeq(1), kBase + 1);
  EXPECT_EQ(ReliableTransport::AckFateSeq(kBase - 1), ~uint64_t{0});
  EXPECT_EQ(ReliableTransport::AckFateSeq(kBase), kBase);      // wraps in
  EXPECT_EQ(ReliableTransport::AckFateSeq(kBase + 7), kBase + 7);
  for (uint64_t counter : {uint64_t{0}, kBase - 2, kBase - 1, kBase,
                           kBase + 1, ~uint64_t{0}}) {
    EXPECT_GE(ReliableTransport::AckFateSeq(counter), kBase)
        << "counter " << counter << " escaped the ack half";
  }
}

// ----------------------------------------------------------- checkpoints

cp::AttrPool& TestPool() {
  static cp::AttrPool* pool = new cp::AttrPool();
  return *pool;
}

cp::Route MakeRoute(const std::string& prefix, uint32_t local_pref,
                    size_t path_len, topo::NodeId from) {
  cp::Route r;
  r.prefix = util::MustParsePrefix(prefix);
  r.protocol = cp::Protocol::kBgp;
  cp::AttrTuple tuple;
  tuple.local_pref = local_pref;
  tuple.as_path.assign(path_len, 65000);
  r.attrs = TestPool().Intern(std::move(tuple));
  r.learned_from = from;
  r.origin_node = from;
  return r;
}

// Snapshots a RIB the way node checkpoints do: attribute table first,
// then the route sections referencing it.
std::vector<uint8_t> SnapshotRib(const cp::Rib& rib) {
  cp::AttrTableBuilder builder;
  std::vector<uint8_t> body;
  rib.SerializeState(body, builder);
  std::vector<uint8_t> bytes;
  builder.Serialize(bytes);
  bytes.insert(bytes.end(), body.begin(), body.end());
  return bytes;
}

TEST(CheckpointTest, RibStateRoundTripsExactly) {
  cp::Rib rib(nullptr);
  rib.Upsert(1, MakeRoute("10.0.0.0/24", 100, 3, 1));
  rib.Upsert(2, MakeRoute("10.0.0.0/24", 200, 5, 2));
  rib.Upsert(1, MakeRoute("10.0.1.0/24", 100, 2, 1));
  rib.RecomputeDirty(4);
  // Leave a pending (dirty, not yet recomputed) withdrawal in the snapshot:
  // the exact situation where restoring candidates alone would lose the
  // withdrawal the replay must re-emit.
  rib.Withdraw(1, util::MustParsePrefix("10.0.1.0/24"));

  std::vector<uint8_t> bytes = SnapshotRib(rib);

  cp::Rib restored(nullptr);
  util::WireReader in(bytes);
  cp::AttrTable table = cp::AttrTable::Read(in, TestPool());
  restored.RestoreState(in, table);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(restored.candidates(), rib.candidates());
  EXPECT_EQ(restored.all_best(), rib.all_best());
  EXPECT_EQ(restored.candidate_count(), rib.candidate_count());

  // The dirty set came along: both emit the same recompute delta.
  auto changed_original = rib.RecomputeDirty(4);
  auto changed_restored = restored.RecomputeDirty(4);
  EXPECT_EQ(changed_original, changed_restored);
  ASSERT_EQ(changed_restored.size(), 1u);
  EXPECT_EQ(changed_restored[0], util::MustParsePrefix("10.0.1.0/24"));

  // And re-serializing yields byte-identical state.
  EXPECT_EQ(SnapshotRib(rib), SnapshotRib(restored));
}

TEST(CheckpointTest, RoutesSectionEmbedsInCompositeBuffers) {
  std::vector<cp::RouteUpdate> updates(2);
  updates[0].prefix = util::MustParsePrefix("10.0.0.0/24");
  updates[0].route = MakeRoute("10.0.0.0/24", 100, 2, 3);
  updates[1].prefix = util::MustParsePrefix("10.0.1.0/24");
  updates[1].withdraw = true;
  // Composite layout: attribute table up front, sections and plain fields
  // interleaved after it.
  cp::AttrTableBuilder builder;
  std::vector<uint8_t> body;
  util::WireWriter w(body);
  w.U32(7);  // leading field
  cp::PutRoutesSection(body, updates, builder);
  w.U32(9);  // trailing field survives the section read
  std::vector<uint8_t> out;
  builder.Serialize(out);
  out.insert(out.end(), body.begin(), body.end());
  util::WireReader in(out);
  cp::AttrTable table = cp::AttrTable::Read(in, TestPool());
  EXPECT_EQ(in.U32(), 7u);
  auto round_trip = cp::GetRoutesSection(in, table);
  ASSERT_EQ(round_trip.size(), 2u);
  EXPECT_EQ(round_trip[0].route, updates[0].route);
  EXPECT_TRUE(round_trip[1].withdraw);
  EXPECT_EQ(in.U32(), 9u);
  in.ExpectEnd("composite buffer");
}

TEST(CheckpointTest, PredicatesRoundTripAcrossManagers) {
  bdd::Manager source(8);
  dp::NodePredicates preds;
  preds.arrive = source.Var(0) & source.Var(1);
  preds.exit = source.Var(2) | source.NotVar(3);
  preds.discard = !preds.arrive;
  preds.forward[4] = source.Var(4) ^ source.Var(5);
  preds.forward[9] = source.NotVar(6);
  preds.acl_in[4] = source.One();
  preds.acl_out[9] = source.Var(7);

  std::vector<uint8_t> bytes = SerializePredicates(preds);

  bdd::Manager target(8);
  dp::NodePredicates restored = DeserializePredicates(target, bytes);
  // bdd_io's encoding is structural, so re-serialized bytes are equal iff
  // the Boolean functions are — the property chaos tests lean on to compare
  // FIB semantics across runs.
  EXPECT_EQ(SerializePredicates(restored), bytes);
  ASSERT_EQ(restored.forward.size(), 2u);
  EXPECT_EQ(restored.forward.at(4),
            target.Var(4) ^ target.Var(5));
  EXPECT_EQ(restored.arrive, target.Var(0) & target.Var(1));
  EXPECT_EQ(restored.acl_in.at(4), target.One());
}

TEST(CheckpointTest, TotalBytesSumsSections) {
  WorkerCheckpoint checkpoint;
  checkpoint.node_state[1] = std::vector<uint8_t>(10);
  checkpoint.node_state[2] = std::vector<uint8_t>(20);
  checkpoint.predicate_state[1] = std::vector<uint8_t>(5);
  EXPECT_EQ(checkpoint.TotalBytes(), 35u);
}

}  // namespace
}  // namespace s2::fault
