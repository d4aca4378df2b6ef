// Socket-transport suite (DESIGN.md §13): loopback UDS/TCP round trips,
// stream-edge cases (coalesced reads, one-byte writes, abrupt peer close
// mid-frame), reconnect-and-replay through fault::ReliableTransport over a
// real socket, send/drain conservation under chaos, a
// truncation-at-every-byte corpus over every codec reachable from the
// socket read path, and the end-to-end differential: UDS/TCP runs must
// produce verdicts, RIBs, and predicate bytes identical to the in-process
// double on the default DCN — including under injected loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/s2.h"
#include "dist/sidecar.h"
#include "dist/socket_transport.h"
#include "dist/transport.h"
#include "fault/checkpoint.h"
#include "fault/reliable.h"
#include "test_networks.h"
#include "topo/dcn.h"
#include "util/status.h"

namespace s2::dist {
namespace {

Message MakeMessage(topo::NodeId to, topo::NodeId from,
                    std::vector<uint8_t> payload) {
  Message message;
  message.type = MessageType::kRouteUpdates;
  message.to_node = to;
  message.from_node = from;
  message.payload = std::move(payload);
  return message;
}

TEST(TransportKindTest, NamesRoundTrip) {
  for (TransportKind kind : {TransportKind::kInProcess,
                             TransportKind::kUnixSocket,
                             TransportKind::kTcp}) {
    TransportKind parsed;
    ASSERT_TRUE(ParseTransportKind(TransportKindName(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  TransportKind parsed;
  EXPECT_FALSE(ParseTransportKind("carrier-pigeon", parsed));
}

TEST(TransportKindTest, InProcessHasNoRawFramePath) {
  std::unique_ptr<Transport> transport =
      MakeTransport(TransportKind::kInProcess, 2, {});
  EXPECT_THROW(transport->SendFrame(0, 1, {1, 2, 3}), std::logic_error);
  EXPECT_THROW(transport->DrainFrames(0), std::logic_error);
}

// ---------------------------------------------------------------- sockets

class SocketTransportTest
    : public ::testing::TestWithParam<TransportKind> {};

INSTANTIATE_TEST_SUITE_P(UdsAndTcp, SocketTransportTest,
                         ::testing::Values(TransportKind::kUnixSocket,
                                           TransportKind::kTcp),
                         [](const auto& info) {
                           return std::string(TransportKindName(info.param));
                         });

TEST_P(SocketTransportTest, RoundTripAcrossWorkersAndSelf) {
  std::unique_ptr<Transport> transport = MakeTransport(GetParam(), 3, {});
  transport->Send(0, 1, MakeMessage(10, 0, {1, 1}));
  transport->Send(0, 1, MakeMessage(11, 0, {2, 2, 2}));
  transport->Send(2, 1, MakeMessage(12, 2, {3}));
  transport->Send(0, 0, MakeMessage(13, 0, {4, 4}));
  EXPECT_TRUE(transport->HasPending());

  std::vector<Message> self = transport->Drain(0);
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0].to_node, 13u);

  // Per-sender runs arrive in send order, senders in ascending id.
  std::vector<Message> at1 = transport->Drain(1);
  ASSERT_EQ(at1.size(), 3u);
  EXPECT_EQ(at1[0].to_node, 10u);
  EXPECT_EQ(at1[0].payload, (std::vector<uint8_t>{1, 1}));
  EXPECT_EQ(at1[1].to_node, 11u);
  EXPECT_EQ(at1[2].to_node, 12u);
  EXPECT_EQ(at1[2].payload, (std::vector<uint8_t>{3}));

  EXPECT_FALSE(transport->HasPending());
  TransportStats stats = transport->stats();
  EXPECT_EQ(stats.frames_sent, 4u);
  EXPECT_EQ(stats.frames_received, 4u);
  EXPECT_EQ(stats.dials, 2u);  // 0->1 and 2->1; self-sends never dial
  EXPECT_EQ(stats.frames_lost, 0u);
  EXPECT_GT(stats.bytes_sent, 0u);
  EXPECT_EQ(stats.bytes_sent, stats.bytes_received);
}

TEST_P(SocketTransportTest, ManyFramesCoalescedIntoOneDrain) {
  std::unique_ptr<Transport> transport = MakeTransport(GetParam(), 2, {});
  constexpr int kFrames = 64;
  for (int i = 0; i < kFrames; ++i) {
    transport->Send(0, 1, MakeMessage(static_cast<topo::NodeId>(i), 0,
                                      {static_cast<uint8_t>(i)}));
  }
  // All frames sit in one stream; the receiver reassembles every one from
  // however few reads the kernel coalesces them into.
  std::vector<Message> got = transport->Drain(1);
  ASSERT_EQ(got.size(), static_cast<size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(got[i].to_node, static_cast<uint32_t>(i));
  }
  EXPECT_EQ(transport->stats().frames_received,
            static_cast<size_t>(kFrames));
}

TEST_P(SocketTransportTest, OneByteWritesStillFrameCorrectly) {
  TransportOptions options;
  options.max_write_chunk = 1;  // every write() moves a single byte
  std::unique_ptr<Transport> transport =
      MakeTransport(GetParam(), 2, options);
  std::vector<uint8_t> payload(300);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7);
  }
  transport->Send(0, 1, MakeMessage(5, 0, payload));
  std::vector<Message> got = transport->Drain(1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload, payload);
  EXPECT_GT(transport->stats().partial_writes, 0u);
}

TEST_P(SocketTransportTest, AbruptCloseMidFrameLosesExactlyThatFrame) {
  TransportOptions options;
  // Enough budget per flush for the 8-byte hello plus a taste of the next
  // frame: the first frame is left half-written on the wire.
  options.max_flush_bytes_per_call = 10;
  std::unique_ptr<Transport> transport =
      MakeTransport(GetParam(), 2, options);
  transport->Send(0, 1, MakeMessage(1, 0, std::vector<uint8_t>(100, 0xAA)));
  transport->InjectDisconnect(0, 1);
  transport->Send(0, 1, MakeMessage(2, 0, {0xBB}));

  std::vector<Message> got = transport->Drain(1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].to_node, 2u);
  EXPECT_FALSE(transport->HasPending());

  TransportStats stats = transport->stats();
  EXPECT_EQ(stats.frames_lost, 1u);
  EXPECT_EQ(stats.partial_frames_discarded, 1u);
  EXPECT_EQ(stats.reconnects, 1u);
  EXPECT_EQ(stats.dials, 2u);
}

TEST_P(SocketTransportTest, DisconnectBetweenFramesLosesNothing) {
  std::unique_ptr<Transport> transport = MakeTransport(GetParam(), 2, {});
  // Fully flushed before the cut: the bytes are in the kernel and survive
  // the sender-side close (FIN, not RST, on loopback).
  transport->Send(0, 1, MakeMessage(1, 0, {0x01}));
  transport->InjectDisconnect(0, 1);
  transport->Send(0, 1, MakeMessage(2, 0, {0x02}));
  std::vector<Message> got = transport->Drain(1);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].to_node, 1u);
  EXPECT_EQ(got[1].to_node, 2u);
  TransportStats stats = transport->stats();
  EXPECT_EQ(stats.frames_lost, 0u);
  EXPECT_EQ(stats.reconnects, 1u);
}

// A peer whose endpoint is gone: re-dials walk an exponential (jittered)
// backoff ladder and, after max_dial_attempts consecutive failures, the
// channel gives up — backlog dropped and counted, never an unbounded
// retry loop or a wedged sender.
TEST_P(SocketTransportTest, DialBackoffGivesUpAfterBoundedAttempts) {
  TransportOptions options;
  options.dial_backoff_initial_ms = 1;
  options.dial_backoff_max_ms = 4;
  options.max_dial_attempts = 3;
  std::unique_ptr<Transport> transport =
      MakeTransport(GetParam(), 2, options);
  auto* socket = static_cast<SocketTransport*>(transport.get());

  // A healthy round trip first, so later dials count as reconnects.
  transport->Send(0, 1, MakeMessage(1, 0, {0x01}));
  ASSERT_EQ(transport->Drain(1).size(), 1u);
  ASSERT_EQ(transport->stats().reconnect_attempts, 0u);

  socket->CloseEndpointForTest(1);
  transport->InjectDisconnect(0, 1);

  // Pump sends until the channel walks the whole ladder and gives up;
  // between attempts the backoff gate makes dials a no-op.
  TransportStats stats;
  for (int i = 0; i < 1000; ++i) {
    transport->Send(0, 1, MakeMessage(2, 0, {0x02}));
    stats = transport->stats();
    if (stats.reconnect_giveups >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(stats.reconnect_giveups, 1u);
  EXPECT_GE(stats.reconnect_attempts,
            static_cast<size_t>(options.max_dial_attempts));
  EXPECT_GE(stats.frames_lost, 1u);
  // The give-up dropped the backlog: nothing for worker 1 remains pending
  // once the transport settles (later sends started a fresh cycle, so give
  // them one more give-up's worth of pumping to clear).
  for (int i = 0; i < 1000 && transport->HasPending(); ++i) {
    transport->Send(0, 1, MakeMessage(3, 0, {0x03}));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // The sender stays usable: no wedge, no crash, bounded memory.
  SUCCEED();
}

TEST_P(SocketTransportTest, HighWaterSurvivesDrainAndResetsExplicitly) {
  std::unique_ptr<Transport> transport = MakeTransport(GetParam(), 2, {});
  transport->Send(0, 1, MakeMessage(1, 0, {1}));
  transport->Send(0, 1, MakeMessage(2, 0, {2}));
  transport->Drain(1);
  EXPECT_EQ(transport->MaxQueueDepth(1), 2u);  // survives the drain
  transport->ResetHighWater();
  EXPECT_EQ(transport->MaxQueueDepth(1), 0u);
}

// ------------------------------------------- reliable envelope over sockets

TEST_P(SocketTransportTest, ReliableRetransmitCrossesReconnect) {
  TransportOptions options;
  options.max_flush_bytes_per_call = 10;  // leave frames half-written
  SidecarFabric fabric(2, {0, 1}, GetParam(), options);
  fabric.EnableReliableDelivery(fault::FaultPlan{}, nullptr,
                                /*keep_replay_log=*/false);
  fabric.Send(0, MakeMessage(1, 0, std::vector<uint8_t>(64, 0x5A)));
  // Cut the connection with the data frame half-written: the stream layer
  // loses it, and only the envelope's retransmit can recover it.
  fabric.InjectDisconnect(0, 1);

  std::vector<Message> delivered;
  for (int round = 0; round < 12 && delivered.empty(); ++round) {
    for (uint32_t w = 0; w < 2; ++w) {
      for (Message& message : fabric.Drain(w)) {
        delivered.push_back(std::move(message));
      }
    }
  }
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].to_node, 1u);
  EXPECT_EQ(delivered[0].payload, std::vector<uint8_t>(64, 0x5A));
  EXPECT_GE(fabric.stream_stats().reconnects, 1u);
  EXPECT_GE(fabric.transport_stats().retransmits, 1u);
  // Exactly once: further rounds deliver nothing and the fabric quiesces.
  for (int round = 0; round < 4; ++round) {
    for (uint32_t w = 0; w < 2; ++w) {
      EXPECT_TRUE(fabric.Drain(w).empty());
    }
  }
  EXPECT_FALSE(fabric.HasPending());
}

// Conservation under chaos: concurrent phase-A senders, phase-B drains,
// connections cut between phases — every message sent is delivered exactly
// once (sent == drained + in-flight, and in-flight is zero at quiescence).
TEST_P(SocketTransportTest, ConservationUnderDisconnectChaos) {
  constexpr uint32_t kWorkers = 4;
  constexpr int kRounds = 12;
  constexpr int kPerRound = 6;
  TransportOptions options;
  options.max_flush_bytes_per_call = 24;  // frames regularly half-written
  std::vector<uint32_t> assignment(kWorkers);
  for (uint32_t n = 0; n < kWorkers; ++n) assignment[n] = n;
  SidecarFabric fabric(kWorkers, assignment, GetParam(), options);
  fabric.EnableReliableDelivery(fault::FaultPlan{}, nullptr,
                                /*keep_replay_log=*/false);

  std::atomic<uint32_t> tag{0};
  std::set<uint32_t> sent_tags;
  std::mutex delivered_mutex;
  std::vector<uint32_t> delivered_tags;

  auto drain_all = [&] {
    std::vector<std::thread> threads;
    for (uint32_t w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&, w] {
        std::vector<Message> got = fabric.Drain(w);
        std::lock_guard<std::mutex> lock(delivered_mutex);
        for (const Message& message : got) {
          ASSERT_EQ(message.payload.size(), 4u);
          uint32_t t = uint32_t{message.payload[0]} |
                       (uint32_t{message.payload[1]} << 8) |
                       (uint32_t{message.payload[2]} << 16) |
                       (uint32_t{message.payload[3]} << 24);
          delivered_tags.push_back(t);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  };

  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> senders;
    std::mutex sent_mutex;
    for (uint32_t w = 0; w < kWorkers; ++w) {
      senders.emplace_back([&, w] {
        for (int i = 0; i < kPerRound; ++i) {
          uint32_t t = tag.fetch_add(1);
          std::vector<uint8_t> payload{static_cast<uint8_t>(t),
                                       static_cast<uint8_t>(t >> 8),
                                       static_cast<uint8_t>(t >> 16),
                                       static_cast<uint8_t>(t >> 24)};
          uint32_t to = (w + 1 + static_cast<uint32_t>(i) % (kWorkers - 1)) %
                        kWorkers;
          fabric.Send(w, MakeMessage(to, w, std::move(payload)));
          std::lock_guard<std::mutex> lock(sent_mutex);
          sent_tags.insert(t);
        }
      });
    }
    for (std::thread& thread : senders) thread.join();
    if (round % 3 == 1) {
      // Sever a few links mid-traffic; half-written frames are lost at the
      // stream layer and must come back via retransmits.
      for (uint32_t w = 0; w < kWorkers; ++w) {
        fabric.InjectDisconnect(w, (w + 1) % kWorkers);
      }
    }
    drain_all();
  }
  // Quiesce: keep draining until the envelope reports nothing pending.
  for (int round = 0; round < 64 && fabric.HasPending(); ++round) {
    drain_all();
  }
  EXPECT_FALSE(fabric.HasPending());

  std::set<uint32_t> delivered_set(delivered_tags.begin(),
                                   delivered_tags.end());
  EXPECT_EQ(delivered_tags.size(), delivered_set.size())
      << "a message was delivered twice";
  EXPECT_EQ(delivered_set, sent_tags);
}

// ------------------------------------------------ fabric semantics fixes

TEST(SidecarFabricModeTest, ReliableHighWaterResetsWithCounters) {
  SidecarFabric fabric(2, {0, 1});
  fabric.EnableReliableDelivery(fault::FaultPlan{}, nullptr, false);
  fabric.Send(0, MakeMessage(1, 0, {1, 2, 3}));
  EXPECT_GE(fabric.max_queue_depth(1), 1u);
  fabric.Drain(1);
  EXPECT_GE(fabric.max_queue_depth(1), 1u);  // survives the drain
  fabric.ResetCounters();
  // Used to fail: ResetCounters cleared only the direct-mode marks while
  // the reliable envelope's high-water survived.
  EXPECT_EQ(fabric.max_queue_depth(1), 0u);
  EXPECT_EQ(fabric.total_bytes(), 0u);
}

TEST(SidecarFabricModeTest, EnableReliableDeliveryMigratesQueuedMessages) {
  SidecarFabric fabric(2, {0, 1});
  fabric.Send(0, MakeMessage(1, 0, {0x0A}));
  fabric.Send(0, MakeMessage(1, 0, {0x0B}));
  // Used to fail: switching modes stranded the two direct-mode queued
  // messages in the old queues forever.
  fabric.EnableReliableDelivery(fault::FaultPlan{}, nullptr, false);
  EXPECT_TRUE(fabric.HasPending());
  std::vector<Message> got = fabric.Drain(1);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].payload, (std::vector<uint8_t>{0x0A}));
  EXPECT_EQ(got[1].payload, (std::vector<uint8_t>{0x0B}));
  EXPECT_FALSE(fabric.HasPending());
}

// --------------------------------------------------- truncation corpus

// Every deserializer reachable from the socket read path must throw
// util::WireFormatError on a frame truncated at every possible byte — and
// on length fields pointing past the end — never crash or mis-parse.
class TruncationCorpusTest : public ::testing::Test {
 protected:
  static std::vector<std::vector<uint8_t>> MessageCorpus() {
    std::vector<std::vector<uint8_t>> corpus;
    {
      Message message = MakeMessage(7, 3, {1, 2, 3, 4, 5});
      std::vector<uint8_t> bytes;
      EncodeMessage(message, bytes);
      corpus.push_back(std::move(bytes));
    }
    {
      Message message;
      message.type = MessageType::kSymbolicPacket;
      message.to_node = 9;
      message.from_node = 2;
      message.packet_src = 1;
      message.packet_hops = 4;
      message.packet_path = {1, 5, 9};
      message.payload = std::vector<uint8_t>(33, 0xEE);
      std::vector<uint8_t> bytes;
      EncodeMessage(message, bytes);
      corpus.push_back(std::move(bytes));
    }
    {
      Message message;
      message.type = MessageType::kPacketBatch;
      message.to_node = 4;
      std::vector<dp::WirePacket> frames(2);
      frames[0].at = 4;
      frames[0].from = 3;
      frames[0].src = 0;
      frames[0].hops = 2;
      frames[0].set = {9, 9, 9, 9};
      frames[1].at = 4;
      frames[1].from = 5;
      frames[1].src = 1;
      frames[1].hops = 3;
      frames[1].path = {1, 2, 5};
      frames[1].set = {7};
      EncodePacketBatch(frames, message.payload);
      std::vector<uint8_t> bytes;
      EncodeMessage(message, bytes);
      corpus.push_back(std::move(bytes));
    }
    {
      // Route batch with the address-family byte in both encodings: a
      // v4-only payload (compact, leads with kAfV4) and a mixed-family
      // payload (generic, kAfV6 with per-entry family bytes).
      for (bool mixed : {false, true}) {
        cp::AttrPool pool;
        std::vector<cp::RouteUpdate> updates;
        cp::Route v4;
        v4.prefix = util::MustParsePrefix("10.1.0.0/24");
        v4.origin_node = 1;
        updates.push_back(cp::RouteUpdate{v4.prefix, false, v4});
        if (mixed) {
          cp::Route v6;
          v6.prefix = util::MustParsePrefix("2001:db8::/48");
          v6.origin_node = 2;
          updates.push_back(cp::RouteUpdate{v6.prefix, false, v6});
        }
        Message message = MakeMessage(3, 1, {});
        cp::SerializeRoutes(updates, message.payload);
        std::vector<uint8_t> bytes;
        EncodeMessage(message, bytes);
        corpus.push_back(std::move(bytes));
      }
    }
    return corpus;
  }
};

// A route-batch frame survives framing intact, its payload decodes with
// the address-family byte honored, and an unknown family value in the
// payload surfaces as util::WireFormatError after transport decode — the
// exact path a corrupted sidecar frame would take.
TEST_F(TruncationCorpusTest, RouteBatchPayloadRejectsUnknownFamily) {
  cp::AttrPool pool;
  std::vector<cp::RouteUpdate> updates;
  cp::Route v6;
  v6.prefix = util::MustParsePrefix("2001:db8::/48");
  v6.origin_node = 2;
  updates.push_back(cp::RouteUpdate{v6.prefix, false, v6});
  Message message = MakeMessage(3, 1, {});
  cp::SerializeRoutes(updates, message.payload);
  std::vector<uint8_t> frame;
  EncodeMessage(message, frame);

  Message decoded = DecodeMessage(frame);
  ASSERT_EQ(cp::DeserializeRoutes(decoded.payload, pool).size(), 1u);

  // Sweep every payload byte with an unknown-family value: decode must
  // error or stay sane, and the AF byte's offset must report it.
  int unknown_family = 0;
  for (size_t pos = 0; pos < decoded.payload.size(); ++pos) {
    Message corrupt = decoded;
    if (corrupt.payload[pos] == 0xEE) continue;
    corrupt.payload[pos] = 0xEE;
    try {
      cp::DeserializeRoutes(corrupt.payload, pool);
    } catch (const util::WireFormatError& e) {
      if (std::string(e.what()).find("unknown address family") !=
          std::string::npos) {
        ++unknown_family;
      }
    }
  }
  EXPECT_GE(unknown_family, 1);
}

TEST_F(TruncationCorpusTest, MessageTruncatedAtEveryByteThrows) {
  for (const std::vector<uint8_t>& frame : MessageCorpus()) {
    // The full frame decodes.
    EXPECT_NO_THROW(DecodeMessage(frame));
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      std::vector<uint8_t> truncated(frame.begin(),
                                     frame.begin() + static_cast<ptrdiff_t>(cut));
      EXPECT_THROW(DecodeMessage(truncated), util::WireFormatError)
          << "cut at byte " << cut << " of " << frame.size();
    }
    // Trailing garbage is also malformed, not silently ignored.
    std::vector<uint8_t> padded = frame;
    padded.push_back(0);
    EXPECT_THROW(DecodeMessage(padded), util::WireFormatError);
  }
}

TEST_F(TruncationCorpusTest, PacketBatchTruncatedAtEveryByteThrows) {
  std::vector<dp::WirePacket> frames(2);
  frames[0].at = 1;
  frames[0].set = {1, 2, 3};
  frames[1].at = 2;
  frames[1].path = {7, 8};
  frames[1].set = {4};
  std::vector<uint8_t> payload;
  EncodePacketBatch(frames, payload);
  EXPECT_NO_THROW(DecodePacketBatch(payload));
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    std::vector<uint8_t> truncated(
        payload.begin(), payload.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_THROW(DecodePacketBatch(truncated), util::WireFormatError)
        << "cut at byte " << cut << " of " << payload.size();
  }
}

TEST_F(TruncationCorpusTest, CarrierFrameTruncatedAtEveryByteThrows) {
  fault::CarrierFrame data;
  data.kind = 0;
  data.from = 1;
  data.to = 0;
  data.seq = 42;
  data.ready_round = 3;
  data.has_payload = true;
  data.payload = MakeMessage(6, 2, {9, 8, 7});
  fault::CarrierFrame ack;
  ack.kind = 1;
  ack.from = 0;
  ack.to = 1;
  ack.seq = 41;
  for (const fault::CarrierFrame& frame : {data, ack}) {
    std::vector<uint8_t> bytes = fault::EncodeCarrierFrame(frame);
    fault::CarrierFrame decoded = fault::DecodeCarrierFrame(bytes);
    EXPECT_EQ(decoded.kind, frame.kind);
    EXPECT_EQ(decoded.seq, frame.seq);
    EXPECT_EQ(decoded.has_payload, frame.has_payload);
    if (frame.has_payload) {
      EXPECT_EQ(decoded.payload.payload, frame.payload.payload);
    }
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<uint8_t> truncated(
          bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(cut));
      EXPECT_THROW(fault::DecodeCarrierFrame(truncated),
                   util::WireFormatError)
          << "cut at byte " << cut << " of " << bytes.size();
    }
    std::vector<uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_THROW(fault::DecodeCarrierFrame(padded), util::WireFormatError);
  }
  // Unknown kind byte.
  std::vector<uint8_t> bad = fault::EncodeCarrierFrame(ack);
  bad[0] = 7;
  EXPECT_THROW(fault::DecodeCarrierFrame(bad), util::WireFormatError);
}

TEST_F(TruncationCorpusTest, LengthFieldsBeyondStreamThrow) {
  // A message whose payload length field claims more than remains.
  Message message = MakeMessage(1, 0, {1, 2, 3, 4});
  std::vector<uint8_t> bytes;
  EncodeMessage(message, bytes);
  // payload_len is the u32 right before the 4 payload bytes.
  size_t len_at = bytes.size() - 4 - 4;
  bytes[len_at] = 0xFF;
  bytes[len_at + 1] = 0xFF;
  EXPECT_THROW(DecodeMessage(bytes), util::WireFormatError);

  // A path length field that would read past the end.
  Message pathy;
  pathy.type = MessageType::kSymbolicPacket;
  pathy.to_node = 1;
  pathy.packet_path = {1, 2};
  std::vector<uint8_t> pathy_bytes;
  EncodeMessage(pathy, pathy_bytes);
  pathy_bytes[17] = 0xFF;  // path_len lives after type + 4 u32 fields
  EXPECT_THROW(DecodeMessage(pathy_bytes), util::WireFormatError);
}

// ----------------------------------------------- end-to-end differential

dp::Query DcnAllPairQuery(const config::ParsedNetwork& net) {
  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  for (topo::NodeId id = 0; id < net.graph.size(); ++id) {
    if (net.graph.node(id).role == topo::Role::kEdge) {
      query.sources.push_back(id);
      query.destinations.push_back(id);
    }
  }
  return query;
}

struct EndToEndOutcome {
  core::VerifyResult result;
  std::map<topo::NodeId, std::map<util::IpPrefix, std::vector<cp::Route>>>
      ribs;
  std::map<topo::NodeId, std::vector<uint8_t>> predicate_bytes;
};

EndToEndOutcome RunEndToEnd(const config::ParsedNetwork& net,
                            const dp::Query& query, TransportKind transport,
                            std::optional<fault::FaultPlan> plan) {
  ControllerOptions options;
  options.num_workers = 4;
  options.transport = transport;
  options.fault_plan = std::move(plan);
  core::S2Verifier verifier(options);
  EndToEndOutcome outcome;
  outcome.result = verifier.Verify(net, {query});
  Controller* controller = verifier.last_controller();
  for (size_t w = 0; w < controller->num_workers(); ++w) {
    Worker& worker = controller->worker(w);
    for (topo::NodeId id : worker.local_nodes()) {
      outcome.ribs[id] = testing::BestRoutes(*controller->rib_store(), id);
    }
    fault::WorkerCheckpoint checkpoint;
    worker.CheckpointDataPlane(checkpoint);
    for (auto& [node, bytes] : checkpoint.predicate_state) {
      outcome.predicate_bytes[node] = std::move(bytes);
    }
  }
  return outcome;
}

void ExpectSameOutcome(const EndToEndOutcome& got,
                       const EndToEndOutcome& want, const std::string& label) {
  ASSERT_TRUE(got.result.ok()) << label << ": " << got.result.failure_detail;
  ASSERT_EQ(got.result.queries.size(), want.result.queries.size()) << label;
  for (size_t i = 0; i < want.result.queries.size(); ++i) {
    EXPECT_EQ(got.result.queries[i].reachable_pairs,
              want.result.queries[i].reachable_pairs)
        << label;
    EXPECT_EQ(got.result.queries[i].unreachable_pairs,
              want.result.queries[i].unreachable_pairs)
        << label;
    EXPECT_EQ(got.result.queries[i].loop_free,
              want.result.queries[i].loop_free)
        << label;
    EXPECT_EQ(got.result.queries[i].blackhole_free,
              want.result.queries[i].blackhole_free)
        << label;
  }
  EXPECT_EQ(got.result.total_best_routes, want.result.total_best_routes)
      << label;
  EXPECT_EQ(got.ribs, want.ribs) << label;
  EXPECT_EQ(got.predicate_bytes, want.predicate_bytes) << label;
}

TEST(TransportDifferentialTest, SocketsMatchInProcessOnDefaultDcn) {
  config::ParsedNetwork net =
      testing::Parse(topo::MakeDcn(topo::DcnParams{}));
  dp::Query query = DcnAllPairQuery(net);
  EndToEndOutcome baseline =
      RunEndToEnd(net, query, TransportKind::kInProcess, std::nullopt);
  ASSERT_TRUE(baseline.result.ok()) << baseline.result.failure_detail;

  EndToEndOutcome uds =
      RunEndToEnd(net, query, TransportKind::kUnixSocket, std::nullopt);
  ExpectSameOutcome(uds, baseline, "uds");

  EndToEndOutcome tcp =
      RunEndToEnd(net, query, TransportKind::kTcp, std::nullopt);
  ExpectSameOutcome(tcp, baseline, "tcp");
}

TEST(TransportDifferentialTest, UdsUnderInjectedLossMatchesInProcess) {
  config::ParsedNetwork net =
      testing::Parse(topo::MakeDcn(topo::DcnParams{}));
  dp::Query query = DcnAllPairQuery(net);
  EndToEndOutcome baseline =
      RunEndToEnd(net, query, TransportKind::kInProcess, std::nullopt);

  fault::FaultPlan plan;
  plan.seed = 404;
  plan.default_link.drop = 0.10;
  plan.default_link.duplicate = 0.03;
  EndToEndOutcome lossy =
      RunEndToEnd(net, query, TransportKind::kUnixSocket, plan);
  ExpectSameOutcome(lossy, baseline, "uds+loss");
  // The losses really happened and real retransmits crossed the socket.
  EXPECT_GT(lossy.result.frames_dropped, 0u);
  EXPECT_GT(lossy.result.retransmits, 0u);
}

}  // namespace
}  // namespace s2::dist
