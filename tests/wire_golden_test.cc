// Golden bytes for every wire format: one fixed sample per format, pinned
// to its exact encoding (hex for short blobs, length + FNV-1a 64 digest
// for long ones). Round-trip and truncation suites cannot see a change
// made on both the encode and the decode side; these constants can. A
// deliberate format change updates them together with the protocol
// version it implies.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <poll.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bdd/bdd.h"
#include "bdd/bdd_io.h"
#include "config/parser.h"
#include "cp/node.h"
#include "cp/rib.h"
#include "cp/route.h"
#include "dist/message.h"
#include "dist/process.h"
#include "dist/socket_transport.h"
#include "fault/checkpoint.h"
#include "fault/reliable.h"
#include "test_networks.h"
#include "util/memory_tracker.h"
#include "util/status.h"

namespace s2 {
namespace {

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

// Short blobs pin as hex, long ones as "<length>:<fnv1a64>".
std::string Pin(const std::vector<uint8_t>& bytes) {
  if (bytes.size() <= 64) return Hex(bytes);
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(h));
  return std::to_string(bytes.size()) + ":" + digest;
}

cp::AttrPool& Pool() {
  static cp::AttrPool* pool = new cp::AttrPool();
  return *pool;
}

cp::Route SampleRoute(const char* prefix, uint32_t local_pref,
                      std::vector<uint32_t> path, topo::NodeId from) {
  cp::Route r;
  r.prefix = util::MustParsePrefix(prefix);
  r.protocol = cp::Protocol::kBgp;
  r.metric = 3;
  r.origin_node = 7;
  r.learned_from = from;
  cp::AttrTuple tuple;
  tuple.local_pref = local_pref;
  tuple.med = 5;
  tuple.origin = 1;
  tuple.as_path = std::move(path);
  tuple.communities = {100, 200};
  r.attrs = Pool().Intern(std::move(tuple));
  return r;
}

std::vector<cp::RouteUpdate> V4Updates() {
  std::vector<cp::RouteUpdate> updates;
  for (cp::Route r :
       {SampleRoute("10.0.0.0/24", 100, {65001, 65002}, 1),
        SampleRoute("10.0.1.0/24", 100, {65001, 65002}, 1),
        SampleRoute("10.0.2.0/23", 200, {65003}, 2)}) {
    updates.push_back(cp::RouteUpdate{r.prefix, false, r});
  }
  updates.push_back(cp::RouteUpdate{util::MustParsePrefix("10.9.0.0/16"),
                                    true, cp::Route{}});
  return updates;
}

std::vector<cp::RouteUpdate> MixedUpdates() {
  std::vector<cp::RouteUpdate> updates = V4Updates();
  cp::Route v6 = SampleRoute("2001:db8:1::/48", 150, {65010}, 3);
  v6.protocol = cp::Protocol::kOspf;
  updates.push_back(cp::RouteUpdate{v6.prefix, false, v6});
  updates.push_back(cp::RouteUpdate{util::MustParsePrefix("2001:db8::/32"),
                                    true, cp::Route{}});
  return updates;
}

TEST(WireGoldenTest, RouteBatches) {
  std::vector<uint8_t> v4;
  cp::SerializeRoutes(V4Updates(), v4);
  EXPECT_EQ(Pin(v4), "146:6e1711676468826c");
  EXPECT_EQ(cp::DeserializeRoutes(v4, Pool()).size(), 4u);

  std::vector<uint8_t> mixed;
  cp::SerializeRoutes(MixedUpdates(), mixed);
  EXPECT_EQ(Pin(mixed), "234:f72aa8aed426fd17");
  EXPECT_EQ(cp::DeserializeRoutes(mixed, Pool()).size(), 6u);

  std::vector<uint8_t> empty;
  cp::SerializeRoutes({}, empty);
  EXPECT_EQ(Pin(empty), "000000000400000000");
}

// A node checkpoint is the attribute table, the pass byte, the RIB state
// (candidate groups, best sets, dirty marks) and the OSPF results section.
TEST(WireGoldenTest, RibAndNodeCheckpointState) {
  cp::Rib rib(nullptr);
  rib.Upsert(1, SampleRoute("10.0.0.0/24", 100, {65001, 65002}, 1));
  rib.Upsert(2, SampleRoute("10.0.0.0/24", 200, {65003}, 2));
  rib.Upsert(1, SampleRoute("10.0.1.0/24", 100, {65001}, 1));
  rib.RecomputeDirty(4);
  rib.Withdraw(1, util::MustParsePrefix("10.0.1.0/24"));

  cp::AttrTableBuilder builder;
  std::vector<uint8_t> body;
  rib.SerializeState(body, builder);
  std::vector<uint8_t> rib_bytes;
  builder.Serialize(rib_bytes);
  rib_bytes.insert(rib_bytes.end(), body.begin(), body.end());
  EXPECT_EQ(Pin(rib_bytes), "241:d1278f995576f1e4");

  // The node blob: same table shared by the RIB and OSPF sections.
  cp::AttrTableBuilder node_table;
  std::vector<uint8_t> node_body;
  node_body.push_back(static_cast<uint8_t>(cp::Node::Pass::kBgp));
  rib.SerializeState(node_body, node_table);
  cp::Route ospf = SampleRoute("172.16.0.1/32", 100, {}, 4);
  ospf.protocol = cp::Protocol::kOspf;
  cp::PutRoutesSection(node_body, {cp::RouteUpdate{ospf.prefix, false, ospf}},
                       node_table);
  std::vector<uint8_t> node_bytes;
  node_table.Serialize(node_bytes);
  node_bytes.insert(node_bytes.end(), node_body.begin(), node_body.end());
  EXPECT_EQ(Pin(node_bytes), "299:db039cbeedfca78f");

  // A node restores those bytes and re-serializes them unchanged.
  config::ParsedNetwork network = testing::Parse(testing::MakeChain(1));
  util::MemoryTracker tracker("golden", 0);
  cp::AttrPool pool;
  cp::Node node(0, network, &tracker, &pool);
  node.RestoreState(node_bytes, nullptr);
  std::vector<uint8_t> again;
  node.SerializeState(again);
  EXPECT_EQ(again, node_bytes);
}

bdd::Bdd SampleFunction(bdd::Manager& m) {
  return (m.Var(0) & m.NotVar(2)) | (m.Var(1) & m.Var(3));
}

TEST(WireGoldenTest, BddBlobAndPredicates) {
  bdd::Manager m(8);
  std::vector<uint8_t> blob = bdd::Serialize(SampleFunction(m));
  EXPECT_EQ(Pin(blob), "88:8fef35e70e82c20f");
  EXPECT_EQ(Pin(bdd::Serialize(m.Zero())), "44423253080000000000000000000000");

  dp::NodePredicates preds;
  preds.arrive = m.Var(0);
  preds.exit = m.Zero();
  preds.discard = m.NotVar(1);
  preds.forward[4] = SampleFunction(m);
  preds.forward[2] = m.Var(5);
  preds.acl_in[3] = m.One();
  EXPECT_EQ(Pin(fault::SerializePredicates(preds)), "252:189a79becf87030b");
}

dist::Message SampleMessage() {
  dist::Message msg;
  msg.type = dist::MessageType::kSymbolicPacket;
  msg.to_node = 5;
  msg.from_node = 2;
  msg.packet_src = 1;
  msg.packet_hops = 3;
  msg.packet_path = {1, 2};
  msg.payload = {0xDE, 0xAD, 0xBE, 0xEF};
  return msg;
}

TEST(WireGoldenTest, PacketBatchMessageAndCarrierFrame) {
  std::vector<dp::WirePacket> frames(2);
  frames[0].at = 4;
  frames[0].from = 3;
  frames[0].src = 1;
  frames[0].hops = 2;
  frames[0].set = {9, 8, 7};
  frames[1].at = 6;
  frames[1].from = 4;
  frames[1].src = 1;
  frames[1].hops = 3;
  frames[1].path = {1, 3, 4};
  std::vector<uint8_t> batch;
  dist::EncodePacketBatch(frames, batch);
  EXPECT_EQ(Pin(batch), "67:5b2a3d4e1219215f");

  std::vector<uint8_t> message;
  dist::EncodeMessage(SampleMessage(), message);
  EXPECT_EQ(Pin(message),
            "0105000000020000000100000003000000020000000100000002000000040000"
            "00deadbeef");

  fault::CarrierFrame data;
  data.kind = 0;
  data.from = 1;
  data.to = 2;
  data.seq = 0x0102030405060708ull;
  data.ready_round = 9;
  data.demoted = true;
  data.has_payload = true;
  data.payload = SampleMessage();
  EXPECT_EQ(Pin(fault::EncodeCarrierFrame(data)),
            "0001000000020000000807060504030201090000000101010500000002000000"
            "010000000300000002000000010000000200000004000000deadbeef");
  fault::CarrierFrame ack;
  ack.kind = 1;
  ack.from = 2;
  ack.to = 1;
  ack.seq = 41;
  EXPECT_EQ(Pin(fault::EncodeCarrierFrame(ack)),
            "0102000000010000002900000000000000000000000000");
}

fault::WorkerCheckpoint SampleCheckpoint() {
  fault::WorkerCheckpoint ckpt;
  ckpt.shard = -1;
  ckpt.fabric_round = 5;
  ckpt.node_state[1] = {1, 2, 3, 4};
  ckpt.node_state[4] = {9, 8};
  ckpt.has_data_plane = true;
  ckpt.predicate_state[1] = {7, 7, 7};
  ckpt.fib_bytes = 77;
  return ckpt;
}

TEST(WireGoldenTest, WorkerCheckpoint) {
  EXPECT_EQ(Pin(fault::EncodeWorkerCheckpoint(SampleCheckpoint())),
            "ffffffff05000000020000000100000004000000010203040400000002000000"
            "0908010000000100000001000000030000000707074d00000000000000");
  EXPECT_EQ(Pin(fault::EncodeWorkerCheckpoint(fault::WorkerCheckpoint{})),
            "ffffffff000000000000000000000000000000000000000000000000");
}

TEST(WireGoldenTest, EveryCtrlType) {
  std::map<dist::CtrlType, std::string> want = {
      {dist::CtrlType::kHello, "0103000000020000007856341200000000"},
      {dist::CtrlType::kHeartbeat, "022900000000000000"},
      {dist::CtrlType::kCommand, "0307feffffff070000000300000002000000abcd"},
      {dist::CtrlType::kResponse, "66:e892b532e8cebe9f"},
      {dist::CtrlType::kData, "050200000002000000abcd"},
      {dist::CtrlType::kDeliver, "0602000000abcd"},
      {dist::CtrlType::kCheckpointAck, "66:4fc910251ffec51c"},
      {dist::CtrlType::kDrain, "08"},
      {dist::CtrlType::kShutdown, "09"},
  };
  for (const auto& [type, pin] : want) {
    dist::CtrlFrame f;
    f.type = type;
    f.worker = 3;
    f.protocol = dist::kCtrlProtocolVersion;
    f.pid = 0x12345678;
    f.seq = 41;
    f.command = dist::WorkerCommand::kSpillBgp;
    f.shard = -2;
    f.round = 7;
    f.count = 3;
    f.status = dist::CtrlStatus::kTimeout;
    f.flag = 1;
    f.phase_seconds = 0.125;
    f.live_bytes = 1 << 20;
    f.peak_bytes = 3 << 20;
    f.cache_hits = 100;
    f.cache_misses = 7;
    f.cache_evictions = 2;
    f.aux = 12;
    f.dest = 2;
    f.payload = {0xAB, 0xCD};
    EXPECT_EQ(Pin(dist::EncodeCtrlFrame(f)), pin)
        << "type " << static_cast<int>(type);
  }
  EXPECT_EQ(dist::kCtrlProtocolVersion, 2u);
}

TEST(WireGoldenTest, ProcessPayloads) {
  dist::WorkerInitSpec init;
  init.num_workers = 3;
  init.index = 1;
  init.memory_budget = 1ull << 30;
  init.max_bdd_nodes = 1ull << 22;
  init.layout_dst_bits = 32;
  init.layout_src_bits = 32;
  init.layout_meta_bits = 4;
  init.layout_family_bits = 1;
  init.max_hops = 24;
  init.num_shards = 4;
  init.seed = 99;
  init.heartbeat_interval_ms = 50;
  init.assignment = {0, 1, 2, 0, 1};
  init.config_texts = {"hostname r0\n", "", "hostname r2\n"};
  EXPECT_EQ(Pin(dist::EncodeWorkerInitSpec(init)), "124:30ff26d9f0f62691");

  std::vector<dist::SpillBlob> spills = {dist::SpillBlob{0, 3, {1, 2, 3}},
                                         dist::SpillBlob{2, 4, {}}};
  EXPECT_EQ(Pin(dist::EncodeSpillBlobs(spills)),
            "02000000000000000300000003000000010203020000000400000000000000");

  dist::WorkerRestoreSpec restore;
  restore.shard_index = 1;
  restore.to_round = 9;
  restore.checkpoint = fault::EncodeWorkerCheckpoint(SampleCheckpoint());
  restore.spills = spills;
  restore.log.push_back(fault::LoggedDelivery{6, SampleMessage()});
  restore.log.push_back(fault::LoggedDelivery{7, SampleMessage()});
  EXPECT_EQ(Pin(dist::EncodeWorkerRestoreSpec(restore)),
            "202:87764b72f8f30669");

  std::map<topo::NodeId, std::vector<uint8_t>> map;
  map[3] = {1, 2, 3};
  map[9] = {};
  map[11] = {0xFF};
  EXPECT_EQ(Pin(dist::EncodeNodeBlobMap(map)),
            "03000000030000000300000001020309000000000000000b00000001000000ff");

  EXPECT_EQ(Pin(dist::EncodeOomError("bdd", 123456, 4096)),
            "0300000062646440e20100000000000010000000000000");
  EXPECT_EQ(Pin(dist::EncodeSpillError(
                util::SpillError("write", "/tmp/s2-ribstore-1", 28))),
            "050000007772697465120000002f746d702f73322d72696273746f72652d311c"
            "000000");
}

// The control channel's stream framing: [u32 LE length | payload].
TEST(WireGoldenTest, ControlFrameHeader) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::vector<uint8_t> payload = {0x11, 0x22, 0x33};
  ASSERT_TRUE(dist::WriteFrameFd(sv[0], payload));
  ASSERT_TRUE(dist::WriteFrameFd(sv[0], {}));
  std::vector<uint8_t> raw(64);
  ssize_t n = read(sv[1], raw.data(), raw.size());
  ASSERT_GT(n, 0);
  raw.resize(static_cast<size_t>(n));
  EXPECT_EQ(Hex(raw), "0300000011223300000000");
  close(sv[0]);
  close(sv[1]);
}

// The path an AF_UNIX listening socket of this process is bound to, or ""
// when `fd` is not one.
std::string BoundUdsPath(int fd) {
  sockaddr_un addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      addr.sun_family != AF_UNIX) {
    return "";
  }
  return addr.sun_path;
}

// The socket transport's connection hello and frame header, captured by
// standing in for worker 1's listener: the transport dials the stand-in
// and writes exactly what a peer transport would have read.
TEST(WireGoldenTest, SocketHelloAndFrameHeader) {
  dist::SocketTransport transport(dist::TransportKind::kUnixSocket, 2, {});
  std::string path;
  for (int fd = 3; fd < 1024 && path.empty(); ++fd) {
    std::string bound = BoundUdsPath(fd);
    if (bound.find("/s2fab") != std::string::npos &&
        bound.size() > 3 && bound.compare(bound.size() - 3, 3, "/w1") == 0) {
      path = bound;
    }
  }
  ASSERT_FALSE(path.empty()) << "worker 1's listener not found";
  transport.CloseEndpointForTest(1);

  int listener = socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(listen(listener, 4), 0);

  dist::Message message;
  message.type = dist::MessageType::kRouteUpdates;
  message.to_node = 1;
  message.from_node = 0;
  message.payload = {0x42};
  transport.Send(0, 1, message);
  transport.SendFrame(0, 1, {0xA1, 0xA2});

  int conn = accept(listener, nullptr, nullptr);
  ASSERT_GE(conn, 0);
  std::vector<uint8_t> got;
  const size_t want_bytes = 8 + 4 + 26 + 4 + 2;
  while (got.size() < want_bytes) {
    pollfd pfd{conn, POLLIN, 0};
    ASSERT_GT(poll(&pfd, 1, 5000), 0) << "stream stalled at " << got.size();
    uint8_t buf[256];
    ssize_t n = read(conn, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    got.insert(got.end(), buf, buf + n);
  }
  // Hello: magic "S2TR" and the dialing worker; then one message frame
  // and one raw frame, each behind its u32 LE length.
  EXPECT_EQ(Hex(got),
            "52543253" "00000000"
            "1a000000" "000100000000000000ffffffff00000000000000000100000042"
            "02000000" "a1a2");
  close(conn);
  close(listener);
  unlink(path.c_str());
}

}  // namespace
}  // namespace s2
