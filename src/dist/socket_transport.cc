#include "dist/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "obs/trace.h"
#include "util/status.h"
#include "util/wire.h"

namespace s2::dist {

namespace {

// First 8 bytes of every connection: magic + dialing worker id.
constexpr uint32_t kHelloMagic = 0x53325452;  // "S2TR"
constexpr size_t kHelloBytes = 8;
constexpr size_t kLengthPrefixBytes = 4;
// Upper bound a received length prefix may claim; larger values are a
// malformed stream (util::WireFormatError), not an allocation.
constexpr size_t kMaxFrameBytes = size_t{64} << 20;
// Per-channel userspace send-buffer high-water mark: beyond it Send
// records backpressure and stalls (bounded by kMaxStallMs) trying to
// flush.
constexpr size_t kHighWaterBytes = size_t{1} << 20;
constexpr int64_t kMaxStallMs = 50;
// Longest a Drain pumps the event loop waiting for frames that were
// enqueued but have not yet crossed the socket.
constexpr int64_t kDrainWaitMs = 2000;

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SocketTransport::SocketTransport(TransportKind kind, uint32_t num_workers,
                                 TransportOptions options)
    : kind_(kind),
      num_workers_(num_workers),
      options_(options),
      pending_depth_(num_workers),
      max_queue_depth_(num_workers) {
  if (kind_ == TransportKind::kInProcess) {
    throw std::logic_error("SocketTransport requires a socket kind");
  }
  if (kind_ == TransportKind::kUnixSocket) {
    char tmpl[] = "/tmp/s2fabXXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      throw std::runtime_error("mkdtemp failed for UDS transport");
    }
    uds_dir_ = tmpl;
  }
  channels_.reserve(static_cast<size_t>(num_workers) * num_workers);
  for (size_t i = 0; i < static_cast<size_t>(num_workers) * num_workers;
       ++i) {
    channels_.push_back(std::make_unique<Channel>());
  }
  endpoints_.reserve(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    auto endpoint = std::make_unique<Endpoint>();
    endpoint->ready.resize(num_workers);
    endpoints_.push_back(std::move(endpoint));
    OpenListener(w);
  }
}

SocketTransport::~SocketTransport() {
  for (auto& channel : channels_) {
    if (channel->fd >= 0) ::close(channel->fd);
  }
  for (auto& endpoint : endpoints_) {
    for (auto& conn : endpoint->conns) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    if (endpoint->listen_fd >= 0) ::close(endpoint->listen_fd);
    if (!endpoint->uds_path.empty()) ::unlink(endpoint->uds_path.c_str());
  }
  if (!uds_dir_.empty()) ::rmdir(uds_dir_.c_str());
}

void SocketTransport::OpenListener(uint32_t worker) {
  Endpoint& endpoint = *endpoints_[worker];
  if (kind_ == TransportKind::kUnixSocket) {
    endpoint.uds_path = uds_dir_ + "/w" + std::to_string(worker);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket(AF_UNIX) failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  endpoint.uds_path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, static_cast<int>(num_workers_) + 8) != 0) {
      ::close(fd);
      throw std::runtime_error("bind/listen failed on " + endpoint.uds_path);
    }
    SetNonBlocking(fd);
    endpoint.listen_fd = fd;
    return;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_INET) failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, static_cast<int>(num_workers_) + 8) != 0) {
    ::close(fd);
    throw std::runtime_error("bind/listen failed on loopback TCP");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  endpoint.tcp_port = ntohs(addr.sin_port);
  SetNonBlocking(fd);
  endpoint.listen_fd = fd;
}

void SocketTransport::DialLocked(Channel& channel, uint32_t from,
                                 uint32_t to) {
  // Backoff gate: a channel that just failed to dial waits out its
  // (jittered, exponential) delay before trying again.
  if (channel.failed_dials > 0 &&
      NowMicros() / 1000 < channel.next_dial_at_ms) {
    return;
  }
  if (channel.dialed_once) {
    stats_.reconnect_attempts.fetch_add(1, std::memory_order_relaxed);
  }
  const Endpoint& endpoint = *endpoints_[to];
  int fd = -1;
  if (kind_ == TransportKind::kUnixSocket) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  endpoint.uds_path.c_str());
    // Blocking connect: on loopback it completes (or fails) immediately
    // via the listener backlog; no accept needs to have happened yet.
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      NoteDialFailureLocked(channel, from, to);
      return;
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(endpoint.tcp_port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      NoteDialFailureLocked(channel, from, to);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  SetNonBlocking(fd);
  channel.fd = fd;
  channel.failed_dials = 0;
  channel.next_dial_at_ms = 0;
  stats_.dials.fetch_add(1, std::memory_order_relaxed);
  if (channel.dialed_once) {
    stats_.reconnects.fetch_add(1, std::memory_order_relaxed);
  }
  channel.dialed_once = true;
  // The hello preamble leads every connection. front_offset is 0 here: a
  // broken pipe dropped any half-written front before clearing the fd.
  Blob hello;
  hello.hello = true;
  hello.bytes.reserve(kHelloBytes);
  util::WireWriter w(hello.bytes);
  w.U32(kHelloMagic);
  w.U32(from);
  channel.buffered_bytes += hello.bytes.size();
  channel.out.push_front(std::move(hello));
}

void SocketTransport::NoteDialFailureLocked(Channel& channel, uint32_t from,
                                            uint32_t to) {
  ++channel.failed_dials;
  if (options_.max_dial_attempts > 0 &&
      channel.failed_dials >= options_.max_dial_attempts) {
    // Give up on this backlog: the peer has been unreachable through the
    // whole backoff ladder. Dropping bounds memory and lets the caller's
    // reliability envelope (if any) decide what to retransmit; the failure
    // counter resets so a later send starts a fresh dial cycle.
    stats_.reconnect_giveups.fetch_add(1, std::memory_order_relaxed);
    while (!channel.out.empty()) {
      const Blob& front = channel.out.front();
      channel.buffered_bytes -= front.bytes.size() - channel.front_offset;
      channel.front_offset = 0;
      if (!front.hello) {
        channel.frames_lost.fetch_add(1, std::memory_order_relaxed);
        stats_.frames_lost.fetch_add(1, std::memory_order_relaxed);
      }
      channel.out.pop_front();
    }
    channel.failed_dials = 0;
    channel.next_dial_at_ms = 0;
    return;
  }
  // Exponential base doubling up to the cap...
  int64_t base = options_.dial_backoff_initial_ms;
  if (base < 1) base = 1;
  for (int i = 1; i < channel.failed_dials &&
                  base < options_.dial_backoff_max_ms;
       ++i) {
    base *= 2;
  }
  if (options_.dial_backoff_max_ms > 0 &&
      base > options_.dial_backoff_max_ms) {
    base = options_.dial_backoff_max_ms;
  }
  // ...plus a deterministic per-(channel, attempt) jitter in [0, base] so
  // many senders re-dialing one restarted peer spread out, reproducibly.
  uint64_t h = static_cast<uint64_t>(from) * 0x9E3779B97F4A7C15ull ^
               (static_cast<uint64_t>(to) << 32) ^
               static_cast<uint64_t>(channel.failed_dials) *
                   0xC2B2AE3D27D4EB4Full;
  h ^= h >> 33;
  int64_t jitter = static_cast<int64_t>(h % static_cast<uint64_t>(base + 1));
  channel.next_dial_at_ms = NowMicros() / 1000 + base + jitter;
}

void SocketTransport::HandleBrokenPipeLocked(Channel& channel) {
  if (channel.fd >= 0) {
    ::close(channel.fd);
    channel.fd = -1;
  }
  if (channel.front_offset > 0 && !channel.out.empty()) {
    // The front blob is half-written: its prefix reached (at most) the
    // peer's stream and will be discarded there as a truncated tail. The
    // remainder cannot be resumed on a new connection, so the whole frame
    // is lost; the reliability envelope (if layered) will retransmit it.
    const Blob& front = channel.out.front();
    channel.buffered_bytes -= front.bytes.size() - channel.front_offset;
    if (!front.hello) {
      channel.frames_lost.fetch_add(1, std::memory_order_relaxed);
      stats_.frames_lost.fetch_add(1, std::memory_order_relaxed);
    }
    channel.out.pop_front();
    channel.front_offset = 0;
  }
}

bool SocketTransport::FlushLocked(Channel& channel, uint32_t from,
                                  uint32_t to) {
  if (channel.out.empty()) return false;
  if (channel.fd < 0) DialLocked(channel, from, to);
  if (channel.fd < 0) return false;
  bool progress = false;
  size_t flushed_this_call = 0;
  while (!channel.out.empty()) {
    const Blob& front = channel.out.front();
    size_t remaining = front.bytes.size() - channel.front_offset;
    size_t chunk = remaining;
    if (options_.max_write_chunk > 0 && chunk > options_.max_write_chunk) {
      chunk = options_.max_write_chunk;
    }
    if (options_.max_flush_bytes_per_call > 0) {
      size_t budget = options_.max_flush_bytes_per_call - flushed_this_call;
      if (budget == 0) break;
      if (chunk > budget) chunk = budget;
    }
    ssize_t n = ::send(channel.fd, front.bytes.data() + channel.front_offset,
                       chunk, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        stats_.eintr_retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        stats_.eagain_waits.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      // EPIPE / ECONNRESET / anything else: the peer is gone.
      HandleBrokenPipeLocked(channel);
      break;
    }
    stats_.bytes_sent.fetch_add(static_cast<size_t>(n),
                                std::memory_order_relaxed);
    if (static_cast<size_t>(n) < remaining) {
      stats_.partial_writes.fetch_add(1, std::memory_order_relaxed);
    }
    channel.front_offset += static_cast<size_t>(n);
    channel.buffered_bytes -= static_cast<size_t>(n);
    flushed_this_call += static_cast<size_t>(n);
    progress = true;
    if (channel.front_offset == front.bytes.size()) {
      channel.out.pop_front();
      channel.front_offset = 0;
    }
    if (options_.max_flush_bytes_per_call > 0 &&
        flushed_this_call >= options_.max_flush_bytes_per_call) {
      break;
    }
  }
  return progress;
}

void SocketTransport::NoteQueueDepth(uint32_t worker) {
  size_t depth =
      pending_depth_[worker].fetch_add(1, std::memory_order_relaxed) + 1;
  std::atomic<size_t>& high = max_queue_depth_[worker];
  size_t seen = high.load(std::memory_order_relaxed);
  while (depth > seen &&
         !high.compare_exchange_weak(seen, depth,
                                     std::memory_order_relaxed)) {
  }
}

void SocketTransport::EnqueueFrame(uint32_t from, uint32_t to,
                                   std::vector<uint8_t> framed,
                                   bool /*self_deliverable*/) {
  stats_.frames_sent.fetch_add(1, std::memory_order_relaxed);
  if (from == to) {
    // Self-delivery never crosses a socket: straight to the ready queue.
    // (Taking only the endpoint lock here keeps the lock order acyclic
    // with the drain loop, which holds it while try-locking channels.)
    Endpoint& endpoint = *endpoints_[to];
    std::lock_guard<std::mutex> lock(endpoint.mutex);
    framed.erase(framed.begin(), framed.begin() + kLengthPrefixBytes);
    endpoint.ready[from].push_back(std::move(framed));
    Channel& channel = ChannelFor(from, to);
    channel.frames_enqueued.fetch_add(1, std::memory_order_relaxed);
    channel.frames_received.fetch_add(1, std::memory_order_relaxed);
    stats_.frames_received.fetch_add(1, std::memory_order_relaxed);
    NoteQueueDepth(to);
    return;
  }
  Channel& channel = ChannelFor(from, to);
  std::lock_guard<std::mutex> lock(channel.mutex);
  channel.buffered_bytes += framed.size();
  channel.out.push_back(Blob{std::move(framed), false});
  channel.frames_enqueued.fetch_add(1, std::memory_order_relaxed);
  FlushLocked(channel, from, to);
  if (channel.buffered_bytes > kHighWaterBytes) {
    // Backpressure: the peer is not keeping up (or not draining yet).
    // Stall briefly trying to push the buffer back under the mark; give
    // up after kMaxStallMs — the userspace buffer is unbounded, so this
    // trades latency for memory, never deadlock.
    stats_.backpressure_hits.fetch_add(1, std::memory_order_relaxed);
    int64_t start = NowMicros();
    int64_t deadline = start + kMaxStallMs * 1000;
    while (channel.buffered_bytes > kHighWaterBytes &&
           channel.fd >= 0 && NowMicros() < deadline) {
      pollfd pfd{channel.fd, POLLOUT, 0};
      ::poll(&pfd, 1, 1);
      FlushLocked(channel, from, to);
    }
    stats_.stall_micros.fetch_add(
        static_cast<size_t>(NowMicros() - start), std::memory_order_relaxed);
  }
}

bool SocketTransport::ExtractFramesLocked(Endpoint& endpoint, Inbound& conn,
                                          uint32_t worker) {
  bool progress = false;
  bool resumed_partial =
      conn.reader.buffered() > 0 && conn.from != UINT32_MAX;
  if (conn.from == UINT32_MAX) {
    std::span<const uint8_t> hello;
    if (!conn.reader.Take(kHelloBytes, &hello)) return false;
    util::WireReader in(hello);
    if (in.U32() != kHelloMagic) {
      throw util::WireFormatError("bad transport hello magic");
    }
    uint32_t from = in.U32();
    if (from >= num_workers_ || from == worker) {
      throw util::WireFormatError("transport hello names worker " +
                                  std::to_string(from));
    }
    conn.from = from;
    progress = true;
  }
  // Only the oldest live connection of a channel may deliver frames: a
  // reconnect's frames must not overtake the tail still buffered in the
  // broken connection's stream.
  for (const auto& other : endpoint.conns) {
    if (other.get() != &conn && other->from == conn.from &&
        other->accept_seq < conn.accept_seq) {
      return progress;
    }
  }
  std::span<const uint8_t> frame;
  while (conn.reader.Next(&frame)) {
    endpoint.ready[conn.from].emplace_back(frame.begin(), frame.end());
    Channel& channel = ChannelFor(conn.from, worker);
    channel.frames_received.fetch_add(1, std::memory_order_relaxed);
    stats_.frames_received.fetch_add(1, std::memory_order_relaxed);
    if (resumed_partial) {
      stats_.partial_reads.fetch_add(1, std::memory_order_relaxed);
      resumed_partial = false;
    }
    NoteQueueDepth(worker);
    progress = true;
  }
  return progress;
}

bool SocketTransport::PumpEndpointLocked(Endpoint& endpoint,
                                         uint32_t worker) {
  bool progress = false;
  // Accept every connection waiting on the listener.
  for (;;) {
    int fd = ::accept(endpoint.listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        stats_.eintr_retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      break;  // EAGAIN or a transient error: try again next pump
    }
    SetNonBlocking(fd);
    auto conn = std::make_unique<Inbound>(kMaxFrameBytes);
    conn->fd = fd;
    conn->accept_seq = ++endpoint.accept_counter;
    endpoint.conns.push_back(std::move(conn));
    progress = true;
  }
  // Read every inbound socket dry, then reassemble frames.
  for (auto& conn : endpoint.conns) {
    if (conn->eof) continue;
    for (;;) {
      uint8_t buf[64 * 1024];
      ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn->reader.Feed(buf, static_cast<size_t>(n));
        stats_.bytes_received.fetch_add(static_cast<size_t>(n),
                                        std::memory_order_relaxed);
        progress = true;
        continue;
      }
      if (n == 0) {
        conn->eof = true;
        break;
      }
      if (errno == EINTR) {
        stats_.eintr_retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn->eof = true;  // ECONNRESET and friends: abrupt peer close
      break;
    }
  }
  // Extraction runs to a fix point: removing a finished connection can
  // activate its reconnect successor, whose buffered bytes then parse.
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& conn : endpoint.conns) {
      if (ExtractFramesLocked(endpoint, *conn, worker)) {
        changed = true;
        progress = true;
      }
    }
    for (size_t i = 0; i < endpoint.conns.size(); ++i) {
      Inbound& conn = *endpoint.conns[i];
      if (!conn.eof) continue;
      // A finished connection leaves only a truncated tail (the sender
      // dropped the matching half-written frame and counted it lost) or
      // an unparsed hello; either way it is done.
      if (conn.reader.buffered() > 0 && conn.from != UINT32_MAX) {
        stats_.partial_frames_discarded.fetch_add(1,
                                                  std::memory_order_relaxed);
      }
      ::close(conn.fd);
      endpoint.conns.erase(endpoint.conns.begin() +
                           static_cast<ptrdiff_t>(i));
      --i;
      changed = true;
      progress = true;
    }
  }
  return progress;
}

bool SocketTransport::AllArrivedLocked(Endpoint& /*endpoint*/,
                                       uint32_t worker) const {
  for (uint32_t from = 0; from < num_workers_; ++from) {
    const Channel& channel = ChannelFor(from, worker);
    uint64_t expected =
        channel.frames_enqueued.load(std::memory_order_relaxed) -
        channel.frames_lost.load(std::memory_order_relaxed);
    if (channel.frames_received.load(std::memory_order_relaxed) < expected) {
      return false;
    }
  }
  return true;
}

std::vector<std::vector<uint8_t>> SocketTransport::DrainRaw(
    uint32_t worker) {
  obs::Span span("comms", "transport.drain");
  span.Arg("worker", static_cast<int64_t>(worker));
  Endpoint& endpoint = *endpoints_[worker];
  std::lock_guard<std::mutex> lock(endpoint.mutex);
  int64_t deadline = NowMicros() + kDrainWaitMs * 1000;
  for (;;) {
    bool progress = PumpEndpointLocked(endpoint, worker);
    if (AllArrivedLocked(endpoint, worker)) break;
    // Flush-assist: a sender may have left bytes buffered (EAGAIN, flush
    // budget). try_lock keeps the endpoint->channel lock order acyclic —
    // a blocked sender just means the bytes are already on their way.
    for (uint32_t from = 0; from < num_workers_; ++from) {
      if (from == worker) continue;
      Channel& channel = ChannelFor(from, worker);
      std::unique_lock<std::mutex> channel_lock(channel.mutex,
                                                std::try_to_lock);
      if (channel_lock.owns_lock() && !channel.out.empty()) {
        // FlushLocked re-dials a severed channel (fd < 0), so frames
        // stranded by a disconnect move now instead of waiting for the
        // sender's next Send.
        progress = FlushLocked(channel, from, worker) || progress;
      }
    }
    if (NowMicros() >= deadline) break;
    if (!progress) {
      std::vector<pollfd> pfds;
      pfds.push_back({endpoint.listen_fd, POLLIN, 0});
      for (const auto& conn : endpoint.conns) {
        if (!conn->eof) pfds.push_back({conn->fd, POLLIN, 0});
      }
      ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 2);
    }
  }
  std::vector<std::vector<uint8_t>> out;
  size_t drained = 0;
  for (uint32_t from = 0; from < num_workers_; ++from) {
    std::deque<std::vector<uint8_t>>& ready = endpoint.ready[from];
    while (!ready.empty()) {
      out.push_back(std::move(ready.front()));
      ready.pop_front();
      ++drained;
    }
  }
  pending_depth_[worker].fetch_sub(drained, std::memory_order_relaxed);
  span.Arg("frames", static_cast<int64_t>(out.size()));
  return out;
}

void SocketTransport::Send(uint32_t from, uint32_t to, Message message) {
  std::vector<uint8_t> framed;
  framed.reserve(kLengthPrefixBytes + 64 + message.payload.size());
  util::WireWriter w(framed);
  const size_t slot = w.BeginSection();
  EncodeMessage(message, framed);
  w.EndSection(slot);
  EnqueueFrame(from, to, std::move(framed), true);
}

std::vector<Message> SocketTransport::Drain(uint32_t worker) {
  std::vector<std::vector<uint8_t>> frames = DrainRaw(worker);
  std::vector<Message> out;
  out.reserve(frames.size());
  for (const std::vector<uint8_t>& frame : frames) {
    out.push_back(DecodeMessage(frame));
  }
  return out;
}

void SocketTransport::SendFrame(uint32_t from, uint32_t to,
                                std::vector<uint8_t> frame) {
  std::vector<uint8_t> framed;
  framed.reserve(kLengthPrefixBytes + frame.size());
  util::WireWriter(framed).Blob(frame);
  EnqueueFrame(from, to, std::move(framed), true);
}

std::vector<std::vector<uint8_t>> SocketTransport::DrainFrames(
    uint32_t worker) {
  return DrainRaw(worker);
}

bool SocketTransport::HasPending() const {
  for (uint32_t w = 0; w < num_workers_; ++w) {
    if (pending_depth_[w].load(std::memory_order_relaxed) > 0) return true;
  }
  for (const auto& channel : channels_) {
    uint64_t expected =
        channel->frames_enqueued.load(std::memory_order_relaxed) -
        channel->frames_lost.load(std::memory_order_relaxed);
    if (channel->frames_received.load(std::memory_order_relaxed) <
        expected) {
      return true;
    }
  }
  return false;
}

size_t SocketTransport::MaxQueueDepth(uint32_t worker) const {
  return max_queue_depth_[worker].load(std::memory_order_relaxed);
}

void SocketTransport::ResetHighWater() {
  for (std::atomic<size_t>& high : max_queue_depth_) {
    high.store(0, std::memory_order_relaxed);
  }
}

TransportStats SocketTransport::stats() const {
  TransportStats out;
  out.frames_sent = stats_.frames_sent.load(std::memory_order_relaxed);
  out.frames_received =
      stats_.frames_received.load(std::memory_order_relaxed);
  out.bytes_sent = stats_.bytes_sent.load(std::memory_order_relaxed);
  out.bytes_received = stats_.bytes_received.load(std::memory_order_relaxed);
  out.partial_writes = stats_.partial_writes.load(std::memory_order_relaxed);
  out.partial_reads = stats_.partial_reads.load(std::memory_order_relaxed);
  out.eintr_retries = stats_.eintr_retries.load(std::memory_order_relaxed);
  out.eagain_waits = stats_.eagain_waits.load(std::memory_order_relaxed);
  out.dials = stats_.dials.load(std::memory_order_relaxed);
  out.reconnects = stats_.reconnects.load(std::memory_order_relaxed);
  out.reconnect_attempts =
      stats_.reconnect_attempts.load(std::memory_order_relaxed);
  out.reconnect_giveups =
      stats_.reconnect_giveups.load(std::memory_order_relaxed);
  out.frames_lost = stats_.frames_lost.load(std::memory_order_relaxed);
  out.partial_frames_discarded =
      stats_.partial_frames_discarded.load(std::memory_order_relaxed);
  out.backpressure_hits =
      stats_.backpressure_hits.load(std::memory_order_relaxed);
  out.stall_micros = stats_.stall_micros.load(std::memory_order_relaxed);
  return out;
}

void SocketTransport::InjectDisconnect(uint32_t from, uint32_t to) {
  if (from == to) return;
  Channel& channel = ChannelFor(from, to);
  std::lock_guard<std::mutex> lock(channel.mutex);
  if (channel.fd < 0) return;
  HandleBrokenPipeLocked(channel);
}

void SocketTransport::CloseEndpointForTest(uint32_t worker) {
  Endpoint& endpoint = *endpoints_[worker];
  std::lock_guard<std::mutex> lock(endpoint.mutex);
  if (endpoint.listen_fd >= 0) {
    ::close(endpoint.listen_fd);
    endpoint.listen_fd = -1;
  }
  if (!endpoint.uds_path.empty()) {
    ::unlink(endpoint.uds_path.c_str());
  }
}

}  // namespace s2::dist
