// Transport: the physical layer under the sidecar fabric (DESIGN.md §13).
//
// A Transport moves frames between worker endpoints. The fabric keeps two
// views of it:
//   - the *message* path (`Send`/`Drain`): direct delivery of
//     dist::Message values, used when the reliability envelope is off;
//   - the *raw frame* path (`SendFrame`/`DrainFrames`): opaque byte blobs,
//     used as the carrier under fault::ReliableTransport — the envelope
//     serializes its data/ack frames (payload included) and the transport
//     only moves bytes, so retransmits and acks cross a real wire.
//
// Two families of implementation:
//   - InProcessTransport (this header): the deterministic test double —
//     per-destination locked queues moving Message values with zero
//     copies, byte-identical to the pre-transport fabric. It does not
//     implement the raw-frame path: in-process reliable mode keeps frames
//     inside ReliableTransport's own queues, where sender-custody payloads
//     need never be serialized.
//   - SocketTransport (dist/socket_transport.h): length-framed streams
//     over real Unix-domain or loopback TCP sockets, with non-blocking
//     I/O, partial read/write handling, reconnects, and per-channel
//     backpressure accounting.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dist/message.h"

namespace s2::dist {

enum class TransportKind : uint8_t {
  kInProcess = 0,  // deterministic in-process double (default)
  kUnixSocket,     // AF_UNIX stream sockets (loopback)
  kTcp,            // AF_INET stream sockets on 127.0.0.1
};

const char* TransportKindName(TransportKind kind);
// Parses "in_process" / "uds" / "tcp"; false on unknown names.
bool ParseTransportKind(const std::string& name, TransportKind& kind);

// Socket-transport tuning; ignored by the in-process double.
struct TransportOptions {
  // Test hooks (0 = unlimited): cap bytes per write() syscall, and total
  // bytes flushed per flush call — lets tests force partial writes and
  // leave a frame half-written across a disconnect.
  size_t max_write_chunk = 0;
  size_t max_flush_bytes_per_call = 0;

  // Re-dial pacing. After a failed dial the channel waits an exponential
  // backoff (doubling from dial_backoff_initial_ms up to
  // dial_backoff_max_ms) plus a deterministic per-channel jitter before
  // the next attempt — a thundering herd of senders re-dialing a restarted
  // peer must not arrive in lockstep. After max_dial_attempts consecutive
  // failures the channel gives up: its backlog is dropped (counted in
  // frames_lost, one reconnect_giveups tick) and the failure counter
  // resets so a later send starts a fresh dial cycle. 0 = never give up.
  int dial_backoff_initial_ms = 1;
  int dial_backoff_max_ms = 100;
  int max_dial_attempts = 8;
};

// Socket-transport counters (all monotonic; zero for the in-process
// double). Published as transport.* in the RunReport.
struct TransportStats {
  size_t frames_sent = 0;
  size_t frames_received = 0;
  size_t bytes_sent = 0;      // framed bytes, length prefixes included
  size_t bytes_received = 0;
  size_t partial_writes = 0;  // write() accepted fewer bytes than offered
  size_t partial_reads = 0;   // frame assembled across >1 read()
  size_t eintr_retries = 0;
  size_t eagain_waits = 0;
  size_t dials = 0;           // connections established (incl. the first)
  size_t reconnects = 0;      // re-dials after a broken connection
  size_t reconnect_attempts = 0;  // re-dial attempts, failures included
  size_t reconnect_giveups = 0;   // backlogs dropped after max_dial_attempts
  size_t frames_lost = 0;     // dropped mid-frame by a disconnect
  size_t partial_frames_discarded = 0;  // receiver-side truncated tails
  size_t backpressure_hits = 0;
  size_t stall_micros = 0;    // time spent over the high-water mark
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportKind kind() const = 0;

  // Message path (direct mode). Thread-safe; concurrent senders to
  // distinct destinations must not serialize.
  virtual void Send(uint32_t from, uint32_t to, Message message) = 0;
  virtual std::vector<Message> Drain(uint32_t worker) = 0;

  // Raw frame path (reliable-envelope carrier). The in-process double
  // deliberately does not implement it (see header comment).
  virtual void SendFrame(uint32_t from, uint32_t to,
                         std::vector<uint8_t> frame);
  virtual std::vector<std::vector<uint8_t>> DrainFrames(uint32_t worker);

  // True while any frame is enqueued, buffered, or in flight and not yet
  // drained (minus frames lost to disconnects, which the stats count).
  virtual bool HasPending() const = 0;

  // High-water mark of `worker`'s undrained inbound frames. Survives
  // Drain; reset only by ResetHighWater (the fabric's ResetCounters).
  virtual size_t MaxQueueDepth(uint32_t worker) const = 0;
  virtual void ResetHighWater() = 0;

  virtual TransportStats stats() const { return {}; }

  // Test hook: severs the from->to connection as a real peer failure
  // would (half-written frames are lost; the channel re-dials on the next
  // send). No-op for the in-process double.
  virtual void InjectDisconnect(uint32_t from, uint32_t to);

  // Test hook: invoked with the destination inside the send critical
  // section (in-process double only; see SidecarFabric::set_send_hook).
  virtual void set_send_hook(std::function<void(uint32_t)> hook);
};

// The deterministic in-process double: per-destination locked queues of
// Message values, exactly the pre-transport fabric behavior.
class InProcessTransport : public Transport {
 public:
  explicit InProcessTransport(uint32_t num_workers);

  TransportKind kind() const override { return TransportKind::kInProcess; }
  void Send(uint32_t from, uint32_t to, Message message) override;
  std::vector<Message> Drain(uint32_t worker) override;
  bool HasPending() const override;
  size_t MaxQueueDepth(uint32_t worker) const override;
  void ResetHighWater() override;
  void set_send_hook(std::function<void(uint32_t)> hook) override {
    send_hook_ = std::move(hook);
  }

 private:
  // One inbound queue per worker with its own lock. unique_ptr because
  // std::mutex is immovable and the vector is sized at construction.
  struct QueueShard {
    std::mutex mutex;
    std::vector<Message> queue;
  };

  std::vector<std::unique_ptr<QueueShard>> queues_;  // per receiving worker
  std::vector<std::atomic<size_t>> max_queue_depth_;
  std::function<void(uint32_t)> send_hook_;
};

// Factory: the in-process double for kInProcess, a SocketTransport for the
// socket kinds.
std::unique_ptr<Transport> MakeTransport(TransportKind kind,
                                         uint32_t num_workers,
                                         const TransportOptions& options);

}  // namespace s2::dist
