// SocketTransport: length-framed streams over real kernel sockets
// (DESIGN.md §13).
//
// Every directed worker pair (from, to) is one stream connection: the
// sender dials the receiver's listening endpoint (an AF_UNIX path in a
// private temp directory, or 127.0.0.1:port for kTcp), identifies itself
// with an 8-byte hello, then writes frames as [u32 length | bytes]. All
// descriptors are non-blocking; the event loop lives in Send (opportunistic
// flush + bounded backpressure stall) and Drain (flush-assist, poll, read,
// reassemble) — there is no background thread, so frame movement happens at
// the same program points as the in-process double and the orchestrator's
// barrier structure is preserved.
//
// Failure surface handled here: partial writes and reads (frames split at
// arbitrary byte boundaries), EINTR, EAGAIN, peer disconnect (EOF /
// ECONNRESET / EPIPE) with re-dial on the next send. A frame caught
// half-written by a disconnect is dropped — its prefix is garbage to the
// receiver, who discards the truncated tail at EOF — and counted in
// frames_lost / partial_frames_discarded; whole buffered frames survive
// onto the new connection. Exactly-once delivery over such losses is the
// reliability envelope's job (fault::ReliableTransport over the raw-frame
// path), not this layer's.
//
// Ordering: per channel, frames arrive in send order (TCP/UDS streams).
// Across channels, Drain returns each sender's frames as one in-order run,
// senders in ascending id — a deterministic interleave, unlike the
// arrival-order interleave of the in-process queue.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dist/transport.h"
#include "util/wire.h"

namespace s2::dist {

class SocketTransport : public Transport {
 public:
  // `kind` must be kUnixSocket or kTcp. Creates the listening endpoints
  // eagerly (cheap, race-free); connections are dialed on first send.
  SocketTransport(TransportKind kind, uint32_t num_workers,
                  TransportOptions options);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  TransportKind kind() const override { return kind_; }

  void Send(uint32_t from, uint32_t to, Message message) override;
  std::vector<Message> Drain(uint32_t worker) override;

  void SendFrame(uint32_t from, uint32_t to,
                 std::vector<uint8_t> frame) override;
  std::vector<std::vector<uint8_t>> DrainFrames(uint32_t worker) override;

  bool HasPending() const override;
  size_t MaxQueueDepth(uint32_t worker) const override;
  void ResetHighWater() override;
  TransportStats stats() const override;
  void InjectDisconnect(uint32_t from, uint32_t to) override;

  // Test hook: closes worker's listening endpoint (and unlinks its UDS
  // path) so every subsequent dial to it fails — the scenario the dial
  // backoff and give-up bound exist for. Existing connections survive.
  void CloseEndpointForTest(uint32_t worker);

 private:
  // One write unit: a length-framed frame, or the connection hello (which
  // is not a frame and never counts as one when lost).
  struct Blob {
    std::vector<uint8_t> bytes;
    bool hello = false;
  };

  // Directed channel from -> to: the sender-side connection and buffer.
  struct Channel {
    std::mutex mutex;
    int fd = -1;              // -1: dial on next flush
    bool dialed_once = false;  // re-dials count as reconnects
    std::deque<Blob> out;      // blobs awaiting write
    size_t front_offset = 0;   // bytes of out.front() written
    size_t buffered_bytes = 0;
    // Dial backoff state: consecutive failures and the earliest steady-
    // clock millisecond the next attempt may run.
    int failed_dials = 0;
    int64_t next_dial_at_ms = 0;
    // Conservation counters (enqueued - lost converges to received).
    std::atomic<uint64_t> frames_enqueued{0};
    std::atomic<uint64_t> frames_received{0};
    std::atomic<uint64_t> frames_lost{0};
  };

  // One accepted inbound connection at the receiver.
  struct Inbound {
    explicit Inbound(size_t max_frame_bytes) : reader(max_frame_bytes) {}
    int fd = -1;
    uint32_t from = UINT32_MAX;  // set once the hello is parsed
    uint64_t accept_seq = 0;     // per-channel supersession order
    util::FrameReader reader;    // the hello, then frames
    bool eof = false;
  };

  // Receiver endpoint of one worker.
  struct Endpoint {
    std::mutex mutex;
    int listen_fd = -1;
    std::string uds_path;
    uint16_t tcp_port = 0;
    uint64_t accept_counter = 0;
    std::vector<std::unique_ptr<Inbound>> conns;
    // Complete frames awaiting Drain, per sending worker.
    std::vector<std::deque<std::vector<uint8_t>>> ready;
  };

  Channel& ChannelFor(uint32_t from, uint32_t to) {
    return *channels_[static_cast<size_t>(from) * num_workers_ + to];
  }
  const Channel& ChannelFor(uint32_t from, uint32_t to) const {
    return *channels_[static_cast<size_t>(from) * num_workers_ + to];
  }

  void OpenListener(uint32_t worker);
  // Establishes channel.fd (blocking connect on loopback, then
  // non-blocking) and queues the hello preamble. Channel lock held.
  void DialLocked(Channel& channel, uint32_t from, uint32_t to);
  // Writes as much buffered data as the socket accepts. Channel lock held.
  // Returns true if any bytes moved.
  bool FlushLocked(Channel& channel, uint32_t from, uint32_t to);
  // Drops the half-written front frame after a broken write and marks the
  // channel for re-dial. Channel lock held.
  void HandleBrokenPipeLocked(Channel& channel);
  // Records a failed dial: advances the exponential backoff (with
  // deterministic jitter) or, past max_dial_attempts, drops the backlog
  // and counts a give-up. Channel lock held.
  void NoteDialFailureLocked(Channel& channel, uint32_t from, uint32_t to);
  // Appends one framed blob and runs the opportunistic flush/backpressure
  // loop.
  void EnqueueFrame(uint32_t from, uint32_t to, std::vector<uint8_t> framed,
                    bool self_deliverable);
  // Accepts new connections and reads every inbound socket of `worker`
  // until EAGAIN, reassembling frames into endpoint.ready. Endpoint lock
  // held. Returns true on progress.
  bool PumpEndpointLocked(Endpoint& endpoint, uint32_t worker);
  // Parses the hello, then complete frames, out of `conn.reader`.
  bool ExtractFramesLocked(Endpoint& endpoint, Inbound& conn,
                           uint32_t worker);
  // True once every frame enqueued for `worker` (minus losses) has been
  // reassembled.
  bool AllArrivedLocked(Endpoint& endpoint, uint32_t worker) const;
  // Core drain loop shared by Drain and DrainFrames.
  std::vector<std::vector<uint8_t>> DrainRaw(uint32_t worker);

  void NoteQueueDepth(uint32_t worker);

  TransportKind kind_;
  uint32_t num_workers_;
  TransportOptions options_;
  std::string uds_dir_;  // private temp dir for AF_UNIX paths

  std::vector<std::unique_ptr<Channel>> channels_;   // from * n + to
  std::vector<std::unique_ptr<Endpoint>> endpoints_;  // per worker

  std::vector<std::atomic<size_t>> pending_depth_;    // per worker
  std::vector<std::atomic<size_t>> max_queue_depth_;  // per worker

  // Counters are atomics: senders, drainers, and stats() readers race.
  struct AtomicStats {
    std::atomic<size_t> frames_sent{0};
    std::atomic<size_t> frames_received{0};
    std::atomic<size_t> bytes_sent{0};
    std::atomic<size_t> bytes_received{0};
    std::atomic<size_t> partial_writes{0};
    std::atomic<size_t> partial_reads{0};
    std::atomic<size_t> eintr_retries{0};
    std::atomic<size_t> eagain_waits{0};
    std::atomic<size_t> dials{0};
    std::atomic<size_t> reconnects{0};
    std::atomic<size_t> reconnect_attempts{0};
    std::atomic<size_t> reconnect_giveups{0};
    std::atomic<size_t> frames_lost{0};
    std::atomic<size_t> partial_frames_discarded{0};
    std::atomic<size_t> backpressure_hits{0};
    std::atomic<size_t> stall_micros{0};
  };
  AtomicStats stats_;
};

}  // namespace s2::dist
