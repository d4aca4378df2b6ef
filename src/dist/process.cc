#include "dist/process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <stdexcept>

#include "util/status.h"

namespace s2::dist {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* WorkerModeName(WorkerMode mode) {
  switch (mode) {
    case WorkerMode::kInProcess:
      return "in_process";
    case WorkerMode::kProcess:
      return "process";
  }
  return "unknown";
}

bool ParseWorkerMode(const std::string& text, WorkerMode* out) {
  if (text == "in_process") {
    *out = WorkerMode::kInProcess;
    return true;
  }
  if (text == "process") {
    *out = WorkerMode::kProcess;
    return true;
  }
  return false;
}

// ----------------------------------------------------------- frame codec

std::vector<uint8_t> EncodeCtrlFrame(const CtrlFrame& frame) {
  std::vector<uint8_t> out;
  util::WireWriter w(out);
  w.U8(static_cast<uint8_t>(frame.type));
  switch (frame.type) {
    case CtrlType::kHello:
      w.U32(frame.worker);
      w.U32(frame.protocol);
      w.U64(frame.pid);
      break;
    case CtrlType::kHeartbeat:
      w.U64(frame.seq);
      break;
    case CtrlType::kCommand:
      w.U8(static_cast<uint8_t>(frame.command));
      w.U32(static_cast<uint32_t>(frame.shard));
      w.U32(static_cast<uint32_t>(frame.round));
      w.U32(frame.count);
      w.Blob(frame.payload);
      break;
    case CtrlType::kResponse:
    case CtrlType::kCheckpointAck:
      w.U8(static_cast<uint8_t>(frame.command));
      w.U8(static_cast<uint8_t>(frame.status));
      w.U8(frame.flag);
      w.F64(frame.phase_seconds);
      w.U64(frame.live_bytes);
      w.U64(frame.peak_bytes);
      w.U64(frame.cache_hits);
      w.U64(frame.cache_misses);
      w.U64(frame.cache_evictions);
      w.U64(frame.aux);
      w.Blob(frame.payload);
      break;
    case CtrlType::kData:
      w.U32(frame.dest);
      w.Blob(frame.payload);
      break;
    case CtrlType::kDeliver:
      w.Blob(frame.payload);
      break;
    case CtrlType::kDrain:
    case CtrlType::kShutdown:
      break;
  }
  return out;
}

CtrlFrame DecodeCtrlFrame(std::span<const uint8_t> bytes) {
  util::WireReader in(bytes);
  CtrlFrame frame;
  frame.type = in.Enum(CtrlType::kShutdown, CtrlType::kHello);
  auto command = [&in] {
    return in.Enum(WorkerCommand::kResetPeak, WorkerCommand::kInit);
  };
  switch (frame.type) {
    case CtrlType::kHello:
      frame.worker = in.U32();
      frame.protocol = in.U32();
      frame.pid = in.U64();
      break;
    case CtrlType::kHeartbeat:
      frame.seq = in.U64();
      break;
    case CtrlType::kCommand:
      frame.command = command();
      frame.shard = static_cast<int32_t>(in.U32());
      frame.round = static_cast<int32_t>(in.U32());
      frame.count = in.U32();
      frame.payload = in.Blob();
      break;
    case CtrlType::kResponse:
    case CtrlType::kCheckpointAck:
      frame.command = command();
      frame.status = in.Enum(CtrlStatus::kSpillFailed);
      frame.flag = in.Bool() ? 1 : 0;
      frame.phase_seconds = in.F64();
      frame.live_bytes = in.U64();
      frame.peak_bytes = in.U64();
      frame.cache_hits = in.U64();
      frame.cache_misses = in.U64();
      frame.cache_evictions = in.U64();
      frame.aux = in.U64();
      frame.payload = in.Blob();
      break;
    case CtrlType::kData:
      frame.dest = in.U32();
      frame.payload = in.Blob();
      break;
    case CtrlType::kDeliver:
      frame.payload = in.Blob();
      break;
    case CtrlType::kDrain:
    case CtrlType::kShutdown:
      break;
  }
  in.ExpectEnd("control frame");
  return frame;
}

// ------------------------------------------------------------ spec codecs

std::vector<uint8_t> EncodeWorkerInitSpec(const WorkerInitSpec& spec) {
  std::vector<uint8_t> out;
  util::WireWriter w(out);
  w.U32(spec.num_workers);
  w.U32(spec.index);
  w.U64(spec.memory_budget);
  w.U64(spec.max_bdd_nodes);
  w.U32(spec.layout_dst_bits);
  w.U32(spec.layout_src_bits);
  w.U32(spec.layout_meta_bits);
  w.U32(spec.layout_family_bits);
  w.U32(static_cast<uint32_t>(spec.max_hops));
  w.U32(static_cast<uint32_t>(spec.num_shards));
  w.U64(spec.seed);
  w.U32(spec.heartbeat_interval_ms);
  w.U32List(spec.assignment);
  w.U32(static_cast<uint32_t>(spec.config_texts.size()));
  for (const std::string& text : spec.config_texts) w.String(text);
  return out;
}

WorkerInitSpec DecodeWorkerInitSpec(std::span<const uint8_t> bytes) {
  util::WireReader in(bytes);
  WorkerInitSpec spec;
  spec.num_workers = in.U32();
  spec.index = in.U32();
  spec.memory_budget = in.U64();
  spec.max_bdd_nodes = in.U64();
  spec.layout_dst_bits = in.U32();
  spec.layout_src_bits = in.U32();
  spec.layout_meta_bits = in.U32();
  spec.layout_family_bits = in.U32();
  spec.max_hops = static_cast<int32_t>(in.U32());
  spec.num_shards = static_cast<int32_t>(in.U32());
  spec.seed = in.U64();
  spec.heartbeat_interval_ms = in.U32();
  spec.assignment = in.U32List();
  spec.config_texts.resize(in.Count(4));
  for (std::string& text : spec.config_texts) text = in.String();
  in.ExpectEnd("init spec");
  return spec;
}

namespace {

void WriteSpillBlobs(util::WireWriter& out,
                     const std::vector<SpillBlob>& blobs) {
  out.U32(static_cast<uint32_t>(blobs.size()));
  for (const SpillBlob& blob : blobs) {
    out.U32(static_cast<uint32_t>(blob.shard));
    out.U32(blob.node);
    out.Blob(blob.bytes);
  }
}

}  // namespace

std::vector<uint8_t> EncodeSpillBlobs(const std::vector<SpillBlob>& blobs) {
  std::vector<uint8_t> out;
  util::WireWriter w(out);
  WriteSpillBlobs(w, blobs);
  return out;
}

std::vector<SpillBlob> DecodeSpillBlobs(std::span<const uint8_t> bytes) {
  util::WireReader in(bytes);
  std::vector<SpillBlob> blobs(in.Count(12));
  for (SpillBlob& blob : blobs) {
    blob.shard = static_cast<int32_t>(in.U32());
    blob.node = in.U32();
    blob.bytes = in.Blob();
  }
  in.ExpectEnd("spill blobs");
  return blobs;
}

std::vector<uint8_t> EncodeWorkerRestoreSpec(const WorkerRestoreSpec& spec) {
  std::vector<uint8_t> out;
  util::WireWriter w(out);
  w.U32(static_cast<uint32_t>(spec.shard_index));
  w.U32(static_cast<uint32_t>(spec.to_round));
  w.Blob(spec.checkpoint);
  size_t spills = w.BeginSection();
  WriteSpillBlobs(w, spec.spills);
  w.EndSection(spills);
  w.U32(static_cast<uint32_t>(spec.log.size()));
  for (const fault::LoggedDelivery& entry : spec.log) {
    w.U32(static_cast<uint32_t>(entry.round));
    size_t message = w.BeginSection();
    EncodeMessage(entry.message, out);
    w.EndSection(message);
  }
  return out;
}

WorkerRestoreSpec DecodeWorkerRestoreSpec(std::span<const uint8_t> bytes) {
  util::WireReader in(bytes);
  WorkerRestoreSpec spec;
  spec.shard_index = static_cast<int32_t>(in.U32());
  spec.to_round = static_cast<int32_t>(in.U32());
  spec.checkpoint = in.Blob();
  spec.spills = DecodeSpillBlobs(in.BlobView());
  spec.log.resize(in.Count(8));
  for (fault::LoggedDelivery& entry : spec.log) {
    entry.round = static_cast<int32_t>(in.U32());
    entry.message = DecodeMessage(in.BlobView());
  }
  in.ExpectEnd("restore spec");
  return spec;
}

std::vector<uint8_t> EncodeNodeBlobMap(
    const std::map<topo::NodeId, std::vector<uint8_t>>& blobs) {
  std::vector<uint8_t> out;
  util::WireWriter(out).BlobMap(blobs);
  return out;
}

std::map<topo::NodeId, std::vector<uint8_t>> DecodeNodeBlobMap(
    std::span<const uint8_t> bytes) {
  util::WireReader in(bytes);
  std::map<topo::NodeId, std::vector<uint8_t>> blobs = in.BlobMap();
  in.ExpectEnd("node blob map");
  return blobs;
}

std::vector<uint8_t> EncodeOomError(const std::string& domain,
                                    uint64_t requested, uint64_t budget) {
  std::vector<uint8_t> out;
  util::WireWriter w(out);
  w.String(domain);
  w.U64(requested);
  w.U64(budget);
  return out;
}

void DecodeOomError(std::span<const uint8_t> bytes, std::string* domain,
                    uint64_t* requested, uint64_t* budget) {
  util::WireReader in(bytes);
  *domain = in.String();
  *requested = in.U64();
  *budget = in.U64();
  in.ExpectEnd("oom error");
}

std::vector<uint8_t> EncodeSpillError(const util::SpillError& error) {
  std::vector<uint8_t> out;
  util::WireWriter w(out);
  w.String(error.op());
  w.String(error.path());
  w.U32(static_cast<uint32_t>(error.error()));
  return out;
}

util::SpillError DecodeSpillError(std::span<const uint8_t> bytes) {
  util::WireReader in(bytes);
  std::string op = in.String();
  std::string path = in.String();
  int error = static_cast<int>(in.U32());
  in.ExpectEnd("spill error");
  return util::SpillError(op, path, error);
}

// --------------------------------------------------------- stream framing

bool WriteFrameFd(int fd, std::span<const uint8_t> payload) {
  std::vector<uint8_t> wire;
  wire.reserve(4 + payload.size());
  util::WireWriter(wire).Blob(payload);
  size_t sent = 0;
  while (sent < wire.size()) {
    ssize_t n = send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool ReadFrameFd(int fd, util::FrameReader& reader,
                 std::vector<uint8_t>* payload) {
  for (;;) {
    std::span<const uint8_t> frame;
    if (reader.Next(&frame)) {
      payload->assign(frame.begin(), frame.end());
      return true;
    }
    uint8_t buf[65536];
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      reader.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (reader.buffered() == 0) return false;
    throw util::WireFormatError("control stream truncated mid-frame");
  }
}

// ------------------------------------------------------------- locating

std::string LocateWorkerBinary(const std::string& configured) {
  auto executable = [](const std::string& path) {
    return !path.empty() && access(path.c_str(), X_OK) == 0;
  };
  if (const char* env = getenv("S2_WORKER_BIN"); env != nullptr && *env) {
    if (executable(env)) return env;
    throw std::runtime_error(std::string("S2_WORKER_BIN is set but not "
                                         "executable: ") +
                             env);
  }
  if (!configured.empty()) {
    if (executable(configured)) return configured;
    throw std::runtime_error("worker_binary is not executable: " + configured);
  }
  char self[4096];
  ssize_t n = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n > 0) {
    self[n] = '\0';
    std::string dir(self);
    size_t slash = dir.rfind('/');
    if (slash != std::string::npos) dir.resize(slash);
    for (const char* relative :
         {"/s2_worker", "/../src/s2_worker", "/../../src/s2_worker"}) {
      std::string candidate = dir + relative;
      if (executable(candidate)) return candidate;
    }
  }
  throw std::runtime_error(
      "cannot locate the s2_worker binary (set S2_WORKER_BIN or "
      "ProcessOptions::worker_binary)");
}

// ------------------------------------------------------- process handle

ProcessWorkerHandle::ProcessWorkerHandle(uint32_t index, std::string binary,
                                         std::vector<uint8_t> init_blob,
                                         SidecarFabric* fabric,
                                         ProcessOptions options,
                                         ProcessStats* stats,
                                         size_t memory_budget)
    : index_(index),
      binary_(std::move(binary)),
      init_blob_(std::move(init_blob)),
      fabric_(fabric),
      options_(options),
      stats_(stats),
      rx_(kMaxCtrlFramePayload),
      memory_budget_(memory_budget),
      query_tracker_("worker-" + std::to_string(index) + "-query",
                     memory_budget) {
  try {
    Spawn(/*is_respawn=*/false);
    CtrlFrame init;
    init.type = CtrlType::kCommand;
    init.command = WorkerCommand::kInit;
    init.payload = init_blob_;
    CtrlFrame response = SendAndAwait(init);
    if (response.status != CtrlStatus::kOk) ThrowResponseError(response);
  } catch (const ChildFailure& failure) {
    ReapChild();
    throw util::WorkerLost(index_, "failed to start worker process: " +
                                       failure.reason);
  } catch (...) {
    // The child is alive but refused its init (a spill segment it cannot
    // open, unparsable configs): no destructor will run for a handle whose
    // constructor throws, so shut the child down here.
    Shutdown();
    throw;
  }
}

ProcessWorkerHandle::~ProcessWorkerHandle() {
  try {
    Shutdown();
  } catch (...) {
    // Destructors never throw; Shutdown's SIGKILL fallback already
    // guarantees the child is gone.
  }
}

// ------------------------------------------------------------- lifecycle

void ProcessWorkerHandle::Spawn(bool is_respawn) {
  // A fresh channel is a fresh stream: a predecessor killed mid-write
  // leaves a partial frame in rx_, and any stale byte would desync the new
  // child's hello into protocol garbage.
  rx_.Clear();
  staged_.clear();
  // SOCK_CLOEXEC atomically: handles spawn concurrently (parallel Setup,
  // inline recovery under pool threads), and a sibling fork between
  // socketpair and a later fcntl would inherit both ends — a leaked child
  // write end would keep this channel from ever delivering EOF, blinding
  // death detection. The child re-enables its own end before exec.
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    throw std::runtime_error("socketpair failed: " +
                             std::string(strerror(errno)));
  }
  // Build every argv string before fork: the controller is multithreaded,
  // and allocating between fork and exec can deadlock on a malloc lock
  // another thread held at fork time.
  std::string arg_fd = "--control_fd=" + std::to_string(sv[1]);
  std::string arg_worker = "--worker=" + std::to_string(index_);
  std::string arg_heartbeat =
      "--heartbeat_ms=" + std::to_string(options_.heartbeat_interval_ms);
  char* argv[5];
  argv[0] = const_cast<char*>(binary_.c_str());
  argv[1] = const_cast<char*>(arg_fd.c_str());
  argv[2] = const_cast<char*>(arg_worker.c_str());
  argv[3] = const_cast<char*>(arg_heartbeat.c_str());
  argv[4] = nullptr;

  pid_t pid = fork();
  if (pid < 0) {
    close(sv[0]);
    close(sv[1]);
    throw std::runtime_error("fork failed: " + std::string(strerror(errno)));
  }
  if (pid == 0) {
    close(sv[0]);
    fcntl(sv[1], F_SETFD, 0);  // the control fd must survive the exec
    execv(binary_.c_str(), argv);
    _exit(127);
  }
  close(sv[1]);
  fcntl(sv[0], F_SETFL, O_NONBLOCK);
  fd_ = sv[0];
  pid_ = pid;
  spawned_pids_.push_back(pid);
  stats_->spawns.fetch_add(1, std::memory_order_relaxed);
  if (is_respawn) stats_->respawns.fetch_add(1, std::memory_order_relaxed);
  AwaitHello();
}

void ProcessWorkerHandle::ReapChild() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  if (pid_ < 0) return;
  int status = 0;
  pid_t r = waitpid(pid_, &status, WNOHANG);
  if (r == 0) {
    // Still running (hang-kill in flight, or the death was an EOF from an
    // exit not yet visible). SIGKILL is idempotent; reap synchronously.
    kill(pid_, SIGKILL);
    stats_->sigkills.fetch_add(1, std::memory_order_relaxed);
    r = waitpid(pid_, &status, 0);
  }
  if (r == pid_) {
    stats_->reaps.fetch_add(1, std::memory_order_relaxed);
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      stats_->exits_clean.fetch_add(1, std::memory_order_relaxed);
    }
  }
  pid_ = -1;
}

void ProcessWorkerHandle::KillChild() {
  if (pid_ < 0) return;
  kill(pid_, SIGKILL);
  stats_->sigkills.fetch_add(1, std::memory_order_relaxed);
}

void ProcessWorkerHandle::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  if (pid_ < 0) return;
  int64_t grace = options_.shutdown_grace_ms;
  if (fd_ >= 0) {
    // Best-effort graceful path: flush with a drain echo, then ask the
    // child to exit. Any failure just advances the escalation ladder.
    try {
      CtrlFrame drain;
      drain.type = CtrlType::kDrain;
      WriteFrame(drain);
      int64_t deadline = NowMs() + grace;
      while (NowMs() < deadline) {
        struct pollfd pfd = {fd_, POLLIN, 0};
        int timeout = static_cast<int>(deadline - NowMs());
        if (poll(&pfd, 1, timeout < 0 ? 0 : timeout) <= 0) break;
        uint8_t buf[4096];
        ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
        if (n <= 0) break;
        rx_.Feed(buf, static_cast<size_t>(n));
        bool drained = false;
        std::span<const uint8_t> payload;
        while (rx_.Next(&payload)) {
          CtrlFrame frame = DecodeCtrlFrame(payload);
          if (frame.type == CtrlType::kDrain) {
            drained = true;
            break;
          }
        }
        if (drained) break;
      }
      CtrlFrame shutdown;
      shutdown.type = CtrlType::kShutdown;
      WriteFrame(shutdown);
    } catch (...) {
      // Fall through to the signal ladder.
    }
  }
  // Wait for a clean exit, then escalate SIGTERM -> SIGKILL. waitpid always
  // runs, so no zombie survives regardless of how the child went down.
  int status = 0;
  auto wait_until = [&](int64_t deadline) {
    while (NowMs() < deadline) {
      pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) return true;
      struct timespec ts = {0, 2 * 1000 * 1000};
      nanosleep(&ts, nullptr);
    }
    return false;
  };
  bool reaped = wait_until(NowMs() + grace);
  if (!reaped) {
    kill(pid_, SIGTERM);
    reaped = wait_until(NowMs() + grace);
  }
  if (!reaped) {
    kill(pid_, SIGKILL);
    stats_->sigkills.fetch_add(1, std::memory_order_relaxed);
    waitpid(pid_, &status, 0);
  }
  stats_->reaps.fetch_add(1, std::memory_order_relaxed);
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    stats_->exits_clean.fetch_add(1, std::memory_order_relaxed);
  }
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  pid_ = -1;
}

// ------------------------------------------------------------ stream I/O

void ProcessWorkerHandle::WriteFrame(const CtrlFrame& frame) {
  std::vector<uint8_t> payload = EncodeCtrlFrame(frame);
  std::vector<uint8_t> wire;
  wire.reserve(4 + payload.size());
  util::WireWriter(wire).Blob(payload);

  // Non-blocking send with a bounded wait: a SIGSTOPped child stops
  // reading, the socket buffer fills, and an unbounded blocking write
  // would wedge the controller — the exact failure mode this harness
  // exists to bound.
  size_t sent = 0;
  int64_t deadline = NowMs() + options_.hang_kill_ms;
  while (sent < wire.size()) {
    ssize_t n = send(fd_, wire.data() + sent, wire.size() - sent,
                     MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      // EPIPE/ECONNRESET here is how a SIGKILLed child usually announces
      // itself: the very next command hits the broken pipe.
      stats_->deaths_detected.fetch_add(1, std::memory_order_relaxed);
      throw ChildFailure{"control channel write failed: " +
                         std::string(strerror(errno))};
    }
    if (NowMs() >= deadline) {
      stats_->hang_kills.fetch_add(1, std::memory_order_relaxed);
      KillChild();
      throw ChildFailure{"worker stopped reading its control channel"};
    }
    struct pollfd pfd = {fd_, POLLOUT, 0};
    poll(&pfd, 1, 10);
  }
}

CtrlFrame ProcessWorkerHandle::AwaitFrame() {
  int64_t last_activity = NowMs();
  bool warned = false;
  for (;;) {
    std::span<const uint8_t> payload;
    while (rx_.Next(&payload)) {
      CtrlFrame frame = DecodeCtrlFrame(payload);
      if (frame.type == CtrlType::kHeartbeat) {
        stats_->heartbeats.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (frame.type == CtrlType::kHello) continue;
      return frame;
    }
    struct pollfd pfd = {fd_, POLLIN, 0};
    int r = poll(&pfd, 1, 10);
    if (r > 0) {
      uint8_t buf[65536];
      ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        rx_.Feed(buf, static_cast<size_t>(n));
        last_activity = NowMs();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      // EOF or a hard error: the child is gone.
      stats_->deaths_detected.fetch_add(1, std::memory_order_relaxed);
      throw ChildFailure{"worker process closed its control channel"};
    }
    // Quiet tick: check for death without EOF, then walk the hang ladder.
    int status = 0;
    if (pid_ >= 0 && waitpid(pid_, &status, WNOHANG) == pid_) {
      stats_->reaps.fetch_add(1, std::memory_order_relaxed);
      stats_->deaths_detected.fetch_add(1, std::memory_order_relaxed);
      pid_ = -1;
      throw ChildFailure{"worker process exited mid-command"};
    }
    int64_t idle = NowMs() - last_activity;
    if (!warned && idle > options_.hang_warn_ms) {
      warned = true;
      stats_->hang_warnings.fetch_add(1, std::memory_order_relaxed);
    }
    if (idle > options_.hang_kill_ms) {
      stats_->hang_kills.fetch_add(1, std::memory_order_relaxed);
      stats_->deaths_detected.fetch_add(1, std::memory_order_relaxed);
      KillChild();
      throw ChildFailure{"worker missed its heartbeat deadline (hung)"};
    }
  }
}

void ProcessWorkerHandle::AwaitHello() {
  int64_t deadline = NowMs() + options_.hang_kill_ms + 10000;
  for (;;) {
    std::span<const uint8_t> payload;
    bool have = false;
    try {
      have = rx_.Next(&payload);
    } catch (const util::WireFormatError& e) {
      throw ChildFailure{e.what()};
    }
    if (have) {
      CtrlFrame frame;
      try {
        frame = DecodeCtrlFrame(payload);
      } catch (const util::WireFormatError& e) {
        // Same policy as SendAndAwait: protocol garbage means an
        // arbitrarily misbehaving child, never an escaping decode error.
        KillChild();
        throw ChildFailure{std::string("control protocol corrupted: ") +
                           e.what()};
      }
      if (frame.type == CtrlType::kHello) {
        if (frame.protocol != kCtrlProtocolVersion) {
          throw ChildFailure{"worker spoke protocol version " +
                             std::to_string(frame.protocol)};
        }
        if (frame.worker != index_) {
          throw ChildFailure{"worker hello carried the wrong index"};
        }
        return;
      }
      continue;  // stray heartbeat before the hello
    }
    if (NowMs() >= deadline) {
      KillChild();
      throw ChildFailure{"worker never said hello"};
    }
    struct pollfd pfd = {fd_, POLLIN, 0};
    if (poll(&pfd, 1, 20) > 0) {
      uint8_t buf[4096];
      ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        rx_.Feed(buf, static_cast<size_t>(n));
      } else if (n == 0 ||
                 (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        throw ChildFailure{"worker process died before hello (exec failure "
                           "or crash at startup)"};
      }
    }
  }
}

// -------------------------------------------------------- command plumbing

CtrlFrame ProcessWorkerHandle::SendAndAwait(const CtrlFrame& frame) {
  staged_.clear();
  try {
    WriteFrame(frame);
    for (;;) {
      CtrlFrame incoming = AwaitFrame();
      if (incoming.type == CtrlType::kData) {
        // Stage: committed into the fabric only after the ok response, so
        // a mid-command death cannot leave half a round in flight.
        staged_.push_back(DecodeMessage(incoming.payload));
        continue;
      }
      if (incoming.type == CtrlType::kResponse ||
          incoming.type == CtrlType::kCheckpointAck) {
        if (incoming.command != frame.command) {
          throw util::WireFormatError(
              "control response for a different command");
        }
        if (incoming.status == CtrlStatus::kOk) AbsorbMetrics(incoming);
        return incoming;
      }
      if (incoming.type == CtrlType::kDrain) continue;
      throw util::WireFormatError("unexpected control frame type");
    }
  } catch (const util::WireFormatError& e) {
    // Protocol corruption is indistinguishable from an arbitrarily
    // misbehaving child: kill it and let recovery take over.
    stats_->deaths_detected.fetch_add(1, std::memory_order_relaxed);
    KillChild();
    throw ChildFailure{std::string("control protocol corrupted: ") +
                       e.what()};
  }
}

void ProcessWorkerHandle::AbsorbMetrics(const CtrlFrame& response) {
  last_phase_seconds_ = response.phase_seconds;
  live_bytes_ = response.live_bytes;
  peak_bytes_ = response.peak_bytes;
  cache_stats_.hits = response.cache_hits;
  cache_stats_.misses = response.cache_misses;
  cache_stats_.evictions = response.cache_evictions;
}

void ProcessWorkerHandle::CommitStaged() {
  // Arrival order: the child drained its private fabric per destination in
  // order, and DeliverBatch is arrival-order-insensitive anyway.
  for (Message& message : staged_) {
    fabric_->Send(index_, std::move(message));
  }
  staged_.clear();
}

void ProcessWorkerHandle::ThrowResponseError(const CtrlFrame& response) {
  std::string detail(response.payload.begin(), response.payload.end());
  switch (response.status) {
    case CtrlStatus::kOom: {
      std::string domain;
      uint64_t requested = 0;
      uint64_t budget = 0;
      DecodeOomError(response.payload, &domain, &requested, &budget);
      throw util::SimulatedOom(domain, requested, budget);
    }
    case CtrlStatus::kSpillFailed:
      throw DecodeSpillError(response.payload);
    case CtrlStatus::kTimeout:
      throw util::SimulatedTimeout("worker " + std::to_string(index_) +
                                   ": " + detail);
    default:
      throw std::runtime_error("worker " + std::to_string(index_) +
                               " reported: " + detail);
  }
}

CtrlFrame ProcessWorkerHandle::RoundTrip(const CtrlFrame& frame,
                                         bool reissue) {
  for (;;) {
    try {
      CtrlFrame response = SendAndAwait(frame);
      if (response.status != CtrlStatus::kOk) ThrowResponseError(response);
      CommitStaged();
      return response;
    } catch (const ChildFailure& failure) {
      staged_.clear();
      RecoverInline(failure.reason, /*to_round_override=*/-1);
      if (!reissue) return CtrlFrame{};
    }
  }
}

// --------------------------------------------------------------- recovery

void ProcessWorkerHandle::RecoverInline(const std::string& reason,
                                        int to_round_override) {
  std::string why = reason;
  for (;;) {
    ReapChild();
    if (++respawns_used_ > options_.max_respawns) {
      lost_ = true;
      throw util::WorkerLost(index_, why + " (respawn budget of " +
                                         std::to_string(options_.max_respawns) +
                                         " exhausted)");
    }
    try {
      Spawn(/*is_respawn=*/true);
      CtrlFrame init;
      init.type = CtrlType::kCommand;
      init.command = WorkerCommand::kInit;
      init.payload = init_blob_;
      CtrlFrame response = SendAndAwait(init);
      if (response.status != CtrlStatus::kOk) ThrowResponseError(response);
      if (mirror_valid_) {
        int to_round = to_round_override >= 0 ? to_round_override
                                              : fabric_->CurrentRound();
        ShipRestore(mirror_, to_round, fabric_->ReplayLog(index_));
      }
      ReplayJournal();
      staged_.clear();
      ++recoveries_;
      return;
    } catch (const ChildFailure& next) {
      why = next.reason;
    }
  }
}

void ProcessWorkerHandle::ShipRestore(
    const fault::WorkerCheckpoint& checkpoint, int to_round,
    const std::vector<fault::LoggedDelivery>& log) {
  WorkerRestoreSpec spec;
  spec.shard_index = checkpoint.shard;
  spec.to_round = to_round;
  spec.checkpoint = fault::EncodeWorkerCheckpoint(checkpoint);
  for (const auto& [key, bytes] : spills_) {
    spec.spills.push_back(SpillBlob{key.first, key.second, bytes});
  }
  spec.log = log;
  CtrlFrame restore;
  restore.type = CtrlType::kCommand;
  restore.command = WorkerCommand::kRestore;
  restore.payload = EncodeWorkerRestoreSpec(spec);
  CtrlFrame response = SendAndAwait(restore);
  if (response.status != CtrlStatus::kOk) ThrowResponseError(response);
  has_data_plane_ = checkpoint.has_data_plane;
  staged_.clear();
}

void ProcessWorkerHandle::ReplayJournal() {
  for (const JournalEntry& entry : journal_) {
    if (entry.command == WorkerCommand::kBuildDataPlane && mirror_valid_ &&
        mirror_.has_data_plane) {
      // RestoreDataPlane already rebuilt the engines from checkpointed
      // predicate bytes; a recompute would be wasted (and, for a hybrid
      // build, wrong).
      continue;
    }
    CtrlFrame frame;
    frame.type = CtrlType::kCommand;
    frame.command = entry.command;
    frame.shard = entry.shard;
    CtrlFrame response = SendAndAwait(frame);
    if (response.status != CtrlStatus::kOk) ThrowResponseError(response);
    if (entry.command == WorkerCommand::kSpillBgp) {
      // Refresh the blob cache; the route count was already credited by
      // the original spill.
      for (SpillBlob& blob : DecodeSpillBlobs(response.payload)) {
        spills_[{blob.shard, blob.node}] = std::move(blob.bytes);
      }
    }
    if (entry.command == WorkerCommand::kBuildDataPlane) {
      has_data_plane_ = true;
    }
    // Journal commands ship no fabric traffic; anything staged would be a
    // duplicate of already-committed messages.
    staged_.clear();
  }
}

void ProcessWorkerHandle::Journal(WorkerCommand command, int32_t shard) {
  journal_.push_back(JournalEntry{command, shard});
}

// --------------------------------------------------------- WorkerHandle

void ProcessWorkerHandle::BeginOspf() {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kBeginOspf;
  RoundTrip(frame);
  Journal(WorkerCommand::kBeginOspf, -1);
}

void ProcessWorkerHandle::FinishOspf() {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kFinishOspf;
  RoundTrip(frame);
  Journal(WorkerCommand::kFinishOspf, -1);
}

void ProcessWorkerHandle::BeginBgp(const cp::PrefixSet* /*shard*/,
                                   int shard_index) {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kBeginBgp;
  frame.shard = shard_index;
  RoundTrip(frame);
  Journal(WorkerCommand::kBeginBgp, shard_index);
}

bool ProcessWorkerHandle::ComputeAndShip() {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kComputeAndShip;
  CtrlFrame response = RoundTrip(frame);
  return response.flag != 0;
}

void ProcessWorkerHandle::Deliver() {
  // Sample the round BEFORE draining: the drain is what logs this batch,
  // and it logs under the pre-drain round.
  int batch_round = fabric_->CurrentRound();
  std::vector<Message> batch = fabric_->Drain(index_);
  try {
    for (const Message& message : batch) {
      CtrlFrame data;
      data.type = CtrlType::kDeliver;
      EncodeMessage(message, data.payload);
      WriteFrame(data);
    }
    CtrlFrame command;
    command.type = CtrlType::kCommand;
    command.command = WorkerCommand::kDeliver;
    command.round = batch_round;
    command.count = static_cast<uint32_t>(batch.size());
    CtrlFrame response = SendAndAwait(command);
    if (response.status != CtrlStatus::kOk) ThrowResponseError(response);
    staged_.clear();
  } catch (const ChildFailure& failure) {
    // The batch was drained, so it is in the replay log under batch_round;
    // recovering to batch_round + 1 replays it. Re-issuing the command
    // would deliver it twice.
    staged_.clear();
    RecoverInline(failure.reason, batch_round + 1);
  }
}

void ProcessWorkerHandle::SpillBgp(cp::RibStore* /*store*/, int shard) {
  // The authoritative spill bytes live in the child's own store; the
  // controller keeps the shipped blobs to re-seed a respawned child.
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kSpillBgp;
  frame.shard = shard;
  CtrlFrame response = RoundTrip(frame);
  for (SpillBlob& blob : DecodeSpillBlobs(response.payload)) {
    spills_[{blob.shard, blob.node}] = std::move(blob.bytes);
  }
  spilled_routes_ += response.aux;
  Journal(WorkerCommand::kSpillBgp, shard);
}

void ProcessWorkerHandle::BuildDataPlane(const cp::RibStore* /*store*/) {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kBuildDataPlane;
  RoundTrip(frame);
  has_data_plane_ = true;
  Journal(WorkerCommand::kBuildDataPlane, -1);
}

std::map<topo::NodeId, std::vector<uint8_t>>
ProcessWorkerHandle::SnapshotPredicates() {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kSnapshotPredicates;
  CtrlFrame response = RoundTrip(frame);
  return DecodeNodeBlobMap(response.payload);
}

fault::WorkerCheckpoint ProcessWorkerHandle::Checkpoint(int shard) {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kCheckpoint;
  frame.shard = shard;
  CtrlFrame response = RoundTrip(frame);
  fault::WorkerCheckpoint fresh =
      fault::DecodeWorkerCheckpoint(response.payload);
  // Mirror Controller::CheckpointWorkers' merge: CP checkpoints never
  // invalidate a data-plane snapshot, and the fabric round is stamped at
  // the barrier. The mirror is what inline recovery restores from, so it
  // must stay byte-equal to the controller's copy.
  fresh.has_data_plane = mirror_valid_ && mirror_.has_data_plane;
  if (fresh.has_data_plane) {
    fresh.predicate_state = mirror_.predicate_state;
    fresh.fib_bytes = mirror_.fib_bytes;
  }
  fresh.fabric_round = fabric_->CurrentRound();
  mirror_ = fresh;
  mirror_valid_ = true;
  // A full checkpoint captures everything the journal was protecting.
  journal_.clear();
  return fresh;
}

void ProcessWorkerHandle::CheckpointDataPlane(
    fault::WorkerCheckpoint& checkpoint) {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kCheckpointDataPlane;
  CtrlFrame response = RoundTrip(frame);
  fault::WorkerCheckpoint dp = fault::DecodeWorkerCheckpoint(response.payload);
  checkpoint.has_data_plane = true;
  checkpoint.predicate_state = dp.predicate_state;
  checkpoint.fib_bytes = dp.fib_bytes;
  if (mirror_valid_) {
    mirror_.has_data_plane = true;
    mirror_.predicate_state = std::move(dp.predicate_state);
    mirror_.fib_bytes = dp.fib_bytes;
  }
}

void ProcessWorkerHandle::Recover(
    const fault::WorkerCheckpoint& checkpoint, const cp::PrefixSet* /*shard*/,
    int to_round, const std::vector<fault::LoggedDelivery>& log) {
  // A scheduled fault (or a test) wants this worker dead and rebuilt: kill
  // the healthy child for real. Explicit recoveries are counted by the
  // controller and do not consume the liveness respawn budget.
  KillChild();
  ReapChild();
  for (;;) {
    try {
      Spawn(/*is_respawn=*/true);
      CtrlFrame init;
      init.type = CtrlType::kCommand;
      init.command = WorkerCommand::kInit;
      init.payload = init_blob_;
      CtrlFrame response = SendAndAwait(init);
      if (response.status != CtrlStatus::kOk) ThrowResponseError(response);
      mirror_ = checkpoint;
      mirror_valid_ = true;
      ShipRestore(checkpoint, to_round, log);
      ReplayJournal();
      staged_.clear();
      return;
    } catch (const ChildFailure& failure) {
      ReapChild();
      if (++respawns_used_ > options_.max_respawns) {
        lost_ = true;
        throw util::WorkerLost(index_, failure.reason +
                                           " (respawn budget exhausted)");
      }
    }
  }
}

// ---------------------------------------------------------------- metrics

size_t ProcessWorkerHandle::peak_bytes() const {
  return std::max<size_t>(peak_bytes_, query_tracker_.peak_bytes());
}

void ProcessWorkerHandle::ResetPeak() {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kResetPeak;
  RoundTrip(frame);
  query_tracker_.ResetPeak();
}

double ProcessWorkerHandle::gc_pressure() const {
  if (memory_budget_ == 0) return 0;
  return static_cast<double>(live_bytes_) /
         static_cast<double>(memory_budget_);
}

}  // namespace s2::dist
