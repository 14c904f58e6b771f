#include "net/socket_source.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "common/retry_eintr.h"

namespace streamline {
namespace net {

namespace {

/// Read chunk per recv: big enough to amortize the syscall, small enough
/// to live on the loop thread's stack.
constexpr size_t kReadChunk = 64u << 10;

/// Backstop cadence for re-arming paused connections. The doorbell Post
/// from the consumer is the fast path; this timer only covers the race
/// where the post found the ring still full.
constexpr int64_t kResumeBackstopMs = 2;

}  // namespace

Result<std::unique_ptr<SocketIngest>> SocketIngest::Create(
    EventLoop* loop, IngestOptions options) {
  auto listener = TcpListen(options.listen_port);
  if (!listener.ok()) return listener.status();
  auto port = LocalPort(listener->get());
  if (!port.ok()) return port.status();
  std::unique_ptr<SocketIngest> ingest(new SocketIngest(
      loop, options, std::move(*listener), *port));
  SocketIngest* raw = ingest.get();
  STREAMLINE_RETURN_IF_ERROR(loop->Add(raw->listener_.get(), EPOLLIN,
                                       [raw](uint32_t) { raw->OnAccept(); }));
  STREAMLINE_RETURN_IF_ERROR(
      loop->AddTimer(kResumeBackstopMs, [raw] {
        if (raw->any_paused_.load(std::memory_order_acquire)) {
          raw->ResumePaused();
        }
      }));
  return ingest;
}

SocketIngest::SocketIngest(EventLoop* loop, IngestOptions options,
                           Fd listener, uint16_t port)
    : loop_(loop),
      options_(options),
      listener_(std::move(listener)),
      port_(port),
      ring_(options.ring_capacity),
      recycle_(options.ring_capacity) {}

SocketIngest::~SocketIngest() {
  // Contract: the EventLoop is stopped before the ingest is destroyed
  // (handlers capture `this`). Fds close themselves via RAII.
}

void SocketIngest::OnAccept() {
  for (;;) {
    auto accepted = AcceptNonBlocking(listener_.get());
    if (!accepted.ok()) return;  // listener error: stop accepting
    if (!accepted->valid()) return;  // queue drained
    SetNoDelay(accepted->get())
        .IgnoreError("nodelay is a latency hint, not required");
    const int fd = accepted->get();
    conns_.emplace(fd, std::make_unique<Conn>(std::move(*accepted),
                                              options_.max_frame_bytes));
    // Count the connection before announcing it: Finished() reads
    // saw_conn_ first, and must not see it set while open_conns_ is
    // still 0, or a consumer polling at that instant ends the stream
    // before its first record.
    open_conns_.fetch_add(1, std::memory_order_acq_rel);
    saw_conn_.store(true, std::memory_order_release);
    stat_connections_.fetch_add(1, std::memory_order_relaxed);
    if (!loop_->Add(fd, EPOLLIN, [this, fd](uint32_t) { OnReadable(fd); })
             .ok()) {
      CloseConn(fd);
      continue;
    }
    // Edge-triggered: bytes may already be waiting; kick the drain once.
    OnReadable(fd);
  }
}

void SocketIngest::OnReadable(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();
  if (conn->paused) return;  // resumed (and drained) later
  DrainConn(conn);
}

bool SocketIngest::FlushStaging(Conn* conn) {
  if (conn->staging.empty()) return true;
  const size_t n = conn->staging.size();
  if (!ring_.TryPush(std::move(conn->staging))) {
    // Downstream is full: park the batch, drop read interest. The kernel
    // receive buffer now fills and the peer's TCP window closes -- this
    // line is where engine backpressure becomes network backpressure.
    conn->paused = true;
    any_paused_.store(true, std::memory_order_release);
    stat_pauses_.fetch_add(1, std::memory_order_relaxed);
    if (conn->fd.valid()) {
      loop_->Mod(conn->fd.get(), 0)
          .IgnoreError("pausing an fd mid-close is benign");
    }
    return false;
  }
  stat_records_.fetch_add(n, std::memory_order_relaxed);
  // Replace the staging vector from the recycle ring so steady-state
  // ingest reuses the consumer's emptied batch capacity.
  std::vector<Record> spare;
  if (recycle_.TryPop(&spare)) {
    conn->staging = std::move(spare);
  } else {
    conn->staging = std::vector<Record>();
  }
  return true;
}

void SocketIngest::DrainConn(Conn* conn) {
  const int fd = conn->fd.get();
  for (;;) {
    if (!FlushStaging(conn)) return;  // paused
    // Decode every complete buffered frame, flushing between frames so a
    // ring-full pause loses nothing.
    for (;;) {
      std::string_view payload;
      auto next = conn->decoder.Next(&payload);
      if (!next.ok()) {
        CloseConn(fd);  // corrupt stream: fail closed, drop the producer
        return;
      }
      if (!*next) break;
      if (payload.empty() || payload[0] != kMsgData) {
        CloseConn(fd);  // ingest speaks data frames only
        return;
      }
      if (!DecodeDataBatch(payload, &conn->staging).ok()) {
        CloseConn(fd);
        return;
      }
      stat_frames_.fetch_add(1, std::memory_order_relaxed);
      if (!FlushStaging(conn)) return;
    }
    if (conn->peer_closed) {
      // Staging flushed and frames drained: the producer is done. A
      // torn trailing frame (mid-frame disconnect) is dropped, never
      // partially applied.
      CloseConn(fd);
      return;
    }
    char buf[kReadChunk];
    const ssize_t r =
        RetryEintr([&] { return ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT); });
    if (r > 0) {
      stat_bytes_.fetch_add(static_cast<uint64_t>(r),
                            std::memory_order_relaxed);
      conn->decoder.Append(buf, static_cast<size_t>(r));
      continue;
    }
    if (r == 0) {
      conn->peer_closed = true;  // loop once more: flush, then close
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConn(fd);  // hard socket error
    return;
  }
}

void SocketIngest::ResumePaused() {
  if (ring_.Full()) return;  // still no room; backstop timer retries
  any_paused_.store(false, std::memory_order_release);
  // Collect first: DrainConn may CloseConn and invalidate iterators.
  std::vector<int> paused_fds;
  for (auto& [fd, conn] : conns_) {
    if (conn->paused) paused_fds.push_back(fd);
  }
  for (int fd : paused_fds) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn* conn = it->second.get();
    conn->paused = false;
    if (conn->fd.valid() && !conn->peer_closed) {
      if (!loop_->Mod(fd, EPOLLIN).ok()) {
        CloseConn(fd);
        continue;
      }
    }
    // Re-kick manually: the edge that announced these bytes is long gone.
    DrainConn(conn);
  }
}

void SocketIngest::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  loop_->Remove(fd);
  conns_.erase(it);  // RAII close
  open_conns_.fetch_sub(1, std::memory_order_acq_rel);
}

bool SocketIngest::PopBatch(std::vector<Record>* out) {
  if (!ring_.TryPop(out)) return false;
  // Resume signal: the pop just made room; re-arm any TCP-window-paused
  // connection. One Post per full->non-full transition, not per batch.
  if (any_paused_.load(std::memory_order_acquire) &&
      !resume_posted_.exchange(true, std::memory_order_acq_rel)) {
    loop_->Post([this] {
      resume_posted_.store(false, std::memory_order_release);
      ResumePaused();
    });
  }
  return true;
}

void SocketIngest::RecycleBatch(std::vector<Record>&& batch) {
  batch.clear();
  if (batch.capacity() == 0) return;
  // Best effort: a full recycle ring just means the net thread allocates
  // its next staging vector fresh.
  std::vector<Record> b = std::move(batch);
  (void)recycle_.TryPush(std::move(b));
}

bool SocketIngest::Finished() const {
  if (!options_.exhaust_on_disconnect) return false;
  return saw_conn_.load(std::memory_order_acquire) &&
         open_conns_.load(std::memory_order_acquire) == 0 && ring_.Empty();
}

SocketIngest::Stats SocketIngest::stats() const {
  Stats s;
  s.connections = stat_connections_.load(std::memory_order_relaxed);
  s.records = stat_records_.load(std::memory_order_relaxed);
  s.bytes = stat_bytes_.load(std::memory_order_relaxed);
  s.frames = stat_frames_.load(std::memory_order_relaxed);
  s.pauses = stat_pauses_.load(std::memory_order_relaxed);
  return s;
}

Result<SourcePoll> SocketSource::Poll(SourceContext* ctx) {
  if (ingest_->PopBatch(&scratch_)) {
    const size_t n = scratch_.size();
    for (const Record& r : scratch_) {
      max_ts_ = std::max(max_ts_, r.timestamp);
    }
    if (!ctx->EmitBatch(std::move(scratch_))) {
      return SourcePoll::kExhausted;  // cancelled
    }
    // EmitBatch drained scratch_ in place (capacity preserved); hand that
    // capacity back to the net thread.
    ingest_->RecycleBatch(std::move(scratch_));
    scratch_ = std::vector<Record>();
    emitted_ += n;
    if (watermark_every_ > 0 &&
        emitted_ - last_watermark_at_ >= watermark_every_) {
      ctx->EmitWatermark(max_ts_);
      last_watermark_at_ = emitted_;
    }
    return SourcePoll::kHasMore;
  }
  if (ingest_->Finished()) {
    if (max_ts_ != kMinTimestamp) ctx->EmitWatermark(max_ts_);
    return SourcePoll::kExhausted;
  }
  return SourcePoll::kIdle;
}

}  // namespace net
}  // namespace streamline
