#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <thread>
#include <utility>

#include "query/bgp.h"
#include "query/evaluator.h"
#include "query/sparql_parser.h"
#include "server/wire.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rdfsum::server {
namespace {

/// Rows drained between peeks at the socket for a CANCEL frame. Small
/// enough that a cancel lands within a few frames, large enough that the
/// poll() never shows on a throughput profile.
constexpr uint64_t kCancelPollInterval = 64;

/// Buffered response bytes that trigger a send(). Rows after the first
/// collect up to this size, so a response costs a few writes and client
/// wakeups instead of one per row; the first ROW frame is always sent on
/// its own so time-to-first-row never waits on the rest of the drain.
constexpr size_t kFlushBytes = 64 << 10;

std::string EncodeHello(uint64_t epoch) {
  std::string p;
  p.append(kHelloMagic, sizeof kHelloMagic);
  AppendU16(&p, kProtocolMajor);
  AppendU16(&p, kProtocolMinor);
  AppendU64(&p, epoch);
  return p;
}

/// Appends one answer row's payload: u32 column count, then each term's
/// canonical N-Triples rendering as len-bytes, rendered from the
/// dictionary's Term straight into `out`. The rendering is the same string
/// the CLI prints, which is what makes the served-vs-local byte-identity
/// test in tests/server_test.cc meaningful.
void AppendRow(const Dictionary& dict, const query::IdRow& row,
               std::string* out) {
  AppendU32(out, static_cast<uint32_t>(row.size()));
  for (TermId id : row) {
    const size_t at = StartLenBytes(out);
    dict.Decode(id).AppendNTriples(out);
    FinishLenBytes(out, at);
  }
}

bool PlannerFromWire(uint8_t v, query::PlannerMode* mode) {
  switch (v) {
    case 0:
      *mode = query::PlannerMode::kNaive;
      return true;
    case 1:
      *mode = query::PlannerMode::kGreedy;
      return true;
    case 2:
      *mode = query::PlannerMode::kSummary;
      return true;
  }
  return false;
}

}  // namespace

Server::~Server() {
  Stop();
  Wait();
}

Status Server::Start(const std::string& image_path,
                     const ServerOptions& options) {
  options_ = options;
  if (options_.num_workers == 0) {
    return Status::InvalidArgument("serve: num_workers must be >= 1");
  }
  plan_cache_ = std::make_unique<PlanCache>(
      options_.plan_cache ? ServerOptions::kPlanCacheCapacity : 0);
  spare_parallel_slots_.store(options_.num_workers,
                              std::memory_order_relaxed);

  auto snap = Snapshot::Open(image_path, 1);
  if (!snap.ok()) return snap.status();
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(snap).value();
  }
  epoch_.store(1, std::memory_order_relaxed);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("serve: bad listen address " +
                                   options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    Status s = Status::IOError(std::string("bind/listen ") + options_.host +
                               ": " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  ::fcntl(listen_fd_, F_SETFL, O_NONBLOCK);

  stop_.store(false, std::memory_order_release);
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  workers_.reserve(options_.num_workers);
  for (uint32_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(&Server::WorkerLoop, this);
  }
  return Status::OK();
}

void Server::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int n = ::poll(&pfd, 1, 100);
    if (n <= 0) continue;  // timeout or EINTR: re-check stop_
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;  // raced another wakeup / transient error
    // Request/response protocol with many small frames: Nagle + delayed
    // ACK would add ~40ms stalls per exchange, so always disable it.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // A fixed send buffer (the kernel doubles it) instead of the autotuned
    // one, which on loopback grows past a megabyte: a drain runs at most
    // this plus the client's receive window ahead of the client's reads,
    // so a CANCEL sent after the first row stops a long drain early even
    // when the client is slow to send it.
    int sndbuf = static_cast<int>(kFlushBytes);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf);

    Status fp = RDFSUM_FAILPOINT_STATUS("serve:accept");
    if (!fp.ok()) {
      // Injected accept-path fault: refuse this connection cleanly (the
      // client sees a classified DONE, never a hang) and keep serving.
      WriteFrame(fd, kFrameDone, EncodeDone(fp, 0)).IgnoreError();
      ::close(fd);
      continue;
    }

    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (pending_.size() < options_.queue_depth) {
        pending_.push_back(fd);
        admitted = true;
      }
    }
    if (admitted) {
      queue_cv_.notify_one();
    } else {
      admission_rejected_.fetch_add(1, std::memory_order_relaxed);
      WriteFrame(fd, kFrameDone,
                 EncodeDone(Status::ResourceExhausted(
                                "server at capacity: connection queue full"),
                            0))
          .IgnoreError();
      ::close(fd);
    }
  }
}

void Server::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (!pending_.empty()) {
        fd = pending_.front();
        pending_.pop_front();
      } else if (stop_.load(std::memory_order_acquire)) {
        return;
      }
    }
    if (fd >= 0) HandleConnection(fd);
  }
}

void Server::HandleConnection(int fd) {
  if (!WriteFrame(fd, kFrameHello,
                  EncodeHello(epoch_.load(std::memory_order_relaxed)))
           .ok()) {
    ::close(fd);
    return;
  }
  FrameBuffer out;  // reused across this connection's responses
  for (;;) {
    // Wait for the next request with a bounded poll instead of a blocking
    // read: an idle connection must notice Stop() (a worker parked in
    // read() would make Wait() hang on a client that never disconnects).
    pollfd pfd{fd, POLLIN, 0};
    int n = ::poll(&pfd, 1, 100);
    if (stop_.load(std::memory_order_acquire)) break;
    if (n <= 0) continue;  // timeout or EINTR: re-check stop_
    Frame frame;
    if (!ReadFrame(fd, &frame).ok()) break;  // peer gone or garbage framing
    switch (frame.type) {
      case kFrameQuery:
        if (!HandleQuery(fd, frame.payload, &out)) {
          ::close(fd);
          return;
        }
        continue;
      case kFrameStats:
        if (!out.Append(kFrameText, StatsText()).ok() ||
            !out.Append(kFrameDone, EncodeDone(Status::OK(), 0)).ok() ||
            !out.Flush(fd).ok()) {
          ::close(fd);
          return;
        }
        continue;
      case kFrameReload: {
        PayloadReader r(frame.payload);
        std::string path;
        Status s = (r.ReadLenBytes(&path) && r.AtEnd())
                       ? Reload(path)
                       : Status::Corruption("malformed RELOAD payload");
        if (!WriteFrame(fd, kFrameDone, EncodeDone(s, 0)).ok()) {
          ::close(fd);
          return;
        }
        continue;
      }
      case kFrameShutdown:
        WriteFrame(fd, kFrameDone, EncodeDone(Status::OK(), 0)).IgnoreError();
        ::close(fd);
        Stop();
        return;
      case kFrameCancel:
        continue;  // no query in flight; nothing to cancel
      default: {
        Status s = Status::InvalidArgument(
            "unknown frame type " + std::to_string(frame.type));
        WriteFrame(fd, kFrameDone, EncodeDone(s, 0)).IgnoreError();
        ::close(fd);
        return;
      }
    }
  }
  ::close(fd);
}

bool Server::HandleQuery(int fd, const std::string& payload,
                         FrameBuffer* out) {
  QueryRequest req;
  if (!DecodeQueryRequest(payload, &req)) {
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    WriteFrame(fd, kFrameDone,
               EncodeDone(Status::Corruption("malformed QUERY payload"), 0))
        .IgnoreError();
    return false;
  }
  query::PlannerMode mode;
  if (!PlannerFromWire(req.planner, &mode)) {
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    return WriteFrame(fd, kFrameDone,
                      EncodeDone(Status::InvalidArgument(
                                     "unknown planner " +
                                     std::to_string(req.planner)),
                                 0))
        .ok();
  }

  // Pin this request's epoch: the shared_ptr copy is the whole drain
  // invariant — a concurrent Reload() swaps the server's pointer, not ours.
  std::shared_ptr<Snapshot> snap = snapshot();

  Timer phase;
  auto parsed = query::ParseSparql(req.query);
  parse_phase_.Record(static_cast<uint64_t>(phase.ElapsedMicros()));
  if (!parsed.ok()) {
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    return WriteFrame(fd, kFrameDone, EncodeDone(parsed.status(), 0)).ok();
  }
  const query::BgpQuery& q = *parsed;

  phase.Reset();
  Status fp = RDFSUM_FAILPOINT_STATUS("serve:plan");
  if (!fp.ok()) {
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    return WriteFrame(fd, kFrameDone, EncodeDone(fp, 0)).ok();
  }
  query::QueryPlan plan;
  std::string cache_key;
  bool cached = false;
  if (plan_cache_->capacity() > 0) {
    cache_key =
        PlanCache::Key(query::NormalizedBgpShape(q), mode, snap->epoch());
    query::PlanSkeleton skeleton;
    if (plan_cache_->Lookup(cache_key, &skeleton)) {
      plan = query::PlanFromSkeleton(q, snap->dict(), skeleton);
      cached = true;
    }
  }
  if (!cached) {
    const summary::CardinalityEstimator* estimator = nullptr;
    if (mode == query::PlannerMode::kSummary) {
      // Estimator failure degrades to greedy-equivalent planning (the
      // planner falls back when estimator == nullptr); it never fails the
      // query.
      auto est = snap->Estimator();
      if (est.ok()) estimator = *est;
    }
    plan = query::BuildQueryPlan(q, snap->dict(), snap->evaluator().table(),
                                 mode, estimator);
    if (plan_cache_->capacity() > 0) {
      plan_cache_->Insert(cache_key, query::SkeletonOf(plan));
    }
  }
  plan_phase_.Record(static_cast<uint64_t>(phase.ElapsedMicros()));

  util::ExecContext::Limits limits = options_.default_limits;
  if (req.timeout_ms > 0) limits.timeout_ms = req.timeout_ms;
  if (req.max_rows > 0) limits.max_rows = req.max_rows;
  util::ExecContext exec(limits);

  query::CursorOptions copts;
  if (req.limit > 0) copts.limit = req.limit;
  copts.offset = req.offset;
  copts.exec = &exec;

  // Resolve the request's fan-out, then admission-control it: a k-way
  // query needs k-1 extra slots on top of the worker thread it already
  // holds; it takes what the pool has (possibly none — sequential) and
  // returns the slots after the drain. This bounds in-flight query
  // threads without ever queueing or rejecting a parallel request.
  uint32_t resolved = req.parallelism != 0 ? req.parallelism
                                           : options_.default_parallelism;
  if (resolved == 0) resolved = util::AvailableCpuCount();
  if (options_.max_parallelism > 0) {
    resolved = std::min(resolved, options_.max_parallelism);
  }
  uint32_t extra_slots = 0;
  if (resolved > 1) {
    const uint32_t want = resolved - 1;
    uint32_t avail = spare_parallel_slots_.load(std::memory_order_relaxed);
    while (true) {
      const uint32_t take = std::min(want, avail);
      if (take == 0) break;
      if (spare_parallel_slots_.compare_exchange_weak(
              avail, avail - take, std::memory_order_acq_rel)) {
        extra_slots = take;
        break;
      }
    }
    if (extra_slots < want) {
      parallel_slots_trimmed_.fetch_add(1, std::memory_order_relaxed);
    }
    if (extra_slots > 0) {
      parallel_queries_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  copts.parallelism = 1 + extra_slots;

  phase.Reset();
  auto cursor = snap->evaluator().Open(q, plan, copts);
  if (!cursor.ok()) {
    if (extra_slots > 0) {
      spare_parallel_slots_.fetch_add(extra_slots,
                                      std::memory_order_relaxed);
    }
    exec_phase_.Record(static_cast<uint64_t>(phase.ElapsedMicros()));
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    return WriteFrame(fd, kFrameDone, EncodeDone(cursor.status(), 0)).ok();
  }

  uint64_t rows_sent = 0;
  bool peer_ok = true;
  Status row_status;
  Status protocol_error;  // a frame other than CANCEL arrived mid-stream
  query::IdRow row;
  while ((*cursor)->Next(&row)) {
    AppendRow(snap->dict(), row, out->OpenFrame(kFrameRow));
    row_status = out->CloseFrame();
    if (!row_status.ok()) break;  // one row over the frame limit
    ++rows_sent;
    if (rows_sent == 1 || out->size() >= kFlushBytes) {
      if (!out->Flush(fd).ok()) {
        peer_ok = false;
        break;
      }
    }
    if (rows_sent % kCancelPollInterval == 0) {
      // A client that wants out sends CANCEL mid-stream; a vanished client
      // shows up as readable-EOF. Either way, stop pulling. Any other
      // frame breaks the one-request-at-a-time rule: it cannot be queued
      // (it is already read) or dropped (its sender would wait forever),
      // so the stream ends with a classified DONE and the connection
      // closes, as for an unknown frame type.
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 0) > 0) {
        Frame in;
        if (!ReadFrame(fd, &in).ok() || in.type == kFrameCancel) {
          exec.Cancel();
        } else {
          protocol_error = Status::InvalidArgument(
              "frame type " + std::to_string(in.type) +
              " sent while a query streams; only CANCEL may precede DONE");
          break;
        }
      }
    }
  }
  Status result = row_status.ok() ? (*cursor)->status() : row_status;
  if (!protocol_error.ok()) result = protocol_error;
  cursor->reset();  // join any in-flight morsels before releasing slots
  if (extra_slots > 0) {
    spare_parallel_slots_.fetch_add(extra_slots, std::memory_order_relaxed);
  }
  exec_phase_.Record(static_cast<uint64_t>(phase.ElapsedMicros()));
  if (result.ok()) {
    queries_ok_.fetch_add(1, std::memory_order_relaxed);
  } else {
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!peer_ok) return false;
  // DONE leaves in the same send() as the buffered tail of the rows.
  out->Append(kFrameDone, EncodeDone(result, rows_sent)).IgnoreError();
  return out->Flush(fd).ok() && protocol_error.ok();
}

Status Server::Reload(const std::string& path) {
  RDFSUM_FAILPOINT("serve:swap");
  // One reload at a time, from open to plan-cache clear: two racing reloads
  // would otherwise both take epoch N+1, and the one whose open (and mint)
  // finished last would be swapped in even if it was the older request.
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  std::string target = path;
  if (target.empty()) target = snapshot()->path();
  uint64_t next_epoch = epoch_.load(std::memory_order_relaxed) + 1;
  auto snap = Snapshot::Open(target, next_epoch);
  if (!snap.ok()) return snap.status();
  // The old epoch leaves through `retired`, so when this was its last
  // reference its teardown runs after the lock that every request's
  // snapshot() takes is released.
  std::shared_ptr<Snapshot> retired = std::move(snap).value();
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_.swap(retired);
  }
  epoch_.store(next_epoch, std::memory_order_relaxed);
  // Skeletons picked against the old image's statistics would still be
  // *correct* (results are plan-invariant) but possibly slow, and "correct
  // but quietly mis-tuned forever" is the wrong failure mode. Cache keys
  // carry their epoch, so no new-epoch request can hit one (not even one a
  // request still pinned to the old epoch inserts after this point); the
  // clear only frees them.
  plan_cache_->Clear();
  reloads_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void Server::Stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  queue_cv_.notify_all();
}

void Server::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  std::deque<int> orphans;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    orphans.swap(pending_);
  }
  for (int fd : orphans) {
    WriteFrame(fd, kFrameDone,
               EncodeDone(Status::Cancelled("server shutting down"), 0))
        .IgnoreError();
    ::close(fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

std::shared_ptr<Snapshot> Server::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

std::string Server::StatsText() const {
  std::shared_ptr<Snapshot> snap = snapshot();
  std::ostringstream out;
  out << "epoch: " << snap->epoch() << "\n";
  out << "image: " << snap->path() << "\n";
  out << "triples: " << snap->num_triples() << "\n";
  out << "reloads: " << reloads_.load(std::memory_order_relaxed) << "\n";
  out << "queries_ok: " << queries_ok_.load(std::memory_order_relaxed)
      << "\n";
  out << "queries_failed: " << queries_failed_.load(std::memory_order_relaxed)
      << "\n";
  out << "admission_rejected: "
      << admission_rejected_.load(std::memory_order_relaxed) << "\n";
  out << "parallel_queries: "
      << parallel_queries_.load(std::memory_order_relaxed) << "\n";
  out << "parallel_slots_trimmed: "
      << parallel_slots_trimmed_.load(std::memory_order_relaxed) << "\n";
  out << "parallel_slots_free: "
      << spare_parallel_slots_.load(std::memory_order_relaxed) << "\n";
  out << "plan_cache_capacity: " << plan_cache_->capacity() << "\n";
  out << "plan_cache_size: " << plan_cache_->size() << "\n";
  out << "plan_cache_hits: " << plan_cache_->hits() << "\n";
  out << "plan_cache_misses: " << plan_cache_->misses() << "\n";
  const struct {
    const char* name;
    const util::PhaseCounter& c;
  } phases[] = {{"parse", parse_phase_},
                {"plan", plan_phase_},
                {"exec", exec_phase_}};
  for (const auto& p : phases) {
    out << "phase_" << p.name << "_count: " << p.c.count() << "\n";
    out << "phase_" << p.name << "_total_us: " << p.c.total_us() << "\n";
    out << "phase_" << p.name << "_mean_us: " << p.c.mean_us() << "\n";
    out << "phase_" << p.name << "_max_us: " << p.c.max_us() << "\n";
  }
  for (const Snapshot::MintReport& m : snap->MintReports()) {
    out << "summary_mint_" << m.kind << ": "
        << (m.ok ? "ok" : "failed") << " " << m.seconds << "s\n";
  }
  return out.str();
}

}  // namespace rdfsum::server
