#ifndef RDFSUM_SERVER_SERVER_H_
#define RDFSUM_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "query/plan.h"
#include "server/plan_cache.h"
#include "server/snapshot.h"
#include "server/wire.h"
#include "util/counters.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace rdfsum::server {

struct ServerOptions {
  /// Listen address. Port 0 binds an ephemeral port; read it back with
  /// port() after Start() — the test and smoke harnesses depend on this.
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Admission control: at most `num_workers` connections are served
  /// concurrently and at most `queue_depth` more may wait for a worker;
  /// a connection beyond both is refused with kResourceExhausted before
  /// HELLO (never a silent hang).
  uint32_t num_workers = 4;
  uint32_t queue_depth = 16;
  /// Plan-skeleton cache over normalized BGP shapes (server/plan_cache.h),
  /// holding up to kPlanCacheCapacity skeletons.
  bool plan_cache = true;
  static constexpr size_t kPlanCacheCapacity = 256;
  /// Planner used when a request leaves the planner byte at its default.
  query::PlannerMode default_planner = query::PlannerMode::kGreedy;
  /// Per-request governance defaults; a request's nonzero timeout_ms /
  /// max_rows override these, its zeros inherit them. The memory budget
  /// has no wire field and always comes from here.
  util::ExecContext::Limits default_limits;
  /// Ignored: every query runs on its connection's worker thread. Kept
  /// only so perfbench/perfbench.cc, which assigns 1 to both, still builds;
  /// nothing else reads or sets them.
  uint32_t default_parallelism = 1;
  uint32_t max_parallelism = 8;
};

/// The `rdfsum serve` daemon: serves BGP queries over one frozen image
/// through the wire protocol of docs/PROTOCOL.md.
///
/// Concurrency model. One accept thread feeds a bounded connection queue
/// drained by `num_workers` worker threads; each connection is handled by
/// one worker for its whole lifetime. The live Snapshot is published behind
/// a shared_ptr: every request copies the pointer once up front and runs
/// entirely against that epoch, so Reload() — which opens (and mints) the
/// new image first, then swaps the pointer and clears the plan cache — is
/// invisible to in-flight queries, and no request ever waits for a mint.
/// Reloads run one at a time. The displaced snapshot stays alive until its
/// last request drops its reference (the drain invariant); there is no
/// stop-the-world anywhere on the swap path.
///
/// Failpoints: `serve:accept` (each accepted connection), `serve:plan`
/// (each parsed QUERY, after its epoch is pinned and before the plan-cache
/// lookup) and `serve:swap` (each Reload, before the new image is opened).
class Server {
 public:
  Server() = default;
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens `image_path` as epoch 1, binds + listens, and spawns the accept
  /// and worker threads. On any failure nothing keeps running.
  /// (Two overloads instead of `= {}`: GCC PR 88165, see fault_injection.h.)
  Status Start(const std::string& image_path, const ServerOptions& options);
  Status Start(const std::string& image_path) {
    return Start(image_path, ServerOptions());
  }

  /// The bound port (resolves ephemeral binds). Valid after Start().
  uint16_t port() const { return port_; }

  /// Atomically replaces the live snapshot with a freshly opened (fully
  /// validated, already minted) image at `path` — or re-opens the current
  /// path when `path` is empty — bumping the epoch and clearing the plan
  /// cache. Concurrent calls are serialized, so epochs rise in publish
  /// order. On failure the current snapshot keeps serving untouched.
  /// Failpoint: `serve:swap`.
  Status Reload(const std::string& path);

  /// Signals shutdown: stops accepting, wakes idle workers, lets in-flight
  /// connections finish their current request loop. Idempotent; safe to
  /// call from a worker thread (the SHUTDOWN command path).
  void Stop();

  /// Joins every thread. Call once, after Stop() (or after a client sent
  /// SHUTDOWN). Not safe from a worker thread.
  void Wait();

  /// True once Stop() ran (including via a client's SHUTDOWN command) —
  /// what the CLI's serve loop polls to exit cleanly.
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  /// The current epoch's snapshot (shared — callers may hold it across a
  /// swap, exactly like a request does).
  std::shared_ptr<Snapshot> snapshot() const;

  /// The STATS payload: `key: value` lines — epoch, image path/size, query
  /// and admission counters, plan-cache hit rate, per-phase latency
  /// (parse/plan/exec), and one line per summary mint of the epoch.
  std::string StatsText() const;

 private:
  void AcceptLoop();
  void WorkerLoop();
  void HandleConnection(int fd);
  /// One QUERY request, answered through `out` (empty on entry and on
  /// return); false ends the connection (protocol violation, peer gone).
  bool HandleQuery(int fd, const std::string& payload, FrameBuffer* out);

  ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;

  /// Serializes Reload() end to end (open, swap, epoch bump, plan-cache
  /// clear), so epochs are published in the order they are numbered.
  std::mutex reload_mu_;
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<Snapshot> snapshot_;
  std::atomic<uint64_t> epoch_{0};

  std::unique_ptr<PlanCache> plan_cache_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  // accepted fds waiting for a worker
  std::atomic<bool> stop_{false};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> queries_ok_{0};
  std::atomic<uint64_t> queries_failed_{0};
  std::atomic<uint64_t> admission_rejected_{0};
  std::atomic<uint64_t> reloads_{0};
  util::PhaseCounter parse_phase_;
  util::PhaseCounter plan_phase_;
  util::PhaseCounter exec_phase_;
};

}  // namespace rdfsum::server

#endif  // RDFSUM_SERVER_SERVER_H_
