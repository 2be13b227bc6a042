#ifndef RDFSUM_UTIL_EXEC_CONTEXT_H_
#define RDFSUM_UTIL_EXEC_CONTEXT_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/status.h"

namespace rdfsum::util {

/// Execution-governance handle threaded through the whole stack: a deadline,
/// a cooperative cancellation token, a result-row budget, and a memory
/// budget. One ExecContext governs one logical request (a query, a
/// summarization run, a load); the CLI builds one per invocation from
/// --timeout-ms / --max-rows / --mem-budget-mb, and a serving daemon would
/// build one per connection.
///
/// Everything is thread-safe: the thread running a request polls the
/// context while another thread may Cancel() it. All counters are atomics;
/// Check() reads the monotonic clock only when it actually evaluates the
/// deadline.
///
/// Conventions (see src/util/README.md for the full writeup):
///   - A null ExecContext* means "ungoverned" — every call site must accept
///     nullptr and skip the checks.
///   - Loops poll Check() every kCheckInterval items (not every item: one
///     relaxed load per item is cheap, a clock read is not). A loop that
///     observes a non-OK Check() stops and returns that status.
///   - Check() failures are sticky by construction: once the deadline passed
///     or Cancel() was called, every later Check() fails the same way.
class ExecContext {
 public:
  /// Budget values; 0 always means "unlimited".
  struct Limits {
    /// Wall-clock budget from construction, after which Check() returns
    /// kDeadlineExceeded.
    int64_t timeout_ms = 0;
    /// Result rows the governed tree may produce before ChargeRows() returns
    /// kResourceExhausted.
    uint64_t max_rows = 0;
    /// Bytes of operator state (hash-join build sides, ...) that may be
    /// charged before TryChargeMemory() refuses.
    uint64_t memory_budget_bytes = 0;
  };

  /// How often polling loops should call Check(), in items between calls.
  /// Public so tests can assert "terminates within one check interval".
  static constexpr uint32_t kCheckInterval = 256;

  /// Ungoverned context: never expires, all budgets unlimited; still
  /// cancellable.
  ExecContext() : ExecContext(Limits{}) {}

  explicit ExecContext(const Limits& limits)
      : limits_(limits),
        deadline_(limits.timeout_ms > 0
                      ? Clock::now() + std::chrono::milliseconds(
                                           limits.timeout_ms)
                      : Clock::time_point::max()) {}

  /// Not copyable: the counters are per-request identity.
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Requests cooperative cancellation; idempotent, callable from any
  /// thread. Workers observe it at their next Check().
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  bool has_deadline() const {
    return deadline_ != Clock::time_point::max();
  }

  /// The cheap poll: cancellation first (one atomic load), then the
  /// deadline (a clock read only when one is set). OK when neither tripped.
  Status Check() const {
    if (cancelled()) return Status::Cancelled("execution cancelled");
    if (has_deadline() && Clock::now() >= deadline_) {
      return Status::DeadlineExceeded("deadline exceeded after " +
                                      std::to_string(limits_.timeout_ms) +
                                      " ms");
    }
    return Status::OK();
  }

  /// Charges `n` produced result rows against the row budget. Returns
  /// kResourceExhausted once the budget is exceeded (the row that tripped it
  /// is not delivered). Unlimited when max_rows == 0.
  Status ChargeRows(uint64_t n = 1) {
    if (limits_.max_rows == 0) return Status::OK();
    uint64_t total =
        rows_charged_.fetch_add(n, std::memory_order_relaxed) + n;
    if (total > limits_.max_rows) {
      return Status::ResourceExhausted(
          "row budget exhausted (max " + std::to_string(limits_.max_rows) +
          " rows)");
    }
    return Status::OK();
  }

  /// Tries to reserve `bytes` against the memory budget; returns false (and
  /// charges nothing) when the reservation would exceed it. Always succeeds
  /// when memory_budget_bytes == 0.
  bool TryChargeMemory(uint64_t bytes) {
    if (limits_.memory_budget_bytes == 0) return true;
    uint64_t used = memory_used_.load(std::memory_order_relaxed);
    while (true) {
      if (used + bytes > limits_.memory_budget_bytes) return false;
      if (memory_used_.compare_exchange_weak(used, used + bytes,
                                             std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  /// Returns a reservation made by TryChargeMemory (an operator tearing
  /// down, or a degrading hash join abandoning its build side).
  void ReleaseMemory(uint64_t bytes) {
    if (limits_.memory_budget_bytes == 0) return;
    memory_used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  uint64_t memory_used() const {
    return memory_used_.load(std::memory_order_relaxed);
  }
  uint64_t rows_charged() const {
    return rows_charged_.load(std::memory_order_relaxed);
  }
  const Limits& limits() const { return limits_; }

  /// True when `estimated_bytes` of operator state would not fit the
  /// remaining memory budget — the executor's compile-time degrade test.
  /// Always false when no memory budget is set.
  bool WouldExceedMemory(uint64_t estimated_bytes) const {
    if (limits_.memory_budget_bytes == 0) return false;
    uint64_t used = memory_used_.load(std::memory_order_relaxed);
    return used + estimated_bytes > limits_.memory_budget_bytes;
  }

 private:
  using Clock = std::chrono::steady_clock;

  Limits limits_;
  Clock::time_point deadline_;
  std::atomic<bool> cancelled_{false};
  std::atomic<uint64_t> rows_charged_{0};
  std::atomic<uint64_t> memory_used_{0};
};

/// How many items a loop processes between ExecContext polls. Coarser
/// than ExecContext::kCheckInterval because the chunked loops do a few
/// nanoseconds of work per item; this still bounds cancellation latency to
/// well under a millisecond of work.
inline constexpr uint64_t kCancelCheckChunk = 8192;

/// Runs body(chunk_begin, chunk_end) over [begin, end) in chunks of
/// kCancelCheckChunk items, polling `ctx` between chunks. Stops at the first
/// non-OK poll and returns that status (the remaining items are skipped —
/// the caller must treat its output as partial and discard it). The
/// summarizer's weak pass, bisimulation rounds and quotient poll through
/// it.
template <typename ChunkBody>
Status CancellableChunks(const ExecContext* ctx, uint64_t begin, uint64_t end,
                         ChunkBody&& body) {
  if (ctx == nullptr) {
    body(begin, end);
    return Status();
  }
  for (uint64_t pos = begin; pos < end; pos += kCancelCheckChunk) {
    Status st = ctx->Check();
    if (!st.ok()) return st;
    body(pos, std::min(end, pos + kCancelCheckChunk));
  }
  return ctx->Check();
}

}  // namespace rdfsum::util

#endif  // RDFSUM_UTIL_EXEC_CONTEXT_H_
