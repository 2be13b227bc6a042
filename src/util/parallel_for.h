#ifndef RDFSUM_UTIL_PARALLEL_FOR_H_
#define RDFSUM_UTIL_PARALLEL_FOR_H_

#include <algorithm>
#include <cstdint>

#include "util/exec_context.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rdfsum::util {

/// Resolves a requested thread count against the CPUs and the amount of
/// work: 0 means AvailableCpuCount() (util/thread_pool.h), never more threads
/// than work items, always at least one, never more than kMaxThreads (so a
/// bogus request — e.g. "-1" wrapped to ~4e9 by a caller's parser — cannot
/// exhaust the process with thread spawns). All arithmetic is 64-bit so a
/// work-item count above 2^32 cannot truncate into the clamp.
inline constexpr uint32_t kMaxThreads = 256;

inline uint32_t ResolveThreadCount(uint32_t requested, uint64_t work_items) {
  uint64_t threads = requested != 0 ? requested : AvailableCpuCount();
  threads = std::min<uint64_t>(threads, kMaxThreads);
  threads = std::min<uint64_t>(threads, std::max<uint64_t>(work_items, 1));
  return static_cast<uint32_t>(threads);
}

/// Runs body(shard) for every shard in [0, num_threads): shard 0 on the
/// calling thread, the rest as tasks on the shared ThreadPool, joining them
/// all before returning — the fan-out/join boilerplate of the query
/// morsels. Concurrent queries share the pool's one set of OS threads, and
/// nested fan-out is safe because TaskGroup::Wait helps run its own
/// group's queued shards (see util/thread_pool.h).
///
/// Shard count, sharding, and outputs are untouched by pool size: a shard
/// is a unit of *work division*, not a dedicated thread, so results stay
/// byte-identical however many workers actually run them.
template <typename Body>
void ParallelFor(uint32_t num_threads, Body&& body) {
  if (num_threads <= 1) {
    body(0u);
    return;
  }
  TaskGroup group(ThreadPool::Shared());
  for (uint32_t shard = 1; shard < num_threads; ++shard) {
    group.Submit([&body, shard] { body(shard); });
  }
  body(0u);
  group.Wait();
}

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

#endif  // RDFSUM_UTIL_PARALLEL_FOR_H_
