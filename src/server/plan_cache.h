#ifndef RDFSUM_SERVER_PLAN_CACHE_H_
#define RDFSUM_SERVER_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "query/plan.h"

namespace rdfsum::server {

/// LRU cache of plan skeletons keyed on normalized BGP shape + planner mode
/// + epoch (query::NormalizedBgpShape — variables and constants abstracted,
/// so any two queries with the same join structure share an entry
/// regardless of which concrete terms they name). A hit skips the planner's
/// statistics probes and the kSummary estimator enumeration; the skeleton
/// is re-instantiated against the request's constants with
/// PlanFromSkeleton, which is correct for *any* constants because result
/// sets are planner-invariant (src/query/README.md).
///
/// Entries describe one snapshot's statistics, so every key names the epoch
/// it was planned on: a request pinned to an older epoch that plans after a
/// swap inserts a skeleton no request on the new epoch can hit. The server
/// also clears the cache on every epoch swap, to free the old entries
/// (src/server/README.md). Thread-safe; the hit/miss counters feed STATS
/// and survive Clear().
class PlanCache {
 public:
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  /// The full cache key for a request: the shape with the planner mode
  /// (the same shape plans differently under different modes) and the
  /// epoch of the snapshot the request pinned appended.
  static std::string Key(const std::string& shape, query::PlannerMode mode,
                         uint64_t epoch);

  /// True (and *out filled) on a hit; the entry becomes most-recent. Every
  /// call counts as exactly one hit or one miss.
  bool Lookup(const std::string& key, query::PlanSkeleton* out);

  /// Inserts or refreshes `key`, evicting the least-recently-used entry
  /// beyond capacity. A capacity of 0 disables the cache (inserts drop).
  void Insert(const std::string& key, query::PlanSkeleton skeleton);

  /// Drops every entry (epoch swap); counters are preserved.
  void Clear();

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  using Entry = std::pair<std::string, query::PlanSkeleton>;

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace rdfsum::server

#endif  // RDFSUM_SERVER_PLAN_CACHE_H_
