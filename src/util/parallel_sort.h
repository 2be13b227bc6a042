#ifndef RDFSUM_UTIL_PARALLEL_SORT_H_
#define RDFSUM_UTIL_PARALLEL_SORT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/parallel_for.h"

namespace rdfsum::util {

/// Items below which a parallel sort degenerates to std::sort: sharding a
/// few thousand elements costs more in thread spawns than the sort itself.
inline constexpr uint64_t kMinSortItemsPerShard = 1024;

/// Sorts [begin, end) under `less` with up to `num_threads` workers (0 = all
/// available CPUs): contiguous shards are std::sort'ed in parallel, then
/// combined by log2(shards) rounds of pairwise-parallel std::inplace_merge.
///
/// Caller contract for determinism: elements that compare equal under `less`
/// must be indistinguishable (byte-identical), because neither std::sort nor
/// the shard boundaries are stable. Every caller in this codebase sorts
/// permutations of a triple set whose comparator keys cover all three
/// components, so equal means identical and the result is byte-for-byte the
/// sequential std::sort result at every thread count.
template <typename It, typename Less>
void ParallelSort(It begin, It end, Less less, uint32_t num_threads) {
  const uint64_t total = static_cast<uint64_t>(end - begin);
  const uint32_t shards =
      ResolveThreadCount(num_threads, total / kMinSortItemsPerShard);
  if (shards <= 1) {
    std::sort(begin, end, less);
    return;
  }

  // Shard boundaries, fixed for all merge rounds: cuts[i] is where shard i
  // starts; cuts[shards] == total.
  std::vector<uint64_t> cuts(shards + 1);
  for (uint32_t s = 0; s < shards; ++s) cuts[s] = ShardRange(total, s, shards).first;
  cuts[shards] = total;

  ParallelFor(shards, [&](uint32_t s) {
    std::sort(begin + static_cast<int64_t>(cuts[s]),
              begin + static_cast<int64_t>(cuts[s + 1]), less);
  });

  // Pairwise merge rounds: width doubles each round, merges within a round
  // touch disjoint ranges and run in parallel.
  for (uint64_t width = 1; width < shards; width *= 2) {
    const uint64_t stride = 2 * width;
    const uint32_t jobs =
        static_cast<uint32_t>((shards - width + stride - 1) / stride);
    ParallelFor(jobs, [&](uint32_t j) {
      const uint64_t lo = j * stride;
      const uint64_t mid = lo + width;
      const uint64_t hi = std::min<uint64_t>(lo + stride, shards);
      std::inplace_merge(begin + static_cast<int64_t>(cuts[lo]),
                         begin + static_cast<int64_t>(cuts[mid]),
                         begin + static_cast<int64_t>(cuts[hi]), less);
    });
  }
}

}  // namespace rdfsum::util

#endif  // RDFSUM_UTIL_PARALLEL_SORT_H_
