#include "store/triple_table.h"

#include <algorithm>
#include <utility>

#include "util/parallel_for.h"
#include "util/parallel_sort.h"

namespace rdfsum::store {

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kSpo:
      return "SPO";
    case IndexKind::kPos:
      return "POS";
    case IndexKind::kOsp:
      return "OSP";
  }
  return "?";
}

IndexKind TripleTable::ChooseIndex(bool s_bound, bool p_bound, bool o_bound) {
  if (s_bound && p_bound && o_bound) return IndexKind::kSpo;  // exact row
  if (s_bound && o_bound) return IndexKind::kOsp;             // (o, s) prefix
  if (s_bound) return IndexKind::kSpo;                        // (s[, p]) prefix
  if (p_bound) return IndexKind::kPos;                        // (p[, o]) prefix
  if (o_bound) return IndexKind::kOsp;                        // (o) prefix
  return IndexKind::kSpo;                                     // full scan
}

TripleTable::TripleTable() : TripleTable(Build({})) {}

TripleTable TripleTable::Build(std::vector<Triple> rows,
                               uint32_t num_threads) {
  auto storage = std::make_shared<Storage>();
  std::vector<Triple>& spo = storage->spo;
  spo = std::move(rows);
  const uint32_t threads = util::ResolveThreadCount(
      num_threads, spo.size() / util::kMinSortItemsPerShard);
  util::ParallelSort(spo.begin(), spo.end(), std::less<Triple>(), threads);
  spo.erase(std::unique(spo.begin(), spo.end()), spo.end());
  // The two secondary permutations are independent: copy + sort each on its
  // own branch, splitting the worker budget between them. One thread runs
  // both branches in turn, inline.
  const uint32_t branches = std::min(threads, 2u);
  const uint32_t half = std::max(1u, threads / 2);
  util::ParallelFor(branches, [&](uint32_t first) {
    for (uint32_t which = first; which < 2; which += branches) {
      if (which == 0) {
        storage->pos = spo;
        util::ParallelSort(storage->pos.begin(), storage->pos.end(),
                           PosLess(), half);
      } else {
        storage->osp = spo;
        util::ParallelSort(storage->osp.begin(), storage->osp.end(),
                           OspLess(), half);
      }
    }
  });
  storage->stats =
      TableStats::Compute(spo, storage->pos, storage->osp, threads);
  return TripleTable(storage, storage->spo, storage->pos, storage->osp);
}

TripleTable TripleTable::Borrow(std::span<const Triple> spo,
                                std::span<const Triple> pos,
                                std::span<const Triple> osp,
                                TableStats stats) {
  auto storage = std::make_shared<Storage>();
  storage->stats = std::move(stats);
  return TripleTable(std::move(storage), spo, pos, osp);
}

}  // namespace rdfsum::store
