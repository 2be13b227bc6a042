#include "store/triple_table.h"

#include <algorithm>
#include <cassert>

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

TripleTable TripleTable::BorrowFrozen(std::span<const Triple> spo,
                                      std::span<const Triple> pos,
                                      std::span<const Triple> osp,
                                      TableStats stats) {
  TripleTable t;
  t.spo_view_ = spo;
  t.pos_view_ = pos;
  t.osp_view_ = osp;
  t.stats_ = std::move(stats);
  t.frozen_ = true;
  t.borrowed_ = true;
  return t;
}

void TripleTable::Unfreeze() {
  if (!frozen_) return;
  if (borrowed_) {
    // Materialize before mutating: after this the table owns its rows and
    // the external spans are dead weight, never referenced again.
    spo_.assign(spo_view_.begin(), spo_view_.end());
    spo_view_ = pos_view_ = osp_view_ = {};
    borrowed_ = false;
  }
  frozen_ = false;
  // Eagerly invalidate everything derived from the frozen rows. The stats
  // assert is debug-only; clearing here makes "stale counts after an
  // Append" structurally unreachable in every build mode.
  stats_ = TableStats{};
  pos_.clear();
  osp_.clear();
}

void TripleTable::Append(const Triple& t) {
  Unfreeze();
  spo_.push_back(t);
}

void TripleTable::AppendAll(const std::vector<Triple>& triples) {
  Unfreeze();
  spo_.insert(spo_.end(), triples.begin(), triples.end());
}

void TripleTable::Freeze(uint32_t num_threads) {
  if (frozen_) return;
  const uint32_t threads = util::ResolveThreadCount(
      num_threads, spo_.size() / util::kMinSortItemsPerShard);
  util::ParallelSort(spo_.begin(), spo_.end(), std::less<Triple>(), threads);
  spo_.erase(std::unique(spo_.begin(), spo_.end()), spo_.end());
  // The two secondary permutations are independent: copy + sort each on its
  // own branch, splitting the worker budget between them. One thread runs
  // both branches in turn, inline.
  const uint32_t branches = std::min(threads, 2u);
  const uint32_t half = std::max(1u, threads / 2);
  util::ParallelFor(branches, [&](uint32_t first) {
    for (uint32_t which = first; which < 2; which += branches) {
      if (which == 0) {
        pos_ = spo_;
        util::ParallelSort(pos_.begin(), pos_.end(), PosLess(), half);
      } else {
        osp_ = spo_;
        util::ParallelSort(osp_.begin(), osp_.end(), OspLess(), half);
      }
    }
  });
  stats_ = TableStats::Compute(spo_, pos_, osp_, threads);
  frozen_ = true;
}

std::vector<Triple> TripleTable::Scan(const TriplePattern& pattern) const {
  auto [begin, end] = EqualRange(pattern);
  return std::vector<Triple>(begin, end);
}

bool TripleTable::Matches(const TriplePattern& pattern) const {
  auto [begin, end] = EqualRange(pattern);
  return begin != end;
}

size_t TripleTable::Count(const TriplePattern& pattern) const {
  auto [begin, end] = EqualRange(pattern);
  return static_cast<size_t>(end - begin);
}

bool TripleTable::Contains(const Triple& t) const {
  assert(frozen_);
  std::span<const Triple> rows = SpoView();
  return std::binary_search(rows.begin(), rows.end(), t);
}

}  // namespace rdfsum::store
