#ifndef RDFSUM_STORE_TRIPLE_TABLE_H_
#define RDFSUM_STORE_TRIPLE_TABLE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "rdf/triple.h"
#include "store/table_stats.h"

namespace rdfsum::store {

/// A triple pattern for scans: nullopt positions are wildcards.
struct TriplePattern {
  std::optional<TermId> s;
  std::optional<TermId> p;
  std::optional<TermId> o;
};

/// The three sorted permutations a frozen table maintains. Every subset of
/// bound positions is a *prefix* of one of them — (s), (s,p) and (s,p,o) of
/// SPO; (p) and (p,o) of POS; (o) and (o,s) of OSP — so every pattern is
/// served from one contiguous index range, never a filtered scan.
enum class IndexKind : uint8_t { kSpo, kPos, kOsp };

const char* IndexKindName(IndexKind kind);  // "SPO", "POS", "OSP"

/// A resumable position inside one pattern's contiguous index range: the
/// binary search happens once at TripleTable::OpenScan and every Next() is a
/// pointer bump, so a pull-based executor can interleave thousands of scans
/// without re-searching per pull. Borrows the table's index storage — valid
/// only while the table stays frozen and unmodified.
class ScanCursor {
 public:
  ScanCursor() = default;

  /// Copies the next matching triple into *t; false when exhausted.
  bool Next(Triple* t) {
    if (cur_ == end_) return false;
    *t = *cur_++;
    return true;
  }

  size_t remaining() const { return static_cast<size_t>(end_ - cur_); }
  bool done() const { return cur_ == end_; }

 private:
  friend class TripleTable;
  ScanCursor(const Triple* cur, const Triple* end) : cur_(cur), end_(end) {}

  const Triple* cur_ = nullptr;
  const Triple* end_ = nullptr;
};

/// Columnar table of encoded triples with three sorted permutation indexes
/// (SPO, POS, OSP), playing the role of the paper's PostgreSQL `triples`
/// table (§6): sequential scans plus indexed pattern lookups.
///
/// Usage: Append() rows, then Freeze() to build the indexes; scans require a
/// frozen table. Append after Freeze() un-freezes the table and eagerly
/// discards the secondary indexes and statistics, so stale counts can never
/// be served — not even in builds where the asserts compile away.
///
/// **Borrow mode.** BorrowFrozen() builds a table whose permutations are
/// read-only spans over storage owned elsewhere — the 64-byte-aligned
/// sections of an mmap'd frozen image (store::MmapStore). A borrowed table
/// is frozen from birth and serves every read path (Scan/Count/cursors)
/// straight off the mapping, zero-copy. Mutation (Append) first
/// materializes the borrowed rows into owned storage via Unfreeze(), so
/// the borrowing is invisible to callers.
class TripleTable {
 public:
  void Append(const Triple& t);
  void AppendAll(const std::vector<Triple>& triples);

  /// A frozen table over externally owned, already-sorted permutations of
  /// the same deduplicated triple set (`spo` by (s,p,o), `pos` by (p,o,s),
  /// `osp` by (o,s,p)) and their precomputed statistics. The spans must
  /// outlive the table (and any cursor opened on it) unless Unfreeze() is
  /// called first. Sortedness is the caller's contract — the frozen-image
  /// reader validates it before handing spans here.
  static TripleTable BorrowFrozen(std::span<const Triple> spo,
                                  std::span<const Triple> pos,
                                  std::span<const Triple> osp,
                                  TableStats stats);

  /// Sorts the three permutations, removes duplicate rows, and computes the
  /// table statistics (see stats()). No-op on an already-frozen table (in
  /// particular it never touches a borrowed table's external storage).
  ///
  /// The SPO sort runs sharded (util/parallel_sort.h), then the POS and OSP
  /// copies sort concurrently with half the workers each, and the
  /// statistics reduce per-range. 1 = one shard on the calling thread (no
  /// pool task is submitted), 0 = all available CPUs; the frozen
  /// permutations and stats are byte-identical at every thread count (the
  /// sort comparators key on all three triple components, so equal
  /// elements are identical rows).
  void Freeze(uint32_t num_threads = 1);
  bool frozen() const { return frozen_; }
  bool borrowed() const { return borrowed_; }

  /// Leaves the frozen state, eagerly dropping the secondary indexes and
  /// statistics so they can never be served stale (Append/AppendAll call
  /// this implicitly; it is the enforcement of the staleness invariant in
  /// builds where the asserts compile away). A borrowed table first copies
  /// its rows into owned storage, after which the external spans are no
  /// longer referenced. No-op on an unfrozen table.
  void Unfreeze();

  size_t size() const { return SpoView().size(); }
  bool empty() const { return SpoView().empty(); }

  /// Rows in SPO order (frozen) or insertion order (unfrozen). Borrow-mode
  /// note: the span aliases external storage; it is invalidated by
  /// Append/Unfreeze like a cursor.
  std::span<const Triple> rows() const { return SpoView(); }

  /// One sorted permutation of a frozen table — the serialization surface
  /// the frozen-image writer walks. Requires frozen().
  std::span<const Triple> Permutation(IndexKind kind) const {
    assert(frozen_ && "permutations require a frozen table");
    switch (kind) {
      case IndexKind::kPos:
        return PosView();
      case IndexKind::kOsp:
        return OspView();
      case IndexKind::kSpo:
        break;
    }
    return SpoView();
  }

  /// The index that serves a pattern with the given bound positions.
  static IndexKind ChooseIndex(bool s_bound, bool p_bound, bool o_bound);
  static IndexKind ChooseIndex(const TriplePattern& pattern) {
    return ChooseIndex(pattern.s.has_value(), pattern.p.has_value(),
                       pattern.o.has_value());
  }

  /// Visits every triple matching `pattern` without materializing results:
  /// invokes `fn(const Triple&)` per match; `fn` returns false to stop the
  /// scan early. Requires frozen(). This is the allocation-free primitive
  /// the query evaluators build on. Matches are emitted straight from the
  /// contiguous range of the chosen index — no residual filtering.
  template <typename Fn>
  void Scan(const TriplePattern& pattern, Fn&& fn) const;

  /// Positions a ScanCursor at the start of `pattern`'s match range: one
  /// O(log n) binary search, then each Next() is a pointer bump. Requires
  /// frozen(); the cursor is invalidated by Append/Freeze.
  ScanCursor OpenScan(const TriplePattern& pattern) const {
    auto [begin, end] = EqualRange(pattern);
    return ScanCursor(begin, end);
  }

  /// The contiguous range of `pattern`'s matches in the index ChooseIndex
  /// picks, as a borrowed span in index order. Requires frozen(); the span
  /// aliases the permutation storage and is invalidated like a cursor.
  ///
  /// This is the morsel-splitting surface of the parallel executor: because
  /// every pattern's matches are one contiguous sorted range, the range
  /// splits into fixed-size morsels for free — `MatchSpan(q).subspan(b, n)`
  /// — and concatenating per-morsel outputs in morsel order reproduces the
  /// sequential scan exactly.
  std::span<const Triple> MatchSpan(const TriplePattern& pattern) const {
    auto [begin, end] = EqualRange(pattern);
    return {begin, static_cast<size_t>(end - begin)};
  }

  /// Positions a ScanCursor over a sub-range [begin_offset, end_offset) of
  /// `pattern`'s match range (offsets clamped to the range length) — one
  /// morsel of the scan. OpenScanSlice(q, 0, SIZE_MAX) == OpenScan(q).
  ScanCursor OpenScanSlice(const TriplePattern& pattern, size_t begin_offset,
                           size_t end_offset) const {
    std::span<const Triple> range = MatchSpan(pattern);
    end_offset = std::min(end_offset, range.size());
    begin_offset = std::min(begin_offset, end_offset);
    return ScanCursor(range.data() + begin_offset, range.data() + end_offset);
  }

  /// Returns all triples matching `pattern`. Requires frozen(). Prefer the
  /// visitor overload on hot paths; this one allocates a vector per call.
  std::vector<Triple> Scan(const TriplePattern& pattern) const;

  /// Returns whether at least one triple matches `pattern`. O(log n):
  /// non-emptiness of the index range, no scan. Requires frozen().
  bool Matches(const TriplePattern& pattern) const;

  /// Number of triples matching `pattern`. O(log n): index-range length
  /// arithmetic (lower_bound/upper_bound on the chosen permutation), exact
  /// for every bound-position combination. Requires frozen(). This is the
  /// primitive the planner's cost model and TableStats build on.
  size_t Count(const TriplePattern& pattern) const;

  /// Exact membership test. Requires frozen().
  bool Contains(const Triple& t) const;

  /// Table-wide statistics (per-predicate counts and distinct
  /// subject/object counts), computed at Freeze() time. Requires frozen().
  const TableStats& stats() const {
    assert(frozen_ && "stats require a frozen table");
    return stats_;
  }

 private:
  struct PosLess {
    bool operator()(const Triple& a, const Triple& b) const {
      if (a.p != b.p) return a.p < b.p;
      if (a.o != b.o) return a.o < b.o;
      return a.s < b.s;
    }
  };
  struct OspLess {
    bool operator()(const Triple& a, const Triple& b) const {
      if (a.o != b.o) return a.o < b.o;
      if (a.s != b.s) return a.s < b.s;
      return a.p < b.p;
    }
  };

  /// The contiguous range of `pattern`'s matches in the index ChooseIndex
  /// picks. Requires frozen().
  std::pair<const Triple*, const Triple*> EqualRange(
      const TriplePattern& pattern) const;

  // The permutation actually in effect: borrowed spans or owned vectors.
  std::span<const Triple> SpoView() const {
    return borrowed_ ? spo_view_ : std::span<const Triple>(spo_);
  }
  std::span<const Triple> PosView() const {
    return borrowed_ ? pos_view_ : std::span<const Triple>(pos_);
  }
  std::span<const Triple> OspView() const {
    return borrowed_ ? osp_view_ : std::span<const Triple>(osp_);
  }

  std::vector<Triple> spo_;  // primary storage, SPO-sorted when frozen
  std::vector<Triple> pos_;  // sorted by (p, o, s)
  std::vector<Triple> osp_;  // sorted by (o, s, p)
  // Borrow mode: external frozen permutations (see BorrowFrozen).
  std::span<const Triple> spo_view_, pos_view_, osp_view_;
  TableStats stats_;  // valid iff frozen_
  bool frozen_ = false;
  bool borrowed_ = false;
};

inline std::pair<const Triple*, const Triple*> TripleTable::EqualRange(
    const TriplePattern& q) const {
  assert(frozen_ && "pattern lookups require a frozen table");
  constexpr TermId kMax = ~TermId{0};
  // Bound positions pin lo == hi == value; wildcards span [0, kMax]. The
  // chosen index has the bound positions as a key prefix, so
  // lower/upper_bound under its comparator yield the exact match range.
  const Triple lo{q.s.value_or(0), q.p.value_or(0), q.o.value_or(0)};
  const Triple hi{q.s.value_or(kMax), q.p.value_or(kMax), q.o.value_or(kMax)};
  auto range = [&](std::span<const Triple> index, auto less) {
    const Triple* begin =
        std::lower_bound(index.data(), index.data() + index.size(), lo, less);
    const Triple* end =
        std::upper_bound(begin, index.data() + index.size(), hi, less);
    return std::make_pair(begin, end);
  };
  switch (ChooseIndex(q)) {
    case IndexKind::kPos:
      return range(PosView(), PosLess());
    case IndexKind::kOsp:
      return range(OspView(), OspLess());
    case IndexKind::kSpo:
      break;
  }
  return range(SpoView(), std::less<Triple>());
}

template <typename Fn>
void TripleTable::Scan(const TriplePattern& q, Fn&& fn) const {
  auto [begin, end] = EqualRange(q);
  for (const Triple* it = begin; it != end; ++it) {
    if (!fn(*it)) return;
  }
}

}  // namespace rdfsum::store

#endif  // RDFSUM_STORE_TRIPLE_TABLE_H_
