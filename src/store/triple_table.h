#ifndef RDFSUM_STORE_TRIPLE_TABLE_H_
#define RDFSUM_STORE_TRIPLE_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
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

/// The three sorted permutations a table maintains. Every subset of bound
/// positions is a *prefix* of one of them — (s), (s,p) and (s,p,o) of SPO;
/// (p) and (p,o) of POS; (o) and (o,s) of OSP — so every pattern is served
/// from one contiguous index range, never a filtered scan.
enum class IndexKind : uint8_t { kSpo, kPos, kOsp };

const char* IndexKindName(IndexKind kind);  // "SPO", "POS", "OSP"

/// Table of encoded triples with three sorted permutation indexes (SPO,
/// POS, OSP), playing the role of the paper's PostgreSQL `triples` table
/// (§6): loaded once, then only read through indexed pattern lookups.
///
/// A table is immutable. It is either built once from its rows (Build) or
/// borrowed once over permutations sorted elsewhere (Borrow: the sections
/// of an mmap'd frozen image, store::MmapStore). Either way the three
/// permutations are spans. A built table keeps its vectors and statistics
/// in shared immutable storage the spans point into, so a copy is O(1) and
/// every span handed out stays valid while any copy of the table lives.
/// Nothing can change a table after its statistics exist, so they are
/// never stale.
///
/// MatchSpan is the one read primitive: every pattern's matches are one
/// contiguous range of the index ChooseIndex picks. Count is its size.
class TripleTable {
 public:
  /// The empty table (Build({})).
  TripleTable();

  /// Sorts `rows` into the three permutations, removes duplicate rows, and
  /// computes the table statistics (see stats()).
  ///
  /// Build runs on the calling thread. The permutations are sorted by
  /// counting: SPO by stable 16-bit-digit passes (keys o, then p, then s; a
  /// pass whose digit every row shares is skipped), deduplicated, then OSP
  /// as stable passes by o over SPO and POS as stable passes by p over OSP.
  /// Build holds one scratch copy of the rows while it sorts and frees it
  /// before it returns.
  static TripleTable Build(std::vector<Triple> rows);

  /// A table over externally owned permutations of one deduplicated triple
  /// set (`spo` strictly sorted by (s,p,o), `pos` by (p,o,s), `osp` by
  /// (o,s,p)) and their precomputed statistics. The spans must outlive the
  /// table and every copy of it. That the three spans are sorted and hold
  /// the same triples is the caller's contract: the frozen-image reader
  /// (FrozenImage::Attach) validates both before handing spans here.
  static TripleTable Borrow(std::span<const Triple> spo,
                            std::span<const Triple> pos,
                            std::span<const Triple> osp, TableStats stats);

  size_t size() const { return Permutation(IndexKind::kSpo).size(); }
  bool empty() const { return size() == 0; }

  /// One sorted permutation — the serialization surface the frozen-image
  /// writer walks.
  std::span<const Triple> Permutation(IndexKind kind) const {
    return perms_[static_cast<size_t>(kind)];
  }

  /// The bytes of `kind`'s leading-key directory (see MatchSpan): at most
  /// 4 per row of the permutation, whatever its id range.
  size_t DirectoryBytes(IndexKind kind) const {
    return directories_[static_cast<size_t>(kind)].starts.size_bytes();
  }

  /// The index that serves a pattern with the given bound positions. A
  /// pattern binds its index's leading key unless it binds nothing.
  static IndexKind ChooseIndex(bool s_bound, bool p_bound, bool o_bound) {
    if (s_bound && p_bound && o_bound) return IndexKind::kSpo;  // exact row
    if (s_bound && o_bound) return IndexKind::kOsp;  // (o, s) prefix
    if (s_bound) return IndexKind::kSpo;             // (s[, p]) prefix
    if (p_bound) return IndexKind::kPos;             // (p[, o]) prefix
    if (o_bound) return IndexKind::kOsp;             // (o) prefix
    return IndexKind::kSpo;                          // full scan
  }
  static IndexKind ChooseIndex(const TriplePattern& pattern) {
    return ChooseIndex(pattern.s.has_value(), pattern.p.has_value(),
                       pattern.o.has_value());
  }

  /// The contiguous range of `pattern`'s matches in the index ChooseIndex
  /// picks, in index order, with no residual filtering. The index's
  /// leading-key directory gives the lead constant's bucket of rows in
  /// O(1); a binary search runs only inside that bucket, and only when more
  /// than the lead is bound or the bucket holds several lead ids. The span
  /// aliases the table's permutation storage.
  ///
  /// This is also the morsel-splitting surface of the parallel executor:
  /// the range splits into fixed-size morsels for free —
  /// `MatchSpan(q).subspan(b, n)` — and concatenating per-morsel outputs in
  /// morsel order reproduces the sequential scan exactly.
  ///
  /// Starts on a cache line: every index nested-loop probe calls it, and
  /// perfbench `drain`'s p50 moved by 15-25% with its offset within a
  /// 64-byte line whenever unrelated code linked before it changed size.
  [[gnu::aligned(64)]] std::span<const Triple> MatchSpan(
      const TriplePattern& pattern) const;

  /// Number of triples matching `pattern`: MatchSpan(pattern).size(), exact
  /// for every bound-position combination. The primitive the planner's
  /// cost model builds on.
  size_t Count(const TriplePattern& pattern) const {
    return MatchSpan(pattern).size();
  }

  /// Table-wide statistics (per-predicate counts and distinct
  /// subject/object counts), computed once at Build (or restored at
  /// Borrow).
  const TableStats& stats() const { return storage_->stats; }

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

  /// What a table owns: the built permutations (empty when borrowed), the
  /// statistics and the directories' bucket starts. Shared by every copy,
  /// never mutated once the table is constructed.
  struct Storage {
    std::vector<Triple> spo, pos, osp;
    TableStats stats;
    std::vector<uint32_t> bucket_starts[3];  // indexed by IndexKind
  };

  /// The leading-key directory of one permutation (lead s of SPO, p of POS,
  /// o of OSP). A lead id in [min_lead, min_lead + lead_range] falls in
  /// bucket (id - min_lead) >> shift, whose rows are [starts[b],
  /// starts[b + 1]), the last bucket ending at the permutation's end.
  /// `shift` is the smallest that keeps the bucket count at most the row
  /// count, so dense ids get one id per bucket and the directory never
  /// exceeds 4 bytes per row, whatever the id range. An empty permutation
  /// has no buckets.
  struct Directory {
    TermId min_lead = 0;
    TermId lead_range = 0;
    uint32_t shift = 0;
    std::span<const uint32_t> starts;
  };

  /// Derives the three directories into storage->bucket_starts with one
  /// pass over each permutation: the one constructor Build and Borrow share.
  TripleTable(std::shared_ptr<Storage> storage, std::span<const Triple> spo,
              std::span<const Triple> pos, std::span<const Triple> osp);

  std::shared_ptr<const Storage> storage_;
  std::span<const Triple> perms_[3];  // indexed by IndexKind
  Directory directories_[3];          // indexed by IndexKind
};

inline std::span<const Triple> TripleTable::MatchSpan(
    const TriplePattern& q) const {
  const IndexKind kind = ChooseIndex(q);
  const std::span<const Triple> index = Permutation(kind);
  const std::optional<TermId>& lead =
      kind == IndexKind::kSpo ? q.s : kind == IndexKind::kPos ? q.p : q.o;
  if (!lead) return index;  // nothing bound: the whole table
  const Directory& dir = directories_[static_cast<size_t>(kind)];
  // Below min_lead the offset wraps past lead_range.
  const TermId offset = *lead - dir.min_lead;
  if (index.empty() || offset > dir.lead_range) return index.first(0);
  const size_t b = offset >> dir.shift;
  const Triple* begin = index.data() + dir.starts[b];
  const Triple* end = index.data() + (b + 1 < dir.starts.size()
                                          ? dir.starts[b + 1]
                                          : index.size());
  const int bound = q.s.has_value() + q.p.has_value() + q.o.has_value();
  if (bound == 1 && dir.shift == 0) return {begin, end};
  constexpr TermId kMax = ~TermId{0};
  // Bound positions pin lo == hi == value; wildcards span [0, kMax]. The
  // chosen index has the bound positions as a key prefix, so
  // lower/upper_bound under its comparator yield the exact match range.
  const Triple lo{q.s.value_or(0), q.p.value_or(0), q.o.value_or(0)};
  const Triple hi{q.s.value_or(kMax), q.p.value_or(kMax), q.o.value_or(kMax)};
  auto range = [&](auto less) {
    begin = std::lower_bound(begin, end, lo, less);
    end = std::upper_bound(begin, end, hi, less);
    return std::span<const Triple>(begin, end);
  };
  switch (kind) {
    case IndexKind::kPos:
      return range(PosLess());
    case IndexKind::kOsp:
      return range(OspLess());
    case IndexKind::kSpo:
      break;
  }
  return range(std::less<Triple>());
}

}  // namespace rdfsum::store

#endif  // RDFSUM_STORE_TRIPLE_TABLE_H_
