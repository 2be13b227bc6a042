#include "store/triple_table.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace rdfsum::store {
namespace {

/// Stable LSD counting sorts of triples by 16-bit digits of their ids,
/// sharing one scratch buffer of the rows' size.
class CountingSorter {
 public:
  /// Writes `src` to *out, sorted stably by Keys with the last key most
  /// significant: two passes per key, by the low then the high 16 bits of
  /// the id minus the key's smallest id (an order-preserving shift that
  /// keeps the histograms as small as the ids' range). A pass whose digit
  /// every row shares would move nothing and is skipped. `src` may be
  /// *out's own rows. Requires a non-empty `src`.
  template <TermId Triple::*... Keys>
  void Sort(std::span<const Triple> src, std::vector<Triple>* out) {
    constexpr size_t kDigits = 2 * sizeof...(Keys);
    // Every pass reorders the same rows, so one read finds each key's id
    // range and one more counts every pass's digit: digit 2k is the low
    // and digit 2k + 1 the high 16 bits of key k, less lo[k].
    const TermId first[] = {src.front().*Keys...};
    TermId lo[] = {src.front().*Keys...};
    TermId hi[] = {src.front().*Keys...};
    for (const Triple& t : src) {
      size_t k = 0;
      ((lo[k] = std::min(lo[k], t.*Keys), hi[k] = std::max(hi[k], t.*Keys),
        ++k),
       ...);
    }
    auto digit = [&lo](TermId id, size_t d) {
      return ((id - lo[d / 2]) >> (d % 2 * 16)) & kMask;
    };
    std::vector<size_t> counts[kDigits];
    for (size_t d = 0; d < kDigits; d += 2) {
      const TermId range = hi[d / 2] - lo[d / 2];
      counts[d].resize(std::min(range, kMask) + 1);
      counts[d + 1].resize((range >> 16) + 1);
    }
    for (const Triple& t : src) {
      size_t d = 0;
      ((++counts[d][digit(t.*Keys, d)], ++counts[d + 1][digit(t.*Keys, d + 1)],
        d += 2),
       ...);
    }
    bool moves[kDigits];
    size_t num_moving = 0;
    for (size_t d = 0; d < kDigits; ++d) {
      moves[d] = counts[d][digit(first[d / 2], d)] != src.size();
      num_moving += moves[d];
    }

    // The passes alternate between *out and the scratch buffer, starting
    // with the one `src` is not, so a sort needs the scratch only for a
    // second moving pass (for any, when `src` is *out). A new *out takes
    // the scratch's memory rather than allocating its own: a buffer is
    // allocated only when a sort needs one more, and none is freed and
    // allocated again in between.
    const bool in_place = out->data() == src.data();
    if (!in_place && out->empty()) out->swap(scratch_);
    if (num_moving > (in_place ? 0 : 1)) scratch_.resize(src.size());
    if (!in_place) out->resize(src.size());
    std::span<const Triple> rows = src;
    size_t d = 0;
    (..., (Pass<Keys>(lo[d / 2], moves[d], 0, &counts[d], &rows, out),
           Pass<Keys>(lo[d / 2], moves[d + 1], 16, &counts[d + 1], &rows, out),
           d += 2));
    if (rows.data() == scratch_.data()) {
      out->swap(scratch_);
    } else if (rows.data() != out->data()) {
      std::copy(src.begin(), src.end(), out->begin());
    }
  }

 private:
  static constexpr TermId kMask = 0xFFFF;

  /// One stable counting pass of *rows, unless `moves` is false, by the
  /// digit at `shift` of Key less `lo`, whose histogram is *counts: into
  /// whichever of *out and scratch_ *rows is not; *rows then spans it.
  template <TermId Triple::*Key>
  void Pass(TermId lo, bool moves, int shift, std::vector<size_t>* counts,
            std::span<const Triple>* rows, std::vector<Triple>* out) {
    if (!moves) return;
    size_t start = 0;  // counts become each bucket's next write position
    for (size_t& n : *counts) start += std::exchange(n, start);
    Triple* to = rows->data() == out->data() ? scratch_.data() : out->data();
    for (const Triple& t : *rows) {
      to[(*counts)[((t.*Key - lo) >> shift) & kMask]++] = t;
    }
    *rows = {to, rows->size()};
  }

  std::vector<Triple> scratch_;
};

}  // namespace

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

TripleTable::TripleTable() : TripleTable(Build({})) {}

TripleTable TripleTable::Build(std::vector<Triple> rows) {
  auto storage = std::make_shared<Storage>();
  std::vector<Triple>& spo = storage->spo;
  spo = std::move(rows);
  if (!spo.empty()) {
    // LSD passes: the key sorted last is the most significant, and ties
    // keep the order the earlier passes left. So (s, p, o) order is three
    // keys, o first; OSP is SPO stably sorted by o (ties in (s, p) order);
    // POS is OSP stably sorted by p (ties in (o, s) order).
    CountingSorter sorter;
    sorter.Sort<&Triple::o, &Triple::p, &Triple::s>(spo, &spo);
    spo.erase(std::unique(spo.begin(), spo.end()), spo.end());
    sorter.Sort<&Triple::o>(spo, &storage->osp);
    sorter.Sort<&Triple::p>(storage->osp, &storage->pos);
  }
  storage->stats = TableStats::Compute(spo, storage->pos, storage->osp);
  return TripleTable(storage, storage->spo, storage->pos, storage->osp);
}

TripleTable::TripleTable(std::shared_ptr<Storage> storage,
                         std::span<const Triple> spo,
                         std::span<const Triple> pos,
                         std::span<const Triple> osp)
    : perms_{spo, pos, osp} {
  static constexpr TermId Triple::*kLead[] = {&Triple::s, &Triple::p,
                                              &Triple::o};
  for (size_t k = 0; k < 3; ++k) {
    const std::span<const Triple> perm = perms_[k];
    if (perm.empty()) continue;
    if (perm.size() > UINT32_MAX) {
      throw std::length_error("TripleTable: more than 2^32 - 1 rows");
    }
    const TermId Triple::*lead = kLead[k];
    Directory& dir = directories_[k];
    dir.min_lead = perm.front().*lead;
    dir.lead_range = perm.back().*lead - dir.min_lead;
    while ((uint64_t{dir.lead_range} >> dir.shift) + 1 > perm.size()) {
      ++dir.shift;
    }
    // One pass in lead order: an empty bucket starts where the next
    // non-empty one does.
    std::vector<uint32_t>& starts = storage->bucket_starts[k];
    starts.resize((dir.lead_range >> dir.shift) + 1);
    size_t next = 0;
    for (uint32_t i = 0; i < perm.size(); ++i) {
      const size_t b = (perm[i].*lead - dir.min_lead) >> dir.shift;
      while (next <= b) starts[next++] = i;
    }
    dir.starts = starts;
  }
  storage_ = std::move(storage);
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
