#ifndef RDFSUM_UTIL_ROW_SET_H_
#define RDFSUM_UTIL_ROW_SET_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "rdf/triple.h"

namespace rdfsum::util {

/// Deduplicating set of fixed-width packed TermId rows: all rows live packed
/// in one arena and an open-addressing table stores row ordinals, so the hot
/// path does one hash probe and no per-row allocation (the std::set of
/// vectors it replaced allocated per row and compared in O(width log n)).
///
/// Shared by Graph as its triple-membership index (width 3), by the query
/// layer for projection dedup (Distinct), and as the key directory of each
/// hash-join build side: InsertOrFind hands back a dense ordinal per
/// distinct key that callers index side arrays with.
///
/// A width of 0 models the boolean projection: there is exactly one possible
/// (empty) row. Capacity is bounded by ~4B rows (ordinals are uint32_t).
class RowSet {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  explicit RowSet(size_t width) : width_(width) { slots_.resize(64, 0); }

  size_t width() const { return width_; }
  size_t size() const { return count_; }
  const TermId* row(size_t i) const { return arena_.data() + i * width_; }

  /// Returns true iff the row was newly inserted.
  bool Insert(const TermId* row_data) {
    return InsertOrFind(row_data).second;
  }

  /// Inserts the row if absent; returns its dense ordinal (insertion order,
  /// 0-based) and whether it was newly inserted.
  std::pair<uint32_t, bool> InsertOrFind(const TermId* row_data) {
    if (width_ == 0) {
      if (count_ > 0) return {0, false};
      ++count_;
      return {0, true};
    }
    const uint64_t h = Hash(row_data);
    const size_t mask = slots_.size() - 1;
    size_t idx = static_cast<size_t>(h) & mask;
    while (slots_[idx] != 0) {
      if (std::equal(row_data, row_data + width_, row(slots_[idx] - 1))) {
        return {slots_[idx] - 1, false};
      }
      idx = (idx + 1) & mask;
    }
    arena_.insert(arena_.end(), row_data, row_data + width_);
    const uint32_t ordinal = static_cast<uint32_t>(count_);
    slots_[idx] = static_cast<uint32_t>(++count_);
    if (count_ * 10 >= slots_.size() * 7) Grow();
    return {ordinal, true};
  }

  /// Sizes the arena and table for `n` rows; never shrinks them.
  void Reserve(size_t n) {
    arena_.reserve(n * width_);
    size_t want = slots_.size();
    while (n * 10 >= want * 7) want *= 2;
    if (want > slots_.size()) Rehash(want);
  }

  /// Ordinal of the row, or kNotFound. Never mutates.
  uint32_t Find(const TermId* row_data) const {
    if (width_ == 0) return count_ > 0 ? 0 : kNotFound;
    const uint64_t h = Hash(row_data);
    const size_t mask = slots_.size() - 1;
    size_t idx = static_cast<size_t>(h) & mask;
    while (slots_[idx] != 0) {
      if (std::equal(row_data, row_data + width_, row(slots_[idx] - 1))) {
        return slots_[idx] - 1;
      }
      idx = (idx + 1) & mask;
    }
    return kNotFound;
  }

 private:
  uint64_t Hash(const TermId* row_data) const {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (size_t i = 0; i < width_; ++i) {
      h ^= row_data[i];
      h *= 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 29;
    }
    return h;
  }

  void Grow() { Rehash(slots_.size() * 2); }

  void Rehash(size_t slot_count) {
    slots_.assign(slot_count, 0);
    const size_t mask = slots_.size() - 1;
    for (size_t r = 0; r < count_; ++r) {
      size_t idx = static_cast<size_t>(Hash(row(r))) & mask;
      while (slots_[idx] != 0) idx = (idx + 1) & mask;
      slots_[idx] = static_cast<uint32_t>(r + 1);
    }
  }

  size_t width_;
  size_t count_ = 0;
  std::vector<TermId> arena_;    // count_ * width_ packed ids
  std::vector<uint32_t> slots_;  // open addressing; row ordinal + 1, 0 empty
};

}  // namespace rdfsum::util

#endif  // RDFSUM_UTIL_ROW_SET_H_
