#ifndef RDFSUM_UTIL_SPAN_INTERNER_H_
#define RDFSUM_UTIL_SPAN_INTERNER_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace rdfsum::util {

/// Interns variable-length sequences of words into dense ids 0, 1, 2, ...
/// in first-seen order. Each distinct sequence is stored once, back to back
/// in one arena, and an open-addressing table of ids finds it: a probe
/// compares the candidate word for word whenever the cached hashes agree,
/// so equal sequences always share an id and a hash collision never merges
/// two. RowSet is the fixed-width counterpart.
///
/// Shared by DenseGraph (class sets → class-set ids) and the bisimulation
/// partition (node signatures → colors).
template <typename Word>
class SpanInterner {
 public:
  uint32_t size() const { return static_cast<uint32_t>(hash_.size()); }

  /// The id of `seq`, assigning the next one if it is new.
  uint32_t Intern(std::span<const Word> seq) {
    if (2 * (hash_.size() + 1) > slots_.size()) Rehash(2 * slots_.size());
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (Word word : seq) {
      h = (h ^ word) * 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 31;
    }
    const size_t mask = slots_.size() - 1;
    for (size_t idx = h & mask;; idx = (idx + 1) & mask) {
      const uint32_t id = slots_[idx];
      if (id == kEmpty) {
        slots_[idx] = size();
        hash_.push_back(h);
        arena_.insert(arena_.end(), seq.begin(), seq.end());
        begin_.push_back(arena_.size());
        return slots_[idx];
      }
      if (hash_[id] == h &&
          std::equal(seq.begin(), seq.end(), arena_.begin() + begin_[id],
                     arena_.begin() + begin_[id + 1])) {
        return id;
      }
    }
  }

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  void Rehash(size_t slot_count) {
    slots_.assign(slot_count, kEmpty);
    const size_t mask = slot_count - 1;
    for (uint32_t id = 0; id < size(); ++id) {
      size_t idx = hash_[id] & mask;
      while (slots_[idx] != kEmpty) idx = (idx + 1) & mask;
      slots_[idx] = id;
    }
  }

  std::vector<uint32_t> slots_ = std::vector<uint32_t>(16, kEmpty);
  std::vector<uint64_t> hash_;     // by id
  std::vector<size_t> begin_ = {0};  // by id, plus an end sentinel
  std::vector<Word> arena_;        // the sequences, back to back
};

}  // namespace rdfsum::util

#endif  // RDFSUM_UTIL_SPAN_INTERNER_H_
