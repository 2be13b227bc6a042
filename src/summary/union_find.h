#ifndef RDFSUM_SUMMARY_UNION_FIND_H_
#define RDFSUM_SUMMARY_UNION_FIND_H_

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace rdfsum::summary {

/// Disjoint-set forest over dense indices 0..size()-1. Union hooks the
/// larger root under the smaller and Find halves the path it walks, so
/// parent ids strictly decrease along every path and every set's root is
/// its minimum element id. Which elements share a root depends only on the
/// set of Union calls, never on their order.
class UnionFind {
 public:
  explicit UnionFind(uint32_t n = 0) { Add(n); }

  /// Adds `count` singleton sets; returns the index of the first one.
  uint32_t Add(uint32_t count = 1) {
    const uint32_t first = size();
    parent_.resize(first + count);
    std::iota(parent_.begin() + first, parent_.end(), first);
    return first;
  }

  uint32_t size() const { return static_cast<uint32_t>(parent_.size()); }

  /// Root (minimum element id) of x's set.
  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Merges the sets of a and b.
  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);
    parent_[b] = a;
  }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace rdfsum::summary

#endif  // RDFSUM_SUMMARY_UNION_FIND_H_
