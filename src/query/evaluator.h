#ifndef RDFSUM_QUERY_EVALUATOR_H_
#define RDFSUM_QUERY_EVALUATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "query/bgp.h"
#include "query/executor.h"
#include "query/plan.h"
#include "rdf/graph.h"
#include "store/triple_table.h"
#include "util/statusor.h"

namespace rdfsum::query {

/// One answer row: the bindings of the distinguished variables, in query
/// head order, borrowed from the evaluator's dictionary. A row holds one
/// `const Term*` per column (inline up to kInlineColumns, on the heap
/// beyond), so decoding copies no Term and, for rows of up to
/// kInlineColumns columns, allocates nothing.
///
/// Lifetime: that of the references Dictionary::Decode hands out. A row
/// stays valid while its dictionary lives; for an owned dictionary only
/// until that dictionary interns another term (Encode, MintNodeUri — so
/// Summarize, and constructing a SummaryPrunedEvaluator, over the same
/// graph end it). View-mode base terms stay valid for the dictionary's
/// lifetime. Copy the Terms out of a row that must outlive that.
///
/// A copy borrows the same terms. `==` compares the terms by value, so rows
/// from two dictionaries compare equal when they bind the same terms.
class Row {
 public:
  static constexpr size_t kInlineColumns = 4;

  /// Iterates the columns as `const Term&`.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Term;
    using difference_type = std::ptrdiff_t;
    using pointer = const Term*;
    using reference = const Term&;

    const_iterator() = default;
    explicit const_iterator(const Term* const* at) : at_(at) {}
    reference operator*() const { return **at_; }
    pointer operator->() const { return *at_; }
    const_iterator& operator++() {
      ++at_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++at_;
      return before;
    }
    bool operator==(const const_iterator& other) const {
      return at_ == other.at_;
    }

   private:
    const Term* const* at_ = nullptr;
  };

  Row() = default;
  Row(const Row& other) { *this = other; }
  Row& operator=(const Row& other) {
    if (this == &other) return *this;
    size_ = 0;
    reserve(other.size_);
    std::copy_n(other.data(), other.size_, data());
    size_ = other.size_;
    return *this;
  }
  Row(Row&& other) noexcept { *this = std::move(other); }
  Row& operator=(Row&& other) noexcept {
    if (this == &other) return *this;
    spill_ = std::move(other.spill_);
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (!spill_) std::copy_n(other.inline_, size_, inline_);
    other.size_ = 0;
    other.capacity_ = kInlineColumns;
    return *this;
  }

  /// Appends a column bound to `term`, which must outlive the row.
  void push_back(const Term& term) {
    if (size_ == capacity_) reserve(capacity_ * 2);
    data()[size_++] = &term;
  }
  void push_back(const Term&&) = delete;  // would dangle

  void reserve(size_t n) {
    if (n <= capacity_) return;
    auto grown = std::make_unique<const Term*[]>(n);
    std::copy_n(data(), size_, grown.get());
    spill_ = std::move(grown);
    capacity_ = n;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Term& operator[](size_t i) const { return *data()[i]; }
  const Term& front() const { return *data()[0]; }
  const_iterator begin() const { return const_iterator(data()); }
  const_iterator end() const { return const_iterator(data() + size_); }

  bool operator==(const Row& other) const {
    if (size_ != other.size_) return false;
    const Term* const* a = data();
    const Term* const* b = other.data();
    for (size_t i = 0; i < size_; ++i) {
      if (a[i] != b[i] && !(*a[i] == *b[i])) return false;
    }
    return true;
  }

 private:
  const Term** data() { return spill_ ? spill_.get() : inline_; }
  const Term* const* data() const { return spill_ ? spill_.get() : inline_; }

  const Term* inline_[kInlineColumns] = {};
  std::unique_ptr<const Term*[]> spill_;  // set once the row outgrows inline_
  size_t size_ = 0;
  size_t capacity_ = kInlineColumns;
};

struct EvaluatorOptions {
  /// How Plan()/Open()/Explain() order the patterns by default; per-call
  /// overloads can override it.
  PlannerMode planner = PlannerMode::kGreedy;
  /// Enables PlannerMode::kSummary refinement. Not owned; must outlive the
  /// evaluator and estimate over the same graph.
  const summary::CardinalityEstimator* estimator = nullptr;
};

/// Per-Open knobs for the streaming API: limit/offset (applied after
/// dedup; the tree stops pulling once the quota fills) and the hash-join
/// policy. Exactly the executor's options — aliased so the two can never
/// drift.
using CursorOptions = ExecutorOptions;

/// Evaluates BGP queries against one graph through a streaming operator
/// tree over the store's pattern indexes. Evaluation sees exactly the
/// triples of the graph it is given — evaluate against Saturate(g) for
/// complete answers (§2.1).
///
/// Each query is planned once (see QueryPlan): the planner fixes the
/// pattern order, per-step index, and join algorithm (nested-loop vs. hash)
/// up front from the table statistics; the executor compiles the plan into
/// a pull-based cursor tree (query/cursor.h, query/executor.h).
///
/// Open() is the one way to get answer rows: it returns a Cursor the caller
/// drains at its own pace — rows are produced on demand, so LIMIT/pagination
/// never pay for results the caller does not pull. Explain() drains a
/// cursor itself to report per-operator counts and the embedding count.
class BgpEvaluator {
 public:
  explicit BgpEvaluator(const Graph& g, EvaluatorOptions options = {});
  /// The evaluator only borrows the graph; binding a temporary would
  /// dangle after the constructor returns (ASan caught exactly this).
  explicit BgpEvaluator(Graph&&) = delete;
  BgpEvaluator(Graph&&, EvaluatorOptions) = delete;

  /// Evaluates over an already-built table — the frozen-image path, where
  /// `table` is a borrowed TripleTable over an mmap'd store
  /// (store::MmapStore) and no Graph ever exists. The evaluator only needs
  /// the dictionary for planning and Decode, so this is all a store-backed
  /// query requires; `dict` (and the storage a borrowed table references)
  /// must outlive the evaluator. Copying a table is O(1).
  BgpEvaluator(const Dictionary& dict, store::TripleTable table,
               EvaluatorOptions options = {});

  /// Builds the execution plan for `q` without running it.
  QueryPlan Plan(const BgpQuery& q) const;
  QueryPlan Plan(const BgpQuery& q, PlannerMode mode) const;

  /// Opens a streaming cursor over `q`'s distinct answer rows (projected on
  /// the distinguished variables, deduplicated; a boolean query yields one
  /// empty row if it matches). Rows come in discovery order: deterministic
  /// for a plan, but plan-dependent, so callers comparing across plans must
  /// sort. Decode() turns the produced IdRows into Terms. The cursor
  /// borrows the evaluator (its table and dictionary) and must not outlive
  /// it; the plan's lifetime is not tied to the cursor.
  StatusOr<std::unique_ptr<Cursor>> Open(const BgpQuery& q,
                                         CursorOptions options = {}) const;
  StatusOr<std::unique_ptr<Cursor>> Open(const BgpQuery& q, PlannerMode mode,
                                         CursorOptions options = {}) const;
  /// Opens a cursor over an already-built plan (the plan may die after).
  StatusOr<std::unique_ptr<Cursor>> Open(const BgpQuery& q,
                                         const QueryPlan& plan,
                                         CursorOptions options = {}) const;

  /// Decodes a cursor-produced row, in head order, into a Row that borrows
  /// the dictionary's own Terms: no Term is copied. See Row for how long
  /// the result stays valid.
  Row Decode(const IdRow& row) const;

  /// True iff the query has at least one embedding into the graph. Pulls a
  /// single row off the join pipeline — no materialization.
  bool ExistsMatch(const BgpQuery& q) const;

  /// Plans and fully executes `q`, returning the plan annotated with the
  /// actual cardinality observed at every step plus the per-operator
  /// rows-produced counters read off the drained cursor tree.
  StatusOr<Explanation> Explain(const BgpQuery& q) const;
  StatusOr<Explanation> Explain(const BgpQuery& q, PlannerMode mode) const;

  /// The table the evaluator runs on (statistics, index counts).
  const store::TripleTable& table() const { return table_; }

 private:
  const Dictionary* dict_;  // never null; borrowed from the graph or store
  EvaluatorOptions options_;
  store::TripleTable table_;
};

}  // namespace rdfsum::query

#endif  // RDFSUM_QUERY_EVALUATOR_H_
