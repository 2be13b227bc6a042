#ifndef RDFSUM_QUERY_EVALUATOR_H_
#define RDFSUM_QUERY_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "query/bgp.h"
#include "query/executor.h"
#include "query/plan.h"
#include "rdf/graph.h"
#include "store/triple_table.h"
#include "util/statusor.h"

namespace rdfsum::query {

/// One answer row: the bindings of the distinguished variables, in query
/// head order.
using Row = std::vector<Term>;

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

  /// Decodes a cursor-produced row into Terms, in head order.
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
