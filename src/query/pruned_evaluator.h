#ifndef RDFSUM_QUERY_PRUNED_EVALUATOR_H_
#define RDFSUM_QUERY_PRUNED_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "query/evaluator.h"
#include "rdf/graph.h"
#include "summary/cardinality.h"
#include "summary/summary.h"
#include "util/exec_context.h"
#include "util/statusor.h"

namespace rdfsum::query {

/// The paper's query-optimization use case packaged as an evaluator: every
/// request is first checked for emptiness against the (saturated) summary.
/// By RBGP representativeness (Proposition 1), a query that is empty on
/// (H_G)∞ is empty on G∞, so the full graph is never touched for such
/// queries — and the summary is usually orders of magnitude smaller.
///
/// Queries outside the RBGP dialect (constants in subject/object positions)
/// are not covered by Proposition 1; for those the summary check is skipped
/// and evaluation goes straight to the graph.
///
/// Queries that survive the emptiness check run on a cost-based QueryPlan;
/// with Options::planner == PlannerMode::kSummary the summary additionally
/// drives the join order through a CardinalityEstimator.
class SummaryPrunedEvaluator {
 public:
  struct Options {
    summary::SummaryKind kind = summary::SummaryKind::kWeak;
    /// Evaluate against the saturations (complete answers, §2.1). When
    /// false, both sides use the explicit triples only.
    bool saturate = true;
    /// Join-order planning for the graph-side evaluator. kSummary builds a
    /// CardinalityEstimator over the queried graph (one extra
    /// summarization in Create).
    PlannerMode planner = PlannerMode::kGreedy;
  };

  /// Pruning-effectiveness counters.
  struct Stats {
    uint64_t exists_checks = 0;
    uint64_t pruned_by_summary = 0;
    uint64_t graph_probes = 0;
  };

  /// Summarizes `g` for pruning (and, for kSummary, the queried graph for
  /// the estimator) through the governed summary::TrySummarize under
  /// `exec` (nullable): a tripped context or an injected summarizer fault
  /// is returned, never an abort. The evaluator copies what it needs of
  /// `g`. (Two overloads instead of `= {}`: GCC PR 88165, see
  /// util/fault_injection.h.)
  static StatusOr<std::unique_ptr<SummaryPrunedEvaluator>> Create(
      const Graph& g, const Options& options,
      util::ExecContext* exec = nullptr);
  /// Uses the default options (weak summary, saturated evaluation).
  static StatusOr<std::unique_ptr<SummaryPrunedEvaluator>> Create(
      const Graph& g) {
    return Create(g, Options());
  }

  /// True iff q has an embedding in (G∞ or G, per options). Consults the
  /// summary first.
  bool ExistsMatch(const BgpQuery& q);

  /// Streaming evaluation: opens a pull cursor over the graph-side answers,
  /// or an empty cursor without ever touching the graph when the summary
  /// proves emptiness (the head is still validated either way). Decode()
  /// turns produced IdRows into Rows borrowing the graph's dictionary.
  StatusOr<std::unique_ptr<Cursor>> Open(const BgpQuery& q,
                                         CursorOptions options = {});
  Row Decode(const IdRow& row) const;

  /// The chosen plan with actual per-step cardinalities; when the summary
  /// proves emptiness, the plan is returned unexecuted with
  /// pruned_by_summary set.
  StatusOr<Explanation> Explain(const BgpQuery& q);

  const Stats& stats() const { return stats_; }
  /// The summary used for pruning (an RDF graph).
  const Graph& summary_graph() const { return summary_; }
  /// The estimator driving kSummary plans; nullptr for other planners.
  const summary::CardinalityEstimator* estimator() const {
    return estimator_ ? &*estimator_ : nullptr;
  }

 private:
  SummaryPrunedEvaluator() = default;

  bool SummaryAdmits(const BgpQuery& q);

  Graph graph_;    // G (or G∞)
  Graph summary_;  // H (or H∞)
  std::optional<summary::CardinalityEstimator> estimator_;
  std::optional<BgpEvaluator> on_graph_;
  std::optional<BgpEvaluator> on_summary_;
  Stats stats_;
};

}  // namespace rdfsum::query

#endif  // RDFSUM_QUERY_PRUNED_EVALUATOR_H_
