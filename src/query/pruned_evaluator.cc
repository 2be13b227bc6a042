#include "query/pruned_evaluator.h"

#include "query/rbgp.h"
#include "reasoner/saturation.h"
#include "summary/summarizer.h"

namespace rdfsum::query {

SummaryPrunedEvaluator::SummaryPrunedEvaluator(const Graph& g,
                                               const Options& options) {
  summary::SummaryResult h = summary::Summarize(g, options.kind);
  const bool wants_estimator = options.planner == PlannerMode::kSummary;
  if (options.saturate) {
    graph_ = reasoner::Saturate(g);
    summary_ = reasoner::Saturate(h.graph);
    if (wants_estimator) {
      // The estimator must model the graph actually queried: `h` describes
      // the unsaturated input, so summarize the saturation itself.
      estimator_.emplace(summary::Summarize(graph_, options.kind));
    }
  } else {
    graph_ = g.Clone();
    // `h` is a summary of exactly graph_; the estimator copies it before its
    // graph is moved into the pruning slot.
    if (wants_estimator) estimator_.emplace(h);
    summary_ = std::move(h.graph);
  }
  EvaluatorOptions graph_options;
  graph_options.planner = options.planner;
  graph_options.estimator = estimator();
  on_graph_.emplace(graph_, graph_options);
  on_summary_.emplace(summary_);
}

bool SummaryPrunedEvaluator::SummaryAdmits(const BgpQuery& q) {
  // Proposition 1 covers RBGP queries only; other shapes bypass the filter.
  if (!ValidateRbgp(q).ok()) return true;
  return on_summary_->ExistsMatch(q);
}

bool SummaryPrunedEvaluator::ExistsMatch(const BgpQuery& q) {
  ++stats_.exists_checks;
  if (!SummaryAdmits(q)) {
    ++stats_.pruned_by_summary;
    return false;
  }
  ++stats_.graph_probes;
  return on_graph_->ExistsMatch(q);
}

StatusOr<std::unique_ptr<Cursor>> SummaryPrunedEvaluator::Open(
    const BgpQuery& q, CursorOptions options) {
  ++stats_.exists_checks;
  if (!SummaryAdmits(q)) {
    ++stats_.pruned_by_summary;
    // Keep the contract data-independent: a malformed head errors whether
    // or not the summary happened to prune this query. Compilation alone
    // resolves the head — no need to run the planner on the fast path.
    CompiledBgp compiled = CompileBgp(q, graph_.dict());
    RDFSUM_ASSIGN_OR_RETURN(std::vector<uint32_t> head,
                            ResolveDistinguished(q, compiled));
    return MakeEmptyCursor(head.size());
  }
  ++stats_.graph_probes;
  return on_graph_->Open(q, options);
}

Row SummaryPrunedEvaluator::Decode(const IdRow& row) const {
  return on_graph_->Decode(row);
}

StatusOr<Explanation> SummaryPrunedEvaluator::Explain(const BgpQuery& q) {
  ++stats_.exists_checks;
  if (!SummaryAdmits(q)) {
    ++stats_.pruned_by_summary;
    Explanation out;
    out.plan = on_graph_->Plan(q);
    // Keep the contract data-independent: a malformed head is an error
    // whether or not the summary happened to prune this query.
    auto head = ResolveDistinguished(q, out.plan.compiled);
    if (!head.ok()) return head.status();
    out.actual_rows.assign(out.plan.steps.size(), 0);
    out.pruned_by_summary = true;
    return out;
  }
  ++stats_.graph_probes;
  return on_graph_->Explain(q);
}

}  // namespace rdfsum::query
