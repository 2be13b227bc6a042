#include "query/evaluator.h"

#include <utility>

namespace rdfsum::query {

BgpEvaluator::BgpEvaluator(const Graph& g, EvaluatorOptions options)
    : dict_(&g.dict()),
      options_(options),
      table_(store::TripleTable::Build(g.Triples())) {}

BgpEvaluator::BgpEvaluator(const Dictionary& dict, store::TripleTable table,
                           EvaluatorOptions options)
    : dict_(&dict), options_(options), table_(std::move(table)) {}

QueryPlan BgpEvaluator::Plan(const BgpQuery& q) const {
  return Plan(q, options_.planner);
}

QueryPlan BgpEvaluator::Plan(const BgpQuery& q, PlannerMode mode) const {
  return BuildQueryPlan(q, *dict_, table_, mode, options_.estimator);
}

StatusOr<std::unique_ptr<Cursor>> BgpEvaluator::Open(
    const BgpQuery& q, CursorOptions options) const {
  return Open(q, options_.planner, options);
}

StatusOr<std::unique_ptr<Cursor>> BgpEvaluator::Open(
    const BgpQuery& q, PlannerMode mode, CursorOptions options) const {
  return Open(q, Plan(q, mode), options);
}

StatusOr<std::unique_ptr<Cursor>> BgpEvaluator::Open(
    const BgpQuery& q, const QueryPlan& plan, CursorOptions options) const {
  RDFSUM_ASSIGN_OR_RETURN(std::vector<uint32_t> head,
                          ResolveDistinguished(q, plan.compiled));
  return CompileQueryTree(table_, plan, head, options).root;
}

Row BgpEvaluator::Decode(const IdRow& row) const {
  Row out;
  out.reserve(row.size());
  for (TermId id : row) out.push_back(dict_->Decode(id));
  return out;
}

bool BgpEvaluator::ExistsMatch(const BgpQuery& q) const {
  // First-match semantics: never pay a hash build for a single pull — a
  // nested-loop probe finds the first embedding in one index lookup.
  ExecutorOptions options;
  options.hash_join = HashJoinMode::kNever;
  CursorTree tree = CompileEmbeddingTree(table_, Plan(q), options);
  IdRow row;
  return tree.root->Next(&row);
}

StatusOr<Explanation> BgpEvaluator::Explain(const BgpQuery& q) const {
  return Explain(q, options_.planner);
}

StatusOr<Explanation> BgpEvaluator::Explain(const BgpQuery& q,
                                            PlannerMode mode) const {
  Explanation out;
  out.plan = Plan(q, mode);
  RDFSUM_ASSIGN_OR_RETURN(std::vector<uint32_t> head,
                          ResolveDistinguished(q, out.plan.compiled));
  // No limit: Explain reports the true cardinality of every operator.
  CursorTree tree = CompileQueryTree(table_, out.plan, head);
  IdRow row;
  while (tree.root->Next(&row)) {
  }
  RDFSUM_RETURN_IF_ERROR(tree.root->status());
  out.actual_rows.reserve(tree.step_cursors.size());
  for (const Cursor* step : tree.step_cursors) {
    out.actual_rows.push_back(step->rows_produced());
  }
  out.num_embeddings = tree.embeddings->rows_produced();
  out.num_result_rows = tree.distinct->rows_produced();
  tree.root->CollectOperators(&out.operators);
  return out;
}

}  // namespace rdfsum::query
