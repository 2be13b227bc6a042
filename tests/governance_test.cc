// End-to-end wall for graceful degradation under resource budgets: the
// governed hash join degrades to an index nested-loop join when the build
// side would exceed the memory budget — byte-identical rows to the
// HashJoinMode::kNever stream — and the kSummary planner falls back to the
// greedy order when the estimator's enumeration budget trips, producing
// exactly the kGreedy plan. Row budgets meter delivered answers.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "gen/bsbm.h"
#include "oracle/drain.h"
#include "query/cursor.h"
#include "query/evaluator.h"
#include "query/plan.h"
#include "query/sparql_parser.h"
#include "rdf/graph.h"
#include "summary/cardinality.h"
#include "summary/summarizer.h"
#include "util/exec_context.h"

namespace rdfsum::query {
namespace {

const Graph& TestGraph() {
  static const Graph* g = [] {
    gen::BsbmOptions opt;
    opt.num_products = 300;
    return new Graph(gen::GenerateBsbm(opt));
  }();
  return *g;
}

BgpQuery MustParse(const std::string& text) {
  auto q = ParseSparql(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

std::vector<IdRow> Drain(Cursor& c) {
  std::vector<IdRow> out;
  IdRow row;
  while (c.Next(&row)) out.push_back(row);
  return out;
}

// A join query fat enough for the planner to pick a hash join on BSBM.
const char* kJoinQuery =
    "SELECT ?p ?f WHERE { ?p <http://bsbm.example.org/producer> ?f . "
    "?p <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    "<http://bsbm.example.org/Product> . }";

TEST(GovernanceTest, MemoryBudgetDegradesHashJoinByteIdentically) {
  const Graph& g = TestGraph();
  BgpQuery q = MustParse(kJoinQuery);
  BgpEvaluator eval(g);

  // Reference: the never-hash stream, ungoverned.
  CursorOptions nlj_options;
  nlj_options.hash_join = HashJoinMode::kNever;
  auto nlj = eval.Open(q, nlj_options);
  ASSERT_TRUE(nlj.ok());
  std::vector<IdRow> expected = Drain(**nlj);
  ASSERT_TRUE((*nlj)->status().ok());
  ASSERT_FALSE(expected.empty());

  // Governed: force hash joins, but with a memory budget so tight the build
  // side cannot fit — every hash join must degrade, not fail.
  util::ExecContext::Limits limits;
  limits.memory_budget_bytes = 1024;
  util::ExecContext ctx(limits);
  CursorOptions gov_options;
  gov_options.hash_join = HashJoinMode::kAlways;
  gov_options.exec = &ctx;
  auto gov = eval.Open(q, gov_options);
  ASSERT_TRUE(gov.ok());
  std::vector<IdRow> actual = Drain(**gov);
  EXPECT_TRUE((*gov)->status().ok()) << (*gov)->status().ToString();
  EXPECT_EQ(expected, actual);
}

TEST(GovernanceTest, UngovernedHashAndDegradedAgreeOnEveryBudget) {
  // Sweep budgets across the degrade threshold: row *sets* must agree with
  // the hash path everywhere (order may differ between hash and NLJ, so
  // compare the kNever stream, which degraded execution reproduces
  // byte-identically, against the sorted hash stream).
  const Graph& g = TestGraph();
  BgpQuery q = MustParse(kJoinQuery);
  BgpEvaluator eval(g);

  CursorOptions hash_options;
  hash_options.hash_join = HashJoinMode::kAlways;
  auto hash = eval.Open(q, hash_options);
  ASSERT_TRUE(hash.ok());
  std::vector<IdRow> hash_rows = Drain(**hash);
  ASSERT_TRUE((*hash)->status().ok());
  std::sort(hash_rows.begin(), hash_rows.end());

  for (uint64_t budget : {512u, 4096u, 1u << 16, 1u << 24}) {
    util::ExecContext::Limits limits;
    limits.memory_budget_bytes = budget;
    util::ExecContext ctx(limits);
    CursorOptions options;
    options.hash_join = HashJoinMode::kAlways;
    options.exec = &ctx;
    auto cur = eval.Open(q, options);
    ASSERT_TRUE(cur.ok());
    std::vector<IdRow> rows = Drain(**cur);
    EXPECT_TRUE((*cur)->status().ok())
        << "budget " << budget << ": " << (*cur)->status().ToString();
    std::sort(rows.begin(), rows.end());
    EXPECT_EQ(rows, hash_rows) << "budget " << budget;
    // Whatever was charged during execution was released by teardown-time
    // accounting or refunded on degrade; nothing leaks into the context.
    (*cur).reset();
    EXPECT_EQ(ctx.memory_used(), 0u) << "budget " << budget;
  }
}

TEST(GovernanceTest, RowBudgetMetersDeliveredAnswers) {
  const Graph& g = TestGraph();
  BgpQuery q = MustParse("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }");
  BgpEvaluator eval(g);
  util::ExecContext::Limits limits;
  limits.max_rows = 7;
  util::ExecContext ctx(limits);
  CursorOptions options;
  options.exec = &ctx;
  auto cur = eval.Open(q, options);
  ASSERT_TRUE(cur.ok());
  std::vector<IdRow> rows = Drain(**cur);
  EXPECT_EQ(rows.size(), 7u);
  EXPECT_TRUE((*cur)->status().IsResourceExhausted())
      << (*cur)->status().ToString();
}

TEST(GovernanceTest, RowBudgetDoesNotChargeOffsetRows) {
  // The budget meters *delivered* answers: OFFSET-skipped rows are free.
  const Graph& g = TestGraph();
  BgpQuery q = MustParse("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }");
  BgpEvaluator eval(g);
  util::ExecContext::Limits limits;
  limits.max_rows = 5;
  util::ExecContext ctx(limits);
  CursorOptions options;
  options.limit = 5;
  options.offset = 100;
  options.exec = &ctx;
  auto cur = eval.Open(q, options);
  ASSERT_TRUE(cur.ok());
  std::vector<IdRow> rows = Drain(**cur);
  EXPECT_EQ(rows.size(), 5u);
  EXPECT_TRUE((*cur)->status().ok()) << (*cur)->status().ToString();
}

TEST(GovernanceTest, EvaluateSurfacesGovernanceStatus) {
  const Graph& g = TestGraph();
  BgpQuery q = MustParse("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }");
  BgpEvaluator eval(g);
  util::ExecContext::Limits limits;
  limits.max_rows = 3;
  util::ExecContext ctx(limits);
  CursorOptions options;
  options.exec = &ctx;
  auto rows = Drain(eval, q, options);
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsResourceExhausted())
      << rows.status().ToString();
}

// ---- planner fallback ---------------------------------------------------

TEST(GovernanceTest, SummaryPlannerFallsBackToExactGreedyPlan) {
  const Graph& g = TestGraph();
  // An estimator whose enumeration budget is one probe: every non-trivial
  // estimate truncates, so kSummary planning cannot trust its numbers.
  summary::CardinalityEstimatorOptions est_options;
  est_options.max_summary_embeddings = 1;
  est_options.max_summary_probes = 1;
  summary::CardinalityEstimator estimator(
      summary::Summarize(g, summary::SummaryKind::kWeak), est_options);

  BgpQuery q = MustParse(
      "SELECT ?p ?f ?t WHERE { ?p <http://bsbm.example.org/producer> ?f . "
      "?p <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?t . }");
  EvaluatorOptions options;
  options.planner = PlannerMode::kSummary;
  options.estimator = &estimator;
  BgpEvaluator eval(g, options);

  QueryPlan summary_plan = eval.Plan(q);
  EXPECT_TRUE(summary_plan.summary_fallback);
  EXPECT_EQ(summary_plan.mode, PlannerMode::kSummary);

  QueryPlan greedy_plan = eval.Plan(q, PlannerMode::kGreedy);
  ASSERT_EQ(summary_plan.steps.size(), greedy_plan.steps.size());
  for (size_t i = 0; i < greedy_plan.steps.size(); ++i) {
    EXPECT_EQ(summary_plan.steps[i].pattern, greedy_plan.steps[i].pattern)
        << "step " << i;
    EXPECT_EQ(summary_plan.steps[i].index, greedy_plan.steps[i].index)
        << "step " << i;
    EXPECT_EQ(summary_plan.steps[i].use_hash_join,
              greedy_plan.steps[i].use_hash_join)
        << "step " << i;
  }
  EXPECT_NE(summary_plan.ToString().find("fallback=greedy"),
            std::string::npos);
  // --explain renders the same header, so it reports the fallback too.
  auto explained = eval.Explain(q);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_NE(explained->ToString().find("fallback=greedy"), std::string::npos);
}

TEST(GovernanceTest, HealthyEstimatorDoesNotTriggerFallback) {
  const Graph& g = TestGraph();
  summary::CardinalityEstimator estimator(
      summary::Summarize(g, summary::SummaryKind::kWeak));
  BgpQuery q = MustParse(kJoinQuery);
  EvaluatorOptions options;
  options.planner = PlannerMode::kSummary;
  options.estimator = &estimator;
  BgpEvaluator eval(g, options);
  QueryPlan plan = eval.Plan(q);
  EXPECT_FALSE(plan.summary_fallback);
}

}  // namespace
}  // namespace rdfsum::query
