// The cost-based query planner: plan shape (order, index choice, estimates),
// the plan-driven executor's regressions (limit edge cases, repeated
// variables, invalid heads), and the Explain() surface.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "gen/bsbm.h"
#include "gen/paper_example.h"
#include "oracle/drain.h"
#include "query/evaluator.h"
#include "query/plan.h"
#include "query/sparql_parser.h"
#include "store/triple_table.h"

namespace rdfsum::query {
namespace {

BgpQuery MustParse(const std::string& text) {
  auto q = ParseSparql(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

/// A graph where the selectivity differences are unmistakable: property
/// "big" has 100 triples, "mid" 10, "tiny" 1, chained so a planner that
/// consults the stats must start at "tiny".
Graph MakeSkewedGraph() {
  Graph g;
  Dictionary& d = g.dict();
  TermId big = d.EncodeIri("http://skew/big");
  TermId mid = d.EncodeIri("http://skew/mid");
  TermId tiny = d.EncodeIri("http://skew/tiny");
  auto node = [&](const std::string& name) {
    return d.EncodeIri("http://skew/n/" + name);
  };
  // big: 100 distinct (ai, big, b{i%10}); mid: 10 (b_j, mid, c_{j%2});
  // tiny: 1 (c0, tiny, t).
  for (int i = 0; i < 100; ++i) {
    g.Add({node("a" + std::to_string(i)), big,
           node("b" + std::to_string(i % 10))});
  }
  for (int j = 0; j < 10; ++j) {
    g.Add({node("b" + std::to_string(j)), mid,
           node("c" + std::to_string(j % 2))});
  }
  g.Add({node("c0"), tiny, node("t")});
  return g;
}

const char* kSkewedChain =
    "SELECT ?a WHERE { ?a <http://skew/big> ?b . "
    "?b <http://skew/mid> ?c . ?c <http://skew/tiny> ?t }";

TEST(PlannerModeTest, NamesRoundTrip) {
  for (PlannerMode mode : kAllPlannerModes) {
    PlannerMode parsed;
    ASSERT_TRUE(ParsePlannerMode(PlannerModeName(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
  PlannerMode parsed;
  EXPECT_TRUE(ParsePlannerMode("GREEDY", &parsed));  // case-insensitive
  EXPECT_EQ(parsed, PlannerMode::kGreedy);
  EXPECT_FALSE(ParsePlannerMode("volcano", &parsed));
}

TEST(QueryPlanTest, NaiveKeepsTextualOrder) {
  Graph g = MakeSkewedGraph();
  BgpEvaluator eval(g);
  QueryPlan plan = eval.Plan(MustParse(kSkewedChain), PlannerMode::kNaive);
  ASSERT_EQ(plan.steps.size(), 3u);
  EXPECT_EQ(plan.steps[0].pattern, 0u);
  EXPECT_EQ(plan.steps[1].pattern, 1u);
  EXPECT_EQ(plan.steps[2].pattern, 2u);
}

TEST(QueryPlanTest, GreedyStartsAtTheSelectiveEnd) {
  Graph g = MakeSkewedGraph();
  BgpEvaluator eval(g);
  QueryPlan plan = eval.Plan(MustParse(kSkewedChain), PlannerMode::kGreedy);
  ASSERT_EQ(plan.steps.size(), 3u);
  // tiny (1 row) first, then mid via the bound ?c, then big via bound ?b.
  EXPECT_EQ(plan.steps[0].pattern, 2u);
  EXPECT_EQ(plan.steps[1].pattern, 1u);
  EXPECT_EQ(plan.steps[2].pattern, 0u);
  // The greedy plan must be estimated cheaper than the naive one.
  QueryPlan naive = eval.Plan(MustParse(kSkewedChain), PlannerMode::kNaive);
  EXPECT_LT(plan.estimated_cost, naive.estimated_cost);
}

TEST(QueryPlanTest, IndexChoiceFollowsBindings) {
  Graph g = MakeSkewedGraph();
  BgpEvaluator eval(g);
  QueryPlan plan = eval.Plan(MustParse(kSkewedChain), PlannerMode::kGreedy);
  // Step 1 binds only the property: POS. Later steps have their subject
  // (or object) variable bound by earlier steps.
  EXPECT_EQ(plan.steps[0].index, store::IndexKind::kPos);
  EXPECT_EQ(plan.steps[1].index, store::IndexKind::kPos);  // (p, o) bound
  EXPECT_EQ(plan.steps[2].index, store::IndexKind::kPos);  // (p, o) bound
  QueryPlan naive = eval.Plan(MustParse(kSkewedChain), PlannerMode::kNaive);
  EXPECT_EQ(naive.steps[0].index, store::IndexKind::kPos);
  EXPECT_EQ(naive.steps[1].index, store::IndexKind::kSpo);  // ?b bound: (s, p)
  EXPECT_EQ(naive.steps[2].index, store::IndexKind::kSpo);
}

TEST(QueryPlanTest, AllModesReturnTheSameRows) {
  Graph g = MakeSkewedGraph();
  BgpEvaluator eval(g);
  BgpQuery q = MustParse(kSkewedChain);
  auto naive = Drain(eval, q, PlannerMode::kNaive);
  ASSERT_TRUE(naive.ok());
  for (PlannerMode mode : kAllPlannerModes) {
    auto rows = Drain(eval, q, mode);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), naive->size()) << PlannerModeName(mode);
  }
  // ?c = c0, ?b in {b0, b2, b4, b6, b8}, 10 a-nodes per b: 50 answers.
  EXPECT_EQ(naive->size(), 50u);
}

TEST(QueryPlanTest, ToStringListsEveryStep) {
  Graph g = MakeSkewedGraph();
  BgpEvaluator eval(g);
  QueryPlan plan = eval.Plan(MustParse(kSkewedChain));
  std::string rendered = plan.ToString();
  EXPECT_NE(rendered.find("greedy"), std::string::npos);
  EXPECT_NE(rendered.find("http://skew/tiny"), std::string::npos);
  EXPECT_NE(rendered.find("POS"), std::string::npos);
}

// -------------------------------------------------------------- join pick

/// The lead key of the index a step's probes use: s for SPO, p for POS, o
/// for OSP.
const CompiledSlot& ProbeLead(const QueryPlan& plan, const PlanStep& step) {
  const CompiledPattern& pat = plan.compiled.patterns[step.pattern];
  switch (step.index) {
    case store::IndexKind::kSpo:
      return pat.s;
    case store::IndexKind::kPos:
      return pat.p;
    case store::IndexKind::kOsp:
      return pat.o;
  }
  return pat.s;
}

/// True when step `i` meets every clause of the join-pick rule but the
/// lead: the estimated probe side reaches the floor and the exact build
/// side is non-empty and fits the budget.
bool ClearsFloorAndBudget(const QueryPlan& plan, size_t i) {
  const PlanStep& step = plan.steps[i];
  return i > 0 && plan.steps[i - 1].estimated_rows >= kHashJoinMinProbeRows &&
         step.estimated_build_rows > 0.0 &&
         step.estimated_build_rows <= kHashJoinBuildBudget;
}

TEST(QueryPlanTest, JoinPickFollowsTheProbeLead) {
  // ~170k triples: every unanchored offer/review/product step below has a
  // probe side above the 4096-row floor.
  gen::BsbmOptions opt;
  opt.num_products = 5000;
  const Graph g = gen::GenerateBsbm(opt);
  BgpEvaluator eval(g);
  const std::string b = "PREFIX b: <http://bsbm.example.org/>\n";
  // Stars and chains: their fat join steps probe SPO on a bound subject,
  // which the leading-key directory finds in O(1) — nested loops
  // throughout. (The greedy chain's one POS step is fed 858 country rows,
  // under the floor.)
  for (const char* body :
       {"SELECT ?p ?l ?f WHERE { ?p b:label ?l . ?p b:producer ?pr . "
        "?p b:productFeature ?f }",
        "SELECT ?r ?c WHERE { ?r b:reviewFor ?p . ?r b:reviewer ?x . "
        "?x b:country ?c }"}) {
    for (PlannerMode mode : {PlannerMode::kNaive, PlannerMode::kGreedy}) {
      QueryPlan plan = eval.Plan(MustParse(b + body), mode);
      bool over_floor = false;
      for (size_t i = 1; i < plan.steps.size(); ++i) {
        const PlanStep& step = plan.steps[i];
        EXPECT_FALSE(step.use_hash_join) << plan.ToString();
        if (step.index != store::IndexKind::kSpo) continue;
        EXPECT_TRUE(ProbeLead(plan, step).is_var) << plan.ToString();
        over_floor = over_floor || ClearsFloorAndBudget(plan, i);
      }
      // The lead alone keeps them nested: an SPO step clears floor and
      // budget.
      EXPECT_TRUE(over_floor) << plan.ToString();
    }
  }

  // The snowflake's offer step probes POS (p, o) with the constant
  // predicate leading: every probe would search the same bucket, so one
  // hash build replaces them.
  const BgpQuery snowflake_q =
      MustParse(b +
                "SELECT ?r ?price WHERE { ?r b:reviewFor ?p . "
                "?r b:reviewer ?x . ?x b:country ?c . "
                "?o b:offerProduct ?p . ?o b:price ?price }");
  for (PlannerMode mode : {PlannerMode::kNaive, PlannerMode::kGreedy}) {
    QueryPlan plan = eval.Plan(snowflake_q, mode);
    int offer_steps = 0;
    for (size_t i = 1; i < plan.steps.size(); ++i) {
      const PlanStep& step = plan.steps[i];
      if (step.pattern != 3) {
        EXPECT_FALSE(step.use_hash_join) << plan.ToString();
        continue;
      }
      ++offer_steps;
      EXPECT_EQ(step.index, store::IndexKind::kPos) << plan.ToString();
      EXPECT_FALSE(ProbeLead(plan, step).is_var);
      EXPECT_TRUE(ClearsFloorAndBudget(plan, i)) << plan.ToString();
      EXPECT_TRUE(step.use_hash_join) << plan.ToString();
    }
    EXPECT_EQ(offer_steps, 1) << plan.ToString();
  }
}

TEST(QueryPlanTest, ConstantLeadStaysNestedBelowFloorOrOverBudget) {
  // Synthetic table: <fat> has 5000 rows (over the probe floor), <thin> 100
  // (under it); <small> has 10 rows per object and <huge> 1025 x 1025 rows,
  // one more than fits kHashJoinBuildBudget.
  Dictionary d;
  auto iri = [&](std::string_view local, int i = -1) {
    std::string name = "http://lead/";
    name += local;
    if (i >= 0) name += std::to_string(i);
    return d.EncodeIri(name);
  };
  const TermId fat = iri("fat"), thin = iri("thin"), small = iri("small"),
               huge = iri("huge");
  std::vector<TermId> nodes;
  for (int i = 0; i < 1025; ++i) nodes.push_back(iri("n", i));
  std::vector<Triple> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({iri("a", i), fat, nodes[i % 1025]});
  }
  for (int i = 0; i < 100; ++i) rows.push_back({iri("t", i), thin, nodes[i]});
  for (int j = 0; j < 10; ++j) {
    const TermId s = iri("s", j);
    for (TermId o : nodes) rows.push_back({s, small, o});
  }
  for (TermId s : nodes) {
    for (TermId o : nodes) rows.push_back({s, huge, o});
  }
  ASSERT_GT(static_cast<double>(nodes.size() * nodes.size()),
            kHashJoinBuildBudget);
  const store::TripleTable table = store::TripleTable::Build(std::move(rows));

  // Step 2 of each query probes POS (p, o) with its constant predicate
  // leading; only the probe side and the build side differ.
  auto second_step = [&](const char* first, const char* second) {
    std::string text = "SELECT ?a WHERE { ?a <http://lead/";
    text += first;
    text += "> ?n . ?x <http://lead/";
    text += second;
    text += "> ?n }";
    QueryPlan plan =
        BuildQueryPlan(MustParse(text), d, table, PlannerMode::kNaive);
    EXPECT_EQ(plan.steps.size(), 2u);
    EXPECT_EQ(plan.steps[1].index, store::IndexKind::kPos);
    EXPECT_FALSE(ProbeLead(plan, plan.steps[1]).is_var);
    return plan.steps[1];
  };
  const PlanStep picked = second_step("fat", "small");
  EXPECT_TRUE(picked.use_hash_join);
  const PlanStep below_floor = second_step("thin", "small");
  EXPECT_LT(below_floor.estimated_build_rows, kHashJoinBuildBudget);
  EXPECT_FALSE(below_floor.use_hash_join);
  const PlanStep over_budget = second_step("fat", "huge");
  EXPECT_GT(over_budget.estimated_build_rows, kHashJoinBuildBudget);
  EXPECT_FALSE(over_budget.use_hash_join);
}

// ---------------------------------------------------------------- explain

TEST(ExplainTest, ActualsMatchTheKnownCardinalities) {
  Graph g = MakeSkewedGraph();
  BgpEvaluator eval(g);
  auto ex = eval.Explain(MustParse(kSkewedChain), PlannerMode::kGreedy);
  ASSERT_TRUE(ex.ok());
  ASSERT_EQ(ex->actual_rows.size(), 3u);
  EXPECT_EQ(ex->actual_rows[0], 1u);   // tiny
  EXPECT_EQ(ex->actual_rows[1], 5u);   // even-indexed b-nodes reach c0
  EXPECT_EQ(ex->actual_rows[2], 50u);  // 10 a-nodes per surviving b
  EXPECT_EQ(ex->num_embeddings, 50u);
  EXPECT_EQ(ex->num_result_rows, 50u);
  EXPECT_FALSE(ex->pruned_by_summary);
  EXPECT_NE(ex->ToString().find("actual"), std::string::npos);
}

TEST(ExplainTest, InvalidHeadIsAnError) {
  Graph g = MakeSkewedGraph();
  BgpEvaluator eval(g);
  // The parser rejects SELECT of an unbound variable, so build the broken
  // head manually: the evaluator-level error path must still fire.
  BgpQuery q = MustParse(kSkewedChain);
  q.distinguished = {"nosuchvar"};
  EXPECT_TRUE(eval.Explain(q).status().IsInvalidArgument());
  EXPECT_TRUE(Drain(eval, q).status().IsInvalidArgument());
}

// ------------------------------------------------------------- limit edges

TEST(EvaluateLimitTest, LimitZeroReturnsNoRows) {
  Graph g = MakeSkewedGraph();
  BgpEvaluator eval(g);
  BgpQuery q = MustParse("SELECT ?a ?b WHERE { ?a <http://skew/big> ?b }");
  auto rows = Drain(eval, q, CursorOptions{.limit = 0});
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(EvaluateLimitTest, LimitIsExact) {
  Graph g = MakeSkewedGraph();
  BgpEvaluator eval(g);
  BgpQuery q = MustParse("SELECT ?a ?b WHERE { ?a <http://skew/big> ?b }");
  for (size_t limit : {1u, 7u, 100u, 1000u}) {
    auto rows = Drain(eval, q, CursorOptions{.limit = limit});
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), std::min<size_t>(limit, 100));
  }
}

TEST(EvaluateLimitTest, LimitZeroOnBooleanQuery) {
  Graph g = MakeSkewedGraph();
  BgpEvaluator eval(g);
  BgpQuery q = MustParse("ASK WHERE { ?a <http://skew/big> ?b }");
  auto rows = Drain(eval, q, CursorOptions{.limit = 0});
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  // ExistsMatch is unaffected by row limits.
  EXPECT_TRUE(eval.ExistsMatch(q));
}

// ------------------------------------------------- executor special cases

TEST(PlanExecutorTest, RepeatedVariablePatternOnEveryMode) {
  Graph g;
  Dictionary& d = g.dict();
  TermId p = d.EncodeIri("http://p");
  g.Add({d.EncodeIri("http://self"), p, d.EncodeIri("http://self")});
  g.Add({d.EncodeIri("http://a"), p, d.EncodeIri("http://b")});
  BgpEvaluator eval(g);
  BgpQuery q = MustParse("SELECT ?x WHERE { ?x <http://p> ?x }");
  for (PlannerMode mode : kAllPlannerModes) {
    auto rows = Drain(eval, q, mode);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 1u) << PlannerModeName(mode);
    EXPECT_EQ((*rows)[0][0].lexical, "http://self");
  }
}

TEST(PlanExecutorTest, ImpossibleConstantShortCircuits) {
  Graph g = MakeSkewedGraph();
  BgpEvaluator eval(g);
  BgpQuery q = MustParse(
      "SELECT ?a WHERE { ?a <http://never/interned> ?b . "
      "?a <http://skew/big> ?c }");
  QueryPlan plan = eval.Plan(q);
  EXPECT_TRUE(plan.compiled.impossible);
  EXPECT_FALSE(eval.ExistsMatch(q));
  EXPECT_EQ(eval.Explain(q)->num_embeddings, 0u);
}

TEST(PlanExecutorTest, CartesianProductStaysCorrect) {
  // Disconnected BGP: the executor must still enumerate the full product.
  Graph g = MakeSkewedGraph();
  BgpEvaluator eval(g);
  BgpQuery q = MustParse(
      "SELECT ?c ?t WHERE { ?c <http://skew/tiny> ?t . "
      "?x <http://skew/mid> ?y }");
  EXPECT_EQ(eval.Explain(q)->num_embeddings, 10u);  // 1 tiny x 10 mid
  auto rows = Drain(eval, q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);  // projected on the tiny side only
}

// ----------------------------------------------------- parser edge cases

TEST(SparqlParserEdgeTest, RepeatedVariableKeepsOneSlot) {
  auto q = ParseSparql("SELECT ?x WHERE { ?x <http://p> ?x }");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->triples.size(), 1u);
  EXPECT_TRUE(q->triples[0].s.is_var);
  EXPECT_TRUE(q->triples[0].o.is_var);
  EXPECT_EQ(q->triples[0].s.var, q->triples[0].o.var);
  EXPECT_EQ(q->BodyVariables(), std::vector<std::string>{"x"});
}

TEST(SparqlParserEdgeTest, UnusedDistinguishedVariableIsRejected) {
  auto q = ParseSparql("SELECT ?gone WHERE { ?x <http://p> ?y }");
  ASSERT_FALSE(q.ok());
  EXPECT_TRUE(q.status().IsInvalidArgument());
  EXPECT_NE(q.status().ToString().find("gone"), std::string::npos);
}

TEST(SparqlParserEdgeTest, MixedUsedAndUnusedHeadIsRejected) {
  EXPECT_FALSE(ParseSparql("SELECT ?x ?gone WHERE { ?x <http://p> ?y }").ok());
}

}  // namespace
}  // namespace rdfsum::query
