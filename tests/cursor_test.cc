// Unit wall for the streaming query API (PR 4): the Volcano-style operator
// tree (query/cursor.h), the plan compiler (query/executor.h), the
// evaluator's Open() surface, and the hoisted util::RowSet. The
// end-to-end byte-identity against the legacy materializing path lives in
// streaming_differential_test.cc; this file pins the operator semantics —
// early exit, limit/offset arithmetic, hash-vs-nested-loop equivalence,
// repeated-variable binding, per-operator counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gen/bsbm.h"
#include "oracle/drain.h"
#include "query/cursor.h"
#include "query/evaluator.h"
#include "query/executor.h"
#include "query/pruned_evaluator.h"
#include "query/sparql_parser.h"
#include "rdf/graph.h"
#include "util/row_set.h"

namespace rdfsum::query {
namespace {

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

/// s1 -p-> o1..o3, s2 -p-> o1, plus a self loop s1 -p-> s1.
Graph MakeLoopGraph() {
  Graph g;
  Dictionary& d = g.dict();
  TermId s1 = d.EncodeIri("http://t/s1"), s2 = d.EncodeIri("http://t/s2");
  TermId p = d.EncodeIri("http://t/p");
  TermId o1 = d.EncodeIri("http://t/o1"), o2 = d.EncodeIri("http://t/o2");
  g.Add({s1, p, o1});
  g.Add({s1, p, o2});
  g.Add({s1, p, s1});
  g.Add({s2, p, o1});
  return g;
}

// ---------------------------------------------------------------- row set

TEST(RowSetTest, InsertOrFindHandsOutDenseOrdinals) {
  util::RowSet set(2);
  TermId a[2] = {1, 2}, b[2] = {3, 4};
  EXPECT_EQ(set.Find(a), util::RowSet::kNotFound);
  EXPECT_EQ(set.InsertOrFind(a), (std::pair<uint32_t, bool>{0, true}));
  EXPECT_EQ(set.InsertOrFind(b), (std::pair<uint32_t, bool>{1, true}));
  EXPECT_EQ(set.InsertOrFind(a), (std::pair<uint32_t, bool>{0, false}));
  EXPECT_EQ(set.Find(b), 1u);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.row(1)[0], 3u);
}

TEST(RowSetTest, SurvivesGrowth) {
  util::RowSet set(1);
  for (TermId i = 1; i <= 500; ++i) {
    TermId row[1] = {i};
    auto [ord, inserted] = set.InsertOrFind(row);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(ord, i - 1);
  }
  for (TermId i = 1; i <= 500; ++i) {
    TermId row[1] = {i};
    EXPECT_EQ(set.Find(row), i - 1);
    EXPECT_FALSE(set.Insert(row));
  }
  EXPECT_EQ(set.size(), 500u);
}

TEST(RowSetTest, WidthZeroHoldsOneRow) {
  util::RowSet set(0);
  EXPECT_EQ(set.Find(nullptr), util::RowSet::kNotFound);
  EXPECT_TRUE(set.Insert(nullptr));
  EXPECT_FALSE(set.Insert(nullptr));
  EXPECT_EQ(set.Find(nullptr), 0u);
  EXPECT_EQ(set.size(), 1u);
}

// ------------------------------------------------------------- operators

TEST(CursorTest, EmptyAndSingleton) {
  auto empty = MakeEmptyCursor(2);
  IdRow row;
  EXPECT_FALSE(empty->Next(&row));
  EXPECT_EQ(empty->rows_produced(), 0u);

  auto one = MakeSingletonCursor(3);
  ASSERT_TRUE(one->Next(&row));
  EXPECT_EQ(row, (IdRow{kInvalidTermId, kInvalidTermId, kInvalidTermId}));
  EXPECT_FALSE(one->Next(&row));
  EXPECT_EQ(one->rows_produced(), 1u);
}

TEST(CursorTest, IndexScanBindsRepeatedVariablesConsistently) {
  Graph g = MakeLoopGraph();
  BgpEvaluator eval(g);
  // ?x p ?x matches only the self loop.
  QueryPlan plan = eval.Plan(MustParse(
      "SELECT ?x WHERE { ?x <http://t/p> ?x }"));
  CursorTree tree = CompileEmbeddingTree(eval.table(), plan);
  std::vector<IdRow> rows = Drain(*tree.root);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(eval.Decode(rows[0])[0].ToNTriples(), "<http://t/s1>");
}

TEST(CursorTest, LimitOffsetSlicesAndStopsPulling) {
  Graph g = MakeLoopGraph();
  BgpEvaluator eval(g);
  BgpQuery q = MustParse("SELECT ?s ?o WHERE { ?s <http://t/p> ?o }");
  QueryPlan plan = eval.Plan(q);
  auto head = ResolveDistinguished(q, plan.compiled);
  ASSERT_TRUE(head.ok());

  ExecutorOptions full;
  CursorTree all = CompileQueryTree(eval.table(), plan, *head, full);
  std::vector<IdRow> everything = Drain(*all.root);
  ASSERT_EQ(everything.size(), 4u);

  for (size_t offset : {0u, 1u, 3u, 9u}) {
    for (size_t limit : {0u, 1u, 2u, 100u}) {
      ExecutorOptions opt;
      opt.limit = limit;
      opt.offset = offset;
      CursorTree sliced = CompileQueryTree(eval.table(), plan, *head, opt);
      std::vector<IdRow> rows = Drain(*sliced.root);
      // The slice must equal the same window of the full stream.
      std::vector<IdRow> expected;
      for (size_t i = offset; i < everything.size() && expected.size() < limit;
           ++i) {
        expected.push_back(everything[i]);
      }
      EXPECT_EQ(rows, expected) << "limit=" << limit << " offset=" << offset;
    }
  }

  // Early exit: with limit 1 the scan leaf must not have walked all four
  // triples (one row out means at most two pulled — the scan stops when the
  // quota is filled, not when it is exhausted).
  ExecutorOptions first;
  first.limit = 1;
  CursorTree tree = CompileQueryTree(eval.table(), plan, *head, first);
  std::vector<IdRow> rows = Drain(*tree.root);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(tree.step_cursors.size(), 1u);
  EXPECT_LT(tree.step_cursors[0]->rows_produced(), 4u);
}

TEST(CursorTest, DistinctDedupsAndBooleanProjectionYieldsOneRow) {
  Graph g = MakeLoopGraph();
  BgpEvaluator eval(g);
  // Project on ?s only: s1 appears three times, s2 once.
  auto cursor = eval.Open(MustParse(
      "SELECT ?s WHERE { ?s <http://t/p> ?o }"));
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(Drain(**cursor).size(), 2u);

  // Boolean query: one empty row iff the body matches.
  auto ask = eval.Open(MustParse("ASK WHERE { ?s <http://t/p> ?o }"));
  ASSERT_TRUE(ask.ok());
  std::vector<IdRow> rows = Drain(**ask);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].empty());

  auto ask_no = eval.Open(MustParse("ASK WHERE { ?s <http://t/q> ?o }"));
  ASSERT_TRUE(ask_no.ok());
  EXPECT_TRUE(Drain(**ask_no).empty());
}

TEST(CursorTest, HashJoinMatchesNestedLoopOnEveryMode) {
  gen::BsbmOptions opt;
  opt.num_products = 40;
  Graph g = gen::GenerateBsbm(opt);
  BgpEvaluator eval(g);
  const std::string prefix = "PREFIX b: <http://bsbm.example.org/>\n";
  const std::string queries[] = {
      prefix + "SELECT ?o ?price WHERE { ?o b:offerProduct ?p . "
               "?o b:price ?price }",
      prefix + "SELECT ?r ?price WHERE { ?r b:reviewFor ?p . "
               "?o b:offerProduct ?p . ?o b:price ?price }",
      prefix + "SELECT ?p ?l WHERE { ?p b:label ?l . ?p b:producer ?pr . "
               "?pr b:country ?c }",
  };
  for (const std::string& text : queries) {
    BgpQuery q = MustParse(text);
    for (PlannerMode mode : kAllPlannerModes) {
      CursorOptions nlj;
      nlj.hash_join = HashJoinMode::kNever;
      CursorOptions hash;
      hash.hash_join = HashJoinMode::kAlways;
      auto a = eval.Open(q, mode, nlj);
      auto b = eval.Open(q, mode, hash);
      ASSERT_TRUE(a.ok() && b.ok());
      std::vector<IdRow> nlj_rows = Drain(**a);
      std::vector<IdRow> hash_rows = Drain(**b);
      // Same multiset of rows; hash chains preserve index order so for
      // these single-key joins the order matches too.
      EXPECT_EQ(hash_rows.size(), nlj_rows.size()) << text;
      std::sort(nlj_rows.begin(), nlj_rows.end());
      std::sort(hash_rows.begin(), hash_rows.end());
      EXPECT_EQ(hash_rows, nlj_rows) << text;
    }
  }
}

TEST(CursorTest, HashJoinHandlesRepeatedVariablePatterns) {
  Graph g = MakeLoopGraph();
  BgpEvaluator eval(g);
  // Second pattern ?x p ?x joins on ?x with a repeated variable: the build
  // side holds all p-triples, probing must keep only consistent bindings
  // (the self loop) — and only for input rows whose ?x is s1.
  BgpQuery q = MustParse(
      "SELECT ?x ?o WHERE { ?x <http://t/p> ?o . ?x <http://t/p> ?x }");
  CursorOptions hash;
  hash.hash_join = HashJoinMode::kAlways;
  auto with_hash = eval.Open(q, PlannerMode::kNaive, hash);
  auto with_nlj = eval.Open(q, PlannerMode::kNaive);
  ASSERT_TRUE(with_hash.ok() && with_nlj.ok());
  std::vector<IdRow> hash_rows = Drain(**with_hash);
  EXPECT_EQ(hash_rows, Drain(**with_nlj));
  ASSERT_EQ(hash_rows.size(), 3u);  // s1's three objects
}

// ----------------------------------------------------------- Open surface

TEST(OpenTest, StreamsEveryDistinctAnswerOnce) {
  gen::BsbmOptions opt;
  opt.num_products = 30;
  Graph g = gen::GenerateBsbm(opt);
  BgpEvaluator eval(g);
  BgpQuery q = MustParse(
      "PREFIX b: <http://bsbm.example.org/>\n"
      "SELECT ?p ?l WHERE { ?p b:label ?l . ?p b:producer ?pr }");
  // The answer set straight off the triples: every (?p, label) pair whose
  // ?p has a producer.
  const TermId label =
      g.dict().Lookup(Term::Iri("http://bsbm.example.org/label"));
  const TermId producer =
      g.dict().Lookup(Term::Iri("http://bsbm.example.org/producer"));
  std::set<TermId> produced;
  g.ForEachTriple([&](const Triple& t) {
    if (t.p == producer) produced.insert(t.s);
  });
  std::set<std::string> expected;
  g.ForEachTriple([&](const Triple& t) {
    if (t.p == label && produced.count(t.s) > 0) {
      expected.insert(g.dict().Decode(t.s).ToNTriples() + " " +
                      g.dict().Decode(t.o).ToNTriples());
    }
  });
  ASSERT_FALSE(expected.empty());

  auto cursor = eval.Open(q);
  ASSERT_TRUE(cursor.ok());
  std::vector<std::string> streamed;
  IdRow row;
  while ((*cursor)->Next(&row)) {
    Row decoded = eval.Decode(row);
    ASSERT_EQ(decoded.size(), 2u);
    streamed.push_back(decoded[0].ToNTriples() + " " +
                       decoded[1].ToNTriples());
  }
  EXPECT_TRUE((*cursor)->status().ok());
  EXPECT_EQ(streamed.size(), expected.size());  // no duplicates
  EXPECT_EQ(std::set<std::string>(streamed.begin(), streamed.end()),
            expected);
}

TEST(OpenTest, ValidatesTheHeadAndLimitZeroProducesNothing) {
  Graph g = MakeLoopGraph();
  BgpEvaluator eval(g);
  BgpQuery q = MustParse("SELECT ?s WHERE { ?s <http://t/p> ?o }");
  q.distinguished = {"gone"};
  EXPECT_TRUE(eval.Open(q).status().IsInvalidArgument());
  q.distinguished = {"s"};
  CursorOptions zero;
  zero.limit = 0;
  auto cursor = eval.Open(q, zero);
  ASSERT_TRUE(cursor.ok());
  EXPECT_TRUE(Drain(**cursor).empty());
}

TEST(OpenTest, CursorOutlivesThePlanItWasCompiledFrom) {
  Graph g = MakeLoopGraph();
  BgpEvaluator eval(g);
  BgpQuery q = MustParse("SELECT ?s ?o WHERE { ?s <http://t/p> ?o }");
  std::unique_ptr<Cursor> cursor;
  {
    QueryPlan plan = eval.Plan(q);
    auto opened = eval.Open(q, plan);
    ASSERT_TRUE(opened.ok());
    cursor = std::move(*opened);
  }  // plan destroyed; the cursor must have copied what it needs
  EXPECT_EQ(Drain(*cursor).size(), 4u);
}

TEST(ExplainTest, OperatorCountersFeedTheExplanation) {
  Graph g = MakeLoopGraph();
  BgpEvaluator eval(g);
  auto ex = eval.Explain(MustParse(
      "SELECT ?s WHERE { ?s <http://t/p> ?o }"));
  ASSERT_TRUE(ex.ok());
  ASSERT_FALSE(ex->operators.empty());
  // Root first; the tree here is Project -> Distinct over one scan.
  EXPECT_EQ(ex->operators.front().op, "Distinct");
  EXPECT_EQ(ex->operators.front().rows_produced, ex->num_result_rows);
  bool found_scan = false;
  for (const OperatorStats& op : ex->operators) {
    if (op.op.find("IndexScan") != std::string::npos) {
      found_scan = true;
      EXPECT_EQ(op.rows_produced, 4u);
      EXPECT_NE(op.op.find("http://t/p"), std::string::npos);
    }
  }
  EXPECT_TRUE(found_scan);
  std::string rendered = ex->ToString();
  EXPECT_NE(rendered.find("operators (rows produced)"), std::string::npos);
  EXPECT_NE(rendered.find("Distinct"), std::string::npos);
}

TEST(PrunedOpenTest, PrunedQueriesStreamNothingWithoutTouchingTheGraph) {
  gen::BsbmOptions opt;
  opt.num_products = 20;
  Graph g = gen::GenerateBsbm(opt);
  auto pruned_or = SummaryPrunedEvaluator::Create(g);
  ASSERT_TRUE(pruned_or.ok()) << pruned_or.status().ToString();
  SummaryPrunedEvaluator& pruned = **pruned_or;
  BgpQuery impossible = MustParse(
      "PREFIX b: <http://bsbm.example.org/>\n"
      "SELECT ?x WHERE { ?x b:neverUsedProperty ?y }");
  auto cursor = pruned.Open(impossible);
  ASSERT_TRUE(cursor.ok());
  IdRow row;
  EXPECT_FALSE((*cursor)->Next(&row));
  EXPECT_EQ(pruned.stats().pruned_by_summary, 1u);
  EXPECT_EQ(pruned.stats().graph_probes, 0u);

  // A bad head must error even when the summary would prune the query.
  BgpQuery bad = impossible;
  bad.distinguished = {"gone"};
  EXPECT_TRUE(pruned.Open(bad).status().IsInvalidArgument());

  // An admitted query reaches the graph and streams one row per product
  // with a producer (every generated product has one).
  BgpQuery live = MustParse(
      "PREFIX b: <http://bsbm.example.org/>\n"
      "SELECT ?p WHERE { ?p b:producer ?pr }");
  auto rows = Drain(pruned, live);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), opt.num_products);
  EXPECT_EQ(pruned.stats().graph_probes, 1u);
}

}  // namespace
}  // namespace rdfsum::query
