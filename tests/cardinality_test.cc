// The summary-based cardinality estimator: the Proposition-1 soundness
// bounds (estimate 0 iff provably empty, >= 1 whenever a summary embedding
// exists), exactness on single per-property patterns, and its integration
// into the kSummary planner mode.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gen/hetero.h"
#include "gen/lubm.h"
#include "gen/paper_example.h"
#include "oracle/drain.h"
#include "query/evaluator.h"
#include "query/rbgp.h"
#include "query/sparql_parser.h"
#include "summary/cardinality.h"
#include "summary/summarizer.h"
#include "util/random.h"

namespace rdfsum::summary {
namespace {

using query::BgpEvaluator;
using query::BgpQuery;
using query::GenerateRbgpQuery;
using query::ParseSparql;
using query::TriplePatternQ;

BgpQuery MustParse(const std::string& text) {
  auto q = ParseSparql(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

class CardinalityTest : public ::testing::Test {
 protected:
  CardinalityTest()
      : g_(gen::GenerateLubm([] {
          gen::LubmOptions opt;
          opt.num_universities = 1;
          return opt;
        }())),
        estimator_(Summarize(g_, SummaryKind::kWeak)) {}

  Graph g_;
  CardinalityEstimator estimator_;
};

TEST_F(CardinalityTest, SinglePropertyPatternIsExact) {
  // The multiplicities of one predicate's summary edges partition its
  // triples, so the single-pattern sum is the exact count.
  BgpEvaluator eval(g_);
  for (const char* prop : {"advisor", "takesCourse", "worksFor", "name"}) {
    BgpQuery q = MustParse("SELECT ?s WHERE { ?s <http://lubm.example.org/" +
                           std::string(prop) + "> ?o }");
    double est = estimator_.EstimatePatternCount(q.triples[0]);
    EXPECT_DOUBLE_EQ(est, static_cast<double>(eval.Explain(q)->num_embeddings))
        << prop;
    CardinalityEstimate whole = estimator_.Estimate(q);
    EXPECT_DOUBLE_EQ(whole.estimate, est) << prop;
  }
}

TEST_F(CardinalityTest, NonEmptyRbgpQueriesEstimateAtLeastOne) {
  // GenerateRbgpQuery samples an embedding witness, so every query is
  // non-empty on g_ — by representativeness the estimate may never be 0,
  // and the clamp guarantees >= 1.
  Random rng(23);
  for (int i = 0; i < 40; ++i) {
    BgpQuery q = GenerateRbgpQuery(g_, rng);
    if (q.triples.empty()) continue;
    CardinalityEstimate est = estimator_.Estimate(q);
    EXPECT_GE(est.estimate, 1.0) << q.ToString();
  }
}

TEST_F(CardinalityTest, ZeroEstimateImpliesActuallyEmpty) {
  BgpEvaluator eval(g_);
  Random rng(29);
  int zero_checked = 0;
  for (int i = 0; i < 40; ++i) {
    BgpQuery q = GenerateRbgpQuery(g_, rng);
    if (q.triples.size() < 2) continue;
    // Break the query: retarget one pattern's property to one that exists
    // but never chains this way, then check the contrapositive of
    // Proposition 1 on whatever becomes empty.
    BgpQuery broken = q;
    broken.triples[0].p =
        query::PatternTerm::Const(Term::Iri("http://lubm.example.org/headOf"));
    CardinalityEstimate est = estimator_.Estimate(broken);
    if (est.estimate == 0.0) {
      ++zero_checked;
      EXPECT_EQ(eval.Explain(broken)->num_embeddings, 0u) << broken.ToString();
    }
  }
  // The mutation must have produced at least a few provably-empty queries,
  // otherwise this test checks nothing.
  EXPECT_GT(zero_checked, 0);
}

TEST_F(CardinalityTest, UnknownConstantEstimatesZero) {
  BgpQuery q = MustParse(
      "SELECT ?s WHERE { ?s <http://lubm.example.org/neverUsed> ?o }");
  EXPECT_DOUBLE_EQ(estimator_.Estimate(q).estimate, 0.0);
  EXPECT_DOUBLE_EQ(estimator_.EstimatePatternCount(q.triples[0]), 0.0);
}

TEST_F(CardinalityTest, ExtentSizesSumToMappedNodes) {
  uint64_t total = 0;
  std::unordered_set<TermId> summary_nodes;
  for (const auto& [node, summary_node] : estimator_.summary().node_map) {
    (void)node;
    summary_nodes.insert(summary_node);
  }
  for (TermId sn : summary_nodes) total += estimator_.ExtentSize(sn);
  EXPECT_EQ(total, estimator_.summary().node_map.size());
  // Nodes the summary never minted report extent 1 (schema, classes).
  EXPECT_EQ(estimator_.ExtentSize(kInvalidTermId), 1u);
}

TEST_F(CardinalityTest, JoinEstimateIsDampedByExtents) {
  // A 2-pattern chain must not estimate as the plain product of the two
  // pattern counts (unless every join class is a singleton).
  BgpQuery chain = MustParse(
      "PREFIX l: <http://lubm.example.org/>\n"
      "SELECT ?x WHERE { ?x l:advisor ?a . ?a l:teacherOf ?c }");
  double product =
      estimator_.EstimatePatternCount(chain.triples[0]) *
      estimator_.EstimatePatternCount(chain.triples[1]);
  CardinalityEstimate joint = estimator_.Estimate(chain);
  EXPECT_GT(joint.estimate, 0.0);
  EXPECT_LE(joint.estimate, product);
}

TEST_F(CardinalityTest, EstimatorOutlivesItsSummaryResult) {
  // The estimator owns its summary: destroy the moved-from SummaryResult
  // and keep estimating.
  auto scoped = std::make_unique<SummaryResult>(
      Summarize(g_, SummaryKind::kStrong));
  CardinalityEstimator est(std::move(*scoped));
  scoped.reset();
  BgpQuery q = MustParse(
      "SELECT ?s WHERE { ?s <http://lubm.example.org/advisor> ?o }");
  EXPECT_GE(est.Estimate(q).estimate, 1.0);
}

TEST(CardinalityOptionsTest, BudgetTruncationIsReported) {
  gen::HeteroOptions opt;
  opt.num_nodes = 120;
  opt.type_probability = 0.0;  // all-singleton-ish structure: big summary
  Graph g = gen::GenerateHetero(opt);
  SummaryResult s = Summarize(g, SummaryKind::kBisimulation);
  CardinalityEstimatorOptions copt;
  copt.max_summary_embeddings = 2;
  CardinalityEstimator est(std::move(s), copt);
  // An all-variable pattern has one summary embedding per summary edge —
  // far more than 2.
  BgpQuery q;
  q.distinguished = {"s"};
  TriplePatternQ t;
  t.s = query::PatternTerm::Var("s");
  t.p = query::PatternTerm::Var("p");
  t.o = query::PatternTerm::Var("o");
  q.triples.push_back(t);
  CardinalityEstimate ce = est.Estimate(q);
  EXPECT_TRUE(ce.truncated);
  EXPECT_GE(ce.estimate, 1.0);
}

TEST_F(CardinalityTest, ProbeBudgetExhaustionNeverFakesEmptiness) {
  // A probe budget so tight the enumeration dies before completing a
  // single embedding: the estimate must fall back to the per-pattern
  // upper bound, never to the (provably-empty) 0 verdict.
  CardinalityEstimatorOptions opt;
  opt.max_summary_probes = 1;
  CardinalityEstimator strangled(estimator_.summary(), opt);
  BgpQuery chain = MustParse(
      "PREFIX l: <http://lubm.example.org/>\n"
      "SELECT ?x WHERE { ?x l:advisor ?a . ?a l:teacherOf ?c }");
  CardinalityEstimate est = strangled.Estimate(chain);
  EXPECT_TRUE(est.truncated);
  EXPECT_GE(est.estimate, 1.0);  // the query is non-empty on g_
  // A pattern that cannot match any summary edge still proves emptiness
  // even under the starved budget: l:Professor is interned (as a class)
  // but never occurs as a predicate, so the fallback product hits 0.
  BgpQuery empty = MustParse(
      "PREFIX l: <http://lubm.example.org/>\n"
      "SELECT ?x WHERE { ?x l:advisor ?a . ?a l:Professor ?c }");
  EXPECT_DOUBLE_EQ(strangled.Estimate(empty).estimate, 0.0);
}

// -------------------------------------------------- planner integration

TEST(SummaryPlannerTest, EstimatorDrivenPlansReturnIdenticalRows) {
  gen::BookExample book = gen::BuildBookExample();
  CardinalityEstimator est(Summarize(book.graph, SummaryKind::kWeak));
  query::EvaluatorOptions options;
  options.planner = query::PlannerMode::kSummary;
  options.estimator = &est;
  BgpEvaluator with_estimator(book.graph, options);
  BgpEvaluator plain(book.graph);
  Random rng(7);
  for (int i = 0; i < 25; ++i) {
    BgpQuery q = GenerateRbgpQuery(book.graph, rng);
    if (q.triples.empty()) continue;
    auto expected = query::Drain(plain, q, query::PlannerMode::kNaive);
    auto actual = query::Drain(with_estimator, q);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(actual->size(), expected->size()) << q.ToString();
    query::QueryPlan plan = with_estimator.Plan(q);
    EXPECT_EQ(plan.mode, query::PlannerMode::kSummary);
    EXPECT_EQ(plan.steps.size(), q.triples.size());
  }
}

}  // namespace
}  // namespace rdfsum::summary
