// Differential wall for the cost-based planner: every planner mode must
// return a result set byte-identical to the frozen naive (textual-order)
// plan, across {BSBM, LUBM, paper example, hetero} x {raw, saturated}, on
// both fixed multi-join queries and generated RBGP workloads. Join order
// must never change answers — only speed. The join algorithm must not
// either: nested loops (HashJoinMode::kNever) and every step hashed
// (kAlways) return the same set under every planner mode, and a
// LIMIT/OFFSET page is exactly that window of its mode's full stream (the
// tree torn down with input still unread).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "gen/bsbm.h"
#include "gen/hetero.h"
#include "gen/lubm.h"
#include "gen/paper_example.h"
#include "oracle/drain.h"
#include "query/evaluator.h"
#include "query/pruned_evaluator.h"
#include "query/rbgp.h"
#include "query/sparql_parser.h"
#include "reasoner/saturation.h"
#include "summary/cardinality.h"
#include "summary/summarizer.h"
#include "util/random.h"

namespace rdfsum::query {
namespace {

BgpQuery MustParse(const std::string& text) {
  auto q = ParseSparql(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

/// Order-preserving rendering of a result stream.
std::vector<std::string> Ordered(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::string line;
    for (const Term& t : row) {
      line += t.ToNTriples();
      line += '\t';
    }
    out.push_back(std::move(line));
  }
  return out;
}

/// Canonical, order-independent rendering of a result set.
std::set<std::string> Canonical(const std::vector<Row>& rows) {
  std::vector<std::string> lines = Ordered(rows);
  return std::set<std::string>(lines.begin(), lines.end());
}

struct Workload {
  std::string name;
  Graph graph;
  std::vector<BgpQuery> fixed_queries;
};

Workload BsbmWorkload() {
  gen::BsbmOptions opt;
  opt.num_products = 60;
  Workload w{"bsbm", gen::GenerateBsbm(opt), {}};
  const std::string prefix = "PREFIX b: <http://bsbm.example.org/>\n";
  w.fixed_queries.push_back(MustParse(
      prefix +
      "SELECT ?p ?l WHERE { ?p b:label ?l . ?p b:productFeature ?f . "
      "?p b:producer ?pr . ?pr b:country ?c }"));
  w.fixed_queries.push_back(MustParse(
      prefix +
      "SELECT ?o ?c WHERE { ?pr b:country ?c . ?p b:producer ?pr . "
      "?o b:offerProduct ?p }"));
  w.fixed_queries.push_back(MustParse(
      prefix +
      "SELECT ?r WHERE { ?r b:reviewFor ?p . ?r b:reviewer ?x . "
      "?x b:country ?c . ?p b:productFeature ?f }"));
  return w;
}

Workload LubmWorkload() {
  gen::LubmOptions opt;
  opt.num_universities = 1;
  Workload w{"lubm", gen::GenerateLubm(opt), {}};
  const std::string prefix = "PREFIX l: <http://lubm.example.org/>\n";
  w.fixed_queries.push_back(MustParse(
      prefix +
      "SELECT ?s ?d WHERE { ?s l:advisor ?a . ?a l:worksFor ?d . "
      "?d l:subOrganizationOf ?u }"));
  w.fixed_queries.push_back(MustParse(
      prefix +
      "SELECT ?x WHERE { ?x l:name ?n . ?x l:emailAddress ?e . "
      "?x l:worksFor ?dep }"));
  w.fixed_queries.push_back(MustParse(
      prefix + "ASK WHERE { ?x l:headOf ?d . ?x l:takesCourse ?c }"));
  return w;
}

Workload PaperWorkload() {
  gen::BookExample book = gen::BuildBookExample();
  Workload w{"paper", book.graph.Clone(), {}};
  const std::string prefix = "PREFIX b: <http://example.org/book/>\n";
  w.fixed_queries.push_back(MustParse(
      prefix +
      "SELECT ?x3 WHERE { ?x1 b:hasAuthor ?x2 . ?x2 b:hasName ?x3 . "
      "?x1 b:hasTitle \"Le Port des Brumes\" }"));
  w.fixed_queries.push_back(
      MustParse(prefix + "SELECT ?x WHERE { ?x a b:Publication }"));
  return w;
}

Workload HeteroWorkload() {
  gen::HeteroOptions opt;
  opt.num_nodes = 150;
  opt.seed = 17;
  return Workload{"hetero", gen::GenerateHetero(opt), {}};
}

class PlannerDifferentialTest : public ::testing::TestWithParam<bool> {};

void RunDifferential(const Workload& w, bool saturate) {
  Graph target = saturate ? reasoner::Saturate(w.graph) : w.graph.Clone();
  // kSummary gets a real estimator so the refinement path is exercised.
  summary::CardinalityEstimator estimator(
      summary::Summarize(target, summary::SummaryKind::kWeak));
  EvaluatorOptions options;
  options.estimator = &estimator;
  BgpEvaluator eval(target, options);

  std::vector<BgpQuery> queries = w.fixed_queries;
  Random rng(42);
  for (int i = 0; i < 12; ++i) {
    BgpQuery q = GenerateRbgpQuery(target, rng);
    if (!q.triples.empty()) queries.push_back(std::move(q));
  }

  for (const BgpQuery& q : queries) {
    auto baseline = Drain(eval, q, PlannerMode::kNaive);
    ASSERT_TRUE(baseline.ok()) << q.ToString();
    std::set<std::string> expected = Canonical(*baseline);
    const uint64_t embeddings =
        eval.Explain(q, PlannerMode::kNaive)->num_embeddings;
    for (PlannerMode mode : kAllPlannerModes) {
      // Embedding counts (pre-projection) must agree too.
      EXPECT_EQ(eval.Explain(q, mode)->num_embeddings, embeddings)
          << PlannerModeName(mode) << "\n"
          << q.ToString();
      for (HashJoinMode hj : {HashJoinMode::kFromPlan, HashJoinMode::kNever,
                              HashJoinMode::kAlways}) {
        CursorOptions options;
        options.hash_join = hj;
        auto full = Drain(eval, q, mode, options);
        ASSERT_TRUE(full.ok()) << q.ToString();
        EXPECT_EQ(Canonical(*full), expected)
            << w.name << " mode=" << PlannerModeName(mode)
            << " hj=" << static_cast<int>(hj) << " saturate=" << saturate
            << "\n"
            << q.ToString();
        const std::vector<std::string> stream = Ordered(*full);
        for (size_t limit : {size_t{0}, size_t{1}, size_t{3}}) {
          CursorOptions page = options;
          page.limit = limit;
          page.offset = 1;
          auto rows = Drain(eval, q, mode, page);
          ASSERT_TRUE(rows.ok()) << q.ToString();
          std::vector<std::string> window;
          for (size_t i = 1; i < stream.size() && window.size() < limit;
               ++i) {
            window.push_back(stream[i]);
          }
          EXPECT_EQ(Ordered(*rows), window)
              << w.name << " mode=" << PlannerModeName(mode)
              << " hj=" << static_cast<int>(hj) << " limit=" << limit
              << "\n"
              << q.ToString();
        }
      }
    }
  }
}

TEST_P(PlannerDifferentialTest, Bsbm) { RunDifferential(BsbmWorkload(), GetParam()); }
TEST_P(PlannerDifferentialTest, Lubm) { RunDifferential(LubmWorkload(), GetParam()); }
TEST_P(PlannerDifferentialTest, Paper) { RunDifferential(PaperWorkload(), GetParam()); }
TEST_P(PlannerDifferentialTest, Hetero) {
  RunDifferential(HeteroWorkload(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(RawAndSaturated, PlannerDifferentialTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "saturated" : "raw";
                         });

// The pruned evaluator must agree with direct evaluation under every
// planner mode, including the estimator-backed kSummary.
TEST(PrunedPlannerDifferentialTest, AllModesAgreeWithDirect) {
  gen::LubmOptions opt;
  opt.num_universities = 1;
  Graph g = gen::GenerateLubm(opt);
  Graph g_inf = reasoner::Saturate(g);
  BgpEvaluator direct(g_inf);

  for (PlannerMode mode : kAllPlannerModes) {
    SummaryPrunedEvaluator::Options options;
    options.planner = mode;
    auto pruned_or = SummaryPrunedEvaluator::Create(g, options);
    ASSERT_TRUE(pruned_or.ok()) << pruned_or.status().ToString();
    SummaryPrunedEvaluator& pruned = **pruned_or;
    if (mode == PlannerMode::kSummary) {
      ASSERT_NE(pruned.estimator(), nullptr);
    } else {
      EXPECT_EQ(pruned.estimator(), nullptr);
    }
    Random rng(5);
    for (int i = 0; i < 10; ++i) {
      BgpQuery q = GenerateRbgpQuery(g_inf, rng);
      if (q.triples.empty()) continue;
      auto expected = Drain(direct, q, PlannerMode::kNaive);
      auto actual = Drain(pruned, q);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(actual.ok());
      EXPECT_EQ(Canonical(*actual), Canonical(*expected))
          << PlannerModeName(mode) << " " << q.ToString();
    }
  }
}

TEST(PrunedPlannerDifferentialTest, PrunedExplainStillValidatesTheHead) {
  gen::LubmOptions opt;
  opt.num_universities = 1;
  Graph g = gen::GenerateLubm(opt);
  auto pruned_or = SummaryPrunedEvaluator::Create(g);
  ASSERT_TRUE(pruned_or.ok()) << pruned_or.status().ToString();
  SummaryPrunedEvaluator& pruned = **pruned_or;
  // A query the summary prunes (unused property), with a manually broken
  // head: the error must win over the pruning shortcut.
  BgpQuery q = MustParse(
      "PREFIX l: <http://lubm.example.org/>\n"
      "SELECT ?x WHERE { ?x l:neverUsedProperty ?y }");
  q.distinguished = {"gone"};
  EXPECT_TRUE(pruned.Explain(q).status().IsInvalidArgument());
  // With a valid head the pruned explanation comes back unexecuted.
  q.distinguished = {"x"};
  auto ex = pruned.Explain(q);
  ASSERT_TRUE(ex.ok());
  EXPECT_TRUE(ex->pruned_by_summary);
  EXPECT_EQ(ex->num_embeddings, 0u);
}

}  // namespace
}  // namespace rdfsum::query
