#include <gtest/gtest.h>

#include "gen/lubm.h"
#include "gen/paper_example.h"
#include "oracle/drain.h"
#include "query/pruned_evaluator.h"
#include "query/rbgp.h"
#include "query/sparql_parser.h"
#include "reasoner/saturation.h"

namespace rdfsum::query {
namespace {

BgpQuery MustParse(const std::string& text) {
  auto q = ParseSparql(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

class PrunedEvaluatorTest : public ::testing::Test {
 protected:
  PrunedEvaluatorTest()
      : g_(gen::GenerateLubm([] {
          gen::LubmOptions opt;
          opt.num_universities = 1;
          return opt;
        }())),
        pruned_(SummaryPrunedEvaluator::Create(g_).value()) {}

  Graph g_;
  std::unique_ptr<SummaryPrunedEvaluator> pruned_;
};

TEST_F(PrunedEvaluatorTest, AgreesWithDirectEvaluationOnHits) {
  BgpQuery q = MustParse(
      "PREFIX l: <http://lubm.example.org/>\n"
      "SELECT ?p WHERE { ?p l:teacherOf ?c }");
  Graph g_inf = reasoner::Saturate(g_);
  BgpEvaluator direct(g_inf);
  EXPECT_TRUE(pruned_->ExistsMatch(q));
  auto expected = Drain(direct, q);
  auto actual = Drain(*pruned_, q);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(actual->size(), expected->size());
}

TEST_F(PrunedEvaluatorTest, DecodeBorrowsTheQueriedGraphsDictionary) {
  // The pruned evaluator queries Saturate(g_), which shares g_'s
  // dictionary: its rows point at that dictionary's own Terms.
  BgpQuery q = MustParse(
      "PREFIX l: <http://lubm.example.org/>\n"
      "SELECT ?p ?c WHERE { ?p l:teacherOf ?c }");
  auto cursor = pruned_->Open(q);
  ASSERT_TRUE(cursor.ok());
  IdRow ids;
  size_t n = 0;
  while ((*cursor)->Next(&ids)) {
    Row row = pruned_->Decode(ids);
    ASSERT_EQ(row.size(), 2u);
    for (size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(&row[i], &g_.dict().Decode(ids[i]));
    }
    ++n;
  }
  EXPECT_GT(n, 0u);
}

TEST_F(PrunedEvaluatorTest, PrunesAbsentProperty) {
  BgpQuery q = MustParse(
      "PREFIX l: <http://lubm.example.org/>\n"
      "SELECT ?x WHERE { ?x l:neverUsedProperty ?y }");
  EXPECT_FALSE(pruned_->ExistsMatch(q));
  EXPECT_EQ(pruned_->stats().pruned_by_summary, 1u);
  EXPECT_EQ(pruned_->stats().graph_probes, 0u);
}

TEST_F(PrunedEvaluatorTest, PrunedEvaluateReturnsEmptyRows) {
  BgpQuery q = MustParse(
      "PREFIX l: <http://lubm.example.org/>\n"
      "SELECT ?x WHERE { ?x l:advisor ?a . ?a l:takesCourse ?c }");
  // Professors never take courses: the weak summary proves it (advisor
  // targets and takesCourse sources live in disjoint clique classes)...
  // unless the summary conflates them; either way the result must agree
  // with direct evaluation.
  Graph g_inf = reasoner::Saturate(g_);
  BgpEvaluator direct(g_inf);
  auto direct_rows = Drain(direct, q);
  auto pruned_rows = Drain(*pruned_, q);
  ASSERT_TRUE(direct_rows.ok());
  ASSERT_TRUE(pruned_rows.ok());
  EXPECT_EQ(pruned_rows->size(), direct_rows->size());
}

TEST_F(PrunedEvaluatorTest, NeverPrunesAQueryWithAnswers) {
  // Soundness of pruning on a batch of generated RBGP queries.
  Graph g_inf = reasoner::Saturate(g_);
  Random rng(11);
  for (int i = 0; i < 30; ++i) {
    BgpQuery q = GenerateRbgpQuery(g_inf, rng);
    if (q.triples.empty()) continue;
    EXPECT_TRUE(pruned_->ExistsMatch(q)) << q.ToString();
  }
  EXPECT_EQ(pruned_->stats().pruned_by_summary, 0u);
}

TEST_F(PrunedEvaluatorTest, NonRbgpQueriesBypassTheSummary) {
  // Constant in object position: outside Definition 3, goes to the graph.
  BgpQuery q = MustParse(
      "PREFIX l: <http://lubm.example.org/>\n"
      "SELECT ?x WHERE { ?x l:name \"University 0\" }");
  EXPECT_TRUE(pruned_->ExistsMatch(q));
  EXPECT_GE(pruned_->stats().graph_probes, 1u);
}

TEST_F(PrunedEvaluatorTest, UnsaturatedModeMatchesExplicitOnly) {
  gen::BookExample book = gen::BuildBookExample();
  SummaryPrunedEvaluator::Options options;
  options.saturate = false;
  auto pruned_or = SummaryPrunedEvaluator::Create(book.graph, options);
  ASSERT_TRUE(pruned_or.ok()) << pruned_or.status().ToString();
  SummaryPrunedEvaluator& pruned = **pruned_or;
  BgpQuery q = MustParse(
      "PREFIX b: <http://example.org/book/>\n"
      "SELECT ?x WHERE { ?x b:hasAuthor ?a }");
  // hasAuthor exists only implicitly; without saturation there is no match.
  EXPECT_FALSE(pruned.ExistsMatch(q));

  auto saturated_or = SummaryPrunedEvaluator::Create(book.graph);
  ASSERT_TRUE(saturated_or.ok()) << saturated_or.status().ToString();
  SummaryPrunedEvaluator& saturated = **saturated_or;
  EXPECT_TRUE(saturated.ExistsMatch(q));
}

TEST_F(PrunedEvaluatorTest, StrongSummaryPrunesAtLeastAsMuchAsWeak) {
  // S refines W, so everything W prunes, S prunes too.
  Graph g_inf = reasoner::Saturate(g_);
  SummaryPrunedEvaluator::Options strong_opt;
  strong_opt.kind = summary::SummaryKind::kStrong;
  auto strong_or = SummaryPrunedEvaluator::Create(g_, strong_opt);
  ASSERT_TRUE(strong_or.ok()) << strong_or.status().ToString();
  SummaryPrunedEvaluator& strong = **strong_or;

  std::vector<std::string> texts = {
      "PREFIX l: <http://lubm.example.org/>\n"
      "SELECT ?x WHERE { ?x l:takesCourse ?c . ?c l:teacherOf ?y }",
      "PREFIX l: <http://lubm.example.org/>\n"
      "SELECT ?x WHERE { ?x l:worksFor ?d . ?x l:takesCourse ?c }",
      "PREFIX l: <http://lubm.example.org/>\n"
      "SELECT ?x WHERE { ?x l:headOf ?d . ?d l:advisor ?p }",
  };
  for (const auto& text : texts) {
    BgpQuery q = MustParse(text);
    bool weak_says = pruned_->ExistsMatch(q);
    bool strong_says = strong.ExistsMatch(q);
    Graph gi = reasoner::Saturate(g_);
    BgpEvaluator direct(gi);
    bool truth = direct.ExistsMatch(q);
    // Neither may prune a true hit.
    if (truth) {
      EXPECT_TRUE(weak_says);
      EXPECT_TRUE(strong_says);
    }
    // Pruning is monotone: if weak pruned, refinement cannot resurrect it.
    if (!weak_says) {
      EXPECT_FALSE(truth);
    }
    if (!strong_says) {
      EXPECT_FALSE(truth);
    }
  }
}

}  // namespace
}  // namespace rdfsum::query
