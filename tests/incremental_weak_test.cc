#include <gtest/gtest.h>

#include "gen/bsbm.h"
#include "gen/hetero.h"
#include "gen/lubm.h"
#include "gen/paper_example.h"
#include "summary/incremental_weak.h"
#include "summary/isomorphism.h"
#include "summary/property_checks.h"
#include "summary/summarizer.h"

namespace rdfsum::summary {
namespace {

TEST(IncrementalWeakTest, MatchesBatchOnFigure2) {
  gen::Figure2Example ex = gen::BuildFigure2();
  SummaryResult inc = IncrementalWeakSummarize(ex.graph);
  SummaryResult batch = Summarize(ex.graph, SummaryKind::kWeak);
  EXPECT_TRUE(AreSummariesIsomorphic(inc.graph, batch.graph));
  EXPECT_EQ(inc.stats.num_data_nodes, 6u);
  EXPECT_EQ(inc.graph.data().size(), 6u);
}

TEST(IncrementalWeakTest, NodeMapIsHomomorphism) {
  gen::Figure2Example ex = gen::BuildFigure2();
  SummaryResult inc = IncrementalWeakSummarize(ex.graph);
  EXPECT_TRUE(CheckHomomorphism(ex.graph, inc).ok());
}

TEST(IncrementalWeakTest, UniqueDataProperties) {
  gen::Figure2Example ex = gen::BuildFigure2();
  SummaryResult inc = IncrementalWeakSummarize(ex.graph);
  EXPECT_TRUE(CheckUniqueDataProperties(ex.graph, inc.graph).ok());
}

TEST(IncrementalWeakTest, TypedOnlyResourcesGetOneNode) {
  Graph g;
  Dictionary& d = g.dict();
  const TermId rdf_type = g.vocab().rdf_type;
  g.Add({d.EncodeIri("x"), rdf_type, d.EncodeIri("C1")});
  g.Add({d.EncodeIri("y"), rdf_type, d.EncodeIri("C2")});
  SummaryResult inc = IncrementalWeakSummarize(g);
  EXPECT_EQ(inc.node_map.at(d.EncodeIri("x")),
            inc.node_map.at(d.EncodeIri("y")));
  EXPECT_EQ(inc.graph.types().size(), 2u);
}

TEST(IncrementalWeakTest, NodeMapGroupsFigure4Class) {
  gen::Figure2Example ex = gen::BuildFigure2();
  SummaryResult inc = IncrementalWeakSummarize(ex.graph);
  const TermId r1_node = inc.node_map.at(ex.r1);
  size_t members = 0;
  for (const auto& [n, h] : inc.node_map) members += h == r1_node;
  EXPECT_EQ(members, 5u);
}

TEST(IncrementalWeakTest, MergeOrderDoesNotChangeResult) {
  gen::Figure2Example ex = gen::BuildFigure2();
  IncrementalWeakOptions by_size;
  by_size.merge_smaller_node = true;
  IncrementalWeakOptions arbitrary;
  arbitrary.merge_smaller_node = false;
  SummaryResult a = IncrementalWeakSummarize(ex.graph, by_size);
  SummaryResult b = IncrementalWeakSummarize(ex.graph, arbitrary);
  EXPECT_TRUE(AreSummariesIsomorphic(a.graph, b.graph));
}

class IncrementalVsBatchTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalVsBatchTest, IsomorphicOnRandomGraphs) {
  gen::HeteroOptions opt;
  opt.seed = GetParam();
  opt.num_nodes = 180;
  opt.num_properties = 15;
  opt.type_probability = 0.4;
  Graph g = gen::GenerateHetero(opt);
  SummaryResult inc = IncrementalWeakSummarize(g);
  SummaryResult batch = Summarize(g, SummaryKind::kWeak);
  EXPECT_EQ(inc.graph.NumTriples(), batch.graph.NumTriples());
  EXPECT_TRUE(AreSummariesIsomorphic(inc.graph, batch.graph));
  EXPECT_TRUE(CheckHomomorphism(g, inc).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalVsBatchTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(IncrementalWeakTest, MatchesBatchOnBsbm) {
  gen::BsbmOptions opt;
  opt.num_products = 120;
  Graph g = gen::GenerateBsbm(opt);
  SummaryResult inc = IncrementalWeakSummarize(g);
  SummaryResult batch = Summarize(g, SummaryKind::kWeak);
  EXPECT_EQ(inc.stats.num_data_nodes, batch.stats.num_data_nodes);
  EXPECT_EQ(inc.graph.data().size(), batch.graph.data().size());
  EXPECT_EQ(inc.graph.types().size(), batch.graph.types().size());
  EXPECT_TRUE(AreSummariesIsomorphic(inc.graph, batch.graph));
}

TEST(IncrementalWeakTest, MatchesBatchOnLubm) {
  gen::LubmOptions opt;
  opt.num_universities = 1;
  Graph g = gen::GenerateLubm(opt);
  SummaryResult inc = IncrementalWeakSummarize(g);
  SummaryResult batch = Summarize(g, SummaryKind::kWeak);
  EXPECT_TRUE(AreSummariesIsomorphic(inc.graph, batch.graph));
}

TEST(IncrementalWeakTest, EmptyGraph) {
  Graph g;
  SummaryResult inc = IncrementalWeakSummarize(g);
  EXPECT_TRUE(inc.graph.Empty());
}

// ------------------------------------------------ incremental typed weak

TEST(IncrementalTypedWeakTest, MatchesBatchOnFigure2) {
  gen::Figure2Example ex = gen::BuildFigure2();
  SummaryResult inc = IncrementalTypedWeakSummarize(ex.graph);
  SummaryResult batch = Summarize(ex.graph, SummaryKind::kTypedWeak);
  EXPECT_EQ(inc.stats.num_data_nodes, 9u);
  EXPECT_TRUE(AreSummariesIsomorphic(inc.graph, batch.graph));
}

TEST(IncrementalTypedWeakTest, TypedNodesNeverMerge) {
  gen::Figure2Example ex = gen::BuildFigure2();
  SummaryResult inc = IncrementalTypedWeakSummarize(ex.graph);
  EXPECT_NE(inc.node_map.at(ex.r1), inc.node_map.at(ex.r2));
  EXPECT_EQ(inc.node_map.at(ex.r2), inc.node_map.at(ex.r6));  // same set
}

TEST(IncrementalTypedWeakTest, HomomorphismHolds) {
  gen::Figure2Example ex = gen::BuildFigure2();
  SummaryResult inc = IncrementalTypedWeakSummarize(ex.graph);
  EXPECT_TRUE(CheckHomomorphism(ex.graph, inc).ok());
}

class IncrementalTypedWeakSweepTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalTypedWeakSweepTest, IsomorphicToBatchTypedWeak) {
  gen::HeteroOptions opt;
  opt.seed = GetParam();
  opt.num_nodes = 150;
  opt.num_properties = 12;
  opt.type_probability = 0.45;
  Graph g = gen::GenerateHetero(opt);
  SummaryResult inc = IncrementalTypedWeakSummarize(g);
  SummaryResult batch = Summarize(g, SummaryKind::kTypedWeak);
  EXPECT_EQ(inc.graph.NumTriples(), batch.graph.NumTriples());
  EXPECT_TRUE(AreSummariesIsomorphic(inc.graph, batch.graph));
  EXPECT_TRUE(CheckHomomorphism(g, inc).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalTypedWeakSweepTest,
                         ::testing::Values(2, 4, 6, 8, 10, 12));

TEST(IncrementalTypedWeakTest, MatchesBatchOnBsbm) {
  gen::BsbmOptions opt;
  opt.num_products = 100;
  opt.untyped_offer_fraction = 0.3;
  Graph g = gen::GenerateBsbm(opt);
  SummaryResult inc = IncrementalTypedWeakSummarize(g);
  SummaryResult batch = Summarize(g, SummaryKind::kTypedWeak);
  EXPECT_EQ(inc.stats.num_data_nodes, batch.stats.num_data_nodes);
  EXPECT_TRUE(AreSummariesIsomorphic(inc.graph, batch.graph));
}

TEST(IncrementalTypedWeakTest, MatchesBatchOnLubm) {
  // LUBM's multi-typed resources exercise the pinned class-set nodes.
  gen::LubmOptions opt;
  opt.num_universities = 1;
  Graph g = gen::GenerateLubm(opt);
  SummaryResult inc = IncrementalTypedWeakSummarize(g);
  SummaryResult batch = Summarize(g, SummaryKind::kTypedWeak);
  EXPECT_EQ(inc.stats.num_data_nodes, batch.stats.num_data_nodes);
  EXPECT_EQ(inc.graph.NumTriples(), batch.graph.NumTriples());
  EXPECT_TRUE(AreSummariesIsomorphic(inc.graph, batch.graph));
  EXPECT_TRUE(CheckHomomorphism(g, inc).ok());
}

}  // namespace
}  // namespace rdfsum::summary
