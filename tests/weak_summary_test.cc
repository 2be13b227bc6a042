#include <gtest/gtest.h>

#include <set>

#include "gen/hetero.h"
#include "gen/paper_example.h"
#include "rdf/graph_stats.h"
#include "summary/property_checks.h"
#include "summary/summarizer.h"

namespace rdfsum::summary {
namespace {

using gen::BuildFigure2;
using gen::Figure2Example;

class WeakSummaryTest : public ::testing::Test {
 protected:
  WeakSummaryTest() : ex_(BuildFigure2()) {
    result_ = Summarize(ex_.graph, SummaryKind::kWeak);
  }

  TermId Map(TermId n) const { return result_.node_map.at(n); }

  Figure2Example ex_;
  SummaryResult result_;
};

// Figure 4: the weak summary of the running example.

TEST_F(WeakSummaryTest, NodePartitionMatchesFigure4) {
  // {r1..r5} together.
  EXPECT_EQ(Map(ex_.r1), Map(ex_.r2));
  EXPECT_EQ(Map(ex_.r1), Map(ex_.r3));
  EXPECT_EQ(Map(ex_.r1), Map(ex_.r4));
  EXPECT_EQ(Map(ex_.r1), Map(ex_.r5));
  // {a1, a2}, {t1..t4}, {e1, e2}, {c1}.
  EXPECT_EQ(Map(ex_.a1), Map(ex_.a2));
  EXPECT_EQ(Map(ex_.t1), Map(ex_.t2));
  EXPECT_EQ(Map(ex_.t1), Map(ex_.t3));
  EXPECT_EQ(Map(ex_.t1), Map(ex_.t4));
  EXPECT_EQ(Map(ex_.e1), Map(ex_.e2));
  // All five classes are distinct, and r6 (Nτ) is a sixth.
  std::set<TermId> nodes{Map(ex_.r1), Map(ex_.a1), Map(ex_.t1),
                         Map(ex_.e1), Map(ex_.c1), Map(ex_.r6)};
  EXPECT_EQ(nodes.size(), 6u);
}

TEST_F(WeakSummaryTest, SixDataNodesInSummary) {
  EXPECT_EQ(result_.stats.num_data_nodes, 6u);
  EXPECT_EQ(result_.stats.num_class_nodes, 3u);
}

TEST_F(WeakSummaryTest, OneDataEdgePerProperty) {
  EXPECT_EQ(result_.graph.data().size(), 6u);  // |D_G|0p = 6
  EXPECT_TRUE(
      CheckUniqueDataProperties(ex_.graph, result_.graph).ok());
}

TEST_F(WeakSummaryTest, EdgesMatchFigure4) {
  const Graph& h = result_.graph;
  TermId big = Map(ex_.r1);
  EXPECT_TRUE(h.Contains({big, ex_.author, Map(ex_.a1)}));
  EXPECT_TRUE(h.Contains({big, ex_.title, Map(ex_.t1)}));
  EXPECT_TRUE(h.Contains({big, ex_.editor, Map(ex_.e1)}));
  EXPECT_TRUE(h.Contains({big, ex_.comment, Map(ex_.c1)}));
  EXPECT_TRUE(h.Contains({Map(ex_.a1), ex_.reviewed, big}));
  EXPECT_TRUE(h.Contains({Map(ex_.e1), ex_.published, big}));
}

TEST_F(WeakSummaryTest, TypeEdgesMatchFigure4) {
  const Graph& h = result_.graph;
  const TermId rdf_type = h.vocab().rdf_type;
  TermId big = Map(ex_.r1);
  EXPECT_TRUE(h.Contains({big, rdf_type, ex_.book}));
  EXPECT_TRUE(h.Contains({big, rdf_type, ex_.journal}));
  EXPECT_TRUE(h.Contains({big, rdf_type, ex_.spec}));
  // Nτ carries r6's type.
  EXPECT_TRUE(h.Contains({Map(ex_.r6), rdf_type, ex_.journal}));
  EXPECT_EQ(h.types().size(), 4u);
}

TEST_F(WeakSummaryTest, NTauIsItsOwnNode) {
  EXPECT_NE(Map(ex_.r6), Map(ex_.r1));
}

TEST_F(WeakSummaryTest, SummaryNodesAreMinted) {
  for (const auto& [n, h] : result_.node_map) {
    EXPECT_TRUE(result_.graph.dict().IsMinted(h));
  }
  // Class nodes are preserved, not minted.
  EXPECT_FALSE(result_.graph.dict().IsMinted(ex_.book));
}

TEST_F(WeakSummaryTest, IsHomomorphicImage) {
  EXPECT_TRUE(CheckHomomorphism(ex_.graph, result_).ok());
}

TEST_F(WeakSummaryTest, NodeMapGroupsClassMembers) {
  auto members_of = [&](TermId n) {
    const TermId h = result_.node_map.at(n);
    size_t count = 0;
    for (const auto& [node, summary_node] : result_.node_map) {
      count += summary_node == h;
    }
    return count;
  };
  EXPECT_EQ(members_of(ex_.r1), 5u);
  EXPECT_EQ(members_of(ex_.c1), 1u);
}

// ---------------------------------------------------------------- edge cases

TEST(WeakSummaryEdgeTest, EmptyGraph) {
  Graph g;
  SummaryResult r = Summarize(g, SummaryKind::kWeak);
  EXPECT_TRUE(r.graph.Empty());
  EXPECT_TRUE(r.node_map.empty());
}

TEST(WeakSummaryEdgeTest, TypesOnlyGraphCollapsesToNTau) {
  Graph g;
  Dictionary& d = g.dict();
  TermId c1 = d.EncodeIri("C1"), c2 = d.EncodeIri("C2");
  g.Add({d.EncodeIri("x"), g.vocab().rdf_type, c1});
  g.Add({d.EncodeIri("y"), g.vocab().rdf_type, c2});
  g.Add({d.EncodeIri("z"), g.vocab().rdf_type, c1});
  SummaryResult r = Summarize(g, SummaryKind::kWeak);
  EXPECT_EQ(r.stats.num_data_nodes, 1u);  // single Nτ
  EXPECT_EQ(r.graph.types().size(), 2u);  // Nτ τ C1, Nτ τ C2
}

TEST(WeakSummaryEdgeTest, SchemaIsCopiedVerbatim) {
  gen::BookExample ex = gen::BuildBookExample();
  SummaryResult r = Summarize(ex.graph, SummaryKind::kWeak);
  EXPECT_EQ(r.graph.schema().size(), ex.graph.schema().size());
  for (const Triple& t : ex.graph.schema()) {
    EXPECT_TRUE(r.graph.Contains(t));
  }
}

TEST(WeakSummaryEdgeTest, DisconnectedComponentsStaySeparate) {
  Graph g;
  Dictionary& d = g.dict();
  g.Add({d.EncodeIri("a"), d.EncodeIri("p"), d.EncodeIri("b")});
  g.Add({d.EncodeIri("x"), d.EncodeIri("q"), d.EncodeIri("y")});
  SummaryResult r = Summarize(g, SummaryKind::kWeak);
  EXPECT_EQ(r.stats.num_data_nodes, 4u);
  EXPECT_EQ(r.graph.data().size(), 2u);
}

TEST(WeakSummaryEdgeTest, SharedPropertyMergesSources) {
  Graph g;
  Dictionary& d = g.dict();
  TermId p = d.EncodeIri("p");
  g.Add({d.EncodeIri("a"), p, d.EncodeIri("b")});
  g.Add({d.EncodeIri("x"), p, d.EncodeIri("y")});
  SummaryResult r = Summarize(g, SummaryKind::kWeak);
  EXPECT_EQ(r.node_map.at(d.EncodeIri("a")), r.node_map.at(d.EncodeIri("x")));
  EXPECT_EQ(r.node_map.at(d.EncodeIri("b")), r.node_map.at(d.EncodeIri("y")));
  EXPECT_EQ(r.stats.num_data_nodes, 2u);
}

TEST(WeakSummaryEdgeTest, LiteralsAreSummarized) {
  Graph g;
  Dictionary& d = g.dict();
  TermId p = d.EncodeIri("p");
  g.Add({d.EncodeIri("a"), p, d.EncodeLiteral("v1")});
  g.Add({d.EncodeIri("b"), p, d.EncodeLiteral("v2")});
  SummaryResult r = Summarize(g, SummaryKind::kWeak);
  // The two literals merge into one target node; no literal survives in H.
  EXPECT_EQ(r.stats.num_data_nodes, 2u);
  r.graph.ForEachTriple([&](const Triple& t) {
    EXPECT_FALSE(r.graph.dict().Decode(t.s).is_literal());
    EXPECT_FALSE(r.graph.dict().Decode(t.o).is_literal());
  });
}

TEST(WeakSummaryEdgeTest, ChainBridgingMergesTransitively) {
  // x1 -p-> y, x2 -p-> y2 / x2 -q-> z, x3 -q-> z3: sources of p merge,
  // sources of q merge, and x2 bridges them all into one class.
  Graph g;
  Dictionary& d = g.dict();
  TermId p = d.EncodeIri("p"), q = d.EncodeIri("q");
  g.Add({d.EncodeIri("x1"), p, d.EncodeIri("y")});
  g.Add({d.EncodeIri("x2"), p, d.EncodeIri("y2")});
  g.Add({d.EncodeIri("x2"), q, d.EncodeIri("z")});
  g.Add({d.EncodeIri("x3"), q, d.EncodeIri("z3")});
  SummaryResult r = Summarize(g, SummaryKind::kWeak);
  EXPECT_EQ(r.node_map.at(d.EncodeIri("x1")), r.node_map.at(d.EncodeIri("x3")));
}

// Size bound of §4.1: |W data edges| = |D_G|0p, data nodes <= 2 |D_G|0p.

class WeakBoundsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WeakBoundsTest, SizeBoundsHold) {
  gen::HeteroOptions opt;
  opt.seed = GetParam();
  opt.num_nodes = 150;
  opt.num_properties = 14;
  Graph g = gen::GenerateHetero(opt);
  GraphStats gs = ComputeGraphStats(g);
  SummaryResult r = Summarize(g, SummaryKind::kWeak);
  EXPECT_EQ(r.graph.data().size(), gs.num_distinct_data_properties);
  EXPECT_LE(r.stats.num_data_nodes, 2 * gs.num_distinct_data_properties + 1);
  EXPECT_TRUE(CheckUniqueDataProperties(g, r.graph).ok());
  EXPECT_TRUE(CheckHomomorphism(g, r).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeakBoundsTest,
                         ::testing::Values(3, 7, 13, 19, 29, 37, 41, 53));

}  // namespace
}  // namespace rdfsum::summary
