#include <gtest/gtest.h>

#include "gen/bsbm.h"
#include "gen/hetero.h"
#include "gen/paper_example.h"
#include "query/evaluator.h"
#include "query/rbgp.h"
#include "reasoner/saturation.h"
#include "summary/node_partition.h"
#include "summary/property_checks.h"
#include "summary/summarizer.h"

namespace rdfsum::summary {
namespace {

/// The class of `term` in `part`, a partition of `dg`'s dense nodes.
uint32_t ClassOf(const DenseGraph& dg, const NodePartition& part,
                 TermId term) {
  return part.class_of.at(dg.node_of(term));
}

TEST(BisimulationTest, DepthZeroUntypedCollapsesEverything) {
  gen::Figure2Example ex = gen::BuildFigure2();
  NodePartition part = ComputeBisimulationPartition(
      DenseGraph(ex.graph), /*depth=*/0, /*use_types=*/false);
  EXPECT_EQ(part.num_classes, 1u);
}

TEST(BisimulationTest, DepthZeroWithTypesGroupsByClassSet) {
  gen::Figure2Example ex = gen::BuildFigure2();
  const DenseGraph dg(ex.graph);
  NodePartition part = ComputeBisimulationPartition(dg, 0, /*use_types=*/true);
  // Class sets: {Book}, {Journal} (r2, r6), {Spec}, untyped -> 4 classes.
  EXPECT_EQ(part.num_classes, 4u);
  EXPECT_EQ(ClassOf(dg, part, ex.r2), ClassOf(dg, part, ex.r6));
  EXPECT_NE(ClassOf(dg, part, ex.r1), ClassOf(dg, part, ex.r2));
}

TEST(BisimulationTest, RefinementIsMonotone) {
  gen::HeteroOptions opt;
  opt.seed = 31;
  opt.num_nodes = 150;
  const DenseGraph dg(gen::GenerateHetero(opt));
  uint32_t prev = 0;
  for (uint32_t depth = 0; depth <= 4; ++depth) {
    NodePartition part = ComputeBisimulationPartition(dg, depth, true);
    EXPECT_GE(part.num_classes, prev) << "depth " << depth;
    prev = part.num_classes;
  }
}

TEST(BisimulationTest, DepthOneSeparatesByPropertySignature) {
  Graph g;
  Dictionary& d = g.dict();
  TermId p = d.EncodeIri("p"), q = d.EncodeIri("q");
  TermId x1 = d.EncodeIri("x1"), x2 = d.EncodeIri("x2"),
         x3 = d.EncodeIri("x3");
  g.Add({x1, p, d.EncodeIri("y1")});
  g.Add({x2, p, d.EncodeIri("y2")});
  g.Add({x3, q, d.EncodeIri("y3")});
  const DenseGraph dg(g);
  NodePartition part = ComputeBisimulationPartition(dg, 1, false);
  // x1 ~ x2 (both have only outgoing p to an all-equal color), x3 differs.
  EXPECT_EQ(ClassOf(dg, part, x1), ClassOf(dg, part, x2));
  EXPECT_NE(ClassOf(dg, part, x1), ClassOf(dg, part, x3));
}

TEST(BisimulationTest, SignatureHashCollisionDoesNotMerge) {
  // In this graph n21 has one incoming p4 edge and n125 one incoming p3
  // edge, so they differ at depth 1; a 64-bit hash of their class-set
  // seeded signatures once collided and merged them.
  gen::HeteroOptions opt;
  opt.seed = 2;
  opt.num_nodes = 300;
  Graph g = gen::GenerateHetero(opt);
  const DenseGraph dg(g);
  const TermId n21 = g.dict().EncodeIri("http://hetero.example.org/n21");
  const TermId n125 = g.dict().EncodeIri("http://hetero.example.org/n125");
  for (bool use_types : {true, false}) {
    NodePartition part = ComputeBisimulationPartition(dg, 1, use_types);
    EXPECT_NE(ClassOf(dg, part, n21), ClassOf(dg, part, n125))
        << "use_types " << use_types;
  }
}

TEST(BisimulationTest, SummarizeFacadeWorks) {
  gen::Figure2Example ex = gen::BuildFigure2();
  SummaryOptions options;
  options.bisimulation_depth = 2;
  SummaryResult r = Summarize(ex.graph, SummaryKind::kBisimulation, options);
  EXPECT_GT(r.stats.num_data_nodes, 0u);
  EXPECT_TRUE(CheckHomomorphism(ex.graph, r).ok());
  EXPECT_EQ(r.graph.schema().size(), ex.graph.schema().size());
}

TEST(BisimulationTest, QuotientIsStillRepresentative) {
  // Any quotient summary is RBGP-representative — including the baseline.
  gen::HeteroOptions opt;
  opt.seed = 17;
  opt.num_nodes = 90;
  opt.type_probability = 0.4;
  Graph g = gen::GenerateHetero(opt);
  Graph g_inf = reasoner::Saturate(g);
  SummaryResult h = Summarize(g, SummaryKind::kBisimulation);
  Graph h_inf = reasoner::Saturate(h.graph);
  query::BgpEvaluator eval(h_inf);
  Random rng(5);
  for (int i = 0; i < 25; ++i) {
    query::BgpQuery q = query::GenerateRbgpQuery(g_inf, rng);
    if (q.triples.empty()) continue;
    EXPECT_TRUE(eval.ExistsMatch(q)) << q.ToString();
  }
}

TEST(BisimulationTest, BlowsUpRelativeToWeakOnBsbm) {
  // The §8 claim that motivates the paper's design: bisimulation grows with
  // structural diversity, the W summary does not.
  gen::BsbmOptions opt;
  opt.num_products = 400;
  Graph g = gen::GenerateBsbm(opt);
  SummaryResult w = Summarize(g, SummaryKind::kWeak);
  SummaryOptions deep;
  deep.bisimulation_depth = 3;
  SummaryResult bisim = Summarize(g, SummaryKind::kBisimulation, deep);
  EXPECT_GT(bisim.stats.num_data_nodes, 10 * w.stats.num_data_nodes);
}

TEST(BisimulationTest, DeterministicAcrossRuns) {
  gen::HeteroOptions opt;
  opt.seed = 12;
  Graph g = gen::GenerateHetero(opt);
  NodePartition a = ComputeBisimulationPartition(DenseGraph(g), 2, true);
  NodePartition b = ComputeBisimulationPartition(DenseGraph(g), 2, true);
  EXPECT_EQ(a.num_classes, b.num_classes);
  EXPECT_EQ(a.class_of, b.class_of);
}

TEST(BisimulationTest, DirectionSelectsNeighborhoods) {
  // {x1,p,y1}, {x2,p,y2}, {x3,q,y3}: forward depth-1 groups the sources by
  // outgoing label and all targets together (no out-edges); backward is the
  // mirror image; fb separates both sides.
  Graph g;
  Dictionary& d = g.dict();
  TermId p = d.EncodeIri("p"), q = d.EncodeIri("q");
  TermId x1 = d.EncodeIri("x1"), x2 = d.EncodeIri("x2"),
         x3 = d.EncodeIri("x3");
  TermId y1 = d.EncodeIri("y1"), y2 = d.EncodeIri("y2"),
         y3 = d.EncodeIri("y3");
  g.Add({x1, p, y1});
  g.Add({x2, p, y2});
  g.Add({x3, q, y3});
  const DenseGraph dg(g);

  NodePartition fwd = ComputeBisimulationPartition(
      dg, 1, false, BisimulationDirection::kForward);
  EXPECT_EQ(ClassOf(dg, fwd, x1), ClassOf(dg, fwd, x2));
  EXPECT_NE(ClassOf(dg, fwd, x1), ClassOf(dg, fwd, x3));
  EXPECT_EQ(ClassOf(dg, fwd, y1), ClassOf(dg, fwd, y3));

  NodePartition bwd = ComputeBisimulationPartition(
      dg, 1, false, BisimulationDirection::kBackward);
  EXPECT_EQ(ClassOf(dg, bwd, y1), ClassOf(dg, bwd, y2));
  EXPECT_NE(ClassOf(dg, bwd, y1), ClassOf(dg, bwd, y3));
  EXPECT_EQ(ClassOf(dg, bwd, x1), ClassOf(dg, bwd, x3));

  NodePartition fb = ComputeBisimulationPartition(
      dg, 1, false, BisimulationDirection::kForwardBackward);
  EXPECT_NE(ClassOf(dg, fb, y1), ClassOf(dg, fb, y3));
  EXPECT_NE(ClassOf(dg, fb, x1), ClassOf(dg, fb, x3));
}

}  // namespace
}  // namespace rdfsum::summary
