// Differential wall for the weak and bisimulation partitions against the
// frozen pre-substrate oracles in tests/oracle/: each partition must equal
// its reference partition class for class, and the weak and bisimulation
// summaries must be isomorphic to the oracle summary (the reference
// partition quotiented by the verbatim sequential walk) for every dataset
// shape. The file keeps the name it had when it also swept thread counts;
// the summarizer now runs one pass on the calling thread.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "gen/bsbm.h"
#include "gen/hetero.h"
#include "gen/lubm.h"
#include "gen/paper_example.h"
#include "oracle/reference_partition.h"
#include "oracle/reference_quotient.h"
#include "summary/isomorphism.h"
#include "summary/node_partition.h"
#include "summary/property_checks.h"
#include "summary/summarizer.h"

namespace rdfsum::summary {
namespace {

/// The oracle summary (tests/oracle/): the reference partition quotiented by
/// the verbatim sequential walk.
SummaryResult Oracle(const Graph& g, SummaryKind kind,
                     const SummaryOptions& options = {}) {
  return ReferenceSummarize(g, kind, options).value();
}

Graph HeteroGraph(uint64_t seed) {
  gen::HeteroOptions opt;
  opt.seed = seed;
  opt.num_nodes = 200;
  opt.num_properties = 14;
  opt.type_probability = 0.4;
  return gen::GenerateHetero(opt);
}

// ---- Weak partition ---------------------------------------------------------

TEST(WeakOracleTest, IdenticalPartitionToOracleOnFigure2) {
  gen::Figure2Example ex = gen::BuildFigure2();
  SummaryResult oracle = Oracle(ex.graph, SummaryKind::kWeak);
  SummaryResult r = Summarize(ex.graph, SummaryKind::kWeak);
  // The same partition, so node-for-node the grouping agrees (minted URIs
  // differ).
  for (const auto& [n, h] : oracle.node_map) {
    ASSERT_TRUE(r.node_map.count(n));
  }
  for (const auto& [n1, h1] : oracle.node_map) {
    for (const auto& [n2, h2] : oracle.node_map) {
      EXPECT_EQ(h1 == h2, r.node_map.at(n1) == r.node_map.at(n2));
    }
  }
  EXPECT_TRUE(AreSummariesIsomorphic(oracle.graph, r.graph));
}

class WeakOracleSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WeakOracleSeedTest, PartitionAndSummaryMatchOracle) {
  Graph g = HeteroGraph(GetParam());
  // Byte-identity against the frozen pre-substrate oracle: same class_of,
  // same canonical class ids.
  const DenseGraph dg(g);
  EXPECT_EQ(PartitionMismatch(dg, ComputeWeakPartition(dg),
                              ReferenceWeakPartition(g)),
            "");

  SummaryResult oracle = Oracle(g, SummaryKind::kWeak);
  SummaryResult summarized = Summarize(g, SummaryKind::kWeak);
  EXPECT_EQ(summarized.stats.num_data_nodes, oracle.stats.num_data_nodes);
  EXPECT_EQ(summarized.graph.NumTriples(), oracle.graph.NumTriples());
  EXPECT_TRUE(AreSummariesIsomorphic(oracle.graph, summarized.graph));
  EXPECT_TRUE(CheckHomomorphism(g, summarized).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeakOracleSeedTest,
                         ::testing::Values(7, 19, 42));

TEST(WeakOracleTest, MatchesOracleOnBsbm) {
  gen::BsbmOptions opt;
  opt.num_products = 300;
  Graph g = gen::GenerateBsbm(opt);
  SummaryResult oracle = Oracle(g, SummaryKind::kWeak);
  SummaryResult r = Summarize(g, SummaryKind::kWeak);
  EXPECT_TRUE(AreSummariesIsomorphic(oracle.graph, r.graph));
  const DenseGraph dg(g);
  EXPECT_EQ(PartitionMismatch(dg, ComputeWeakPartition(dg),
                              ReferenceWeakPartition(g)),
            "");
}

TEST(WeakOracleTest, MatchesOracleOnLubm) {
  gen::LubmOptions opt;
  opt.num_universities = 2;
  Graph g = gen::GenerateLubm(opt);
  SummaryResult oracle = Oracle(g, SummaryKind::kWeak);
  SummaryResult r = Summarize(g, SummaryKind::kWeak);
  EXPECT_TRUE(AreSummariesIsomorphic(oracle.graph, r.graph));
  const DenseGraph dg(g);
  EXPECT_EQ(PartitionMismatch(dg, ComputeWeakPartition(dg),
                              ReferenceWeakPartition(g)),
            "");
}

TEST(WeakOracleTest, EmptyGraph) {
  Graph g;
  EXPECT_TRUE(Summarize(g, SummaryKind::kWeak).graph.Empty());
}

TEST(WeakOracleTest, SinglePropertyGraph) {
  // One property: all subjects collapse through the source anchor, all
  // objects through the target anchor — two classes.
  Graph g;
  Dictionary& d = g.dict();
  TermId p = d.EncodeIri("p");
  for (int i = 0; i < 40; ++i) {
    g.Add({d.EncodeIri("s" + std::to_string(i)), p,
           d.EncodeIri("o" + std::to_string(i))});
  }
  const DenseGraph dg(g);
  EXPECT_EQ(Summarize(g, SummaryKind::kWeak).stats.num_data_nodes, 2u);
  EXPECT_EQ(PartitionMismatch(dg, ComputeWeakPartition(dg),
                              ReferenceWeakPartition(g)),
            "");
}

TEST(WeakOracleTest, TypesOnlyGraph) {
  Graph g;
  Dictionary& d = g.dict();
  g.Add({d.EncodeIri("x"), g.vocab().rdf_type, d.EncodeIri("C1")});
  g.Add({d.EncodeIri("y"), g.vocab().rdf_type, d.EncodeIri("C2")});
  SummaryResult r = Summarize(g, SummaryKind::kWeak);
  EXPECT_EQ(r.stats.num_data_nodes, 1u);  // Nτ
  EXPECT_EQ(r.graph.types().size(), 2u);
}

TEST(WeakOracleTest, NodeMapGroupsFigure4Classes) {
  gen::Figure2Example ex = gen::BuildFigure2();
  SummaryResult r = Summarize(ex.graph, SummaryKind::kWeak);
  const TermId r1_node = r.node_map.at(ex.r1);
  size_t members = 0;
  for (const auto& [n, h] : r.node_map) members += h == r1_node;
  EXPECT_EQ(members, 5u);
}

// ---- Bisimulation -----------------------------------------------------------

class BisimulationOracleDepthTest : public ::testing::TestWithParam<uint32_t> {
};

TEST_P(BisimulationOracleDepthTest, ForwardBackwardPartitionMatchesOracle) {
  const uint32_t depth = GetParam();
  Graph g = HeteroGraph(11);
  const DenseGraph dg(g);
  NodePartition fb = ComputeBisimulationPartition(
      dg, depth, true, BisimulationDirection::kForwardBackward);
  EXPECT_EQ(PartitionMismatch(dg, fb,
                              ReferenceBisimulationPartition(g, depth, true)),
            "");
}

INSTANTIATE_TEST_SUITE_P(Depths, BisimulationOracleDepthTest,
                         ::testing::Values(0u, 1u, 3u));

TEST(BisimulationOracleTest, SummaryMatchesOracle) {
  Graph g = HeteroGraph(29);
  SummaryOptions options;
  options.bisimulation_depth = 2;
  SummaryResult oracle = Oracle(g, SummaryKind::kBisimulation, options);
  SummaryResult r = Summarize(g, SummaryKind::kBisimulation, options);
  EXPECT_EQ(r.stats.num_data_nodes, oracle.stats.num_data_nodes);
  EXPECT_EQ(r.graph.NumTriples(), oracle.graph.NumTriples());
  EXPECT_TRUE(AreSummariesIsomorphic(oracle.graph, r.graph));
  EXPECT_TRUE(CheckHomomorphism(g, r).ok());
}

TEST(BisimulationOracleTest, EmptyGraph) {
  Graph g;
  EXPECT_TRUE(Summarize(g, SummaryKind::kBisimulation).graph.Empty());
}

TEST(BisimulationOracleTest, EdgeCountsCoverTheGraph) {
  gen::Figure2Example ex = gen::BuildFigure2();
  SummaryResult r = Summarize(ex.graph, SummaryKind::kBisimulation);
  uint64_t total = 0;
  for (const auto& [edge, count] : r.multiplicity) total += count;
  EXPECT_EQ(total, ex.graph.data().size() + ex.graph.types().size());
}

}  // namespace
}  // namespace rdfsum::summary
