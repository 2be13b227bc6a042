#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "gen/bsbm.h"
#include "gen/hetero.h"
#include "gen/lubm.h"
#include "gen/paper_example.h"
#include "io/ntriples_writer.h"
#include "summary/isomorphism.h"
#include "oracle/reference_partition.h"
#include "oracle/reference_quotient.h"
#include "summary/node_partition.h"
#include "summary/property_checks.h"
#include "summary/summarizer.h"

namespace rdfsum::summary {
namespace {

// Thread counts the sweeps cover: one shard, even split, an odd count that
// leaves ragged shard ranges, and 0 = hardware concurrency.
constexpr uint32_t kThreadCounts[] = {1, 2, 7, 0};

SummaryOptions Threads(uint32_t num_threads) {
  SummaryOptions options;
  options.num_threads = num_threads;
  return options;
}

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

// ---- Sharded weak -----------------------------------------------------------

TEST(ParallelWeakTest, IdenticalPartitionToOracleOnFigure2) {
  gen::Figure2Example ex = gen::BuildFigure2();
  SummaryResult oracle = Oracle(ex.graph, SummaryKind::kWeak);
  SummaryResult par = Summarize(ex.graph, SummaryKind::kWeak, Threads(3));
  // The sharded path promises the *same* partition, so node-for-node the
  // grouping agrees (minted URIs differ).
  for (const auto& [n, h] : oracle.node_map) {
    ASSERT_TRUE(par.node_map.count(n));
  }
  for (const auto& [n1, h1] : oracle.node_map) {
    for (const auto& [n2, h2] : oracle.node_map) {
      EXPECT_EQ(h1 == h2, par.node_map.at(n1) == par.node_map.at(n2));
    }
  }
  EXPECT_TRUE(AreSummariesIsomorphic(oracle.graph, par.graph));
}

class ParallelWeakSweepTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {};

TEST_P(ParallelWeakSweepTest, PartitionByteIdenticalAcrossThreadCounts) {
  auto [threads, seed] = GetParam();
  Graph g = HeteroGraph(seed);
  // Byte-identity against the one-shard run and the frozen pre-substrate
  // oracle: same class_of, same canonical class ids.
  const DenseGraph dg(g);
  NodePartition par = ComputeWeakPartition(dg, threads);
  const NodePartition one = ComputeWeakPartition(dg);
  EXPECT_EQ(par.num_classes, one.num_classes);
  EXPECT_EQ(par.class_of, one.class_of);
  EXPECT_EQ(PartitionMismatch(dg, par, ReferenceWeakPartition(g)), "");

  SummaryResult oracle = Oracle(g, SummaryKind::kWeak);
  SummaryResult summarized = Summarize(g, SummaryKind::kWeak, Threads(threads));
  EXPECT_EQ(summarized.stats.num_data_nodes, oracle.stats.num_data_nodes);
  EXPECT_EQ(summarized.graph.NumTriples(), oracle.graph.NumTriples());
  EXPECT_TRUE(AreSummariesIsomorphic(oracle.graph, summarized.graph));
  EXPECT_TRUE(CheckHomomorphism(g, summarized).ok());
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndSeeds, ParallelWeakSweepTest,
    ::testing::Combine(::testing::ValuesIn(kThreadCounts),
                       ::testing::Values(7, 19, 42)),
    [](const auto& info) {
      uint32_t t = std::get<0>(info.param);
      return (t == 0 ? std::string("hw") : "t" + std::to_string(t)) +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(ParallelWeakTest, MatchesOracleOnBsbm) {
  gen::BsbmOptions opt;
  opt.num_products = 300;
  Graph g = gen::GenerateBsbm(opt);
  SummaryResult oracle = Oracle(g, SummaryKind::kWeak);
  SummaryResult par = Summarize(g, SummaryKind::kWeak, Threads(0));
  EXPECT_TRUE(AreSummariesIsomorphic(oracle.graph, par.graph));
  const DenseGraph dg(g);
  const ReferencePartition ref = ReferenceWeakPartition(g);
  for (uint32_t threads : kThreadCounts) {
    EXPECT_EQ(PartitionMismatch(dg, ComputeWeakPartition(dg, threads), ref),
              "")
        << "threads " << threads;
  }
}

TEST(ParallelWeakTest, MatchesOracleOnLubm) {
  gen::LubmOptions opt;
  opt.num_universities = 2;
  Graph g = gen::GenerateLubm(opt);
  SummaryResult oracle = Oracle(g, SummaryKind::kWeak);
  SummaryResult par = Summarize(g, SummaryKind::kWeak, Threads(0));
  EXPECT_TRUE(AreSummariesIsomorphic(oracle.graph, par.graph));
  const DenseGraph dg(g);
  const ReferencePartition ref = ReferenceWeakPartition(g);
  for (uint32_t threads : kThreadCounts) {
    EXPECT_EQ(PartitionMismatch(dg, ComputeWeakPartition(dg, threads), ref),
              "")
        << "threads " << threads;
  }
}

TEST(ParallelWeakTest, EmptyGraph) {
  Graph g;
  for (uint32_t threads : kThreadCounts) {
    SummaryResult par = Summarize(g, SummaryKind::kWeak, Threads(threads));
    EXPECT_TRUE(par.graph.Empty());
  }
}

TEST(ParallelWeakTest, SinglePropertyGraph) {
  // One property: all subjects collapse through the source anchor, all
  // objects through the target anchor — two classes, at any thread count.
  Graph g;
  Dictionary& d = g.dict();
  TermId p = d.EncodeIri("p");
  for (int i = 0; i < 40; ++i) {
    g.Add({d.EncodeIri("s" + std::to_string(i)), p,
           d.EncodeIri("o" + std::to_string(i))});
  }
  const DenseGraph dg(g);
  for (uint32_t threads : kThreadCounts) {
    SummaryResult par = Summarize(g, SummaryKind::kWeak, Threads(threads));
    EXPECT_EQ(par.stats.num_data_nodes, 2u) << "threads " << threads;
    EXPECT_EQ(PartitionMismatch(dg, ComputeWeakPartition(dg, threads),
                                ReferenceWeakPartition(g)),
              "")
        << "threads " << threads;
  }
}

TEST(ParallelWeakTest, TypesOnlyGraph) {
  Graph g;
  Dictionary& d = g.dict();
  g.Add({d.EncodeIri("x"), g.vocab().rdf_type, d.EncodeIri("C1")});
  g.Add({d.EncodeIri("y"), g.vocab().rdf_type, d.EncodeIri("C2")});
  SummaryResult par = Summarize(g, SummaryKind::kWeak, Threads(0));
  EXPECT_EQ(par.stats.num_data_nodes, 1u);  // Nτ
  EXPECT_EQ(par.graph.types().size(), 2u);
}

TEST(ParallelWeakTest, MoreThreadsThanTriples) {
  Graph g;
  Dictionary& d = g.dict();
  g.Add({d.EncodeIri("a"), d.EncodeIri("p"), d.EncodeIri("b")});
  SummaryResult par = Summarize(g, SummaryKind::kWeak, Threads(64));
  EXPECT_EQ(par.stats.num_data_nodes, 2u);
}

TEST(ParallelWeakTest, DeterministicSummariesAcrossThreadCounts) {
  // Two identically-built graphs summarized with different thread counts
  // serialize to byte-identical N-Triples: same partition, same canonical
  // class ids, same minted URIs.
  Graph g3 = HeteroGraph(23);
  Graph g5 = HeteroGraph(23);
  SummaryResult r3 = Summarize(g3, SummaryKind::kWeak, Threads(3));
  SummaryResult r5 = Summarize(g5, SummaryKind::kWeak, Threads(5));
  EXPECT_EQ(io::NTriplesWriter::ToString(r3.graph),
            io::NTriplesWriter::ToString(r5.graph));

  // And two runs at the same thread count are byte-identical too.
  Graph g3b = HeteroGraph(23);
  SummaryResult r3b = Summarize(g3b, SummaryKind::kWeak, Threads(3));
  EXPECT_EQ(io::NTriplesWriter::ToString(r3.graph),
            io::NTriplesWriter::ToString(r3b.graph));
}

TEST(ParallelWeakTest, NodeMapGroupsFigure4Classes) {
  gen::Figure2Example ex = gen::BuildFigure2();
  SummaryResult par = Summarize(ex.graph, SummaryKind::kWeak, Threads(0));
  const TermId r1_node = par.node_map.at(ex.r1);
  size_t members = 0;
  for (const auto& [n, h] : par.node_map) members += h == r1_node;
  EXPECT_EQ(members, 5u);
}

// ---- Sharded bisimulation -------------------------------------------------

class ParallelBisimSweepTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(ParallelBisimSweepTest, PartitionByteIdenticalAcrossThreadCounts) {
  auto [threads, depth] = GetParam();
  Graph g = HeteroGraph(11);
  const DenseGraph dg(g);
  for (BisimulationDirection dir :
       {BisimulationDirection::kForward, BisimulationDirection::kBackward,
        BisimulationDirection::kForwardBackward}) {
    NodePartition one = ComputeBisimulationPartition(dg, depth, true, dir);
    NodePartition par =
        ComputeBisimulationPartition(dg, depth, true, dir, threads);
    EXPECT_EQ(par.num_classes, one.num_classes);
    EXPECT_EQ(par.class_of, one.class_of);
  }
  // The fb default additionally matches the frozen pre-substrate oracle.
  NodePartition par_fb = ComputeBisimulationPartition(
      dg, depth, true, BisimulationDirection::kForwardBackward, threads);
  EXPECT_EQ(PartitionMismatch(dg, par_fb,
                              ReferenceBisimulationPartition(g, depth, true)),
            "");
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndDepths, ParallelBisimSweepTest,
    ::testing::Combine(::testing::ValuesIn(kThreadCounts),
                       ::testing::Values(0u, 1u, 3u)),
    [](const auto& info) {
      uint32_t t = std::get<0>(info.param);
      return (t == 0 ? std::string("hw") : "t" + std::to_string(t)) +
             "_depth" + std::to_string(std::get<1>(info.param));
    });

TEST(ParallelBisimulationTest, SummaryMatchesOracle) {
  Graph g = HeteroGraph(29);
  SummaryOptions options = Threads(4);
  options.bisimulation_depth = 2;
  SummaryResult oracle = Oracle(g, SummaryKind::kBisimulation, options);
  SummaryResult par = Summarize(g, SummaryKind::kBisimulation, options);
  EXPECT_EQ(par.stats.num_data_nodes, oracle.stats.num_data_nodes);
  EXPECT_EQ(par.graph.NumTriples(), oracle.graph.NumTriples());
  EXPECT_TRUE(AreSummariesIsomorphic(oracle.graph, par.graph));
  EXPECT_TRUE(CheckHomomorphism(g, par).ok());
}

TEST(ParallelBisimulationTest, DeterministicSummariesAcrossThreadCounts) {
  Graph g2 = HeteroGraph(37);
  Graph g7 = HeteroGraph(37);
  SummaryResult r2 = Summarize(g2, SummaryKind::kBisimulation, Threads(2));
  SummaryResult r7 = Summarize(g7, SummaryKind::kBisimulation, Threads(7));
  EXPECT_EQ(io::NTriplesWriter::ToString(r2.graph),
            io::NTriplesWriter::ToString(r7.graph));
}

TEST(ParallelBisimulationTest, EmptyGraph) {
  Graph g;
  SummaryResult par = Summarize(g, SummaryKind::kBisimulation, Threads(5));
  EXPECT_TRUE(par.graph.Empty());
}

TEST(ParallelBisimulationTest, EdgeCountsCoverTheGraph) {
  gen::Figure2Example ex = gen::BuildFigure2();
  SummaryResult par =
      Summarize(ex.graph, SummaryKind::kBisimulation, Threads(3));
  uint64_t total = 0;
  for (const auto& [edge, count] : par.multiplicity) total += count;
  EXPECT_EQ(total, ex.graph.data().size() + ex.graph.types().size());
}

}  // namespace
}  // namespace rdfsum::summary
