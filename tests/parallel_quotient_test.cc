// Differential wall for the sharded quotient construction: at every
// SummaryOptions::num_threads, one shard included, the summary must be
// BYTE-identical to the oracle in tests/oracle/ (the reference partition
// quotiented by the verbatim sequential walk) — same minted urn:rdfsum: ids,
// same triple insertion order, same serialized N-Triples — for every summary
// kind, dataset shape, raw/saturated input, and thread count. Minting
// advances the shared dictionary's counter, so every comparison builds the
// input graph twice (identical construction => identical TermIds) and
// summarizes each copy once, exactly like the determinism tests in
// parallel_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "gen/bsbm.h"
#include "gen/hetero.h"
#include "gen/lubm.h"
#include "gen/paper_example.h"
#include "io/ntriples_writer.h"
#include "oracle/reference_partition.h"
#include "oracle/reference_quotient.h"
#include "reasoner/saturation.h"
#include "summary/node_partition.h"
#include "summary/property_checks.h"
#include "summary/summarizer.h"

namespace rdfsum::summary {
namespace {

// 1 is one shard on the calling thread; 2/4 split evenly, 7 leaves ragged
// shard ranges, 8 exceeds the class/type counts of the small datasets, 0 =
// all hardware threads.
constexpr uint32_t kThreadCounts[] = {1, 2, 4, 7, 8, 0};

constexpr SummaryKind kAllKinds[] = {
    SummaryKind::kWeak,         SummaryKind::kStrong,
    SummaryKind::kTypedWeak,    SummaryKind::kTypedStrong,
    SummaryKind::kTypeBased,    SummaryKind::kBisimulation,
};

enum class Dataset { kBsbm, kLubm, kPaper, kHetero };

const char* DatasetName(Dataset d) {
  switch (d) {
    case Dataset::kBsbm: return "bsbm";
    case Dataset::kLubm: return "lubm";
    case Dataset::kPaper: return "paper";
    case Dataset::kHetero: return "hetero";
  }
  return "?";
}

/// Deterministic generator: two calls build byte-identical graphs (same
/// dictionary ids, same triple order).
Graph MakeGraph(Dataset d, bool saturated) {
  Graph g;
  switch (d) {
    case Dataset::kBsbm: {
      gen::BsbmOptions opt;
      opt.num_products = 60;
      g = gen::GenerateBsbm(opt);
      break;
    }
    case Dataset::kLubm: {
      gen::LubmOptions opt;
      opt.num_universities = 1;
      g = gen::GenerateLubm(opt);
      break;
    }
    case Dataset::kPaper:
      g = gen::BuildFigure2().graph;
      break;
    case Dataset::kHetero: {
      gen::HeteroOptions opt;
      opt.seed = 13;
      opt.num_nodes = 150;
      opt.num_properties = 11;
      opt.type_probability = 0.35;
      g = gen::GenerateHetero(opt);
      break;
    }
  }
  return saturated ? reasoner::Saturate(g) : g;
}

class ParallelQuotientWallTest
    : public ::testing::TestWithParam<std::tuple<Dataset, bool>> {};

TEST_P(ParallelQuotientWallTest, ByteIdenticalAcrossKindsAndThreadCounts) {
  auto [dataset, saturated] = GetParam();
  for (SummaryKind kind : kAllKinds) {
    Graph g_ref = MakeGraph(dataset, saturated);
    SummaryResult ref = ReferenceSummarize(g_ref, kind).value();
    const std::string ref_nt = io::NTriplesWriter::ToString(ref.graph);
    // The oracle's own counts cover G exactly: |D| over the data edges and
    // |T| over the type edges.
    uint64_t data_count = 0, type_count = 0;
    for (const auto& [edge, count] : ref.multiplicity) {
      (edge.p == g_ref.vocab().rdf_type ? type_count : data_count) += count;
    }
    EXPECT_EQ(data_count, g_ref.data().size()) << SummaryKindName(kind);
    EXPECT_EQ(type_count, g_ref.types().size()) << SummaryKindName(kind);

    for (uint32_t threads : kThreadCounts) {
      Graph g_par = MakeGraph(dataset, saturated);
      SummaryOptions par_options;
      par_options.num_threads = threads;
      SummaryResult par = Summarize(g_par, kind, par_options);
      const std::string label = std::string(SummaryKindName(kind)) + " t" +
                                std::to_string(threads);
      // Serialized summary (data, type, and schema insertion order plus
      // minted ids) is the byte-identity contract.
      EXPECT_EQ(ref_nt, io::NTriplesWriter::ToString(par.graph)) << label;
      // The representation maps and the per-edge counts agree id-for-id
      // too.
      EXPECT_EQ(ref.node_map, par.node_map) << label;
      EXPECT_EQ(ref.multiplicity, par.multiplicity) << label;
      EXPECT_EQ(ref.stats.num_all_nodes, par.stats.num_all_nodes) << label;
      EXPECT_EQ(ref.stats.num_all_edges, par.stats.num_all_edges) << label;
      EXPECT_TRUE(CheckHomomorphism(g_par, par).ok()) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndSaturation, ParallelQuotientWallTest,
    ::testing::Combine(::testing::Values(Dataset::kBsbm, Dataset::kLubm,
                                         Dataset::kPaper, Dataset::kHetero),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(DatasetName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_saturated" : "_raw");
    });

// The explicit-partition entry point shards identically: quotient an
// externally computed partition at every thread count against the oracle
// walk over the same partition.
TEST(ParallelQuotientTest, ExplicitPartitionByteIdentical) {
  Graph g_ref = MakeGraph(Dataset::kHetero, /*saturated=*/false);
  SummaryResult ref =
      ReferenceQuotient(g_ref, ReferenceWeakPartition(g_ref),
                        SummaryKind::kWeak)
          .value();
  const std::string ref_nt = io::NTriplesWriter::ToString(ref.graph);
  for (uint32_t threads : kThreadCounts) {
    Graph g_par = MakeGraph(Dataset::kHetero, /*saturated=*/false);
    NodePartition part_par = ComputeWeakPartition(DenseGraph(g_par));
    SummaryOptions options;
    options.num_threads = threads;
    SummaryResult par =
        QuotientByPartition(g_par, part_par, SummaryKind::kWeak, options)
            .value();
    EXPECT_EQ(ref_nt, io::NTriplesWriter::ToString(par.graph))
        << "threads " << threads;
    EXPECT_EQ(ref.node_map, par.node_map) << "threads " << threads;
    EXPECT_EQ(ref.multiplicity, par.multiplicity) << "threads " << threads;
  }
}

// The oracle walk gives Summarize's representation map and edge counts.
TEST(ParallelQuotientTest, NodeMapMatchesOracle) {
  Graph g_ref = MakeGraph(Dataset::kBsbm, /*saturated=*/false);
  SummaryResult ref =
      ReferenceQuotient(g_ref, ReferenceStrongPartition(g_ref),
                        SummaryKind::kStrong)
          .value();

  for (uint32_t threads : kThreadCounts) {
    Graph g_par = MakeGraph(Dataset::kBsbm, /*saturated=*/false);
    SummaryOptions par_options;
    par_options.num_threads = threads;
    SummaryResult par = Summarize(g_par, SummaryKind::kStrong, par_options);
    EXPECT_EQ(ref.node_map, par.node_map) << "threads " << threads;
    EXPECT_EQ(ref.multiplicity, par.multiplicity) << "threads " << threads;
  }
}

TEST(ParallelQuotientTest, EmptyGraphAllThreadCounts) {
  for (uint32_t threads : kThreadCounts) {
    Graph g;
    SummaryOptions options;
    options.num_threads = threads;
    SummaryResult r = Summarize(g, SummaryKind::kWeak, options);
    EXPECT_TRUE(r.graph.Empty()) << "threads " << threads;
  }
}

TEST(ParallelQuotientTest, MoreThreadsThanTriples) {
  Graph g;
  Dictionary& d = g.dict();
  g.Add({d.EncodeIri("a"), d.EncodeIri("p"), d.EncodeIri("b")});
  g.Add({d.EncodeIri("a"), g.vocab().rdf_type, d.EncodeIri("C")});
  SummaryOptions options;
  options.num_threads = 64;
  SummaryResult r = Summarize(g, SummaryKind::kWeak, options);
  EXPECT_EQ(r.stats.num_data_edges, 1u);
  EXPECT_EQ(r.stats.num_type_edges, 1u);
}

// A partition that does not have the substrate's shape returns
// kInvalidArgument at every thread count (the library does not throw): one
// that misses graph nodes, one that maps a node to a class id at or above
// num_classes, and one with more classes than nodes.
TEST(ParallelQuotientTest, IncompletePartitionReturnsInvalidArgument) {
  Graph g = MakeGraph(Dataset::kPaper, /*saturated=*/false);
  const uint32_t n = DenseGraph(g).num_nodes();
  NodePartition partial;
  partial.num_classes = 1;  // covers no node at all
  NodePartition out_of_range;
  out_of_range.class_of.assign(n, 0);
  out_of_range.class_of[n / 2] = 5;
  out_of_range.num_classes = 1;
  NodePartition oversized;
  oversized.class_of.assign(n, 0);
  oversized.num_classes = UINT32_MAX;
  for (const NodePartition* part : {&partial, &out_of_range, &oversized}) {
    for (uint32_t threads : kThreadCounts) {
      SummaryOptions options;
      options.num_threads = threads;
      auto r = QuotientByPartition(g, *part, SummaryKind::kWeak, options);
      ASSERT_FALSE(r.ok()) << "threads " << threads;
      EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
    }
  }
}

}  // namespace
}  // namespace rdfsum::summary
