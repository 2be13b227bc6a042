// Differential wall for the quotient against the oracle summary in
// tests/oracle/ (the reference partition quotiented by the verbatim
// sequential walk): every summary kind must serialize BYTE-identically to
// the oracle — same minted urn:rdfsum: ids, same triple insertion order,
// same node_map and per-edge counts — for every dataset shape and
// raw/saturated input. Minting advances the shared dictionary's counter, so
// every byte comparison builds the input graph twice (identical
// construction => identical TermIds) and summarizes each copy once. The
// file keeps the name it had when it also swept thread counts; the quotient
// now runs one pass on the calling thread.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

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

class QuotientWallTest
    : public ::testing::TestWithParam<std::tuple<Dataset, bool>> {};

TEST_P(QuotientWallTest, ByteIdenticalToOracleForEveryKind) {
  auto [dataset, saturated] = GetParam();
  for (SummaryKind kind : kAllKinds) {
    const std::string label = SummaryKindName(kind);
    Graph g_ref = MakeGraph(dataset, saturated);
    SummaryResult ref = ReferenceSummarize(g_ref, kind).value();
    // The oracle's own counts cover G exactly: |D| over the data edges and
    // |T| over the type edges.
    uint64_t data_count = 0, type_count = 0;
    for (const auto& [edge, count] : ref.multiplicity) {
      (edge.p == g_ref.vocab().rdf_type ? type_count : data_count) += count;
    }
    EXPECT_EQ(data_count, g_ref.data().size()) << label;
    EXPECT_EQ(type_count, g_ref.types().size()) << label;

    Graph g = MakeGraph(dataset, saturated);
    SummaryResult r = Summarize(g, kind);
    // Serialized summary (data, type, and schema insertion order plus
    // minted ids) is the byte-identity contract.
    EXPECT_EQ(io::NTriplesWriter::ToString(ref.graph),
              io::NTriplesWriter::ToString(r.graph))
        << label;
    // The representation maps and the per-edge counts agree id-for-id too.
    EXPECT_EQ(ref.node_map, r.node_map) << label;
    EXPECT_EQ(ref.multiplicity, r.multiplicity) << label;
    EXPECT_EQ(ref.stats.num_all_nodes, r.stats.num_all_nodes) << label;
    EXPECT_EQ(ref.stats.num_all_edges, r.stats.num_all_edges) << label;
    EXPECT_TRUE(CheckHomomorphism(g, r).ok()) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndSaturation, QuotientWallTest,
    ::testing::Combine(::testing::Values(Dataset::kBsbm, Dataset::kLubm,
                                         Dataset::kPaper, Dataset::kHetero),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(DatasetName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_saturated" : "_raw");
    });

// The explicit-partition entry point: quotient an externally computed
// partition against the oracle walk over the same partition.
TEST(QuotientOracleTest, ExplicitPartitionByteIdentical) {
  Graph g_ref = MakeGraph(Dataset::kHetero, /*saturated=*/false);
  SummaryResult ref =
      ReferenceQuotient(g_ref, ReferenceWeakPartition(g_ref),
                        SummaryKind::kWeak)
          .value();
  Graph g = MakeGraph(Dataset::kHetero, /*saturated=*/false);
  NodePartition part = ComputeWeakPartition(DenseGraph(g));
  SummaryResult r = QuotientByPartition(g, part, SummaryKind::kWeak).value();
  EXPECT_EQ(io::NTriplesWriter::ToString(ref.graph),
            io::NTriplesWriter::ToString(r.graph));
  EXPECT_EQ(ref.node_map, r.node_map);
  EXPECT_EQ(ref.multiplicity, r.multiplicity);
}

// The oracle walk gives Summarize's representation map and edge counts.
TEST(QuotientOracleTest, NodeMapMatchesOracle) {
  Graph g_ref = MakeGraph(Dataset::kBsbm, /*saturated=*/false);
  SummaryResult ref =
      ReferenceQuotient(g_ref, ReferenceStrongPartition(g_ref),
                        SummaryKind::kStrong)
          .value();
  Graph g = MakeGraph(Dataset::kBsbm, /*saturated=*/false);
  SummaryResult r = Summarize(g, SummaryKind::kStrong);
  EXPECT_EQ(ref.node_map, r.node_map);
  EXPECT_EQ(ref.multiplicity, r.multiplicity);
}

// A partition that does not have the substrate's shape returns
// kInvalidArgument (the library does not throw): one that misses graph
// nodes, one that maps a node to a class id at or above num_classes, and one
// with more classes than nodes.
TEST(QuotientOracleTest, IncompletePartitionReturnsInvalidArgument) {
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
    auto r = QuotientByPartition(g, *part, SummaryKind::kWeak);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  }
}

}  // namespace
}  // namespace rdfsum::summary
