#include "rdf/dense_graph.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/bsbm.h"
#include "gen/hetero.h"
#include "gen/lubm.h"
#include "gen/paper_example.h"
#include "io/ntriples_writer.h"
#include "oracle/reference_partition.h"
#include "rdf/graph.h"
#include "summary/node_partition.h"
#include "summary/summarizer.h"

namespace rdfsum {
namespace {

using summary::NodePartition;

// ---- Construction edge cases -----------------------------------------------

TEST(DenseGraphTest, EmptyGraph) {
  Graph g;
  const DenseGraph dg(g);
  EXPECT_EQ(dg.num_nodes(), 0u);
  EXPECT_EQ(dg.num_properties(), 0u);
  EXPECT_TRUE(dg.data_edges().empty());
  EXPECT_EQ(dg.num_class_sets(), 0u);
}

TEST(DenseGraphTest, CanonicalNodeAndPropertyOrder) {
  Graph g;
  Dictionary& d = g.dict();
  TermId a = d.EncodeIri("a"), b = d.EncodeIri("b"), c = d.EncodeIri("c");
  TermId p1 = d.EncodeIri("p1"), p2 = d.EncodeIri("p2");
  g.Add({a, p1, b});
  g.Add({c, p2, a});

  const DenseGraph dg(g);
  // Canonical order: subjects then objects, triple by triple.
  ASSERT_EQ(dg.num_nodes(), 3u);
  EXPECT_EQ(dg.term_of(0), a);
  EXPECT_EQ(dg.term_of(1), b);
  EXPECT_EQ(dg.term_of(2), c);
  EXPECT_EQ(dg.node_of(a), 0u);
  EXPECT_EQ(dg.node_of(b), 1u);
  EXPECT_EQ(dg.node_of(c), 2u);
  // Properties in first-occurrence order.
  ASSERT_EQ(dg.num_properties(), 2u);
  EXPECT_EQ(dg.property_term(0), p1);
  EXPECT_EQ(dg.property_term(1), p2);
  EXPECT_EQ(dg.property_of(p1), 0u);
  // A term that is not a data node / property maps to kNone.
  EXPECT_EQ(dg.node_of(p1), DenseGraph::kNone);
  EXPECT_EQ(dg.property_of(a), DenseGraph::kNone);
}

TEST(DenseGraphTest, EncodedEdgesAndAnchors) {
  Graph g;
  Dictionary& d = g.dict();
  TermId a = d.EncodeIri("a"), b = d.EncodeIri("b"), c = d.EncodeIri("c");
  TermId p = d.EncodeIri("p"), q = d.EncodeIri("q");
  g.Add({a, p, b});
  g.Add({a, q, c});
  g.Add({b, p, c});

  const DenseGraph dg(g);
  uint32_t na = dg.node_of(a), nb = dg.node_of(b), nc = dg.node_of(c);
  ASSERT_EQ(dg.num_data_edges(), 3u);
  EXPECT_EQ(dg.data_edges()[1].s, na);
  EXPECT_EQ(dg.data_edges()[1].p, dg.property_of(q));
  EXPECT_EQ(dg.data_edges()[1].o, nc);
  // First-seen anchors.
  EXPECT_EQ(dg.SourceAnchor(dg.property_of(p)), na);
  EXPECT_EQ(dg.TargetAnchor(dg.property_of(p)), nb);
  EXPECT_EQ(dg.SourceAnchor(dg.property_of(q)), na);
  EXPECT_EQ(dg.TargetAnchor(dg.property_of(q)), nc);
}

TEST(DenseGraphTest, SelfLoop) {
  Graph g;
  Dictionary& d = g.dict();
  TermId a = d.EncodeIri("a");
  TermId p = d.EncodeIri("p");
  g.Add({a, p, a});

  const DenseGraph dg(g);
  ASSERT_EQ(dg.num_nodes(), 1u);
  EXPECT_EQ(dg.SourceAnchor(0), 0u);
  EXPECT_EQ(dg.TargetAnchor(0), 0u);
  EXPECT_TRUE(dg.HasData(0));
}

TEST(DenseGraphTest, TypedOnlyNodes) {
  Graph g;
  Dictionary& d = g.dict();
  const Vocabulary& v = g.vocab();
  TermId a = d.EncodeIri("a"), b = d.EncodeIri("b");
  TermId c1 = d.EncodeIri("C1"), c2 = d.EncodeIri("C2");
  TermId p = d.EncodeIri("p");
  g.Add({a, p, b});
  g.Add({a, v.rdf_type, c2});
  g.Add({a, v.rdf_type, c1});
  // x is typed-only: subject of type triples, no data edges.
  TermId x = d.EncodeIri("x");
  g.Add({x, v.rdf_type, c1});

  const DenseGraph dg(g);
  ASSERT_EQ(dg.num_nodes(), 3u);  // a, b, then typed-only x
  uint32_t nx = dg.node_of(x);
  EXPECT_EQ(nx, 2u);  // type subjects come after data endpoints
  EXPECT_FALSE(dg.HasData(nx));
  EXPECT_TRUE(dg.IsTyped(nx));
  // Class-set ids are shared only by equal sets.
  uint32_t na = dg.node_of(a);
  EXPECT_TRUE(dg.HasData(na));
  EXPECT_TRUE(dg.IsTyped(na));
  EXPECT_FALSE(dg.IsTyped(dg.node_of(b)));
  EXPECT_NE(dg.ClassSetId(na), dg.ClassSetId(nx));
  EXPECT_EQ(dg.ClassSetId(dg.node_of(b)), DenseGraph::kNone);
  EXPECT_EQ(dg.num_class_sets(), 2u);
}

TEST(DenseGraphTest, ClassSetIdsDeduplicateEqualSets) {
  Graph g;
  Dictionary& d = g.dict();
  const Vocabulary& v = g.vocab();
  TermId c1 = d.EncodeIri("C1"), c2 = d.EncodeIri("C2");
  TermId p = d.EncodeIri("p");
  TermId a = d.EncodeIri("a"), b = d.EncodeIri("b");
  g.Add({a, p, b});
  // Same set {C1, C2} inserted in different orders.
  g.Add({a, v.rdf_type, c1});
  g.Add({a, v.rdf_type, c2});
  g.Add({b, v.rdf_type, c2});
  g.Add({b, v.rdf_type, c1});

  const DenseGraph dg(g);
  EXPECT_EQ(dg.ClassSetId(dg.node_of(a)), dg.ClassSetId(dg.node_of(b)));
  EXPECT_EQ(dg.num_class_sets(), 1u);
}

TEST(DenseGraphTest, SubstrateIsASnapshotOfTheGraph) {
  Graph g;
  Dictionary& d = g.dict();
  TermId a = d.EncodeIri("a"), b = d.EncodeIri("b");
  TermId p = d.EncodeIri("p");
  g.Add({a, p, b});
  const DenseGraph before(g);
  g.Add({b, p, d.EncodeIri("c")});
  // Nothing is cached on the graph: an earlier substrate keeps describing
  // the graph it was built from, and a new one sees the added triple.
  EXPECT_EQ(before.num_nodes(), 2u);
  EXPECT_EQ(DenseGraph(g).num_nodes(), 3u);
  EXPECT_EQ(g.Dense().num_nodes(), 3u);
}

// ---- One const Graph summarized from many threads ---------------------------

/// `g` as a view over a private copy of its dictionary (same ids, fresh
/// minted-URI counter), so a summary minting into it touches nothing shared.
GraphView PrivateView(const Graph& g) {
  GraphView view = g;
  auto dict = std::make_shared<Dictionary>();
  for (TermId id = 1; id < g.dict().size(); ++id) {
    dict->Encode(g.dict().Decode(id));
  }
  view.dict = std::move(dict);
  return view;
}

/// Every summary kind of `view`, as N-Triples.
std::string AllSummaries(const GraphView& view) {
  std::string out;
  for (summary::SummaryKind kind :
       {summary::SummaryKind::kWeak, summary::SummaryKind::kStrong,
        summary::SummaryKind::kTypedWeak, summary::SummaryKind::kTypedStrong,
        summary::SummaryKind::kTypeBased,
        summary::SummaryKind::kBisimulation}) {
    out += io::NTriplesWriter::ToString(summary::Summarize(view, kind).graph);
  }
  return out;
}

TEST(DenseGraphTest, SharedConstGraphSummarizesFromManyThreads) {
  // A Graph caches no substrate, so threads may summarize one const Graph
  // at once with no warm-up: each call builds its own DenseGraph. Summaries
  // mint into the dictionary, so each thread's view carries its own copy.
  gen::BsbmOptions opt;
  opt.num_products = 40;
  const Graph g = gen::GenerateBsbm(opt);
  const std::string expected = AllSummaries(PrivateView(g));
  ASSERT_FALSE(expected.empty());

  constexpr int kThreads = 4;
  std::vector<GraphView> views;
  for (int t = 0; t < kThreads; ++t) views.push_back(PrivateView(g));
  std::vector<std::string> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { got[t] = AllSummaries(views[t]); });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], expected) << "thread " << t;
  }
}

// ---- Differential tests: substrate partitions vs the reference oracle ------

void CheckAllPartitionKinds(const Graph& g) {
  const DenseGraph dg(g);
  auto ExpectIdentical = [&](const NodePartition& got,
                             const summary::ReferencePartition& want,
                             const char* label) {
    EXPECT_EQ(summary::PartitionMismatch(dg, got, want), "") << label;
  };
  ExpectIdentical(summary::ComputeWeakPartition(dg),
                  summary::ReferenceWeakPartition(g), "weak");
  ExpectIdentical(summary::ComputeStrongPartition(dg),
                  summary::ReferenceStrongPartition(g), "strong");
  ExpectIdentical(summary::ComputeTypePartition(dg),
                  summary::ReferenceTypePartition(g), "type");
  for (auto mode : {summary::TypedSummaryMode::kPerPropertyProjection,
                    summary::TypedSummaryMode::kUntypedDataGraph}) {
    ExpectIdentical(summary::ComputeTypedWeakPartition(dg, mode),
                    summary::ReferenceTypedWeakPartition(g, mode),
                    "typed-weak");
    ExpectIdentical(summary::ComputeTypedStrongPartition(dg, mode),
                    summary::ReferenceTypedStrongPartition(g, mode),
                    "typed-strong");
  }
  for (uint32_t depth : {1u, 3u}) {
    ExpectIdentical(summary::ComputeBisimulationPartition(dg, depth, true),
                    summary::ReferenceBisimulationPartition(g, depth, true),
                    "bisim-typed");
    ExpectIdentical(summary::ComputeBisimulationPartition(dg, depth, false),
                    summary::ReferenceBisimulationPartition(g, depth, false),
                    "bisim-untyped");
  }
}

TEST(DensePartitionDifferentialTest, PaperExample) {
  gen::Figure2Example ex = gen::BuildFigure2();
  CheckAllPartitionKinds(ex.graph);
}

TEST(DensePartitionDifferentialTest, Bsbm) {
  gen::BsbmOptions opt;
  opt.num_products = 120;
  CheckAllPartitionKinds(gen::GenerateBsbm(opt));
}

TEST(DensePartitionDifferentialTest, Lubm) {
  gen::LubmOptions opt;
  opt.num_universities = 2;
  CheckAllPartitionKinds(gen::GenerateLubm(opt));
}

TEST(DensePartitionDifferentialTest, HeteroSweep) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 17ull}) {
    gen::HeteroOptions opt;
    opt.seed = seed;
    opt.num_nodes = 300;
    opt.type_probability = seed % 2 == 0 ? 0.8 : 0.3;
    CheckAllPartitionKinds(gen::GenerateHetero(opt));
  }
}

TEST(DensePartitionDifferentialTest, BisimulationHashCollisionGraphs) {
  // Hetero graphs on which a 64-bit hash of the signature merged nodes that
  // are not bisimilar; the oracle compares exact signatures.
  for (uint64_t seed : {2ull, 4ull, 11ull, 12ull, 17ull, 25ull}) {
    gen::HeteroOptions opt;
    opt.seed = seed;
    opt.num_nodes = 300;
    const Graph g = gen::GenerateHetero(opt);
    const DenseGraph dg(g);
    for (uint32_t depth : {1u, 2u, 3u}) {
      for (bool typed : {true, false}) {
        EXPECT_EQ(summary::PartitionMismatch(
                      dg,
                      summary::ComputeBisimulationPartition(dg, depth, typed),
                      summary::ReferenceBisimulationPartition(g, depth,
                                                              typed)),
                  "")
            << "seed " << seed << " depth " << depth << " typed " << typed;
      }
    }
  }
}

TEST(DensePartitionDifferentialTest, SelfLoopAndParallelEdges) {
  // A typed self-loop: the node is its own in- and out-neighbor.
  Graph loop;
  Dictionary& ld = loop.dict();
  TermId a = ld.EncodeIri("a"), p = ld.EncodeIri("p");
  loop.Add({a, p, a});
  loop.Add({a, loop.vocab().rdf_type, ld.EncodeIri("C")});
  CheckAllPartitionKinds(loop);

  // a has two p-edges to untyped leaves, d one: their neighborhoods are the
  // same set, so a and d are 1-bisimilar.
  Graph par;
  Dictionary& d = par.dict();
  p = d.EncodeIri("p");
  a = d.EncodeIri("a");
  TermId dn = d.EncodeIri("d");
  par.Add({a, p, d.EncodeIri("b")});
  par.Add({a, p, d.EncodeIri("c")});
  par.Add({dn, p, d.EncodeIri("e")});
  CheckAllPartitionKinds(par);
  const DenseGraph dg(par);
  const NodePartition bisim =
      summary::ComputeBisimulationPartition(dg, 1, false);
  EXPECT_EQ(bisim.class_of[dg.node_of(a)], bisim.class_of[dg.node_of(dn)]);
}

TEST(DensePartitionDifferentialTest, EmptyAndTypedOnlyGraphs) {
  Graph empty;
  CheckAllPartitionKinds(empty);

  // A graph with only type triples: everything collapses into Nτ for W/S.
  Graph typed_only;
  Dictionary& d = typed_only.dict();
  const Vocabulary& v = typed_only.vocab();
  TermId c1 = d.EncodeIri("C1");
  typed_only.Add({d.EncodeIri("x"), v.rdf_type, c1});
  typed_only.Add({d.EncodeIri("y"), v.rdf_type, c1});
  CheckAllPartitionKinds(typed_only);
  EXPECT_EQ(summary::ComputeWeakPartition(DenseGraph(typed_only)).num_classes,
            1u);
}

}  // namespace
}  // namespace rdfsum
