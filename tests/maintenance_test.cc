#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "gen/bsbm.h"
#include "gen/hetero.h"
#include "gen/paper_example.h"
#include "summary/isomorphism.h"
#include "summary/maintenance.h"
#include "summary/property_checks.h"
#include "summary/summarizer.h"
#include "util/random.h"

namespace rdfsum::summary {
namespace {

std::vector<Triple> AllTriples(const Graph& g) {
  std::vector<Triple> out;
  g.ForEachTriple([&](const Triple& t) { out.push_back(t); });
  return out;
}

TEST(MaintenanceTest, MatchesBatchOnFigure2) {
  gen::Figure2Example ex = gen::BuildFigure2();
  WeakSummaryMaintainer maintainer(ex.graph);
  SummaryResult batch = Summarize(ex.graph, SummaryKind::kWeak);
  SummaryResult snapshot = maintainer.Snapshot();
  EXPECT_TRUE(AreSummariesIsomorphic(snapshot.graph, batch.graph));
  EXPECT_EQ(maintainer.num_triples_seen(), ex.graph.NumTriples());
}

TEST(MaintenanceTest, InsertionOrderDoesNotMatter) {
  gen::Figure2Example ex = gen::BuildFigure2();
  std::vector<Triple> triples = AllTriples(ex.graph);
  SummaryResult batch = Summarize(ex.graph, SummaryKind::kWeak);
  Random rng(99);
  for (int run = 0; run < 6; ++run) {
    // Shuffle.
    for (size_t i = triples.size(); i > 1; --i) {
      std::swap(triples[i - 1], triples[rng.Uniform(i)]);
    }
    WeakSummaryMaintainer maintainer(ex.graph.dict_ptr());
    for (const Triple& t : triples) maintainer.AddTriple(t);
    SummaryResult snapshot = maintainer.Snapshot();
    EXPECT_TRUE(AreSummariesIsomorphic(snapshot.graph, batch.graph))
        << "order run " << run;
  }
}

/// Groups resources by summary node: the partition a node_map induces.
std::vector<std::vector<TermId>> Partition(const SummaryResult& r) {
  std::map<TermId, std::vector<TermId>> by_node;
  for (const auto& [resource, node] : r.node_map) {
    by_node[node].push_back(resource);
  }
  std::vector<std::vector<TermId>> blocks;
  for (auto& [node, resources] : by_node) {
    std::sort(resources.begin(), resources.end());
    blocks.push_back(std::move(resources));
  }
  std::sort(blocks.begin(), blocks.end());
  return blocks;
}

TEST(MaintenanceTest, ShuffledStreamMatchesIncrementalWeakSummarize) {
  // The batch entry point feeds data before types; a stream that delivers
  // all type triples first, each group shuffled, must land on the same
  // summary and the same resource partition.
  gen::BsbmOptions opt;
  opt.num_products = 80;
  opt.untyped_offer_fraction = 0.3;
  Graph g = gen::GenerateBsbm(opt);
  std::vector<Triple> types = g.types();
  std::vector<Triple> rest = g.data();
  rest.insert(rest.end(), g.schema().begin(), g.schema().end());
  Random rng(7);
  for (std::vector<Triple>* v : {&types, &rest}) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
    }
  }
  WeakSummaryMaintainer maintainer(g.dict_ptr());
  for (const Triple& t : types) maintainer.AddTriple(t);
  for (const Triple& t : rest) maintainer.AddTriple(t);
  SummaryResult streamed = maintainer.Snapshot();
  SummaryResult batch = IncrementalWeakSummarize(g);
  EXPECT_TRUE(AreSummariesIsomorphic(streamed.graph, batch.graph));
  EXPECT_EQ(streamed.node_map.size(), batch.node_map.size());
  EXPECT_EQ(Partition(streamed), Partition(batch));
}

TEST(MaintenanceTest, TypeBeforeDataMigratesOutOfNTauPool) {
  Graph g;
  Dictionary& d = g.dict();
  const TermId rdf_type = g.vocab().rdf_type;
  TermId x = d.EncodeIri("x"), c = d.EncodeIri("C"), p = d.EncodeIri("p"),
         y = d.EncodeIri("y");

  WeakSummaryMaintainer maintainer(g.dict_ptr());
  maintainer.AddTriple({x, rdf_type, c});
  // While typed-only, x sits in the pool.
  EXPECT_EQ(maintainer.num_summary_nodes(), 1u);
  maintainer.AddTriple({x, p, y});
  SummaryResult snap = maintainer.Snapshot();
  // x's node carries both the data edge and the class; there is no
  // leftover Nτ node.
  EXPECT_EQ(snap.stats.num_data_nodes, 2u);
  TermId xs = snap.node_map.at(x);
  EXPECT_TRUE(snap.graph.Contains({xs, rdf_type, c}));
  EXPECT_TRUE(snap.graph.Contains({xs, p, snap.node_map.at(y)}));
}

TEST(MaintenanceTest, SnapshotsAtEveryPrefixAreCorrect) {
  gen::HeteroOptions opt;
  opt.seed = 5;
  opt.num_nodes = 40;
  opt.num_properties = 6;
  opt.type_probability = 0.4;
  Graph g = gen::GenerateHetero(opt);
  std::vector<Triple> triples = AllTriples(g);

  WeakSummaryMaintainer maintainer(g.dict_ptr());
  Graph prefix(g.dict_ptr());
  size_t step = std::max<size_t>(1, triples.size() / 7);
  for (size_t i = 0; i < triples.size(); ++i) {
    maintainer.AddTriple(triples[i]);
    prefix.Add(triples[i]);
    if (i % step == 0 || i + 1 == triples.size()) {
      SummaryResult expected = Summarize(prefix, SummaryKind::kWeak);
      SummaryResult actual = maintainer.Snapshot();
      ASSERT_TRUE(AreSummariesIsomorphic(actual.graph, expected.graph))
          << "prefix " << i + 1 << "/" << triples.size();
    }
  }
}

TEST(MaintenanceTest, DuplicateInsertionsAreIdempotent) {
  gen::Figure2Example ex = gen::BuildFigure2();
  WeakSummaryMaintainer maintainer(ex.graph.dict_ptr());
  for (int round = 0; round < 3; ++round) {
    ex.graph.ForEachTriple([&](const Triple& t) { maintainer.AddTriple(t); });
  }
  SummaryResult batch = Summarize(ex.graph, SummaryKind::kWeak);
  EXPECT_TRUE(AreSummariesIsomorphic(maintainer.Snapshot().graph,
                                     batch.graph));
}

TEST(MaintenanceTest, HomomorphismAndNodeMap) {
  gen::BsbmOptions opt;
  opt.num_products = 60;
  Graph g = gen::GenerateBsbm(opt);
  WeakSummaryMaintainer maintainer(g);
  SummaryResult snap = maintainer.Snapshot();
  EXPECT_TRUE(CheckHomomorphism(g, snap).ok());
  EXPECT_FALSE(snap.node_map.empty());
  EXPECT_TRUE(snap.multiplicity.empty());  // the maintainer counts no edges
}

TEST(MaintenanceTest, SummaryOnlyGrowsCoarser) {
  // Node count may only shrink via merges as triples arrive, never grow
  // beyond 2 * #distinct-properties + pool.
  gen::HeteroOptions opt;
  opt.seed = 21;
  opt.num_nodes = 80;
  opt.num_properties = 8;
  Graph g = gen::GenerateHetero(opt);
  WeakSummaryMaintainer maintainer(g.dict_ptr());
  uint64_t max_nodes = 0;
  g.ForEachTriple([&](const Triple& t) {
    maintainer.AddTriple(t);
    max_nodes = std::max(max_nodes, maintainer.num_summary_nodes());
  });
  EXPECT_LE(max_nodes, 2 * 8 + 1u);
}

TEST(MaintenanceTest, SchemaTriplesPassThrough) {
  gen::BookExample ex = gen::BuildBookExample();
  WeakSummaryMaintainer maintainer(ex.graph);
  SummaryResult snap = maintainer.Snapshot();
  EXPECT_EQ(snap.graph.schema().size(), ex.graph.schema().size());
}

}  // namespace
}  // namespace rdfsum::summary
