#include <gtest/gtest.h>

#include <cstdio>
#include <utility>

#include "gen/bsbm.h"
#include "gen/lubm.h"
#include "io/ntriples_parser.h"
#include "io/ntriples_writer.h"
#include "query/evaluator.h"
#include "query/rbgp.h"
#include "rdf/graph_stats.h"
#include "reasoner/saturation.h"
#include "store/mmap_store.h"
#include "summary/isomorphism.h"
#include "summary/property_checks.h"
#include "summary/summarizer.h"

namespace rdfsum {
namespace {

using summary::AreSummariesIsomorphic;
using summary::CheckHomomorphism;
using summary::kAllQuotientKinds;
using summary::SummaryKind;
using summary::SummaryKindName;
using summary::SummaryResult;
using summary::Summarize;

// End-to-end: generate -> serialize -> parse -> freeze -> open -> summarize ->
// verify. This is the full pipeline of the paper's §6 tooling.
TEST(IntegrationTest, FullPipelineOnBsbm) {
  gen::BsbmOptions opt;
  opt.num_products = 200;
  Graph original = gen::GenerateBsbm(opt);

  // Serialize to N-Triples and parse back (the paper's loading path).
  std::string nt_path = testing::TempDir() + "/pipeline.nt";
  ASSERT_TRUE(io::NTriplesWriter::WriteFile(original, nt_path).ok());
  Graph parsed;
  io::ParseStats pstats;
  ASSERT_TRUE(io::NTriplesParser::ParseFile(nt_path, &parsed, &pstats).ok());
  EXPECT_EQ(parsed.NumTriples(), original.NumTriples());
  std::remove(nt_path.c_str());

  // Freeze to the .rsb store image and materialize back (the PostgreSQL
  // substitute). The graph's dictionary borrows the store's mapping, so the
  // store stays open for the rest of the test.
  std::string image_path = testing::TempDir() + "/pipeline.rsb";
  ASSERT_TRUE(store::FreezeGraphToFile(parsed, image_path).ok());
  auto image = store::MmapStore::Open(image_path);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  Graph g = (*image)->ToGraph();
  EXPECT_EQ(g.NumTriples(), original.NumTriples());
  std::remove(image_path.c_str());

  // Summarize all kinds and verify structural invariants.
  GraphStats gs = ComputeGraphStats(g);
  for (SummaryKind kind : kAllQuotientKinds) {
    SummaryResult r = Summarize(g, kind);
    EXPECT_TRUE(CheckHomomorphism(g, r).ok()) << SummaryKindName(kind);
    EXPECT_LT(r.stats.num_all_edges, gs.num_edges / 10)
        << SummaryKindName(kind) << " summary should be much smaller";
    EXPECT_EQ(r.graph.schema().size(), g.schema().size());
  }
}

TEST(IntegrationTest, SummariesOrderedBySizeOnBsbm) {
  // Figure 11's qualitative shape: |W| <= |S| (data nodes), both far below
  // |TW| ~ |TS|.
  gen::BsbmOptions opt;
  opt.num_products = 300;
  Graph g = gen::GenerateBsbm(opt);

  SummaryResult w = Summarize(g, SummaryKind::kWeak);
  SummaryResult s = Summarize(g, SummaryKind::kStrong);
  SummaryResult tw = Summarize(g, SummaryKind::kTypedWeak);
  SummaryResult ts = Summarize(g, SummaryKind::kTypedStrong);

  EXPECT_LE(w.stats.num_data_nodes, s.stats.num_data_nodes);
  // The paper reports a 5x-50x gap at 10M-100M triples; at this small scale
  // the class-set count (which drives TW/TS) is proportionally smaller, so
  // assert a 4x floor here and measure the real factors in bench_fig11.
  EXPECT_GE(tw.stats.num_data_nodes, 4 * w.stats.num_data_nodes);
  // S is itself larger than W, so the TS/S factor sits lower at small scale.
  EXPECT_GE(ts.stats.num_data_nodes, 3 * s.stats.num_data_nodes);
  // Class nodes dominate data nodes for the type-first summaries (§7).
  EXPECT_GT(w.stats.num_class_nodes, w.stats.num_data_nodes);
}

TEST(IntegrationTest, CompactnessOnBsbm) {
  gen::BsbmOptions opt;
  opt.num_products = 400;
  Graph g = gen::GenerateBsbm(opt);
  for (SummaryKind kind : kAllQuotientKinds) {
    SummaryResult r = Summarize(g, kind);
    double ratio = static_cast<double>(r.stats.num_all_edges) /
                   static_cast<double>(g.NumTriples());
    EXPECT_LT(ratio, 0.2) << SummaryKindName(kind);
  }
}

TEST(IntegrationTest, WeakShortcutEqualsDirectOnLubm) {
  gen::LubmOptions opt;
  opt.num_universities = 1;
  Graph g = gen::GenerateLubm(opt);
  Graph g_inf = reasoner::Saturate(g);
  SummaryResult direct = Summarize(g_inf, SummaryKind::kWeak);
  SummaryResult shortcut =
      summary::SummarizeSaturatedViaShortcut(g, SummaryKind::kWeak);
  EXPECT_TRUE(AreSummariesIsomorphic(direct.graph, shortcut.graph));
}

TEST(IntegrationTest, QueryPruningScenario) {
  // The query-optimization use case: a query with no match on the summary
  // has no match on the graph (contrapositive of representativeness) —
  // evaluate cheap emptiness checks on the summary first.
  gen::BsbmOptions opt;
  opt.num_products = 150;
  Graph g = gen::GenerateBsbm(opt);
  Graph g_inf = reasoner::Saturate(g);
  SummaryResult w = Summarize(g, SummaryKind::kWeak);
  Graph w_inf = reasoner::Saturate(w.graph);

  query::BgpEvaluator on_graph(g_inf);
  query::BgpEvaluator on_summary(w_inf);

  Random rng(1234);
  uint32_t represented = 0, total = 40;
  for (uint32_t i = 0; i < total; ++i) {
    query::BgpQuery q = query::GenerateRbgpQuery(g_inf, rng);
    if (q.triples.empty()) continue;
    // Nonempty on G∞ by construction; must be nonempty on the summary.
    EXPECT_TRUE(on_summary.ExistsMatch(q));
    if (on_graph.ExistsMatch(q)) ++represented;
  }
  EXPECT_EQ(represented, total);
}

TEST(IntegrationTest, SummaryOfSummaryPipeline) {
  // Summaries are RDF graphs: they round-trip through the writer/parser and
  // can be summarized again (fixpoint).
  gen::BsbmOptions opt;
  opt.num_products = 100;
  Graph g = gen::GenerateBsbm(opt);
  SummaryResult s = Summarize(g, SummaryKind::kStrong);

  std::string text = io::NTriplesWriter::ToString(s.graph);
  Graph reparsed;
  ASSERT_TRUE(io::NTriplesParser::ParseString(text, &reparsed).ok());
  EXPECT_EQ(reparsed.NumTriples(), s.graph.NumTriples());

  SummaryResult again = Summarize(reparsed, SummaryKind::kStrong);
  EXPECT_EQ(again.graph.NumTriples(), s.graph.NumTriples());
}

TEST(IntegrationTest, StatsConsistency) {
  gen::BsbmOptions opt;
  opt.num_products = 80;
  Graph g = gen::GenerateBsbm(opt);
  for (SummaryKind kind : kAllQuotientKinds) {
    SummaryResult r = Summarize(g, kind);
    GraphStats hs = ComputeGraphStats(r.graph);
    EXPECT_EQ(r.stats.num_all_edges, hs.num_edges);
    EXPECT_EQ(r.stats.num_data_nodes, hs.num_data_nodes);
    EXPECT_EQ(r.stats.num_class_nodes, hs.num_class_nodes);
    EXPECT_EQ(r.stats.num_all_nodes, hs.num_nodes);
  }
}

}  // namespace
}  // namespace rdfsum
