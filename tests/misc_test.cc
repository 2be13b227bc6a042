// Odds and ends: DOT options, evaluator generality beyond the RBGP
// dialect, and small API surfaces not covered by the focused suites.

#include <gtest/gtest.h>

#include "gen/paper_example.h"
#include "io/dot_writer.h"
#include "oracle/drain.h"
#include "query/evaluator.h"
#include "query/sparql_parser.h"
#include "summary/cliques.h"
#include "summary/summarizer.h"

namespace rdfsum {
namespace {

TEST(DotWriterTest, FullIrisWhenLocalNamesDisabled) {
  Graph g;
  g.AddIris("http://x/sub", "http://x/prop", "http://x/obj");
  io::DotOptions options;
  options.local_names = false;
  std::string dot = io::DotWriter::ToString(g, options);
  EXPECT_NE(dot.find("http://x/prop"), std::string::npos);

  options.local_names = true;
  dot = io::DotWriter::ToString(g, options);
  EXPECT_NE(dot.find("label=\"prop\""), std::string::npos);
}

TEST(DotWriterTest, GraphNameEscaped) {
  Graph g;
  io::DotOptions options;
  options.graph_name = "has \"quotes\"";
  std::string dot = io::DotWriter::ToString(g, options);
  EXPECT_NE(dot.find("digraph \"has \\\"quotes\\\"\""), std::string::npos);
}

TEST(EvaluatorGeneralityTest, VariableProperty) {
  // The evaluator supports full BGPs, beyond the RBGP dialect: variable
  // properties enumerate the predicates.
  gen::Figure2Example ex = gen::BuildFigure2();
  auto q = query::ParseSparql(
      "PREFIX f: <http://example.org/fig2/>\n"
      "SELECT ?p WHERE { f:r1 ?p ?o }");
  ASSERT_TRUE(q.ok());
  query::BgpEvaluator eval(ex.graph);
  auto rows = query::Drain(eval, *q);
  ASSERT_TRUE(rows.ok());
  // r1 has author, title and rdf:type edges.
  EXPECT_EQ(rows->size(), 3u);
}

TEST(EvaluatorGeneralityTest, SameVariablePropertyAndObject) {
  Graph g;
  Dictionary& d = g.dict();
  TermId p = d.EncodeIri("http://p");
  g.Add({d.EncodeIri("http://s"), p, p});  // o == p
  g.Add({d.EncodeIri("http://s"), p, d.EncodeIri("http://other")});
  auto q = query::ParseSparql("SELECT ?x WHERE { ?s ?x ?x }");
  ASSERT_TRUE(q.ok());
  query::BgpEvaluator eval(g);
  auto rows = query::Drain(eval, *q);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].lexical, "http://p");
}

TEST(EvaluatorGeneralityTest, ZeroLimit) {
  gen::Figure2Example ex = gen::BuildFigure2();
  auto q = query::ParseSparql(
      "PREFIX f: <http://example.org/fig2/>\n"
      "SELECT ?s WHERE { ?s f:title ?t }");
  ASSERT_TRUE(q.ok());
  query::BgpEvaluator eval(ex.graph);
  auto rows = query::Drain(eval, *q, query::CursorOptions{.limit = 1});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST(SummaryKindTest, NamesAreStableAndDistinct) {
  using summary::SummaryKind;
  using summary::SummaryKindName;
  EXPECT_STREQ(SummaryKindName(SummaryKind::kWeak), "W");
  EXPECT_STREQ(SummaryKindName(SummaryKind::kStrong), "S");
  EXPECT_STREQ(SummaryKindName(SummaryKind::kTypedWeak), "TW");
  EXPECT_STREQ(SummaryKindName(SummaryKind::kTypedStrong), "TS");
  EXPECT_STREQ(SummaryKindName(SummaryKind::kTypeBased), "T");
  EXPECT_STREQ(SummaryKindName(SummaryKind::kBisimulation), "BISIM");
}

TEST(PropertyDistanceTest, TargetSideChain) {
  // Build a target-side chain: y1 is target of p1 and p2 (via different
  // sources), y2 of p2 and p3 — so d_target(p1, p3) = 1.
  Graph g;
  Dictionary& d = g.dict();
  TermId p1 = d.EncodeIri("p1"), p2 = d.EncodeIri("p2"),
         p3 = d.EncodeIri("p3");
  TermId y1 = d.EncodeIri("y1"), y2 = d.EncodeIri("y2");
  g.Add({d.EncodeIri("s1"), p1, y1});
  g.Add({d.EncodeIri("s2"), p2, y1});
  g.Add({d.EncodeIri("s3"), p2, y2});
  g.Add({d.EncodeIri("s4"), p3, y2});
  const DenseGraph dg(g);
  EXPECT_EQ(summary::PropertyDistance(dg, p1, p2, /*source=*/false), 0);
  EXPECT_EQ(summary::PropertyDistance(dg, p1, p3, /*source=*/false), 1);
  EXPECT_EQ(summary::PropertyDistance(dg, p1, p3, /*source=*/true), -1);
}

TEST(SummaryStatsTest, ToStringMentionsEverything) {
  gen::Figure2Example ex = gen::BuildFigure2();
  auto r = summary::Summarize(ex.graph, summary::SummaryKind::kWeak);
  std::string s = r.stats.ToString();
  EXPECT_NE(s.find("data nodes=6"), std::string::npos);
  EXPECT_NE(s.find("class nodes=3"), std::string::npos);
  EXPECT_NE(s.find("data edges=6"), std::string::npos);
}

}  // namespace
}  // namespace rdfsum
