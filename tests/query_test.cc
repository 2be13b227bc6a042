#include <gtest/gtest.h>

#include "gen/paper_example.h"
#include "oracle/drain.h"
#include "query/evaluator.h"
#include "query/sparql_parser.h"
#include "reasoner/saturation.h"

namespace rdfsum::query {
namespace {

// ------------------------------------------------------------------ parser

TEST(SparqlParserTest, SimpleSelect) {
  auto q = ParseSparql(
      "SELECT ?x ?y WHERE { ?x <http://p> ?y . }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->distinguished.size(), 2u);
  ASSERT_EQ(q->triples.size(), 1u);
  EXPECT_TRUE(q->triples[0].s.is_var);
  EXPECT_FALSE(q->triples[0].p.is_var);
  EXPECT_EQ(q->triples[0].p.term.lexical, "http://p");
}

TEST(SparqlParserTest, PrefixesExpand) {
  auto q = ParseSparql(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?x WHERE { ?x ex:knows ?y }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->triples[0].p.term.lexical, "http://example.org/knows");
}

TEST(SparqlParserTest, AKeywordIsRdfType) {
  auto q = ParseSparql("SELECT ?x WHERE { ?x a <http://C> }");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->triples[0].p.term.lexical,
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
}

TEST(SparqlParserTest, SelectStarCollectsBodyVars) {
  auto q = ParseSparql("SELECT * WHERE { ?a <http://p> ?b . ?b <http://q> ?c }");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->distinguished,
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SparqlParserTest, AskIsBoolean) {
  auto q = ParseSparql("ASK WHERE { ?x <http://p> ?y }");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->distinguished.empty());
}

TEST(SparqlParserTest, LiteralsWithTagsParse) {
  auto q = ParseSparql(
      "SELECT ?x WHERE { ?x <http://p> \"val\"@en . ?x <http://q> "
      "\"5\"^^<http://int> }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->triples[0].o.term.language, "en");
  EXPECT_EQ(q->triples[1].o.term.datatype, "http://int");
}

TEST(SparqlParserTest, CommentsIgnored) {
  auto q = ParseSparql(
      "# leading comment\n"
      "SELECT ?x WHERE { ?x <http://p> ?y # trailing\n }");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
}

TEST(SparqlParserTest, RejectsUnsupportedFeatures) {
  EXPECT_TRUE(ParseSparql("SELECT ?x WHERE { OPTIONAL { ?x <p> ?y } }")
                  .status()
                  .IsNotSupported());
  EXPECT_TRUE(ParseSparql("CONSTRUCT { } WHERE { }").status().IsNotSupported());
}

TEST(SparqlParserTest, RejectsMalformed) {
  EXPECT_FALSE(ParseSparql("SELECT WHERE { ?x <p> ?y }").ok());
  EXPECT_FALSE(ParseSparql("SELECT ?x WHERE ?x <p> ?y").ok());
  EXPECT_FALSE(ParseSparql("SELECT ?x WHERE { ?x <p> ?y ").ok());
  EXPECT_FALSE(ParseSparql("SELECT ?x WHERE { }").ok());
  EXPECT_FALSE(ParseSparql("SELECT ?z WHERE { ?x <http://p> ?y }").ok());
  EXPECT_FALSE(ParseSparql("SELECT ?x WHERE { ?x ex:p ?y }").ok());
}

TEST(SparqlParserTest, RejectsLiteralProperty) {
  EXPECT_FALSE(ParseSparql("SELECT ?x WHERE { ?x \"p\" ?y }").ok());
}

TEST(BgpQueryTest, ToStringRendering) {
  auto q = ParseSparql("SELECT ?x WHERE { ?x <http://p> ?y }");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->ToString(), "q(?x) :- ?x <http://p> ?y");
}

// ---------------------------------------------------------------- evaluator

class EvalFixture : public ::testing::Test {
 protected:
  EvalFixture() : ex_(gen::BuildBookExample()) {}

  BgpQuery Parse(const std::string& text) {
    auto q = ParseSparql(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).value();
  }

  gen::BookExample ex_;
};

TEST_F(EvalFixture, PaperQueryEmptyWithoutSaturation) {
  // §2.1: the hasAuthor query has no answer on explicit triples only.
  BgpQuery q = Parse(
      "PREFIX b: <http://example.org/book/>\n"
      "SELECT ?x3 WHERE { ?x1 b:hasAuthor ?x2 . ?x2 b:hasName ?x3 . "
      "?x1 b:hasTitle \"Le Port des Brumes\" }");
  BgpEvaluator eval(ex_.graph);
  EXPECT_FALSE(eval.ExistsMatch(q));
  auto rows = Drain(eval, q);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(EvalFixture, PaperQueryAnswersOnSaturation) {
  BgpQuery q = Parse(
      "PREFIX b: <http://example.org/book/>\n"
      "SELECT ?x3 WHERE { ?x1 b:hasAuthor ?x2 . ?x2 b:hasName ?x3 . "
      "?x1 b:hasTitle \"Le Port des Brumes\" }");
  Graph sat = reasoner::Saturate(ex_.graph);
  BgpEvaluator eval(sat);
  auto rows = Drain(eval, q);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].lexical, "G. Simenon");
}

TEST_F(EvalFixture, TypePatternAfterSaturation) {
  BgpQuery q = Parse(
      "PREFIX b: <http://example.org/book/>\n"
      "SELECT ?x WHERE { ?x a b:Publication }");
  BgpEvaluator explicit_only(ex_.graph);
  EXPECT_FALSE(explicit_only.ExistsMatch(q));
  Graph sat = reasoner::Saturate(ex_.graph);
  BgpEvaluator saturated(sat);
  EXPECT_TRUE(saturated.ExistsMatch(q));
}

TEST_F(EvalFixture, ConstantNotInDictionaryMeansEmpty) {
  BgpQuery q = Parse("SELECT ?x WHERE { ?x <http://never/seen> ?y }");
  BgpEvaluator eval(ex_.graph);
  EXPECT_FALSE(eval.ExistsMatch(q));
  EXPECT_EQ(eval.Explain(q)->num_embeddings, 0u);
}

TEST_F(EvalFixture, RepeatedVariableMustBindConsistently) {
  Graph g;
  Dictionary& d = g.dict();
  TermId p = d.EncodeIri("http://p");
  g.Add({d.EncodeIri("http://a"), p, d.EncodeIri("http://a")});
  g.Add({d.EncodeIri("http://b"), p, d.EncodeIri("http://c")});
  BgpQuery q = Parse("SELECT ?x WHERE { ?x <http://p> ?x }");
  BgpEvaluator eval(g);
  auto rows = Drain(eval, q);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].lexical, "http://a");
}

TEST_F(EvalFixture, JoinAcrossPatterns) {
  gen::Figure2Example fig = gen::BuildFigure2();
  BgpQuery q = Parse(
      "PREFIX f: <http://example.org/fig2/>\n"
      "SELECT ?r ?v WHERE { ?a f:reviewed ?r . ?r f:author ?v }");
  BgpEvaluator eval(fig.graph);
  auto rows = Drain(eval, q);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);  // a1 reviewed r4, r4 author a2
  EXPECT_EQ((*rows)[0][0].lexical, "http://example.org/fig2/r4");
  EXPECT_EQ((*rows)[0][1].lexical, "http://example.org/fig2/a2");
}

TEST_F(EvalFixture, DistinctProjection) {
  gen::Figure2Example fig = gen::BuildFigure2();
  // All subjects having a title: r1, r2, r4, r5 (deduplicated projection).
  BgpQuery q = Parse(
      "PREFIX f: <http://example.org/fig2/>\n"
      "SELECT ?s WHERE { ?s f:title ?t }");
  BgpEvaluator eval(fig.graph);
  auto rows = Drain(eval, q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);
}

TEST_F(EvalFixture, LimitStopsEarly) {
  gen::Figure2Example fig = gen::BuildFigure2();
  BgpQuery q = Parse(
      "PREFIX f: <http://example.org/fig2/>\n"
      "SELECT ?s WHERE { ?s f:title ?t }");
  BgpEvaluator eval(fig.graph);
  auto rows = Drain(eval, q, CursorOptions{.limit = 2});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST_F(EvalFixture, ExplainCountsAllEmbeddings) {
  gen::Figure2Example fig = gen::BuildFigure2();
  BgpQuery q = Parse(
      "PREFIX f: <http://example.org/fig2/>\n"
      "SELECT ?s WHERE { ?s f:editor ?e }");
  BgpEvaluator eval(fig.graph);
  EXPECT_EQ(eval.Explain(q)->num_embeddings, 3u);  // r2-e1, r3-e2, r5-e2
  auto rows = Drain(eval, q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST_F(EvalFixture, BooleanAsk) {
  gen::Figure2Example fig = gen::BuildFigure2();
  BgpQuery yes = Parse(
      "PREFIX f: <http://example.org/fig2/>\n"
      "ASK WHERE { ?s f:comment ?c }");
  BgpQuery no = Parse(
      "PREFIX f: <http://example.org/fig2/>\n"
      "ASK WHERE { ?s f:comment ?c . ?c f:comment ?d }");
  BgpEvaluator eval(fig.graph);
  EXPECT_TRUE(eval.ExistsMatch(yes));
  EXPECT_FALSE(eval.ExistsMatch(no));
  auto rows = Drain(eval, yes);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);  // one empty row = true
  EXPECT_TRUE((*rows)[0].empty());
}

}  // namespace
}  // namespace rdfsum::query
