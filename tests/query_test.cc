#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

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

// --------------------------------------------------------------------- rows

/// Drains `q` on `eval`, checking that every decoded column is the very
/// Term object `dict` holds for the id (Decode copies nothing), and returns
/// the rows with their terms copied out.
std::vector<std::vector<Term>> DrainBorrowed(const BgpEvaluator& eval,
                                             const BgpQuery& q,
                                             const Dictionary& dict) {
  std::vector<std::vector<Term>> out;
  auto cursor = eval.Open(q);
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  if (!cursor.ok()) return out;
  IdRow ids;
  while ((*cursor)->Next(&ids)) {
    Row row = eval.Decode(ids);
    EXPECT_EQ(row.size(), ids.size());
    std::vector<Term> copied;
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(&row[i], &dict.Decode(ids[i])) << "column " << i;
      copied.push_back(row[i]);
    }
    out.push_back(std::move(copied));
  }
  return out;
}

/// A 6-hop chain n0 -p0-> n1 -p1-> ... -p5-> n6 over a fresh dictionary.
Graph ChainGraph() {
  Graph g;
  for (int i = 0; i < 6; ++i) {
    const std::string at = std::to_string(i);
    g.AddIris("http://c/n" + at, "http://c/p" + at,
              "http://c/n" + std::to_string(i + 1));
  }
  return g;
}

TEST(RowTest, DecodeBorrowsTheOwnedDictionarysTerms) {
  gen::Figure2Example fig = gen::BuildFigure2();
  BgpEvaluator eval(fig.graph);
  auto q = ParseSparql("SELECT ?s ?p ?o WHERE { ?s ?p ?o }");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(DrainBorrowed(eval, *q, fig.graph.dict()).size(),
            fig.graph.NumTriples());
}

TEST(RowTest, SixColumnSelectDecodesThroughTheSpill) {
  static_assert(Row::kInlineColumns < 6);
  Graph g = ChainGraph();
  BgpEvaluator eval(g);
  auto q = ParseSparql(
      "SELECT ?a ?p ?b ?q ?c ?r WHERE { ?a ?p ?b . ?b ?q ?c . ?c ?r ?d . "
      "?d <http://c/p5> ?e }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<std::vector<Term>> rows = DrainBorrowed(eval, *q, g.dict());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<Term>{
                         Term::Iri("http://c/n2"), Term::Iri("http://c/p2"),
                         Term::Iri("http://c/n3"), Term::Iri("http://c/p3"),
                         Term::Iri("http://c/n4"), Term::Iri("http://c/p4")}));

  // The same row through Drain, iterated as const Term&.
  auto drained = Drain(eval, *q);
  ASSERT_TRUE(drained.ok());
  ASSERT_EQ(drained->size(), 1u);
  std::vector<Term> iterated;
  for (const Term& t : (*drained)[0]) iterated.push_back(t);
  EXPECT_EQ(iterated, rows[0]);
  EXPECT_EQ((*drained)[0].front(), rows[0].front());
}

TEST(RowTest, CopiesBorrowTheSameTermsAndCompareByValue) {
  Graph g = ChainGraph();
  const Dictionary& d = g.dict();
  std::vector<const Term*> terms;
  for (TermId id = 1; id < d.size(); ++id) terms.push_back(&d.Decode(id));
  ASSERT_GE(terms.size(), 6u);

  for (size_t width : {size_t{0}, size_t{1}, Row::kInlineColumns,
                       Row::kInlineColumns + 1, size_t{6}}) {
    std::optional<Row> original(std::in_place);
    for (size_t i = 0; i < width; ++i) original->push_back(*terms[i]);
    EXPECT_EQ(original->size(), width);
    EXPECT_EQ(original->empty(), width == 0);

    Row copy = *original;
    EXPECT_EQ(copy, *original);
    for (size_t i = 0; i < width; ++i) EXPECT_EQ(&copy[i], terms[i]);

    Row assigned;
    assigned.push_back(*terms[5]);
    assigned = *original;
    EXPECT_EQ(assigned, *original);

    // A copy owns its column pointers: it outlives the row it came from.
    original.reset();
    for (size_t i = 0; i < width; ++i) EXPECT_EQ(&copy[i], terms[i]);

    Row moved = std::move(copy);
    EXPECT_EQ(moved.size(), width);
    EXPECT_EQ(moved, assigned);
    for (size_t i = 0; i < width; ++i) EXPECT_EQ(&moved[i], terms[i]);
  }

  Row a, b;
  EXPECT_EQ(a, b);
  a.push_back(*terms[0]);
  EXPECT_FALSE(a == b);  // sizes differ
  b.push_back(*terms[1]);
  EXPECT_FALSE(a == b);  // terms differ

  // Equal terms held by another dictionary compare equal by value.
  Graph twin = ChainGraph();
  Row from_twin;
  from_twin.push_back(twin.dict().Decode(twin.dict().Lookup(*terms[0])));
  EXPECT_NE(&from_twin[0], &a[0]);
  EXPECT_EQ(from_twin, a);
}

}  // namespace
}  // namespace rdfsum::query
