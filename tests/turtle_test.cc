#include <gtest/gtest.h>

#include "io/ntriples_parser.h"
#include "io/ntriples_writer.h"
#include "io/turtle_parser.h"
#include "rdf/graph.h"

namespace rdfsum::io {
namespace {

Graph ParseOk(const std::string& text, TurtleParseStats* stats = nullptr) {
  Graph g;
  Status st = TurtleParser::ParseString(text, &g, stats);
  EXPECT_TRUE(st.ok()) << st.ToString() << "\ninput: " << text;
  return g;
}

void ExpectError(const std::string& text) {
  Graph g;
  Status st = TurtleParser::ParseString(text, &g);
  EXPECT_FALSE(st.ok()) << "accepted: " << text;
}

TEST(TurtleParserTest, NTriplesStyleStatement) {
  Graph g = ParseOk("<http://s> <http://p> <http://o> .");
  EXPECT_EQ(g.NumTriples(), 1u);
}

TEST(TurtleParserTest, PrefixAndPrefixedNames) {
  Graph g = ParseOk(
      "@prefix ex: <http://example.org/> .\n"
      "ex:s ex:p ex:o .");
  ASSERT_EQ(g.data().size(), 1u);
  EXPECT_EQ(g.dict().Decode(g.data()[0].s).lexical, "http://example.org/s");
}

TEST(TurtleParserTest, SparqlStylePrefixWithoutDot) {
  Graph g = ParseOk(
      "PREFIX ex: <http://example.org/>\n"
      "ex:s ex:p ex:o .");
  EXPECT_EQ(g.NumTriples(), 1u);
}

TEST(TurtleParserTest, AtPrefixRequiresDot) {
  ExpectError("@prefix ex: <http://example.org/>\nex:s ex:p ex:o .");
}

TEST(TurtleParserTest, EmptyPrefixLabel) {
  Graph g = ParseOk(
      "@prefix : <http://example.org/> .\n"
      ":s :p :o .");
  EXPECT_EQ(g.dict().Decode(g.data()[0].p).lexical, "http://example.org/p");
}

TEST(TurtleParserTest, BaseResolvesRelativeIris) {
  Graph g = ParseOk(
      "@base <http://example.org/> .\n"
      "<s> <p> <o> .");
  EXPECT_EQ(g.dict().Decode(g.data()[0].s).lexical, "http://example.org/s");
}

TEST(TurtleParserTest, AKeyword) {
  Graph g = ParseOk(
      "@prefix ex: <http://example.org/> .\n"
      "ex:s a ex:Class .");
  EXPECT_EQ(g.types().size(), 1u);
}

TEST(TurtleParserTest, PredicateList) {
  Graph g = ParseOk(
      "@prefix ex: <http://e/> .\n"
      "ex:s ex:p1 ex:o1 ; ex:p2 ex:o2 ; ex:p3 ex:o3 .");
  EXPECT_EQ(g.data().size(), 3u);
  // All share the same subject.
  TermId s = g.data()[0].s;
  for (const Triple& t : g.data()) EXPECT_EQ(t.s, s);
}

TEST(TurtleParserTest, ObjectList) {
  Graph g = ParseOk(
      "@prefix ex: <http://e/> .\n"
      "ex:s ex:p ex:o1, ex:o2, ex:o3 .");
  EXPECT_EQ(g.data().size(), 3u);
  TermId p = g.data()[0].p;
  for (const Triple& t : g.data()) EXPECT_EQ(t.p, p);
}

TEST(TurtleParserTest, DanglingSemicolonBeforeDot) {
  Graph g = ParseOk(
      "@prefix ex: <http://e/> .\n"
      "ex:s ex:p ex:o ; .");
  EXPECT_EQ(g.data().size(), 1u);
}

TEST(TurtleParserTest, MixedLists) {
  Graph g = ParseOk(
      "@prefix ex: <http://e/> .\n"
      "ex:s a ex:C ; ex:p ex:o1, ex:o2 ; ex:q \"v\" .");
  EXPECT_EQ(g.NumTriples(), 4u);
}

TEST(TurtleParserTest, QuotedLiteralsWithTags) {
  Graph g = ParseOk(
      "@prefix ex: <http://e/> .\n"
      "ex:s ex:p \"plain\" .\n"
      "ex:s ex:q \"hallo\"@de .\n"
      "ex:s ex:r \"5\"^^<http://dt> .\n"
      "ex:s ex:u \"7\"^^ex:num .");
  ASSERT_EQ(g.data().size(), 4u);
  EXPECT_EQ(g.dict().Decode(g.data()[1].o).language, "de");
  EXPECT_EQ(g.dict().Decode(g.data()[3].o).datatype, "http://e/num");
}

TEST(TurtleParserTest, SingleQuoteLiterals) {
  Graph g = ParseOk("<http://s> <http://p> 'single' .");
  EXPECT_EQ(g.dict().Decode(g.data()[0].o).lexical, "single");
}

TEST(TurtleParserTest, EscapesInLiterals) {
  Graph g = ParseOk(R"(<http://s> <http://p> "a\tb\"c" .)");
  EXPECT_EQ(g.dict().Decode(g.data()[0].o).lexical, "a\tb\"c");
}

TEST(TurtleParserTest, EscapesDecodeLikeNTriples) {
  // \u and \U escapes decode through the N-Triples decoder, in literals and
  // in IRIs alike, so both front ends load the same line to the same graph.
  for (const std::string line : {
           R"(<http://s> <http://p> "caf\u00E9" .)",
           R"(<http://s> <http://p> "x\U0001F600y" .)",
           R"(<http://a\u0041> <http://p> <http://o> .)",
       }) {
    Graph nt;
    ASSERT_TRUE(NTriplesParser::ParseString(line, &nt).ok()) << line;
    Graph ttl = ParseOk(line);
    EXPECT_EQ(NTriplesWriter::ToString(ttl), NTriplesWriter::ToString(nt))
        << line;
  }
}

TEST(TurtleParserTest, NumericLiterals) {
  Graph g = ParseOk(
      "@prefix ex: <http://e/> .\n"
      "ex:s ex:p 42 .\n"
      "ex:s ex:q -3.14 .");
  const Term& i = g.dict().Decode(g.data()[0].o);
  EXPECT_EQ(i.lexical, "42");
  EXPECT_EQ(i.datatype, "http://www.w3.org/2001/XMLSchema#integer");
  const Term& d = g.dict().Decode(g.data()[1].o);
  EXPECT_EQ(d.lexical, "-3.14");
  EXPECT_EQ(d.datatype, "http://www.w3.org/2001/XMLSchema#decimal");
}

TEST(TurtleParserTest, IntegerBeforeStatementDot) {
  // "5." must parse as integer 5 followed by the terminator.
  Graph g = ParseOk("<http://s> <http://p> 5.");
  EXPECT_EQ(g.dict().Decode(g.data()[0].o).lexical, "5");
}

TEST(TurtleParserTest, BooleanLiterals) {
  Graph g = ParseOk("<http://s> <http://p> true .\n<http://s> <http://q> false .");
  EXPECT_EQ(g.dict().Decode(g.data()[0].o).lexical, "true");
  EXPECT_EQ(g.dict().Decode(g.data()[0].o).datatype,
            "http://www.w3.org/2001/XMLSchema#boolean");
}

TEST(TurtleParserTest, BlankNodes) {
  Graph g = ParseOk("_:a <http://p> _:b .");
  EXPECT_TRUE(g.dict().Decode(g.data()[0].s).is_blank());
}

TEST(TurtleParserTest, AnonymousBlankNodesAreFresh) {
  Graph g = ParseOk("[] <http://p> [] .\n[] <http://p> [] .");
  EXPECT_EQ(g.data().size(), 2u);
  EXPECT_NE(g.data()[0].s, g.data()[1].s);
  EXPECT_NE(g.data()[0].o, g.data()[0].s);
}

TEST(TurtleParserTest, CommentsEverywhere) {
  Graph g = ParseOk(
      "# header\n"
      "@prefix ex: <http://e/> . # decl\n"
      "ex:s ex:p ex:o . # done\n");
  EXPECT_EQ(g.NumTriples(), 1u);
}

TEST(TurtleParserTest, StatsCount) {
  TurtleParseStats stats;
  ParseOk(
      "@prefix ex: <http://e/> .\n"
      "ex:s ex:p ex:o1, ex:o2 .\n"
      "ex:s ex:p ex:o1 .",
      &stats);
  EXPECT_EQ(stats.prefixes, 1u);
  EXPECT_EQ(stats.triples, 3u);
  EXPECT_EQ(stats.duplicates, 1u);
}

TEST(TurtleParserTest, UndeclaredPrefixFails) {
  ExpectError("ex:s ex:p ex:o .");
}

TEST(TurtleParserTest, MissingDotFails) {
  ExpectError("<http://s> <http://p> <http://o>");
}

TEST(TurtleParserTest, LiteralSubjectFails) {
  ExpectError("\"lit\" <http://p> <http://o> .");
}

TEST(TurtleParserTest, CollectionsNotSupported) {
  Graph g;
  Status st =
      TurtleParser::ParseString("<http://s> <http://p> (1 2) .", &g);
  EXPECT_TRUE(st.IsNotSupported());
}

TEST(TurtleParserTest, PropertyListsNotSupported) {
  Graph g;
  Status st = TurtleParser::ParseString(
      "<http://s> <http://p> [ <http://q> 1 ] .", &g);
  EXPECT_TRUE(st.IsNotSupported());
}

TEST(TurtleParserTest, TripleQuotedNotSupported) {
  Graph g;
  Status st = TurtleParser::ParseString(
      "<http://s> <http://p> \"\"\"long\"\"\" .", &g);
  EXPECT_TRUE(st.IsNotSupported());
}

TEST(TurtleParserTest, ErrorsMentionLine) {
  Graph g;
  Status st = TurtleParser::ParseString(
      "<http://s> <http://p> <http://o> .\n\nbroken here", &g);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 3"), std::string::npos);
}

TEST(TurtleParserTest, IriGrammarMatchesNTriples) {
  // IRIREF goes through the N-Triples scanner: bytes #x00-#x20 are
  // illegal and only \u / \U escapes are allowed. Errors name the line.
  for (const std::string& iri :
       {std::string("<http://a\tb>"), std::string("<http://a\x01z>"),
        std::string(R"(<http://a\nb>)")}) {
    Graph g;
    Status st = TurtleParser::ParseString(
        "<http://s> <http://p> <http://o> .\n<http://s> <http://p> " + iri +
            " .\n",
        &g);
    ASSERT_FALSE(st.ok()) << "accepted: " << iri;
    EXPECT_NE(st.message().find("line 2:"), std::string::npos)
        << st.ToString();
  }
}

TEST(TurtleParserTest, NTriplesWriterOutputIsValidTurtle) {
  // N-Triples is a Turtle subset: round-trip through the writer.
  Graph g;
  g.AddTerms(Term::Iri("http://s"), Term::Iri("http://p"),
             Term::LangLiteral("x", "en"));
  g.AddTerms(Term::Blank("b"), Term::Iri("http://p"), Term::Literal("y"));
  std::string text = NTriplesWriter::ToString(g);
  Graph g2;
  ASSERT_TRUE(TurtleParser::ParseString(text, &g2).ok());
  EXPECT_EQ(g2.NumTriples(), g.NumTriples());
}

TEST(TurtleParserTest, MissingFileIsIOError) {
  Graph g;
  EXPECT_TRUE(TurtleParser::ParseFile("/nonexistent.ttl", &g).IsIOError());
}

TEST(TurtleParserTest, DirectoryIsIOError) {
  Graph g;
  Status st = TurtleParser::ParseFile(testing::TempDir(), &g);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(g.NumTriples(), 0u);
}

// ---------------------------------------------------------------------------
// Governance parity with the N-Triples parser (TurtleParseOptions).

TEST(TurtleGovernanceTest, LenientModeSkipsMalformedStatements) {
  Graph g;
  TurtleParseStats stats;
  TurtleParseOptions options;
  options.strict = false;
  Status st = TurtleParser::ParseString(
      "<http://s1> <http://p> <http://o1> .\n"
      "broken statement here .\n"
      "<http://s2> <http://p> <http://o2> .\n",
      &g, &stats, options);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(g.NumTriples(), 2u);
  EXPECT_EQ(stats.skipped, 1u);
  ASSERT_EQ(stats.diagnostics.size(), 1u);
  EXPECT_NE(stats.diagnostics[0].find("line 2"), std::string::npos)
      << stats.diagnostics[0];
}

TEST(TurtleGovernanceTest, LenientModeRecoversPastQuotedAndIriDots) {
  // The '.' characters inside the IRI and the literal of the broken
  // statement must not end the recovery scan early.
  Graph g;
  TurtleParseStats stats;
  TurtleParseOptions options;
  options.strict = false;
  Status st = TurtleParser::ParseString(
      "<http://a.example/s> <http://p> ( 1 2 ) \"v1.2.3\" .\n"
      "<http://a.example/s2> <http://p> <http://o> .\n",
      &g, &stats, options);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_EQ(g.NumTriples(), 1u);
}

TEST(TurtleGovernanceTest, LenientModeSkipsUnsupportedConstructs) {
  Graph g;
  TurtleParseStats stats;
  TurtleParseOptions options;
  options.strict = false;
  Status st = TurtleParser::ParseString(
      "<http://s> <http://p> ( 1 2 3 ) .\n"
      "<http://s> <http://p> <http://o> .\n",
      &g, &stats, options);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(g.NumTriples(), 1u);
  EXPECT_EQ(stats.skipped, 1u);
  ASSERT_EQ(stats.diagnostics.size(), 1u);
  // NotSupported reasons get the line prefix added by the recovery path.
  EXPECT_NE(stats.diagnostics[0].find("line 1"), std::string::npos)
      << stats.diagnostics[0];
}

TEST(TurtleGovernanceTest, DiagnosticsAreCapped) {
  std::string text;
  for (int i = 0; i < 50; ++i) text += "broken line .\n";
  Graph g;
  TurtleParseStats stats;
  TurtleParseOptions options;
  options.strict = false;
  ASSERT_TRUE(TurtleParser::ParseString(text, &g, &stats, options).ok());
  EXPECT_EQ(stats.skipped, 50u);
  EXPECT_EQ(stats.diagnostics.size(), TurtleParseStats::kMaxDiagnostics);
}

TEST(TurtleGovernanceTest, MaxTermBytesRejectsOversizedTerm) {
  Graph g;
  TurtleParseOptions options;
  options.max_term_bytes = 16;
  Status st = TurtleParser::ParseString(
      "<http://s> <http://p> \"a very long literal that exceeds the cap\" .",
      &g, nullptr, options);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("max_term_bytes"), std::string::npos);
}

TEST(TurtleGovernanceTest, MaxStatementBytesStopsRunawayStatement) {
  // A missing '.' chains everything into one statement; the span guard must
  // trip instead of silently absorbing the whole input.
  std::string text = "<http://s> <http://p>";
  for (int i = 0; i < 100; ++i) {
    text += " <http://o" + std::to_string(i) + "> ,";
  }
  text += " <http://last> .";
  Graph g;
  TurtleParseOptions options;
  options.max_statement_bytes = 256;
  Status st = TurtleParser::ParseString(text, &g, nullptr, options);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("max_statement_bytes"), std::string::npos);
}

TEST(TurtleGovernanceTest, CancelledExecContextAbortsParse) {
  // Build enough statements to cross the per-256-statement poll boundary.
  std::string text;
  for (int i = 0; i < 600; ++i) {
    text += "<http://s" + std::to_string(i) + "> <http://p> <http://o> .\n";
  }
  util::ExecContext ctx;
  ctx.Cancel();
  Graph g;
  TurtleParseOptions options;
  options.exec = &ctx;
  Status st = TurtleParser::ParseString(text, &g, nullptr, options);
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
}

}  // namespace
}  // namespace rdfsum::io
