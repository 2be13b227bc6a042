#include <gtest/gtest.h>

#include <string>

#include "gen/hetero.h"
#include "io/dot_writer.h"
#include "io/ntriples_parser.h"
#include "io/ntriples_writer.h"
#include "rdf/graph.h"

namespace rdfsum {
namespace {

using io::NTriplesParser;
using io::NTriplesWriter;
using io::ParseOptions;
using io::ParseStats;

Graph ParseOk(const std::string& text) {
  Graph g;
  ParseStats stats;
  Status st = NTriplesParser::ParseString(text, &g, &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return g;
}

TEST(NTriplesParserTest, BasicTriple) {
  Graph g = ParseOk("<http://s> <http://p> <http://o> .\n");
  EXPECT_EQ(g.NumTriples(), 1u);
  EXPECT_EQ(g.data().size(), 1u);
}

TEST(NTriplesParserTest, LiteralObject) {
  Graph g = ParseOk("<http://s> <http://p> \"hello world\" .");
  const Term& o = g.dict().Decode(g.data()[0].o);
  EXPECT_TRUE(o.is_literal());
  EXPECT_EQ(o.lexical, "hello world");
}

TEST(NTriplesParserTest, LangLiteral) {
  Graph g = ParseOk("<http://s> <http://p> \"bonjour\"@fr .");
  const Term& o = g.dict().Decode(g.data()[0].o);
  EXPECT_EQ(o.language, "fr");
}

TEST(NTriplesParserTest, TypedLiteral) {
  Graph g = ParseOk(
      "<http://s> <http://p> "
      "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .");
  const Term& o = g.dict().Decode(g.data()[0].o);
  EXPECT_EQ(o.datatype, "http://www.w3.org/2001/XMLSchema#integer");
}

TEST(NTriplesParserTest, BlankNodes) {
  Graph g = ParseOk("_:b1 <http://p> _:b2 .");
  EXPECT_TRUE(g.dict().Decode(g.data()[0].s).is_blank());
  EXPECT_TRUE(g.dict().Decode(g.data()[0].o).is_blank());
}

TEST(NTriplesParserTest, BlankNodeBeforeTerminatorWithoutSpace) {
  Graph g = ParseOk("<http://s> <http://p> _:b1.");
  EXPECT_TRUE(g.dict().Decode(g.data()[0].o).is_blank());
  EXPECT_EQ(g.dict().Decode(g.data()[0].o).lexical, "b1");
}

TEST(NTriplesParserTest, EscapesInLiterals) {
  Graph g = ParseOk(R"(<http://s> <http://p> "a\tb\nc\"d\\e" .)");
  EXPECT_EQ(g.dict().Decode(g.data()[0].o).lexical, "a\tb\nc\"d\\e");
}

TEST(NTriplesParserTest, UnicodeEscapes) {
  Graph g = ParseOk(R"(<http://s> <http://p> "café \U0001F600" .)");
  EXPECT_EQ(g.dict().Decode(g.data()[0].o).lexical,
            "caf\xC3\xA9 \xF0\x9F\x98\x80");
}

TEST(NTriplesParserTest, CommentsAndBlankLines) {
  Graph g = ParseOk(
      "# a comment\n"
      "\n"
      "   \t\n"
      "<http://s> <http://p> <http://o> .\n"
      "# trailing comment\n");
  EXPECT_EQ(g.NumTriples(), 1u);
}

TEST(NTriplesParserTest, CrLfLineEndings) {
  Graph g = ParseOk("<http://s> <http://p> <http://o> .\r\n");
  EXPECT_EQ(g.NumTriples(), 1u);
}

TEST(NTriplesParserTest, RdfTypeRoutesToTypeComponent) {
  Graph g = ParseOk(
      "<http://s> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
      "<http://C> .");
  EXPECT_EQ(g.types().size(), 1u);
  EXPECT_EQ(g.data().size(), 0u);
}

TEST(NTriplesParserTest, SchemaRoutesToSchemaComponent) {
  Graph g = ParseOk(
      "<http://C1> <http://www.w3.org/2000/01/rdf-schema#subClassOf> "
      "<http://C2> .");
  EXPECT_EQ(g.schema().size(), 1u);
}

TEST(NTriplesParserTest, StatsCountDuplicates) {
  Graph g;
  ParseStats stats;
  std::string text =
      "<http://s> <http://p> <http://o> .\n"
      "<http://s> <http://p> <http://o> .\n";
  ASSERT_TRUE(NTriplesParser::ParseString(text, &g, &stats).ok());
  EXPECT_EQ(stats.triples, 2u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(g.NumTriples(), 1u);
}

// ------------------------------------------------------------- error cases

void ExpectParseError(const std::string& text) {
  Graph g;
  Status st = NTriplesParser::ParseString(text, &g, nullptr);
  EXPECT_FALSE(st.ok()) << "accepted: " << text;
}

TEST(NTriplesParserTest, RejectsMissingDot) {
  ExpectParseError("<http://s> <http://p> <http://o>");
}

TEST(NTriplesParserTest, RejectsLiteralSubject) {
  ExpectParseError("\"lit\" <http://p> <http://o> .");
}

TEST(NTriplesParserTest, RejectsLiteralProperty) {
  ExpectParseError("<http://s> \"p\" <http://o> .");
}

TEST(NTriplesParserTest, RejectsBlankProperty) {
  ExpectParseError("<http://s> _:p <http://o> .");
}

TEST(NTriplesParserTest, RejectsUnterminatedIri) {
  ExpectParseError("<http://s <http://p> <http://o> .");
}

TEST(NTriplesParserTest, RejectsUnterminatedLiteral) {
  ExpectParseError("<http://s> <http://p> \"open .");
}

TEST(NTriplesParserTest, RejectsBadEscape) {
  ExpectParseError(R"(<http://s> <http://p> "bad\q" .)");
}

TEST(NTriplesParserTest, RejectsBadUnicodeEscape) {
  ExpectParseError(R"(<http://s> <http://p> "bad\uZZZZ" .)");
}

TEST(NTriplesParserTest, RejectsTrailingGarbage) {
  ExpectParseError("<http://s> <http://p> <http://o> . extra");
}

TEST(NTriplesParserTest, RejectsEmptyIri) {
  ExpectParseError("<> <http://p> <http://o> .");
}

TEST(NTriplesParserTest, ErrorMentionsLineNumber) {
  Graph g;
  Status st = NTriplesParser::ParseString(
      "<http://s> <http://p> <http://o> .\nbroken line\n", &g);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 2"), std::string::npos);
}

TEST(NTriplesParserTest, LenientModeSkipsBadLines) {
  Graph g;
  ParseStats stats;
  ParseOptions options;
  options.strict = false;
  std::string text =
      "<http://s> <http://p> <http://o> .\n"
      "garbage\n"
      "<http://s> <http://p> <http://o2> .\n";
  ASSERT_TRUE(NTriplesParser::ParseString(text, &g, &stats, options).ok());
  EXPECT_EQ(g.NumTriples(), 2u);
  EXPECT_EQ(stats.skipped, 1u);
}

TEST(NTriplesParserTest, ParseTermStandalone) {
  auto t = NTriplesParser::ParseTerm("\"x\"@en");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->language, "en");
  EXPECT_FALSE(NTriplesParser::ParseTerm("<http://a> junk").ok());
}

// ---- IRIREF and LANGTAG grammar: bytes #x00-#x20 are not IRI characters,
// IRIs allow only \u / \U escapes, and LANGTAG is
// [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*.

/// Expects `term` to be rejected both standalone and, as the object of the
/// second line of a strict parse, with an error naming that line.
void ExpectTermRejected(const std::string& term) {
  EXPECT_FALSE(NTriplesParser::ParseTerm(term).ok()) << "accepted: " << term;
  Graph g;
  Status st = NTriplesParser::ParseString(
      "<http://s> <http://p> <http://o> .\n<http://s> <http://p> " + term +
          " .\n",
      &g);
  ASSERT_FALSE(st.ok()) << "accepted: " << term;
  EXPECT_NE(st.message().find("line 2:"), std::string::npos) << st.ToString();
  EXPECT_EQ(g.NumTriples(), 1u);
}

TEST(NTriplesParserTest, RejectsControlBytesInIris) {
  ExpectTermRejected("<http://a\tb>");
  ExpectTermRejected("<http://a\x01z>");
  ExpectTermRejected(std::string("<http://a\0z>", 12));
  ExpectTermRejected("<http://a b>");
}

TEST(NTriplesParserTest, RejectsNonUcharEscapesInIris) {
  ExpectTermRejected(R"(<http://a\nb>)");
  ExpectTermRejected(R"(<http://a\tb>)");
  ExpectTermRejected(R"(<http://a\\b>)");
  ExpectTermRejected(R"("x"^^<http://a\nb>)");
  auto t = NTriplesParser::ParseTerm(R"(<http://a\u0041\U00000042>)");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->lexical, "http://aAB");
}

TEST(NTriplesParserTest, RejectsMalformedLanguageTags) {
  ExpectTermRejected("\"x\"@-");
  ExpectTermRejected("\"x\"@en-");
  ExpectTermRejected("\"x\"@1a");
  ExpectTermRejected("\"x\"@en--us");
  for (const char* ok : {"\"x\"@en-US", "\"x\"@de-CH-1996", "\"x\"@x-1"}) {
    auto t = NTriplesParser::ParseTerm(ok);
    EXPECT_TRUE(t.ok()) << ok << ": " << t.status().ToString();
  }
}

TEST(NTriplesParserTest, MissingFileIsIOError) {
  Graph g;
  Status st = NTriplesParser::ParseFile("/nonexistent/file.nt", &g);
  EXPECT_TRUE(st.IsIOError());
}

TEST(NTriplesParserTest, DirectoryIsIOError) {
  // A directory opens as a stream and reports a bogus size; reading it
  // must fail cleanly instead of allocating that size.
  Graph g;
  Status st = NTriplesParser::ParseFile(testing::TempDir(), &g);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(g.NumTriples(), 0u);
}

// ------------------------------------------------------------- round trips

TEST(NTriplesRoundTripTest, WriterOutputReparsesIdentically) {
  gen::HeteroOptions opt;
  opt.num_nodes = 60;
  opt.seed = 99;
  Graph g = gen::GenerateHetero(opt);

  std::string text = NTriplesWriter::ToString(g);
  Graph g2;
  ASSERT_TRUE(NTriplesParser::ParseString(text, &g2).ok());
  EXPECT_EQ(g2.NumTriples(), g.NumTriples());
  // Same triples term-by-term.
  g.ForEachTriple([&](const Triple& t) {
    Triple mapped{g2.dict().Lookup(g.dict().Decode(t.s)),
                  g2.dict().Lookup(g.dict().Decode(t.p)),
                  g2.dict().Lookup(g.dict().Decode(t.o))};
    EXPECT_TRUE(g2.Contains(mapped));
  });
}

TEST(NTriplesRoundTripTest, EscapedLiteralsSurvive) {
  Graph g;
  g.AddTerms(Term::Iri("http://s"), Term::Iri("http://p"),
             Term::Literal("line1\nline2\t\"quoted\" back\\slash"));
  std::string text = NTriplesWriter::ToString(g);
  Graph g2;
  ASSERT_TRUE(NTriplesParser::ParseString(text, &g2).ok());
  EXPECT_EQ(g2.dict().Decode(g2.data()[0].o).lexical,
            "line1\nline2\t\"quoted\" back\\slash");
}

TEST(NTriplesRoundTripTest, FileRoundTrip) {
  Graph g;
  g.AddIris("http://s", "http://p", "http://o");
  std::string path = testing::TempDir() + "/roundtrip.nt";
  ASSERT_TRUE(NTriplesWriter::WriteFile(g, path).ok());
  Graph g2;
  ASSERT_TRUE(NTriplesParser::ParseFile(path, &g2).ok());
  EXPECT_EQ(g2.NumTriples(), 1u);
}

// ------------------------------------------------------------- dot writer

TEST(DotWriterTest, EmitsClassBoxesAndEdges) {
  Graph g;
  Dictionary& d = g.dict();
  TermId s = d.EncodeIri("http://x/s"), p = d.EncodeIri("http://x/knows"),
         o = d.EncodeIri("http://x/o"), c = d.EncodeIri("http://x/Person");
  g.Add({s, p, o});
  g.Add({s, g.vocab().rdf_type, c});
  std::string dot = io::DotWriter::ToString(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
  EXPECT_NE(dot.find("label=\"knows\""), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST(DotWriterTest, LocalNames) {
  EXPECT_EQ(io::IriLocalName("http://a/b#c"), "c");
  EXPECT_EQ(io::IriLocalName("http://a/b/c"), "c");
  EXPECT_EQ(io::IriLocalName("plain"), "plain");
}

// ---- recovery mode (max line/term caps + line-numbered diagnostics) -----

TEST(NTriplesRecoveryTest, OversizedLineIsSkippedWithDiagnostic) {
  std::string text = "<http://x/a> <http://x/p> <http://x/b> .\n";
  text += "<http://x/a> <http://x/p> \"" + std::string(4000, 'x') + "\" .\n";
  text += "<http://x/c> <http://x/p> <http://x/d> .\n";
  io::ParseOptions options;
  options.strict = false;
  options.max_line_bytes = 200;
  ParseStats stats;
  Graph g;
  ASSERT_TRUE(
      io::NTriplesParser::ParseString(text, &g, &stats, options).ok());
  EXPECT_EQ(stats.triples, 2u);
  EXPECT_EQ(stats.skipped, 1u);
  ASSERT_EQ(stats.diagnostics.size(), 1u);
  EXPECT_NE(stats.diagnostics[0].find("line 2"), std::string::npos)
      << stats.diagnostics[0];
  EXPECT_NE(stats.diagnostics[0].find("max_line_bytes"), std::string::npos);
}

TEST(NTriplesRecoveryTest, OversizedLineFailsStrictWithLineNumber) {
  std::string text = "<http://x/a> <http://x/p> <http://x/b> .\n";
  text += "<http://x/a> <http://x/p> \"" + std::string(4000, 'x') + "\" .\n";
  io::ParseOptions options;
  options.max_line_bytes = 200;
  Graph g;
  Status st = io::NTriplesParser::ParseString(text, &g, nullptr, options);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.ToString().find("line 2"), std::string::npos)
      << st.ToString();
}

TEST(NTriplesRecoveryTest, OversizedTermIsRejected) {
  // The line fits the line cap but one decoded term exceeds the term cap.
  std::string text =
      "<http://x/a> <http://x/p> \"" + std::string(300, 'y') + "\" .\n";
  io::ParseOptions options;
  options.strict = false;
  options.max_term_bytes = 100;
  ParseStats stats;
  Graph g;
  ASSERT_TRUE(
      io::NTriplesParser::ParseString(text, &g, &stats, options).ok());
  EXPECT_EQ(stats.triples, 0u);
  EXPECT_EQ(stats.skipped, 1u);
  ASSERT_EQ(stats.diagnostics.size(), 1u);
  EXPECT_NE(stats.diagnostics[0].find("max_term_bytes"), std::string::npos);
}

TEST(NTriplesRecoveryTest, DiagnosticsAreCappedButCountingContinues) {
  std::string text;
  for (int i = 0; i < 40; ++i) text += "garbage line\n";
  io::ParseOptions options;
  options.strict = false;
  ParseStats stats;
  Graph g;
  ASSERT_TRUE(
      io::NTriplesParser::ParseString(text, &g, &stats, options).ok());
  EXPECT_EQ(stats.skipped, 40u);
  EXPECT_EQ(stats.diagnostics.size(), ParseStats::kMaxDiagnostics);
  // Each retained diagnostic names its line.
  EXPECT_NE(stats.diagnostics[0].find("line 1"), std::string::npos);
}

}  // namespace
}  // namespace rdfsum
