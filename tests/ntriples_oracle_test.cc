// Differential wall for the N-Triples parser: lenient ParseString against
// the naive per-character oracle (tests/oracle/reference_ntriples), on
// generator output, a hand-written corpus of the grammar's corners and
// seeded mutants of that corpus; line-ending, comment, long-line,
// duplicate and diagnostic-cap texts; strict failures, a cancelled parse
// and max_line_bytes, each against the oracle's graph of the lines the
// parse keeps; and insert-batch boundaries.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "gen/bsbm.h"
#include "gen/hetero.h"
#include "gen/lubm.h"
#include "gen/paper_example.h"
#include "io/ntriples_parser.h"
#include "io/ntriples_writer.h"
#include "oracle/reference_ntriples.h"
#include "rdf/graph.h"
#include "util/exec_context.h"
#include "util/random.h"

namespace rdfsum::io {
namespace {

// Escapes in IRIs, literals and datatypes; language tags; blank labels that
// run into the terminator; CRLF; comments; duplicates; and malformed lines
// the lenient parse must skip.
constexpr char kCorpus[] =
    "# hand-written corpus\n"
    "<http://ex.org/s1> <http://ex.org/p> <http://ex.org/o1> .\n"
    "<http://ex.org/s1> <http://ex.org/p> <http://ex.org/o1> .\n"
    "<http://ex.org/s1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    "<http://ex.org/C> .\n"
    "<http://ex.org/C> <http://www.w3.org/2000/01/rdf-schema#subClassOf> "
    "<http://ex.org/D> .\n"
    "<http://ex.org/caf\\u00E9> <http://ex.org/p> <http://ex.org/\\U0001F600> "
    ".\n"
    "<http://ex.org/s2> <http://ex.org/q> \"tab\\there\\nnl \\\"q\\\" \\\\ "
    "\\'s\\' \\b\\f\\r\" .\n"
    "<http://ex.org/s2> <http://ex.org/q> \"caf\\u00e9 \\U0001F600 \xC3\xA9\" "
    ".\n"
    "<http://ex.org/s2> <http://ex.org/q> "
    "\"5\"^^<http://www.w3.org/2001/XMLSchema\\u0023integer> .\n"
    "<http://ex.org/s2> <http://ex.org/q> "
    "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
    "<http://ex.org/s3> <http://ex.org/l> \"x\"@en .\n"
    "<http://ex.org/s3> <http://ex.org/l> \"y\"@en-US .\n"
    "<http://ex.org/s3> <http://ex.org/l> \"z\"@de-CH-1996 .\n"
    "_:b1 <http://ex.org/p> _:b2.\n"
    "_:a.b <http://ex.org/p> _:x.. \n"
    "_:b-1_x <http://ex.org/p> _:b1 .\n"
    "<http://ex.org/s4> <http://ex.org/p> <http://ex.org/o4> .\r\n"
    "   # indented comment\r\n"
    "\t\n"
    "\v<http://ex.org/s5>\t<http://ex.org/p>\t\"tabs\"\t.\f\n"
    "<http://ex.org/s6><http://ex.org/p><http://ex.org/o6>.\n"
    "<http://ex.org/s6> <http://ex.org/p> \"\" .\n"
    "<http://ex.org/s7> <http://ex.org/p> \"bad\\q\" .\n"
    "<http://ex.org/s7> <http://ex.org/p> <http://ex.org/a\tb> .\n"
    "<http://ex.org/s7> <http://ex.org/p> <http://ex.org/a\\nb> .\n"
    "<http://ex.org/s7> <http://ex.org/p> \"x\"@en- .\n"
    "<http://ex.org/s7> <http://ex.org/p> \"x\"@1a .\n"
    "\"lit\" <http://ex.org/p> <http://ex.org/o> .\n"
    "<http://ex.org/s7> _:p <http://ex.org/o> .\n"
    "<http://ex.org/s7> <http://ex.org/p> <http://ex.org/o> . # comment\n"
    "<http://ex.org/s7> <http://ex.org/p> <http://ex.org/o>\n"
    "<> <http://ex.org/p> <http://ex.org/o> .\n"
    "<http://ex.org/s8> <http://ex.org/p> \"unterminated .\n"
    "<http://ex.org/s8> <http://ex.org/p> \"\\uD800\" .\n"
    "<http://ex.org/s8> <http://ex.org/p> \"\\U00110000\" .\n"
    "<http://ex.org/s8> <http://ex.org/p> \"ok\\u0041\" .\n"
    "<http://ex.org/s9> <http://ex.org/p> \"q\"^^<> .\n"
    "<http://ex.org/s9> <http://ex.org/p> \"q\"^^\"x\" .\n"
    "<http://ex.org/s9> <http://ex.org/p> _: .\n"
    "<http://ex.org/s9> <http://ex.org/p> <http://ex.org/o9> .\n"
    "<http://ex.org/s1> <http://ex.org/p> <http://ex.org/o1> .";

/// The terms a fresh graph's dictionary starts with (the vocabulary).
std::vector<Term> SeedTerms() {
  Graph fresh;
  std::vector<Term> seeds;
  for (TermId id = 1; id < fresh.dict().size(); ++id) {
    seeds.push_back(fresh.dict().Decode(id));
  }
  return seeds;
}

/// Line numbers of the retained "line N: ..." diagnostics.
std::vector<uint64_t> DiagnosticLines(const ParseStats& stats) {
  std::vector<uint64_t> lines;
  for (const std::string& d : stats.diagnostics) {
    lines.push_back(std::strtoull(d.c_str() + 5, nullptr, 10));
  }
  return lines;
}

/// `g` and `stats` are what the oracle `ref` describes: the same skipped
/// lines (the first kMaxDiagnostics of them as diagnostics), the same
/// dictionary, and the same deduplicated triples in the same order (per
/// graph component, the order Graph keeps them in).
void ExpectSameAsOracle(const Graph& g, const ParseStats& stats,
                        const ReferenceNTriples& ref) {
  ASSERT_EQ(stats.skipped, ref.skipped_lines.size());
  const size_t shown =
      std::min(ref.skipped_lines.size(), ParseStats::kMaxDiagnostics);
  EXPECT_EQ(DiagnosticLines(stats),
            std::vector<uint64_t>(ref.skipped_lines.begin(),
                                  ref.skipped_lines.begin() + shown));

  ASSERT_EQ(g.dict().size(), ref.terms.size() + 1);
  for (TermId id = 1; id < g.dict().size(); ++id) {
    ASSERT_EQ(g.dict().Decode(id), ref.terms[id - 1])
        << "id " << id << ": " << g.dict().Decode(id).ToNTriples() << " vs "
        << ref.terms[id - 1].ToNTriples();
  }

  std::vector<Triple> data, types, schema;
  for (const Triple& t : ref.triples) {
    if (g.vocab().IsType(t.p)) {
      types.push_back(t);
    } else if (g.vocab().IsSchemaProperty(t.p)) {
      schema.push_back(t);
    } else {
      data.push_back(t);
    }
  }
  EXPECT_EQ(g.data(), data);
  EXPECT_EQ(g.types(), types);
  EXPECT_EQ(g.schema(), schema);
  EXPECT_EQ(stats.triples - stats.duplicates, ref.triples.size());
}

/// The oracle over the first `lines` lines of `text`.
ReferenceNTriples OracleLines(std::string_view text, uint64_t lines) {
  size_t prefix = 0;
  for (uint64_t line = 1; line <= lines; ++line) {
    prefix = text.find('\n', prefix) + 1;
  }
  return ReferenceParseNTriples(text.substr(0, prefix), SeedTerms());
}

/// ParseString equals the oracle. With `fail_line` 0 the parse is lenient;
/// otherwise it is strict and must fail at that line, and the oracle reads
/// only the lines before it: the graph a failed strict parse keeps.
void ExpectMatchesOracle(const std::string& text, const std::string& label,
                         uint64_t fail_line = 0) {
  SCOPED_TRACE(label);
  const ReferenceNTriples ref =
      fail_line == 0 ? ReferenceParseNTriples(text, SeedTerms())
                     : OracleLines(text, fail_line - 1);
  Graph g;
  ParseStats stats;
  ParseOptions options;
  options.strict = fail_line != 0;
  const Status st = NTriplesParser::ParseString(text, &g, &stats, options);
  if (fail_line == 0) {
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(stats.lines, ref.lines);
  } else {
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_EQ(st.message().substr(0, st.message().find(':')),
              "line " + std::to_string(fail_line))
        << st.ToString();
    EXPECT_EQ(stats.lines, fail_line);
  }
  ExpectSameAsOracle(g, stats, ref);
}

/// Strict ParseString's triple and duplicate counts (the oracle keeps no
/// duplicates to compare them with).
void ExpectDuplicates(const std::string& text, uint64_t triples,
                      uint64_t duplicates) {
  Graph g;
  ParseStats stats;
  ASSERT_TRUE(NTriplesParser::ParseString(text, &g, &stats).ok());
  EXPECT_EQ(stats.triples, triples);
  EXPECT_EQ(stats.duplicates, duplicates);
}

TEST(NTriplesOracleTest, GeneratorOutputMatches) {
  gen::BsbmOptions bsbm;
  bsbm.num_products = 40;
  ExpectMatchesOracle(NTriplesWriter::ToString(gen::GenerateBsbm(bsbm)),
                      "bsbm");
  gen::LubmOptions lubm;
  lubm.num_universities = 1;
  ExpectMatchesOracle(NTriplesWriter::ToString(gen::GenerateLubm(lubm)),
                      "lubm");
  gen::HeteroOptions hetero;
  hetero.num_nodes = 300;
  ExpectMatchesOracle(NTriplesWriter::ToString(gen::GenerateHetero(hetero)),
                      "hetero");
  ExpectMatchesOracle(NTriplesWriter::ToString(gen::BuildFigure2().graph),
                      "paper");
}

TEST(NTriplesOracleTest, HandWrittenCorpusMatches) {
  const ReferenceNTriples ref =
      ReferenceParseNTriples(kCorpus, SeedTerms());
  // The corpus exercises both outcomes: accepted corners and rejections.
  EXPECT_GE(ref.triples.size(), 15u);
  EXPECT_GE(ref.skipped_lines.size(), 15u);
  ExpectMatchesOracle(kCorpus, "corpus");
  ExpectMatchesOracle("", "empty");
  ExpectMatchesOracle("\n\n", "newlines");
}

/// Line `i` of the generated texts below: subjects are fresh, predicates
/// and objects repeat.
std::string Line(int i) {
  return "<http://s/" + std::to_string(i) + "> <http://p/" +
         std::to_string(i % 7) + "> <http://o/" + std::to_string(i % 13) +
         "> .";
}

TEST(NTriplesOracleTest, LineEndingsMatch) {
  // The corpus itself has CRLF lines and no trailing newline.
  std::string crlf;
  for (const char c : std::string(kCorpus)) {
    crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
  }
  ExpectMatchesOracle(crlf, "corpus, CRLF everywhere");
  std::string text;
  for (int i = 0; i < 200; ++i) text += Line(i) + "\r\n";
  ExpectMatchesOracle(text, "CRLF");
  ExpectMatchesOracle(text + Line(200), "no trailing newline");
}

TEST(NTriplesOracleTest, LongLinesMatch) {
  // ~1 KiB literals: lines far longer than the scanner's 16-byte steps.
  std::string text;
  for (int i = 0; i < 32; ++i) {
    text += "<http://s/" + std::to_string(i) + "> <http://p/v> \"" +
            std::string(1024, static_cast<char>('a' + i % 26)) + "\" .\n";
  }
  ExpectMatchesOracle(text, "long lines");
}

TEST(NTriplesOracleTest, CommentAndBlankRunsMatch) {
  // `lines` counts comments, blanks and whitespace-only lines too.
  std::string text;
  for (int i = 0; i < 150; ++i) {
    text += Line(i) + "\n# comment " + std::to_string(i) + "\n\n   \n";
  }
  ExpectMatchesOracle(text, "comment and blank runs");
}

TEST(NTriplesOracleTest, RepeatedRunsCountDuplicates) {
  // The same 80 triples four times over: every repeat is a duplicate.
  std::string text;
  for (int rep = 0; rep < 4; ++rep) {
    for (int i = 0; i < 80; ++i) text += Line(i) + "\n";
  }
  ExpectMatchesOracle(text, "repeated runs");
  ExpectDuplicates(text, 320, 240);
}

TEST(NTriplesOracleTest, DiagnosticsPastTheCapMatch) {
  // More malformed lines than kMaxDiagnostics: all are counted, the first
  // kMaxDiagnostics are reported with their line numbers.
  std::string text;
  for (int i = 1; i <= 400; ++i) {
    text += (i % 11 == 0 ? std::string("this is not a triple") : Line(i)) +
            "\n";
  }
  ExpectMatchesOracle(text, "36 malformed lines");
  Graph g;
  ParseStats stats;
  ParseOptions options;
  options.strict = false;
  ASSERT_TRUE(NTriplesParser::ParseString(text, &g, &stats, options).ok());
  EXPECT_EQ(stats.skipped, 36u);
  ASSERT_EQ(stats.diagnostics.size(), ParseStats::kMaxDiagnostics);
  EXPECT_EQ(stats.diagnostics[0].substr(0, 8), "line 11:");
}

TEST(NTriplesOracleTest, StrictFailureStopsAtTheFirstBadLine) {
  // Two malformed lines: the parse fails at the first and keeps the 96
  // triples before it.
  std::string text;
  for (int i = 1; i <= 300; ++i) {
    text += (i == 97 || i == 233 ? std::string("broken line") : Line(i)) +
            "\n";
  }
  ExpectMatchesOracle(text, "strict failure at line 97", 97);
  Graph g;
  ParseStats stats;
  const Status st = NTriplesParser::ParseString(text, &g, &stats);
  EXPECT_EQ(stats.triples, 96u);
  EXPECT_EQ(g.NumTriples(), 96u);
  EXPECT_NE(st.message().find("line 97:"), std::string::npos)
      << st.ToString();
}

TEST(NTriplesOracleTest, CancelledParseKeepsTheLinesBeforeThePoll) {
  // A cancelled context trips at the first poll, on line kCheckInterval;
  // the graph keeps the lines before it.
  std::string text;
  for (int i = 0; i < 2000; ++i) text += Line(i) + "\n";
  util::ExecContext ctx;
  ctx.Cancel();
  Graph g;
  ParseStats stats;
  ParseOptions options;
  options.exec = &ctx;
  const Status st = NTriplesParser::ParseString(text, &g, &stats, options);
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  const uint64_t kept = util::ExecContext::kCheckInterval - 1;
  EXPECT_EQ(stats.lines, kept);
  ExpectSameAsOracle(g, stats, OracleLines(text, kept));
}

TEST(NTriplesOracleTest, OverlongLineIsSkippedLikeAMalformedOne) {
  // The oracle knows no max_line_bytes, so it reads the overlong line as
  // a malformed one: same line numbers, same graph.
  std::string head, tail;
  for (int i = 0; i < 100; ++i) head += Line(i) + "\n";
  for (int i = 100; i < 200; ++i) tail += Line(i) + "\n";
  const std::string text = head + "<http://s/x> <http://p/v> \"" +
                           std::string(4096, 'x') + "\" .\n" + tail;
  Graph g;
  ParseStats stats;
  ParseOptions options;
  options.strict = false;
  options.max_line_bytes = 512;
  ASSERT_TRUE(NTriplesParser::ParseString(text, &g, &stats, options).ok());
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_EQ(stats.diagnostics, std::vector<std::string>{
                                   "line 101: line of 4126 bytes exceeds "
                                   "max_line_bytes (512)"});
  ExpectSameAsOracle(g, stats,
                     ReferenceParseNTriples(head + "overlong\n" + tail,
                                            SeedTerms()));
}

/// Bytes that sit on the grammar's edges, for the byte-flip mutants.
constexpr char kEdgeBytes[] = {'<',  '>', '"', '\\', '@',  '^',  '_',  ':',
                               '.',  '-', ' ', '\t', '\r', '\n', '\v', '#',
                               'u',  'U', '0', 'F',  'a',  '{',  '`',  '\x01',
                               '\0', '\x7f', '\x80', '\xc3', '\xff'};

/// One seeded mutant of `base`: one to three byte flips, truncations or
/// line splices.
std::string Mutate(const std::string& base, Random* rng) {
  std::string text = base;
  const uint64_t edits = 1 + rng->Uniform(3);
  for (uint64_t e = 0; e < edits && !text.empty(); ++e) {
    switch (rng->Uniform(3)) {
      case 0: {  // byte flip
        const size_t at = rng->Uniform(text.size());
        text[at] = rng->Uniform(2) == 0
                       ? kEdgeBytes[rng->Uniform(sizeof(kEdgeBytes))]
                       : static_cast<char>(rng->Uniform(256));
        break;
      }
      case 1:  // truncation
        text.resize(rng->Uniform(text.size() + 1));
        break;
      default: {  // splice the head of one line onto the tail of another
        std::vector<size_t> starts = {0};
        for (size_t i = 0; i < text.size(); ++i) {
          if (text[i] == '\n') starts.push_back(i + 1);
        }
        const size_t a = starts[rng->Uniform(starts.size())];
        const size_t b = starts[rng->Uniform(starts.size())];
        const size_t a_end = std::min(text.find('\n', a), text.size());
        const size_t b_end = std::min(text.find('\n', b), text.size());
        const size_t cut_a = a + rng->Uniform(a_end - a + 1);
        const size_t cut_b = b + rng->Uniform(b_end - b + 1);
        text = text.substr(0, cut_a) + text.substr(cut_b, b_end - cut_b) +
               text.substr(a_end);
        break;
      }
    }
  }
  return text;
}

TEST(NTriplesOracleTest, SeededMutantsMatch) {
  Random rng(20181);
  for (int i = 0; i < 2000; ++i) {
    const std::string mutant = Mutate(kCorpus, &rng);
    ExpectMatchesOracle(mutant, "mutant " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Insert-batch boundaries. The parse interns as it scans and adds its
// triples to the graph NTriplesParser::kInsertBatch at a time. Duplicates
// and strict failures on either side of a batch boundary must leave the
// oracle's graph, dictionary and counters.

constexpr uint64_t kBatch = NTriplesParser::kInsertBatch;
constexpr uint64_t kBatchTextLines = 5 * kBatch;

/// Line `i` (1-based) of a batch text: subjects and predicates repeat,
/// objects are fresh.
std::string BatchLine(uint64_t i) {
  return "<http://batch.example/s" + std::to_string(i % 97) +
         "> <http://batch.example/p" + std::to_string(i % 5) +
         "> <http://batch.example/o" + std::to_string(i) + "> .";
}

/// kBatchTextLines lines; line i is `overrides[i]` when present, else
/// BatchLine(i).
std::string BatchText(const std::map<uint64_t, std::string>& overrides) {
  std::string text;
  for (uint64_t i = 1; i <= kBatchTextLines; ++i) {
    const auto it = overrides.find(i);
    text += (it != overrides.end() ? it->second : BatchLine(i)) + "\n";
  }
  return text;
}

TEST(InsertBatchBoundaryTest, DuplicateInsideOneBatch) {
  const std::string text = BatchText({{100, BatchLine(10)}});
  ExpectMatchesOracle(text, "duplicate inside batch 1");
  ExpectDuplicates(text, kBatchTextLines, 1);
}

TEST(InsertBatchBoundaryTest, DuplicateAcrossABatchBoundary) {
  // The first line of batch 2 repeats the last line of batch 1, and the
  // first line of batch 3 repeats the first line of the text.
  const std::string text = BatchText(
      {{kBatch + 1, BatchLine(kBatch)}, {2 * kBatch + 1, BatchLine(1)}});
  ExpectMatchesOracle(text, "duplicates across batch boundaries");
  ExpectDuplicates(text, kBatchTextLines, 2);
}

TEST(InsertBatchBoundaryTest, StrictFailureOnTheLastLineOfTheFirstBatch) {
  ExpectMatchesOracle(BatchText({{kBatch, "broken line"}}),
                      "strict failure at the end of batch 1", kBatch);
}

TEST(InsertBatchBoundaryTest, StrictFailureOnTheFirstLineOfTheSecondBatch) {
  ExpectMatchesOracle(BatchText({{kBatch + 1, "broken line"}}),
                      "strict failure at the start of batch 2", kBatch + 1);
}

}  // namespace
}  // namespace rdfsum::io
