// Differential wall for the N-Triples parser: lenient ParseString at one
// and four threads against the naive per-character oracle
// (tests/oracle/reference_ntriples), on generator output, a hand-written
// corpus of the grammar's corners, and seeded mutants of that corpus.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "gen/bsbm.h"
#include "gen/hetero.h"
#include "gen/lubm.h"
#include "io/ntriples_parser.h"
#include "io/ntriples_writer.h"
#include "oracle/reference_ntriples.h"
#include "rdf/graph.h"
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

/// Lenient ParseString at t=1 and t=4 equals the oracle: the same skipped
/// lines, the same dictionary, and the same deduplicated triples in the
/// same order (per graph component, the order Graph keeps them in).
void ExpectMatchesOracle(const std::string& text, const std::string& label) {
  SCOPED_TRACE(label);
  const ReferenceNTriples ref = ReferenceParseNTriples(text, SeedTerms());
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Graph g;
    ParseStats stats;
    ParseOptions options;
    options.strict = false;
    options.num_threads = threads;
    ASSERT_TRUE(NTriplesParser::ParseString(text, &g, &stats, options).ok());

    EXPECT_EQ(stats.lines, ref.lines);
    ASSERT_EQ(stats.skipped, ref.skipped_lines.size());
    const size_t shown =
        std::min(ref.skipped_lines.size(), ParseStats::kMaxDiagnostics);
    EXPECT_EQ(DiagnosticLines(stats),
              std::vector<uint64_t>(ref.skipped_lines.begin(),
                                    ref.skipped_lines.begin() + shown));

    ASSERT_EQ(g.dict().size(), ref.terms.size() + 1);
    for (TermId id = 1; id < g.dict().size(); ++id) {
      ASSERT_EQ(g.dict().Decode(id), ref.terms[id - 1])
          << "id " << id << ": " << g.dict().Decode(id).ToNTriples()
          << " vs " << ref.terms[id - 1].ToNTriples();
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

}  // namespace
}  // namespace rdfsum::io
