// Differential wall for the chunked ingestion pipeline: at every
// ParseOptions::num_threads the loaded graph must be BYTE-identical to the
// one-chunk parse — same dense dictionary ids, same triple insertion order,
// same serialized N-Triples, same stats and diagnostics — for every dataset
// shape and thread count, including pathological chunkings (CRLF, long
// lines, comments/blanks/malformed lines straddling chunk boundaries), and
// after a strict-mode failure.
// TripleTable::Build() is held to an independent reference: the three
// sorted permutations and the table statistics must match
// ComputeReferenceTableStats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gen/bsbm.h"
#include "gen/hetero.h"
#include "gen/lubm.h"
#include "gen/paper_example.h"
#include "io/ntriples_parser.h"
#include "io/ntriples_writer.h"
#include "oracle/reference_table_stats.h"
#include "store/triple_table.h"
#include "summary/summarizer.h"
#include "util/fault_injection.h"

namespace rdfsum::io {
namespace {

// 1 is the one-chunk parse the other counts must reproduce; 2/4
// split evenly, 7 leaves ragged chunk bounds, 8 oversubscribes the 1-core
// CI runner, 0 = all hardware threads.
constexpr uint32_t kThreadCounts[] = {1, 2, 4, 7, 8, 0};

enum class Dataset { kBsbm, kLubm, kPaper, kHetero };

const char* DatasetName(Dataset d) {
  switch (d) {
    case Dataset::kBsbm: return "bsbm";
    case Dataset::kLubm: return "lubm";
    case Dataset::kPaper: return "paper";
    case Dataset::kHetero: return "hetero";
  }
  return "?";
}

/// N-Triples text of a deterministic generated dataset — the load input.
std::string MakeInput(Dataset d) {
  Graph g;
  switch (d) {
    case Dataset::kBsbm: {
      gen::BsbmOptions opt;
      opt.num_products = 60;
      g = gen::GenerateBsbm(opt);
      break;
    }
    case Dataset::kLubm: {
      gen::LubmOptions opt;
      opt.num_universities = 1;
      g = gen::GenerateLubm(opt);
      break;
    }
    case Dataset::kPaper:
      g = gen::BuildFigure2().graph;
      break;
    case Dataset::kHetero: {
      gen::HeteroOptions opt;
      opt.seed = 13;
      opt.num_nodes = 150;
      opt.num_properties = 11;
      opt.type_probability = 0.35;
      g = gen::GenerateHetero(opt);
      break;
    }
  }
  return NTriplesWriter::ToString(g);
}

/// Parses `text` with the given thread count into a fresh graph; fails the
/// test if the parse errors.
Graph ParseWith(const std::string& text, uint32_t threads, ParseStats* stats,
                bool strict = true) {
  Graph g;
  ParseOptions options;
  options.strict = strict;
  options.num_threads = threads;
  Status st = NTriplesParser::ParseString(text, &g, stats, options);
  EXPECT_TRUE(st.ok()) << "threads=" << threads << ": " << st.ToString();
  return g;
}

/// Asserts the full byte-identity contract between a sequential and a
/// parallel load of the same input.
void ExpectIdenticalLoads(const Graph& seq, const ParseStats& seq_stats,
                          const Graph& par, const ParseStats& par_stats,
                          const std::string& label) {
  // Same triples with the same TermIds in the same insertion order, per
  // component — this is id-for-id equality, stronger than isomorphism.
  EXPECT_EQ(seq.data(), par.data()) << label;
  EXPECT_EQ(seq.types(), par.types()) << label;
  EXPECT_EQ(seq.schema(), par.schema()) << label;
  // Same dense id assignment: every id decodes to the same term text.
  ASSERT_EQ(seq.dict().size(), par.dict().size()) << label;
  // Serialized output is the end-to-end contract (decode + order).
  EXPECT_EQ(NTriplesWriter::ToString(seq), NTriplesWriter::ToString(par))
      << label;
  // Stats and diagnostics match counter-for-counter (chunks may differ).
  EXPECT_EQ(seq_stats.lines, par_stats.lines) << label;
  EXPECT_EQ(seq_stats.triples, par_stats.triples) << label;
  EXPECT_EQ(seq_stats.duplicates, par_stats.duplicates) << label;
  EXPECT_EQ(seq_stats.skipped, par_stats.skipped) << label;
  EXPECT_EQ(seq_stats.diagnostics, par_stats.diagnostics) << label;
}

class ParallelLoadWallTest : public ::testing::TestWithParam<Dataset> {};

TEST_P(ParallelLoadWallTest, ByteIdenticalAcrossThreadCounts) {
  const std::string input = MakeInput(GetParam());
  ParseStats seq_stats;
  Graph seq = ParseWith(input, 1, &seq_stats);

  for (uint32_t threads : kThreadCounts) {
    ParseStats par_stats;
    Graph par = ParseWith(input, threads, &par_stats);
    ExpectIdenticalLoads(seq, seq_stats, par, par_stats,
                         "t" + std::to_string(threads));
  }
}

// Every summary kind built from a parallel load matches the one built from
// the sequential load — the graphs are id-identical, so the summaries must
// be too; this guards the contract end-to-end through the summarizer.
TEST_P(ParallelLoadWallTest, SummariesIdenticalFromParallelLoad) {
  const std::string input = MakeInput(GetParam());
  Graph seq = ParseWith(input, 1, nullptr);
  Graph par = ParseWith(input, 4, nullptr);
  for (summary::SummaryKind kind :
       {summary::SummaryKind::kWeak, summary::SummaryKind::kStrong,
        summary::SummaryKind::kTypedWeak, summary::SummaryKind::kTypedStrong,
        summary::SummaryKind::kTypeBased,
        summary::SummaryKind::kBisimulation}) {
    // Summarization mints ids into each graph's dictionary; both sides run
    // the kinds in the same order, so their dictionaries stay in lockstep.
    summary::SummaryResult s = summary::Summarize(seq, kind);
    summary::SummaryResult p = summary::Summarize(par, kind);
    EXPECT_EQ(NTriplesWriter::ToString(s.graph),
              NTriplesWriter::ToString(p.graph))
        << summary::SummaryKindName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, ParallelLoadWallTest,
                         ::testing::Values(Dataset::kBsbm, Dataset::kLubm,
                                           Dataset::kPaper, Dataset::kHetero),
                         [](const auto& info) {
                           return DatasetName(info.param);
                         });

// ---------------------------------------------------------------------------
// Pathological chunkings. The chunker only engages above
// kMinChunkBytes (256) per chunk, so inputs repeat until they span several
// chunks at 8 threads (> 2 KiB).

/// Runs the full differential across kThreadCounts for a hand-built input.
void RunDifferential(const std::string& input, bool strict = true) {
  ParseStats seq_stats;
  Graph seq = ParseWith(input, 1, &seq_stats, strict);
  for (uint32_t threads : kThreadCounts) {
    ParseStats par_stats;
    Graph par = ParseWith(input, threads, &par_stats, strict);
    ExpectIdenticalLoads(seq, seq_stats, par, par_stats,
                         "t" + std::to_string(threads));
  }
}

std::string Line(int i, const char* tail = "") {
  return "<http://s/" + std::to_string(i) + "> <http://p/" +
         std::to_string(i % 7) + "> <http://o/" + std::to_string(i % 13) +
         "> ." + tail;
}

TEST(ParallelLoadChunkingTest, CrlfLineEndings) {
  std::string input;
  for (int i = 0; i < 200; ++i) input += Line(i) + "\r\n";
  RunDifferential(input);
}

TEST(ParallelLoadChunkingTest, NoTrailingNewline) {
  std::string input;
  for (int i = 0; i < 200; ++i) input += Line(i) + "\n";
  input += Line(200);  // final line without '\n'
  RunDifferential(input);
}

TEST(ParallelLoadChunkingTest, LongLinesStraddleChunkBounds) {
  // Literal payloads of ~1 KiB guarantee chunk probes land mid-line, so the
  // boundary scan must walk to the next '\n' well past the naive cut.
  std::string input;
  for (int i = 0; i < 32; ++i) {
    input += "<http://s/" + std::to_string(i) + "> <http://p/v> \"" +
             std::string(1024, 'a' + (i % 26)) + "\" .\n";
  }
  RunDifferential(input);
}

TEST(ParallelLoadChunkingTest, CommentsAndBlanksAtChunkBounds) {
  // Alternate triples with comment/blank runs so some chunks start (or
  // consist entirely of) non-triple lines; `lines` must still sum exactly.
  std::string input;
  for (int i = 0; i < 150; ++i) {
    input += Line(i) + "\n";
    input += "# comment " + std::to_string(i) + "\n";
    input += "\n";
    input += "   \n";
  }
  RunDifferential(input);
}

TEST(ParallelLoadChunkingTest, DuplicatesAcrossChunks) {
  // The same triple appears in distant regions of the file; dedup happens
  // at replay, so the duplicate count must match the sequential stream.
  std::string input;
  for (int rep = 0; rep < 4; ++rep) {
    for (int i = 0; i < 80; ++i) input += Line(i) + "\n";
  }
  ParseStats stats;
  Graph g = ParseWith(input, 4, &stats);
  EXPECT_EQ(stats.triples, 320u);
  EXPECT_EQ(stats.duplicates, 240u);
  EXPECT_EQ(g.NumTriples(), 80u);
  RunDifferential(input);
}

TEST(ParallelLoadChunkingTest, LenientDiagnosticsKeepGlobalLineNumbers) {
  // Malformed lines scattered through the file: lenient mode must report
  // identical "line N:" diagnostics (global numbering) at every thread
  // count, and more malformed lines than the cap must still count.
  std::string input;
  int malformed = 0;
  for (int i = 1; i <= 400; ++i) {
    if (i % 11 == 0) {
      input += "this is not a triple\n";
      ++malformed;
    } else {
      input += Line(i) + "\n";
    }
  }
  ASSERT_GT(malformed, static_cast<int>(ParseStats::kMaxDiagnostics));
  ParseStats stats;
  ParseWith(input, 4, &stats, /*strict=*/false);
  EXPECT_EQ(stats.skipped, static_cast<uint64_t>(malformed));
  ASSERT_EQ(stats.diagnostics.size(), ParseStats::kMaxDiagnostics);
  // First malformed line is global line 11.
  EXPECT_EQ(stats.diagnostics[0].substr(0, 8), "line 11:");
  RunDifferential(input, /*strict=*/false);
}

TEST(ParallelLoadChunkingTest, StrictErrorReportsFirstGlobalLine) {
  // Two malformed lines; strict mode must fail on the FIRST one in stream
  // order even when a later chunk hits its own error earlier in wall time.
  std::string input;
  for (int i = 1; i <= 300; ++i) {
    input += (i == 97 || i == 233) ? "broken line\n" : Line(i) + "\n";
  }
  Graph seq;
  Status seq_st = NTriplesParser::ParseString(input, &seq);
  ASSERT_FALSE(seq_st.ok());
  EXPECT_NE(seq_st.message().find("line 97:"), std::string::npos)
      << seq_st.ToString();
  // The failed parse keeps the 96 lines before the failing one.
  EXPECT_EQ(seq.NumTriples(), 96u);
  for (uint32_t threads : kThreadCounts) {
    Graph par;
    ParseOptions options;
    options.num_threads = threads;
    ParseStats stats;
    Status st = NTriplesParser::ParseString(input, &par, &stats, options);
    ASSERT_FALSE(st.ok()) << "t" << threads;
    EXPECT_EQ(st.ToString(), seq_st.ToString()) << "t" << threads;
    // Stats reflect progress up to the failing line, like the sequential
    // parse: 96 good triples before line 97.
    EXPECT_EQ(stats.triples, 96u) << "t" << threads;
    // So does the graph: same triples, same dictionary at every count.
    EXPECT_EQ(NTriplesWriter::ToString(par), NTriplesWriter::ToString(seq))
        << "t" << threads;
    EXPECT_EQ(par.dict().size(), seq.dict().size()) << "t" << threads;
  }
}

TEST(ParallelLoadChunkingTest, CancelledExecContextAborts) {
  std::string input;
  for (int i = 0; i < 2000; ++i) input += Line(i) + "\n";
  util::ExecContext ctx;
  ctx.Cancel();
  Graph g;
  ParseOptions options;
  options.exec = &ctx;
  options.num_threads = 4;
  Status st = NTriplesParser::ParseString(input, &g, nullptr, options);
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
}

TEST(ParallelLoadChunkingTest, MaxLineBytesEnforcedInChunks) {
  std::string input;
  for (int i = 0; i < 100; ++i) input += Line(i) + "\n";
  input += "<http://s/x> <http://p/v> \"" + std::string(4096, 'x') + "\" .\n";
  for (int i = 100; i < 200; ++i) input += Line(i) + "\n";
  ParseOptions base;
  base.strict = false;
  base.max_line_bytes = 512;
  ParseStats seq_stats;
  Graph seq;
  ASSERT_TRUE(
      NTriplesParser::ParseString(input, &seq, &seq_stats, base).ok());
  EXPECT_EQ(seq_stats.skipped, 1u);
  for (uint32_t threads : kThreadCounts) {
    ParseOptions options = base;
    options.num_threads = threads;
    ParseStats par_stats;
    Graph par;
    ASSERT_TRUE(
        NTriplesParser::ParseString(input, &par, &par_stats, options).ok());
    ExpectIdenticalLoads(seq, seq_stats, par, par_stats,
                         "t" + std::to_string(threads));
  }
}

// ---------------------------------------------------------------------------
// Failpoints: both load failpoints surface their injected status at every
// thread count, the one-chunk parse included.

class ParallelLoadFailpointTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    if (!util::FaultInjection::compiled_in()) {
      GTEST_SKIP() << "failpoints compiled out";
    }
  }
  void TearDown() override {
    if (util::FaultInjection::compiled_in()) util::FaultInjection::Clear();
  }
};

TEST_P(ParallelLoadFailpointTest, ChunkFailpointAbortsParallelLoad) {
  util::FaultInjection::Arm("load:chunk", Status::IOError("injected chunk"));
  std::string input;
  for (int i = 0; i < 500; ++i) input += Line(i) + "\n";
  Graph g;
  ParseOptions options;
  options.num_threads = GetParam();
  Status st = NTriplesParser::ParseString(input, &g, nullptr, options);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_GE(util::FaultInjection::HitCount("load:chunk"), 1u);
}

TEST_P(ParallelLoadFailpointTest, DictMergeFailpointAbortsParallelLoad) {
  util::FaultInjection::Arm("load:dict-merge",
                            Status::IOError("injected merge"));
  std::string input;
  for (int i = 0; i < 500; ++i) input += Line(i) + "\n";
  Graph g;
  ParseOptions options;
  options.num_threads = GetParam();
  Status st = NTriplesParser::ParseString(input, &g, nullptr, options);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(util::FaultInjection::HitCount("load:dict-merge"), 1u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelLoadFailpointTest,
                         ::testing::Values(1u, 4u));

// ---------------------------------------------------------------------------
// Table-build differential: permutations and statistics must match the
// reference table (tests/oracle/reference_table_stats.h).

namespace {
void ExpectStatsEqual(const store::TableStats& a, const store::TableStats& b,
                      const std::string& label) {
  EXPECT_EQ(a.num_triples(), b.num_triples()) << label;
  EXPECT_EQ(a.num_distinct_subjects(), b.num_distinct_subjects()) << label;
  EXPECT_EQ(a.num_distinct_predicates(), b.num_distinct_predicates()) << label;
  EXPECT_EQ(a.num_distinct_objects(), b.num_distinct_objects()) << label;
  ASSERT_EQ(a.by_predicate().size(), b.by_predicate().size()) << label;
  for (const auto& [p, ps] : a.by_predicate()) {
    const store::PredicateStats* other = b.predicate(p);
    ASSERT_NE(other, nullptr) << label << " p=" << p;
    EXPECT_EQ(ps.count, other->count) << label << " p=" << p;
    EXPECT_EQ(ps.distinct_subjects, other->distinct_subjects)
        << label << " p=" << p;
    EXPECT_EQ(ps.distinct_objects, other->distinct_objects)
        << label << " p=" << p;
  }
}

std::vector<Triple> SyntheticTriples(size_t n) {
  // Deterministic pseudo-random rows with plenty of equal keys per
  // permutation and sprinkled exact duplicates — the shapes inplace_merge
  // and the unique pass have to get right.
  std::vector<Triple> out;
  out.reserve(n);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    Triple t{static_cast<TermId>(x % 577 + 1),
             static_cast<TermId>((x >> 16) % 13 + 1),
             static_cast<TermId>((x >> 32) % 991 + 1)};
    out.push_back(t);
    if (i % 19 == 0) out.push_back(t);  // exact duplicate
  }
  return out;
}
}  // namespace

/// Builds a table from `rows` and compares every permutation and statistic
/// with the reference table.
void ExpectFreezeMatchesReference(const std::vector<Triple>& rows,
                                  const store::ReferenceTableStats& ref,
                                  const std::string& label) {
  const store::TripleTable table = store::TripleTable::Build(rows);
  const std::pair<store::IndexKind, const std::vector<Triple>*> expected[] = {
      {store::IndexKind::kSpo, &ref.spo},
      {store::IndexKind::kPos, &ref.pos},
      {store::IndexKind::kOsp, &ref.osp}};
  for (const auto& [kind, want] : expected) {
    auto got = table.Permutation(kind);
    ASSERT_EQ(got.size(), want->size()) << label;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want->begin())) << label;
  }
  ExpectStatsEqual(table.stats(), ref.stats, label);
}

TEST(TableBuildTest, SyntheticTableMatches) {
  const std::vector<Triple> rows = SyntheticTriples(280000);
  ExpectFreezeMatchesReference(rows, store::ComputeReferenceTableStats(rows),
                               "synthetic");
}

TEST(TableBuildTest, DatasetTableMatches) {
  // Real dataset shape (BSBM) end-to-end: the table of a parallel load
  // equals the reference over the rows of a sequential load.
  const std::string input = MakeInput(Dataset::kBsbm);
  Graph seq = ParseWith(input, 1, nullptr);
  Graph par = ParseWith(input, 8, nullptr);
  std::vector<Triple> seq_rows, par_rows;
  seq.ForEachTriple([&](const Triple& t) { seq_rows.push_back(t); });
  par.ForEachTriple([&](const Triple& t) { par_rows.push_back(t); });
  const store::ReferenceTableStats ref =
      store::ComputeReferenceTableStats(seq_rows);
  ExpectFreezeMatchesReference(par_rows, ref, "bsbm");
}

}  // namespace
}  // namespace rdfsum::io
