// The load's fault site and the table build it feeds. The one N-Triples
// parse has one failpoint, `load:parse`, which fires once per parse before
// the graph is touched (the CLI fault wall arms it through rdfsum stats and
// summarize); its behaviour across line shapes is pinned by
// tests/ntriples_oracle_test.cc. TripleTable::Build() is held to an
// independent reference: the three sorted permutations and the table
// statistics must match ComputeReferenceTableStats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gen/bsbm.h"
#include "io/ntriples_parser.h"
#include "io/ntriples_writer.h"
#include "oracle/reference_table_stats.h"
#include "store/triple_table.h"
#include "util/fault_injection.h"

namespace rdfsum::io {
namespace {

std::string Lines(int n) {
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += "<http://s/" + std::to_string(i) + "> <http://p/" +
            std::to_string(i % 7) + "> <http://o/" + std::to_string(i % 13) +
            "> .\n";
  }
  return text;
}

// ---------------------------------------------------------------------------
// The load:parse failpoint.

class LoadFailpointTest : public ::testing::Test {
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

TEST_F(LoadFailpointTest, ParseFailpointFailsBeforeTheGraphIsTouched) {
  util::FaultInjection::Arm("load:parse", Status::IOError("injected parse"));
  Graph g;
  const size_t seeded = g.dict().size();
  ParseStats stats;
  Status st = NTriplesParser::ParseString(Lines(500), &g, &stats);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(util::FaultInjection::HitCount("load:parse"), 1u);
  EXPECT_EQ(g.NumTriples(), 0u);
  EXPECT_EQ(g.dict().size(), seeded);
  EXPECT_EQ(stats.lines, 0u);
}

TEST_F(LoadFailpointTest, ParseFailpointFiresOncePerParse) {
  util::FaultInjection::ArmOptions second;
  second.countdown = 2;
  util::FaultInjection::Arm("load:parse", Status::IOError("injected parse"),
                            second);
  const std::string text = Lines(500);
  Graph first;
  ASSERT_TRUE(NTriplesParser::ParseString(text, &first).ok());
  EXPECT_EQ(util::FaultInjection::HitCount("load:parse"), 1u);
  EXPECT_EQ(first.NumTriples(), 500u);
  Graph again;
  EXPECT_TRUE(NTriplesParser::ParseString(text, &again).IsIOError());
  EXPECT_EQ(util::FaultInjection::HitCount("load:parse"), 2u);
}

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
  // Real dataset shape (BSBM) end to end: the table of a load equals the
  // reference over the same rows.
  gen::BsbmOptions opt;
  opt.num_products = 60;
  Graph g;
  ASSERT_TRUE(NTriplesParser::ParseString(
                  NTriplesWriter::ToString(gen::GenerateBsbm(opt)), &g)
                  .ok());
  const std::vector<Triple> rows = g.Triples();
  ExpectFreezeMatchesReference(rows, store::ComputeReferenceTableStats(rows),
                               "bsbm");
}

}  // namespace
}  // namespace rdfsum::io
