#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <tuple>
#include <vector>

#include "gen/bsbm.h"
#include "rdf/graph.h"
#include "store/triple_table.h"

namespace rdfsum {
namespace {

using store::TriplePattern;
using store::TripleTable;

TripleTable MakeTable() {
  return TripleTable::Build(
      {{1, 10, 2}, {1, 10, 3}, {1, 11, 2}, {2, 10, 3}, {3, 12, 1}});
}

std::vector<Triple> RangeRows(const TripleTable& t, const TriplePattern& q) {
  std::span<const Triple> range = t.MatchSpan(q);
  return std::vector<Triple>(range.begin(), range.end());
}

// The rows of `q`'s index that match `q`, by a filter over the whole
// permutation: what MatchSpan must return, in the same order.
std::vector<Triple> Filtered(const TripleTable& t, const TriplePattern& q) {
  std::vector<Triple> out;
  for (const Triple& m : t.Permutation(TripleTable::ChooseIndex(q))) {
    if ((!q.s || m.s == *q.s) && (!q.p || m.p == *q.p) &&
        (!q.o || m.o == *q.o)) {
      out.push_back(m);
    }
  }
  return out;
}

TEST(TripleTableTest, BuildSortsAndDedups) {
  TripleTable t = TripleTable::Build({{2, 1, 1}, {1, 1, 1}, {1, 1, 1}});
  EXPECT_EQ(t.size(), 2u);
  std::span<const Triple> spo = t.Permutation(store::IndexKind::kSpo);
  EXPECT_TRUE(std::is_sorted(spo.begin(), spo.end()));
}

// Build's permutations must be exactly std::sort + std::unique of the
// rows under each permutation's order.
void ExpectBuildMatchesComparisonSort(const std::vector<Triple>& rows) {
  const TripleTable t = TripleTable::Build(rows);
  auto sorted = [&](auto key) {
    std::vector<Triple> out = rows;
    auto less = [&](const Triple& a, const Triple& b) {
      return key(a) < key(b);
    };
    std::sort(out.begin(), out.end(), less);
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  auto spo = sorted([](const Triple& r) { return std::tie(r.s, r.p, r.o); });
  auto pos = sorted([](const Triple& r) { return std::tie(r.p, r.o, r.s); });
  auto osp = sorted([](const Triple& r) { return std::tie(r.o, r.s, r.p); });
  auto expect_eq = [](std::span<const Triple> got,
                      const std::vector<Triple>& want, const char* name) {
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << name;
  };
  expect_eq(t.Permutation(store::IndexKind::kSpo), spo, "SPO");
  expect_eq(t.Permutation(store::IndexKind::kPos), pos, "POS");
  expect_eq(t.Permutation(store::IndexKind::kOsp), osp, "OSP");
}

// Seeded rows whose ids are `high | (random & mask)`: every tenth row
// repeats an earlier one, so deduplication has work to do.
std::vector<Triple> RandomRows(size_t n, uint32_t high, uint32_t mask) {
  uint64_t state = 0x2545f4914f6cdd1dull;
  auto next = [&] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return high | (static_cast<uint32_t>(state >> 32) & mask);
  };
  std::vector<Triple> rows;
  for (size_t i = 0; i < n; ++i) {
    if (i % 10 == 9) {
      rows.push_back(rows[i / 2]);
    } else {
      const TermId s = next(), p = next(), o = next();
      rows.push_back({s, p, o});
    }
  }
  return rows;
}

TEST(TripleTableTest, BuildMatchesComparisonSortWithNoPassSkipped) {
  // Ids above 2^16 in every position, and both 16-bit digits of s, p and o
  // differ between rows, so no pass is skipped.
  const std::vector<Triple> rows = RandomRows(20000, 0x10000u, 0xFFFFFFFFu);
  for (auto key : {&Triple::s, &Triple::p, &Triple::o}) {
    for (int shift : {0, 16}) {
      EXPECT_TRUE(std::any_of(rows.begin(), rows.end(), [&](const Triple& r) {
        return ((r.*key ^ rows[0].*key) >> shift & 0xFFFFu) != 0;
      }));
    }
  }
  ExpectBuildMatchesComparisonSort(rows);
}

TEST(TripleTableTest, BuildMatchesComparisonSortWhenHighDigitsAreShared) {
  // Every id shares its high digit (0x0003), so those passes are skipped;
  // and a single predicate skips both of p's.
  ExpectBuildMatchesComparisonSort(RandomRows(20000, 0x30000u, 0xFFFFu));
  std::vector<Triple> one_predicate = RandomRows(5000, 0x30000u, 0xFFFFu);
  for (Triple& r : one_predicate) r.p = 0x30007u;
  ExpectBuildMatchesComparisonSort(one_predicate);
}

TEST(TripleTableTest, ScanFullTable) {
  TripleTable t = MakeTable();
  EXPECT_EQ(t.MatchSpan({}).size(), 5u);
}

TEST(TripleTableTest, ScanBySubject) {
  TripleTable t = MakeTable();
  auto rows = RangeRows(t, {.s = 1, .p = std::nullopt, .o = std::nullopt});
  EXPECT_EQ(rows.size(), 3u);
  for (const Triple& r : rows) EXPECT_EQ(r.s, 1u);
}

TEST(TripleTableTest, ScanBySubjectProperty) {
  TripleTable t = MakeTable();
  auto rows = RangeRows(t, {.s = 1, .p = 10, .o = std::nullopt});
  EXPECT_EQ(rows.size(), 2u);
}

TEST(TripleTableTest, ScanExact) {
  TripleTable t = MakeTable();
  EXPECT_EQ(t.MatchSpan({.s = 1, .p = 10, .o = 3}).size(), 1u);
  EXPECT_EQ(t.MatchSpan({.s = 1, .p = 10, .o = 9}).size(), 0u);
}

TEST(TripleTableTest, ScanByProperty) {
  TripleTable t = MakeTable();
  auto rows = RangeRows(t, {.s = std::nullopt, .p = 10, .o = std::nullopt});
  EXPECT_EQ(rows.size(), 3u);
}

TEST(TripleTableTest, ScanByPropertyObject) {
  TripleTable t = MakeTable();
  auto rows = RangeRows(t, {.s = std::nullopt, .p = 10, .o = 3});
  EXPECT_EQ(rows.size(), 2u);
}

TEST(TripleTableTest, ScanByObject) {
  TripleTable t = MakeTable();
  auto rows = RangeRows(t, {.s = std::nullopt, .p = std::nullopt, .o = 2});
  EXPECT_EQ(rows.size(), 2u);
}

TEST(TripleTableTest, ScanBySubjectObject) {
  TripleTable t = MakeTable();
  auto rows = RangeRows(t, {.s = 1, .p = std::nullopt, .o = 2});
  EXPECT_EQ(rows.size(), 2u);
}

TEST(TripleTableTest, MatchesAndCount) {
  TripleTable t = MakeTable();
  EXPECT_FALSE(
      t.MatchSpan({.s = std::nullopt, .p = 12, .o = std::nullopt}).empty());
  EXPECT_TRUE(
      t.MatchSpan({.s = std::nullopt, .p = 99, .o = std::nullopt}).empty());
  EXPECT_EQ(t.Count({.s = 1, .p = std::nullopt, .o = std::nullopt}), 3u);
}

TEST(TripleTableTest, Contains) {
  TripleTable t = MakeTable();
  EXPECT_EQ(t.Count({3, 12, 1}), 1u);
  EXPECT_EQ(t.Count({3, 12, 2}), 0u);
}

TEST(TripleTableTest, EmptyTable) {
  for (const TripleTable& t : {TripleTable(), TripleTable::Build({})}) {
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.MatchSpan({}).size(), 0u);
    EXPECT_EQ(t.stats().num_triples(), 0u);
  }
}

TEST(TripleTableTest, CopiesShareTheRowsTheySpan) {
  TripleTable copy;
  std::span<const Triple> range;
  {
    TripleTable t = MakeTable();
    range = t.MatchSpan({.s = 1, .p = std::nullopt, .o = std::nullopt});
    copy = t;
  }
  // The original is gone; its copy keeps the storage the span points into.
  EXPECT_EQ(copy.MatchSpan({.s = 1, .p = std::nullopt, .o = std::nullopt})
                .data(),
            range.data());
  EXPECT_EQ(std::vector<Triple>(range.begin(), range.end()),
            (std::vector<Triple>{{1, 10, 2}, {1, 10, 3}, {1, 11, 2}}));
  EXPECT_EQ(copy.stats().num_triples(), 5u);
}

TEST(TripleTableTest, ChooseIndexCoversEveryBoundSet) {
  using store::IndexKind;
  // Every subset of bound positions must be a key prefix of the chosen
  // permutation — that is the invariant making MatchSpan one contiguous
  // range.
  EXPECT_EQ(TripleTable::ChooseIndex(false, false, false), IndexKind::kSpo);
  EXPECT_EQ(TripleTable::ChooseIndex(true, false, false), IndexKind::kSpo);
  EXPECT_EQ(TripleTable::ChooseIndex(true, true, false), IndexKind::kSpo);
  EXPECT_EQ(TripleTable::ChooseIndex(true, true, true), IndexKind::kSpo);
  EXPECT_EQ(TripleTable::ChooseIndex(false, true, false), IndexKind::kPos);
  EXPECT_EQ(TripleTable::ChooseIndex(false, true, true), IndexKind::kPos);
  EXPECT_EQ(TripleTable::ChooseIndex(false, false, true), IndexKind::kOsp);
  EXPECT_EQ(TripleTable::ChooseIndex(true, false, true), IndexKind::kOsp);
}

// Constants no lead key of `t` holds that its directories must still
// answer: 0 and 2^32 - 1, one below each permutation's smallest lead and one
// above its largest, and ids between consecutive leads (they fall in empty
// buckets, or in buckets whose other ids are present).
std::vector<TermId> AbsentLeads(const TripleTable& t) {
  std::vector<TermId> out = {0, ~TermId{0}};
  const std::pair<store::IndexKind, TermId Triple::*> leads[] = {
      {store::IndexKind::kSpo, &Triple::s},
      {store::IndexKind::kPos, &Triple::p},
      {store::IndexKind::kOsp, &Triple::o}};
  for (const auto& [kind, lead] : leads) {
    std::span<const Triple> perm = t.Permutation(kind);
    if (perm.empty()) continue;
    if (perm.front().*lead > 0) out.push_back(perm.front().*lead - 1);
    if (perm.back().*lead < ~TermId{0}) out.push_back(perm.back().*lead + 1);
    size_t gaps = 0;
    for (size_t i = 1; i < perm.size() && gaps < 3; ++i) {
      const TermId a = perm[i - 1].*lead, b = perm[i].*lead;
      if (b - a < 2) continue;
      out.push_back(a + 1);
      out.push_back(a + (b - a) / 2);
      ++gaps;
    }
  }
  return out;
}

// MatchSpan must equal a filter over the whole permutation for all 8 bound
// sets: for every `stride`-th row, with the row's own values (which must
// match), and with each bound position in turn replaced by every absent
// constant.
void ExpectMatchSpanAgreesWithFilter(const TripleTable& t, size_t stride) {
  const std::vector<TermId> absent = AbsentLeads(t);
  size_t sampled = 0;
  for (const Triple& probe : t.Permutation(store::IndexKind::kSpo)) {
    if (sampled++ % stride != 0) continue;
    for (int mask = 0; mask < 8; ++mask) {
      TriplePattern q;
      if (mask & 1) q.s = probe.s;
      if (mask & 2) q.p = probe.p;
      if (mask & 4) q.o = probe.o;
      const std::vector<Triple> expected = Filtered(t, q);
      EXPECT_EQ(RangeRows(t, q), expected) << "mask=" << mask;
      EXPECT_EQ(t.Count(q), expected.size()) << "mask=" << mask;
      EXPECT_GE(expected.size(), 1u)
          << "probe triple must match its own pattern";
      for (std::optional<TermId>* pos : {&q.s, &q.p, &q.o}) {
        if (!pos->has_value()) continue;
        const TermId kept = **pos;
        for (TermId c : absent) {
          *pos = c;
          EXPECT_EQ(RangeRows(t, q), Filtered(t, q))
              << "mask=" << mask << " constant=" << c;
        }
        *pos = kept;
      }
    }
  }
  // And every bound set over constants alone, which also covers tables
  // with no rows to sample.
  for (TermId c : absent) {
    for (int mask = 1; mask < 8; ++mask) {
      TriplePattern q;
      if (mask & 1) q.s = c;
      if (mask & 2) q.p = c;
      if (mask & 4) q.o = c;
      EXPECT_EQ(RangeRows(t, q), Filtered(t, q))
          << "mask=" << mask << " constant=" << c;
    }
  }
  EXPECT_EQ(RangeRows(t, {}), Filtered(t, {}));
}

TEST(TripleTableTest, MatchSpanAgreesWithFilterOnEveryBoundSet) {
  gen::BsbmOptions opt;
  opt.num_products = 30;
  Graph g = gen::GenerateBsbm(opt);
  ExpectMatchSpanAgreesWithFilter(TripleTable::Build(g.Triples()), 97);

  // Sparse ids: two thousand rows over ids up to 2^32 - 1, and over a
  // window just below 2^32, so every directory puts several ids in a
  // bucket. Ids drawn from a few values per position make buckets that
  // hold some present and some absent ids.
  ExpectMatchSpanAgreesWithFilter(
      TripleTable::Build(RandomRows(2000, 0, 0xFFFFFFFFu)), 97);
  ExpectMatchSpanAgreesWithFilter(
      TripleTable::Build(RandomRows(2000, 0xFFF00000u, 0xFFFFFu)), 97);
  ExpectMatchSpanAgreesWithFilter(
      TripleTable::Build(RandomRows(2000, 0xFFFF0000u, 0xF00Fu)), 97);

  // One-row and empty tables.
  ExpectMatchSpanAgreesWithFilter(TripleTable::Build({{7, 8, 9}}), 1);
  ExpectMatchSpanAgreesWithFilter(
      TripleTable::Build({{~TermId{0}, ~TermId{0}, ~TermId{0}}}), 1);
  ExpectMatchSpanAgreesWithFilter(TripleTable(), 1);

  // And on the small table, with patterns that match nothing: every bound
  // set, an absent subject, and the exact walk order of one range.
  TripleTable small = MakeTable();
  ExpectMatchSpanAgreesWithFilter(small, 1);
  EXPECT_EQ(RangeRows(small, {1, std::nullopt, std::nullopt}),
            (std::vector<Triple>{{1, 10, 2}, {1, 10, 3}, {1, 11, 2}}));
  EXPECT_TRUE(small.MatchSpan({99, std::nullopt, std::nullopt}).empty());
}

TEST(TripleTableTest, DirectoryIsAtMostFourBytesPerRow) {
  using store::IndexKind;
  const std::vector<std::vector<Triple>> tables = {
      {},
      {{7, 8, 9}},
      {{0, 0, 0}, {~TermId{0}, ~TermId{0}, ~TermId{0}}},
      RandomRows(20000, 0x10000u, 0xFFFFFFFFu),
      RandomRows(20000, 0x30000u, 0xFFFFu),
  };
  for (const std::vector<Triple>& rows : tables) {
    const TripleTable t = TripleTable::Build(rows);
    for (IndexKind kind : {IndexKind::kSpo, IndexKind::kPos, IndexKind::kOsp}) {
      EXPECT_LE(t.DirectoryBytes(kind), 4 * t.size())
          << store::IndexKindName(kind) << " over " << t.size() << " rows";
    }
  }
  // Dense ids get one id per bucket: a bucket per subject of 0..99.
  std::vector<Triple> dense;
  for (TermId s = 0; s < 100; ++s) dense.push_back({s, 1, 2});
  EXPECT_EQ(TripleTable::Build(dense).DirectoryBytes(IndexKind::kSpo),
            100 * sizeof(uint32_t));
}

TEST(TableStatsTest, AggregatesMatchManualCounts) {
  TripleTable t = MakeTable();
  // MakeTable rows: (1,10,2) (1,10,3) (1,11,2) (2,10,3) (3,12,1).
  const store::TableStats& st = t.stats();
  EXPECT_EQ(st.num_triples(), 5u);
  EXPECT_EQ(st.num_distinct_subjects(), 3u);   // 1, 2, 3
  EXPECT_EQ(st.num_distinct_predicates(), 3u); // 10, 11, 12
  EXPECT_EQ(st.num_distinct_objects(), 3u);    // 1, 2, 3

  const store::PredicateStats* p10 = st.predicate(10);
  ASSERT_NE(p10, nullptr);
  EXPECT_EQ(p10->count, 3u);
  EXPECT_EQ(p10->distinct_subjects, 2u);  // 1, 2
  EXPECT_EQ(p10->distinct_objects, 2u);   // 2, 3
  EXPECT_DOUBLE_EQ(t.stats().AvgTriplesPerSubject(10), 1.5);

  const store::PredicateStats* p12 = st.predicate(12);
  ASSERT_NE(p12, nullptr);
  EXPECT_EQ(p12->count, 1u);
  EXPECT_EQ(p12->distinct_subjects, 1u);
  EXPECT_EQ(p12->distinct_objects, 1u);

  EXPECT_EQ(st.predicate(99), nullptr);
  EXPECT_DOUBLE_EQ(st.AvgTriplesPerSubject(99), 0.0);
}

}  // namespace
}  // namespace rdfsum
