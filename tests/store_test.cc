#include <gtest/gtest.h>

#include <algorithm>

#include "gen/bsbm.h"
#include "rdf/graph.h"
#include "store/triple_table.h"

namespace rdfsum {
namespace {

using store::TriplePattern;
using store::TripleTable;

TripleTable MakeTable() {
  TripleTable t;
  t.Append({1, 10, 2});
  t.Append({1, 10, 3});
  t.Append({1, 11, 2});
  t.Append({2, 10, 3});
  t.Append({3, 12, 1});
  t.Freeze();
  return t;
}

TEST(TripleTableTest, FreezeSortsAndDedups) {
  TripleTable t;
  t.Append({2, 1, 1});
  t.Append({1, 1, 1});
  t.Append({1, 1, 1});
  t.Freeze();
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(std::is_sorted(t.rows().begin(), t.rows().end()));
}

TEST(TripleTableTest, ScanFullTable) {
  TripleTable t = MakeTable();
  EXPECT_EQ(t.Scan({}).size(), 5u);
}

TEST(TripleTableTest, ScanBySubject) {
  TripleTable t = MakeTable();
  auto rows = t.Scan({.s = 1, .p = std::nullopt, .o = std::nullopt});
  EXPECT_EQ(rows.size(), 3u);
  for (const Triple& r : rows) EXPECT_EQ(r.s, 1u);
}

TEST(TripleTableTest, ScanBySubjectProperty) {
  TripleTable t = MakeTable();
  auto rows = t.Scan({.s = 1, .p = 10, .o = std::nullopt});
  EXPECT_EQ(rows.size(), 2u);
}

TEST(TripleTableTest, ScanExact) {
  TripleTable t = MakeTable();
  EXPECT_EQ(t.Scan({.s = 1, .p = 10, .o = 3}).size(), 1u);
  EXPECT_EQ(t.Scan({.s = 1, .p = 10, .o = 9}).size(), 0u);
}

TEST(TripleTableTest, ScanByProperty) {
  TripleTable t = MakeTable();
  auto rows = t.Scan({.s = std::nullopt, .p = 10, .o = std::nullopt});
  EXPECT_EQ(rows.size(), 3u);
}

TEST(TripleTableTest, ScanByPropertyObject) {
  TripleTable t = MakeTable();
  auto rows = t.Scan({.s = std::nullopt, .p = 10, .o = 3});
  EXPECT_EQ(rows.size(), 2u);
}

TEST(TripleTableTest, ScanByObject) {
  TripleTable t = MakeTable();
  auto rows = t.Scan({.s = std::nullopt, .p = std::nullopt, .o = 2});
  EXPECT_EQ(rows.size(), 2u);
}

TEST(TripleTableTest, ScanBySubjectObject) {
  TripleTable t = MakeTable();
  auto rows = t.Scan({.s = 1, .p = std::nullopt, .o = 2});
  EXPECT_EQ(rows.size(), 2u);
}

TEST(TripleTableTest, MatchesAndCount) {
  TripleTable t = MakeTable();
  EXPECT_TRUE(t.Matches({.s = std::nullopt, .p = 12, .o = std::nullopt}));
  EXPECT_FALSE(t.Matches({.s = std::nullopt, .p = 99, .o = std::nullopt}));
  EXPECT_EQ(t.Count({.s = 1, .p = std::nullopt, .o = std::nullopt}), 3u);
}

TEST(TripleTableTest, Contains) {
  TripleTable t = MakeTable();
  EXPECT_TRUE(t.Contains({3, 12, 1}));
  EXPECT_FALSE(t.Contains({3, 12, 2}));
}

TEST(TripleTableTest, AppendUnfreezes) {
  TripleTable t = MakeTable();
  EXPECT_TRUE(t.frozen());
  t.Append({9, 9, 9});
  EXPECT_FALSE(t.frozen());
  t.Freeze();
  EXPECT_TRUE(t.Contains({9, 9, 9}));
}

TEST(TripleTableTest, EmptyTable) {
  TripleTable t;
  t.Freeze();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.Scan({}).size(), 0u);
  EXPECT_FALSE(t.Matches({}));
}

TEST(TripleTableTest, ChooseIndexCoversEveryBoundSet) {
  using store::IndexKind;
  // Every subset of bound positions must be a key prefix of the chosen
  // permutation — that is the invariant making Count/Matches O(log n).
  EXPECT_EQ(TripleTable::ChooseIndex(false, false, false), IndexKind::kSpo);
  EXPECT_EQ(TripleTable::ChooseIndex(true, false, false), IndexKind::kSpo);
  EXPECT_EQ(TripleTable::ChooseIndex(true, true, false), IndexKind::kSpo);
  EXPECT_EQ(TripleTable::ChooseIndex(true, true, true), IndexKind::kSpo);
  EXPECT_EQ(TripleTable::ChooseIndex(false, true, false), IndexKind::kPos);
  EXPECT_EQ(TripleTable::ChooseIndex(false, true, true), IndexKind::kPos);
  EXPECT_EQ(TripleTable::ChooseIndex(false, false, true), IndexKind::kOsp);
  EXPECT_EQ(TripleTable::ChooseIndex(true, false, true), IndexKind::kOsp);
}

TEST(TripleTableTest, CountAgreesWithScanOnEveryBoundSet) {
  gen::BsbmOptions opt;
  opt.num_products = 30;
  Graph g = gen::GenerateBsbm(opt);
  TripleTable t;
  g.ForEachTriple([&](const Triple& tr) { t.Append(tr); });
  t.Freeze();
  // Exhaustively cross-check the O(log n) range count against a counted
  // scan for all 8 bound-position combinations over sampled triples.
  size_t sampled = 0;
  for (const Triple& probe : t.rows()) {
    if (sampled++ % 97 != 0) continue;
    for (int mask = 0; mask < 8; ++mask) {
      TriplePattern q;
      if (mask & 1) q.s = probe.s;
      if (mask & 2) q.p = probe.p;
      if (mask & 4) q.o = probe.o;
      size_t scanned = 0;
      t.Scan(q, [&](const Triple& m) {
        EXPECT_TRUE((!q.s || m.s == *q.s) && (!q.p || m.p == *q.p) &&
                    (!q.o || m.o == *q.o));
        ++scanned;
        return true;
      });
      EXPECT_EQ(t.Count(q), scanned) << "mask=" << mask;
      EXPECT_EQ(t.Matches(q), scanned > 0) << "mask=" << mask;
      EXPECT_GE(scanned, 1u) << "probe triple must match its own pattern";
    }
  }
  ASSERT_GT(sampled, 0u);
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

TEST(TableStatsTest, RecomputedOnRefreeze) {
  TripleTable t = MakeTable();
  t.Append({7, 77, 7});
  t.Freeze();
  EXPECT_EQ(t.stats().num_triples(), 6u);
  ASSERT_NE(t.stats().predicate(77), nullptr);
  EXPECT_EQ(t.stats().predicate(77)->count, 1u);
}

TEST(TableStatsTest, AppendAfterFreezeInvalidatesStatsEagerly) {
  TripleTable t = MakeTable();
  const uint64_t frozen_triples = t.stats().num_triples();
  ASSERT_EQ(frozen_triples, 5u);
  // The staleness invariant (src/query/README.md): an un-frozen table must
  // never serve the old counts. Unfreeze() clears the stats in every build
  // mode, not just where the assert fires — observable via Unfreeze() +
  // refreeze of an *unchanged* row set, which must still agree, and via
  // refreeze after a real append, which must reflect the new rows.
  t.Unfreeze();
  EXPECT_FALSE(t.frozen());
  t.Freeze();
  EXPECT_EQ(t.stats().num_triples(), frozen_triples);

  t.Append({42, 43, 44});
  EXPECT_FALSE(t.frozen());
  t.Freeze();
  EXPECT_EQ(t.stats().num_triples(), frozen_triples + 1);
  ASSERT_NE(t.stats().predicate(43), nullptr);
  EXPECT_EQ(t.stats().predicate(43)->distinct_subjects, 1u);
}

// ---------------------------------------------------------------- cursors

TEST(ScanCursorTest, WalksTheMatchRangeAndReportsRemaining) {
  TripleTable t = MakeTable();
  store::ScanCursor c = t.OpenScan({1, std::nullopt, std::nullopt});
  EXPECT_EQ(c.remaining(), 3u);
  Triple triple;
  ASSERT_TRUE(c.Next(&triple));
  EXPECT_EQ(triple, (Triple{1, 10, 2}));
  EXPECT_EQ(c.remaining(), 2u);
  ASSERT_TRUE(c.Next(&triple));
  ASSERT_TRUE(c.Next(&triple));
  EXPECT_EQ(triple, (Triple{1, 11, 2}));
  EXPECT_TRUE(c.done());
  EXPECT_FALSE(c.Next(&triple));  // exhaustion is stable
  EXPECT_FALSE(c.Next(&triple));
}

TEST(ScanCursorTest, EmptyRangeAndDefaultCursor) {
  TripleTable t = MakeTable();
  store::ScanCursor none = t.OpenScan({99, std::nullopt, std::nullopt});
  Triple triple;
  EXPECT_TRUE(none.done());
  EXPECT_FALSE(none.Next(&triple));
  store::ScanCursor def;
  EXPECT_FALSE(def.Next(&triple));
}

TEST(ScanCursorTest, AgreesWithScanOnEveryBoundSet) {
  TripleTable t = MakeTable();
  const TriplePattern patterns[] = {
      {},
      {1, std::nullopt, std::nullopt},
      {std::nullopt, 10, std::nullopt},
      {std::nullopt, std::nullopt, 3},
      {1, 10, std::nullopt},
      {std::nullopt, 10, 3},
      {1, std::nullopt, 2},
      {1, 10, 3},
  };
  for (const TriplePattern& p : patterns) {
    std::vector<Triple> expected = t.Scan(p);
    std::vector<Triple> got;
    store::ScanCursor c = t.OpenScan(p);
    Triple triple;
    while (c.Next(&triple)) got.push_back(triple);
    EXPECT_EQ(got, expected);
  }
}

}  // namespace
}  // namespace rdfsum
