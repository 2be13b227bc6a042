#include <gtest/gtest.h>

#include <tuple>

#include "gen/bsbm.h"
#include "gen/hetero.h"
#include "gen/lubm.h"
#include "gen/paper_example.h"
#include "reasoner/saturation.h"
#include "summary/isomorphism.h"
#include "summary/property_checks.h"
#include "summary/summarizer.h"

namespace rdfsum::summary {
namespace {

// ------------------------------------------------ Proposition 2/6/9: fixpoint

class FixpointTest
    : public ::testing::TestWithParam<std::tuple<SummaryKind, uint64_t>> {};

TEST_P(FixpointTest, SummaryOfSummaryIsSummary) {
  auto [kind, seed] = GetParam();
  gen::HeteroOptions opt;
  opt.seed = seed;
  opt.num_nodes = 120;
  opt.num_properties = 10;
  opt.type_probability = 0.45;
  Graph g = gen::GenerateHetero(opt);
  EXPECT_TRUE(CheckFixpoint(g, kind)) << SummaryKindName(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndSeeds, FixpointTest,
    ::testing::Combine(::testing::Values(SummaryKind::kWeak,
                                         SummaryKind::kStrong,
                                         SummaryKind::kTypedWeak,
                                         SummaryKind::kTypedStrong),
                       ::testing::Values(1, 2, 3, 10, 42)),
    [](const auto& info) {
      return std::string(SummaryKindName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(FixpointExampleTest, Figure2AllKinds) {
  gen::Figure2Example ex = gen::BuildFigure2();
  for (SummaryKind kind : kAllQuotientKinds) {
    EXPECT_TRUE(CheckFixpoint(ex.graph, kind)) << SummaryKindName(kind);
  }
}

TEST(FixpointExampleTest, StrictModeAlsoFixpoint) {
  gen::Figure2Example ex = gen::BuildFigure2();
  SummaryOptions strict;
  strict.typed_mode = TypedSummaryMode::kUntypedDataGraph;
  EXPECT_TRUE(CheckFixpoint(ex.graph, SummaryKind::kTypedWeak, strict));
  EXPECT_TRUE(CheckFixpoint(ex.graph, SummaryKind::kTypedStrong, strict));
}

// -------------------------------------- Proposition 5/8: W and S completeness

TEST(CompletenessTest, WeakOnFigure5) {
  // The paper's own illustration of Proposition 5.
  Graph g = gen::BuildFigure5();
  EXPECT_TRUE(CheckCompleteness(g, SummaryKind::kWeak));
}

TEST(CompletenessTest, StrongOnFigure5) {
  Graph g = gen::BuildFigure5();
  EXPECT_TRUE(CheckCompleteness(g, SummaryKind::kStrong));
}

TEST(CompletenessTest, BookExample) {
  gen::BookExample ex = gen::BuildBookExample();
  EXPECT_TRUE(CheckCompleteness(ex.graph, SummaryKind::kWeak));
  EXPECT_TRUE(CheckCompleteness(ex.graph, SummaryKind::kStrong));
}

class CompletenessSweepTest
    : public ::testing::TestWithParam<std::tuple<SummaryKind, uint64_t>> {};

TEST_P(CompletenessSweepTest, HoldsOnRandomSchemaGraphs) {
  auto [kind, seed] = GetParam();
  gen::HeteroOptions opt;
  opt.seed = seed;
  opt.num_nodes = 90;
  opt.num_properties = 8;
  opt.num_classes = 6;
  opt.num_subproperty_edges = 4;
  opt.num_domain_constraints = 3;
  opt.num_range_constraints = 3;
  opt.type_probability = 0.4;
  Graph g = gen::GenerateHetero(opt);
  EXPECT_TRUE(CheckCompleteness(g, kind))
      << SummaryKindName(kind) << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    WeakAndStrong, CompletenessSweepTest,
    ::testing::Combine(::testing::Values(SummaryKind::kWeak,
                                         SummaryKind::kStrong),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8)),
    [](const auto& info) {
      return std::string(SummaryKindName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(CompletenessTest, LubmWeak) {
  gen::LubmOptions opt;
  opt.num_universities = 1;
  Graph g = gen::GenerateLubm(opt);
  EXPECT_TRUE(CheckCompleteness(g, SummaryKind::kWeak));
}

// ------------------------------- Proposition 7/10: TW/TS non-completeness

TEST(NonCompletenessTest, Figure8BreaksTypedWeak) {
  Graph g = gen::BuildFigure8();
  EXPECT_FALSE(CheckCompleteness(g, SummaryKind::kTypedWeak))
      << "Figure 8 should be a counterexample for TW completeness";
}

TEST(NonCompletenessTest, Figure8BreaksTypedStrong) {
  Graph g = gen::BuildFigure8();
  EXPECT_FALSE(CheckCompleteness(g, SummaryKind::kTypedStrong));
}

TEST(NonCompletenessTest, Figure8DetailedShape) {
  // TW(G): r1 and r2 merge (both untyped, share b). TW(G∞): r1 is typed c,
  // r2 is not — they must be distinct nodes there.
  Graph g = gen::BuildFigure8();
  Graph g_inf = reasoner::Saturate(g);
  TermId r1 = g.dict().Lookup(Term::Iri("http://example.org/fig8/r1"));
  TermId r2 = g.dict().Lookup(Term::Iri("http://example.org/fig8/r2"));
  ASSERT_NE(r1, kInvalidTermId);

  SummaryResult tw_g = Summarize(g, SummaryKind::kTypedWeak);
  EXPECT_EQ(tw_g.node_map.at(r1), tw_g.node_map.at(r2));

  SummaryResult tw_inf = Summarize(g_inf, SummaryKind::kTypedWeak);
  EXPECT_NE(tw_inf.node_map.at(r1), tw_inf.node_map.at(r2));
}

TEST(NonCompletenessTest, WeakStillCompleteOnFigure8) {
  // The same graph does not break W/S completeness.
  Graph g = gen::BuildFigure8();
  EXPECT_TRUE(CheckCompleteness(g, SummaryKind::kWeak));
  EXPECT_TRUE(CheckCompleteness(g, SummaryKind::kStrong));
}

// ------------------------------------------------ shortcut API

TEST(ShortcutTest, MatchesDirectSaturationForWeak) {
  gen::BookExample ex = gen::BuildBookExample();
  Graph g_inf = reasoner::Saturate(ex.graph);
  SummaryResult direct = Summarize(g_inf, SummaryKind::kWeak);
  SummaryResult shortcut =
      SummarizeSaturatedViaShortcut(ex.graph, SummaryKind::kWeak);
  EXPECT_TRUE(AreSummariesIsomorphic(direct.graph, shortcut.graph));
  // The second quotient counted the saturated summary's triples, not G∞'s,
  // so the shortcut reports no edge counts.
  EXPECT_FALSE(direct.multiplicity.empty());
  EXPECT_TRUE(shortcut.multiplicity.empty());
}

TEST(ShortcutTest, MatchesDirectSaturationForStrong) {
  gen::LubmOptions opt;
  opt.num_universities = 1;
  Graph g = gen::GenerateLubm(opt);
  Graph g_inf = reasoner::Saturate(g);
  SummaryResult direct = Summarize(g_inf, SummaryKind::kStrong);
  SummaryResult shortcut =
      SummarizeSaturatedViaShortcut(g, SummaryKind::kStrong);
  EXPECT_TRUE(AreSummariesIsomorphic(direct.graph, shortcut.graph));
  EXPECT_TRUE(shortcut.multiplicity.empty());
}

TEST(ShortcutTest, NodeMapStillCoversG) {
  gen::BookExample ex = gen::BuildBookExample();
  SummaryResult shortcut =
      SummarizeSaturatedViaShortcut(ex.graph, SummaryKind::kWeak);
  EXPECT_TRUE(shortcut.node_map.count(ex.doi1));
  EXPECT_TRUE(shortcut.node_map.count(ex.b1));
}

TEST(ShortcutTest, TypedKindsFallBackToSaturateFirst) {
  Graph g = gen::BuildFigure8();
  Graph g_inf = reasoner::Saturate(g);
  SummaryResult direct = Summarize(g_inf, SummaryKind::kTypedWeak);
  SummaryResult fallback =
      SummarizeSaturatedViaShortcut(g, SummaryKind::kTypedWeak);
  EXPECT_TRUE(AreSummariesIsomorphic(direct.graph, fallback.graph));
}

// ------------------------------------------------ Prop 1: representativeness

class RepresentativenessTest
    : public ::testing::TestWithParam<std::tuple<SummaryKind, uint64_t>> {};

TEST_P(RepresentativenessTest, AllQueriesRepresented) {
  auto [kind, seed] = GetParam();
  gen::HeteroOptions opt;
  opt.seed = seed;
  opt.num_nodes = 100;
  opt.num_properties = 9;
  opt.num_classes = 6;
  opt.type_probability = 0.4;
  opt.num_subproperty_edges = 3;
  opt.num_domain_constraints = 2;
  opt.num_range_constraints = 2;
  Graph g = gen::GenerateHetero(opt);
  RepresentativenessReport report =
      CheckRepresentativeness(g, kind, /*num_queries=*/40,
                              /*max_patterns_per_query=*/4, seed * 31 + 7);
  EXPECT_GT(report.queries, 0u);
  EXPECT_TRUE(report.AllRepresented())
      << SummaryKindName(kind) << ": " << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, RepresentativenessTest,
    ::testing::Combine(::testing::Values(SummaryKind::kWeak,
                                         SummaryKind::kStrong,
                                         SummaryKind::kTypedWeak,
                                         SummaryKind::kTypedStrong,
                                         SummaryKind::kTypeBased),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::string(SummaryKindName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(RepresentativenessTest2, BsbmWithUntypedOffers) {
  gen::BsbmOptions opt;
  opt.num_products = 60;
  opt.untyped_offer_fraction = 0.3;
  Graph g = gen::GenerateBsbm(opt);
  for (SummaryKind kind : kAllQuotientKinds) {
    RepresentativenessReport report =
        CheckRepresentativeness(g, kind, 25, 3, 99);
    EXPECT_TRUE(report.AllRepresented())
        << SummaryKindName(kind) << ": " << report.ToString();
  }
}

// ------------------------------------------------ Prop 3: accuracy

TEST(AccuracyTest, SummaryIsItsOwnSummary) {
  // Accuracy follows from the fixpoint property: H is a graph whose summary
  // is H, so any query matching H∞ matches a member of the inverse set.
  gen::Figure2Example ex = gen::BuildFigure2();
  for (SummaryKind kind : kAllQuotientKinds) {
    SummaryResult h = Summarize(ex.graph, kind);
    SummaryResult hh = Summarize(h.graph, kind);
    EXPECT_TRUE(AreSummariesIsomorphic(h.graph, hh.graph));
  }
}

}  // namespace
}  // namespace rdfsum::summary
