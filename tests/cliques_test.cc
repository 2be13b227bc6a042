#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "gen/hetero.h"
#include "gen/paper_example.h"
#include "rdf/graph_stats.h"
#include "reasoner/saturation.h"
#include "reasoner/schema_index.h"
#include "summary/cliques.h"

namespace rdfsum::summary {
namespace {

using gen::BuildFigure2;
using gen::Figure2Example;

std::set<TermId> MembersOfNodeSourceClique(const PropertyCliques& c,
                                           TermId node) {
  uint32_t id = c.SourceCliqueOf(node);
  if (id == 0) return {};
  const auto& m = c.source_clique_members[id - 1];
  return {m.begin(), m.end()};
}

std::set<TermId> MembersOfNodeTargetClique(const PropertyCliques& c,
                                           TermId node) {
  uint32_t id = c.TargetCliqueOf(node);
  if (id == 0) return {};
  const auto& m = c.target_clique_members[id - 1];
  return {m.begin(), m.end()};
}

// ------------------------------------------------ Table 1, reproduced exactly

class Table1Test : public ::testing::Test {
 protected:
  Table1Test() : ex_(BuildFigure2()), dg_(ex_.graph) {
    cliques_ = ComputePropertyCliques(dg_);
  }
  Figure2Example ex_;
  DenseGraph dg_;
  PropertyCliques cliques_;
};

TEST_F(Table1Test, SourceCliques) {
  // SC1 = {a, t, e, c}; SC2 = {r}; SC3 = {p}.
  EXPECT_EQ(cliques_.num_source_cliques, 3u);
  std::set<TermId> sc1{ex_.author, ex_.title, ex_.editor, ex_.comment};
  for (TermId r : {ex_.r1, ex_.r2, ex_.r3, ex_.r4, ex_.r5}) {
    EXPECT_EQ(MembersOfNodeSourceClique(cliques_, r), sc1);
  }
  EXPECT_EQ(MembersOfNodeSourceClique(cliques_, ex_.a1),
            (std::set<TermId>{ex_.reviewed}));
  EXPECT_EQ(MembersOfNodeSourceClique(cliques_, ex_.e1),
            (std::set<TermId>{ex_.published}));
}

TEST_F(Table1Test, TargetCliques) {
  // TC1={a}; TC2={t}; TC3={e}; TC4={c}; TC5={r,p}.
  EXPECT_EQ(cliques_.num_target_cliques, 5u);
  EXPECT_EQ(MembersOfNodeTargetClique(cliques_, ex_.a1),
            (std::set<TermId>{ex_.author}));
  EXPECT_EQ(MembersOfNodeTargetClique(cliques_, ex_.a2),
            (std::set<TermId>{ex_.author}));
  for (TermId t : {ex_.t1, ex_.t2, ex_.t3, ex_.t4}) {
    EXPECT_EQ(MembersOfNodeTargetClique(cliques_, t),
              (std::set<TermId>{ex_.title}));
  }
  for (TermId e : {ex_.e1, ex_.e2}) {
    EXPECT_EQ(MembersOfNodeTargetClique(cliques_, e),
              (std::set<TermId>{ex_.editor}));
  }
  EXPECT_EQ(MembersOfNodeTargetClique(cliques_, ex_.c1),
            (std::set<TermId>{ex_.comment}));
  EXPECT_EQ(MembersOfNodeTargetClique(cliques_, ex_.r4),
            (std::set<TermId>{ex_.reviewed, ex_.published}));
}

TEST_F(Table1Test, EmptyCliques) {
  // r1..r3, r5 have no target clique; r6 has neither; a1 has both.
  EXPECT_EQ(cliques_.TargetCliqueOf(ex_.r1), 0u);
  EXPECT_EQ(cliques_.TargetCliqueOf(ex_.r5), 0u);
  EXPECT_EQ(cliques_.SourceCliqueOf(ex_.r6), 0u);
  EXPECT_EQ(cliques_.TargetCliqueOf(ex_.r6), 0u);
  EXPECT_NE(cliques_.SourceCliqueOf(ex_.a1), 0u);
  EXPECT_NE(cliques_.TargetCliqueOf(ex_.a1), 0u);
  EXPECT_EQ(cliques_.SourceCliqueOf(ex_.t1), 0u);
}

TEST_F(Table1Test, CliquesPartitionDataProperties) {
  // Each data property belongs to exactly one source clique (or none) and
  // one target clique (or none); together with the "every property of a
  // resource is in its clique" invariant this is the partition claim of §3.1.
  std::set<TermId> all_props{ex_.author,  ex_.title,    ex_.editor,
                             ex_.comment, ex_.reviewed, ex_.published};
  std::set<TermId> from_source;
  for (const auto& members : cliques_.source_clique_members) {
    for (TermId p : members) EXPECT_TRUE(from_source.insert(p).second);
  }
  EXPECT_EQ(from_source, all_props);
  std::set<TermId> from_target;
  for (const auto& members : cliques_.target_clique_members) {
    for (TermId p : members) EXPECT_TRUE(from_target.insert(p).second);
  }
  EXPECT_EQ(from_target, all_props);
}

// ------------------------------------------------ Definition 6: distances

TEST_F(Table1Test, PropertyDistances) {
  EXPECT_EQ(PropertyDistance(dg_, ex_.author, ex_.title, true), 0);   // r1
  EXPECT_EQ(PropertyDistance(dg_, ex_.title, ex_.editor, true), 0);   // r2
  EXPECT_EQ(PropertyDistance(dg_, ex_.author, ex_.editor, true), 1);  // chain
  EXPECT_EQ(PropertyDistance(dg_, ex_.author, ex_.comment, true), 2);
  EXPECT_EQ(PropertyDistance(dg_, ex_.author, ex_.author, true), 0);
}

TEST_F(Table1Test, DistanceAcrossCliquesIsMinusOne) {
  EXPECT_EQ(PropertyDistance(dg_, ex_.author, ex_.reviewed, true), -1);
  EXPECT_EQ(PropertyDistance(dg_, ex_.reviewed, ex_.published, true), -1);
  // On the target side r and p share r4.
  EXPECT_EQ(PropertyDistance(dg_, ex_.reviewed, ex_.published, false), 0);
}

TEST_F(Table1Test, DistanceSymmetry) {
  EXPECT_EQ(PropertyDistance(dg_, ex_.comment, ex_.author, true), 2);
}

// ------------------------------------------------ scopes

TEST(CliqueScopeTest, UntypedEndpointsScopeSplitsCliques) {
  Figure2Example ex = BuildFigure2();
  PropertyCliques c = ComputePropertyCliques(DenseGraph(ex.graph),
                                             CliqueScope::kUntypedEndpoints);
  // Untyped subjects: r3 {e,c}, r4 {a,t}, a1 {r}, e1 {p} — four source
  // cliques, no bridge through the typed r1/r2/r5.
  EXPECT_EQ(c.num_source_cliques, 4u);
  EXPECT_EQ(MembersOfNodeSourceClique(c, ex.r3),
            (std::set<TermId>{ex.editor, ex.comment}));
  EXPECT_EQ(MembersOfNodeSourceClique(c, ex.r4),
            (std::set<TermId>{ex.author, ex.title}));
  // Typed subjects are not assigned source cliques in this scope.
  EXPECT_EQ(c.SourceCliqueOf(ex.r1), 0u);
}

TEST(CliqueScopeTest, UntypedDataGraphScopeIsStricter) {
  Figure2Example ex = BuildFigure2();
  PropertyCliques c = ComputePropertyCliques(DenseGraph(ex.graph),
                                             CliqueScope::kUntypedDataGraph);
  // t1 is the object of a typed subject's triple: outside UD entirely.
  EXPECT_EQ(c.TargetCliqueOf(ex.t1), 0u);
  // t3 is the object of untyped r4: inside UD.
  EXPECT_NE(c.TargetCliqueOf(ex.t3), 0u);
  // e2 is object of r3 (untyped) -> in UD; e1 only of typed r2 -> outside.
  EXPECT_NE(c.TargetCliqueOf(ex.e2), 0u);
  EXPECT_EQ(c.TargetCliqueOf(ex.e1), 0u);
}

// ------------------------------------------------ Lemma 1 on random graphs

class CliqueLemmaTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CliqueLemmaTest, SaturationCoarsensCliques) {
  // Lemma 1.1: every clique of G is contained in exactly one clique of G∞.
  gen::HeteroOptions opt;
  opt.seed = GetParam();
  opt.num_nodes = 120;
  opt.num_properties = 10;
  Graph g = gen::GenerateHetero(opt);
  Graph sat = reasoner::Saturate(g);

  PropertyCliques before = ComputePropertyCliques(DenseGraph(g));
  PropertyCliques after = ComputePropertyCliques(DenseGraph(sat));

  for (const auto& members : before.source_clique_members) {
    std::set<uint32_t> containing;
    for (TermId p : members) {
      auto it = after.property_index.find(p);
      ASSERT_NE(it, after.property_index.end());
      uint32_t clique = after.source_clique_of_property[it->second];
      ASSERT_NE(clique, 0u);
      containing.insert(clique);
    }
    EXPECT_EQ(containing.size(), 1u)
        << "a G clique was split across G∞ cliques";
  }
}

TEST_P(CliqueLemmaTest, NodeCliqueConsistentWithProperties) {
  // SC(r) is the clique of *all* of r's properties.
  gen::HeteroOptions opt;
  opt.seed = GetParam() + 1000;
  opt.num_nodes = 100;
  Graph g = gen::GenerateHetero(opt);
  PropertyCliques c = ComputePropertyCliques(DenseGraph(g));
  for (const Triple& t : g.data()) {
    uint32_t sc = c.SourceCliqueOf(t.s);
    auto it = c.property_index.find(t.p);
    ASSERT_NE(it, c.property_index.end());
    EXPECT_EQ(sc, c.source_clique_of_property[it->second]);
    uint32_t tc = c.TargetCliqueOf(t.o);
    EXPECT_EQ(tc, c.target_clique_of_property[it->second]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CliqueLemmaTest,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 17, 23));

TEST(SaturatedCliqueTest, AddsSuperProperties) {
  Graph g;
  Dictionary& d = g.dict();
  TermId p = d.EncodeIri("p"), q = d.EncodeIri("q"), r = d.EncodeIri("r");
  g.Add({p, g.vocab().subproperty, q});
  g.Add({q, g.vocab().subproperty, r});
  reasoner::SchemaIndex idx(g);
  auto sat = SaturatedPropertySet({p}, idx);
  EXPECT_EQ(sat.size(), 3u);
  auto none = SaturatedPropertySet({r}, idx);
  EXPECT_EQ(none.size(), 1u);
}

TEST(CliqueEdgeCaseTest, EmptyGraph) {
  Graph g;
  PropertyCliques c = ComputePropertyCliques(DenseGraph(g));
  EXPECT_EQ(c.num_source_cliques, 0u);
  EXPECT_EQ(c.num_target_cliques, 0u);
}

TEST(CliqueEdgeCaseTest, SelfLoopJoinsBothSides) {
  Graph g;
  Dictionary& d = g.dict();
  TermId n = d.EncodeIri("n"), p = d.EncodeIri("p");
  g.Add({n, p, n});
  PropertyCliques c = ComputePropertyCliques(DenseGraph(g));
  EXPECT_EQ(c.SourceCliqueOf(n), 1u);
  EXPECT_EQ(c.TargetCliqueOf(n), 1u);
}

}  // namespace
}  // namespace rdfsum::summary
