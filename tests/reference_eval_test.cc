// Differential testing of the BGP evaluator: an independent, deliberately
// naive reference implementation (no indexes, no join-order heuristics,
// textual pattern order) must produce exactly the same answer sets as
// query::BgpEvaluator on random graphs and random queries.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "gen/hetero.h"
#include "gen/paper_example.h"
#include "oracle/drain.h"
#include "query/evaluator.h"
#include "query/rbgp.h"
#include "query/sparql_parser.h"
#include "util/random.h"

namespace rdfsum::query {
namespace {

using Bindings = std::map<std::string, Term>;

/// Tries to unify a pattern term against a concrete term.
bool UnifyTerm(const PatternTerm& pattern, const Term& value,
               Bindings* bindings) {
  if (!pattern.is_var) return pattern.term == value;
  auto it = bindings->find(pattern.var);
  if (it == bindings->end()) {
    bindings->emplace(pattern.var, value);
    return true;
  }
  return it->second == value;
}

void ReferenceMatch(const Graph& g, const BgpQuery& q, size_t index,
                    Bindings bindings, std::set<std::vector<std::string>>* out) {
  if (index == q.triples.size()) {
    std::vector<std::string> row;
    for (const std::string& v : q.distinguished) {
      row.push_back(bindings.at(v).ToNTriples());
    }
    out->insert(std::move(row));
    return;
  }
  const TriplePatternQ& pattern = q.triples[index];
  g.ForEachTriple([&](const Triple& t) {
    Bindings next = bindings;
    if (!UnifyTerm(pattern.s, g.dict().Decode(t.s), &next)) return;
    if (!UnifyTerm(pattern.p, g.dict().Decode(t.p), &next)) return;
    if (!UnifyTerm(pattern.o, g.dict().Decode(t.o), &next)) return;
    ReferenceMatch(g, q, index + 1, std::move(next), out);
  });
}

std::set<std::vector<std::string>> ReferenceEvaluate(const Graph& g,
                                                     const BgpQuery& q) {
  std::set<std::vector<std::string>> out;
  ReferenceMatch(g, q, 0, {}, &out);
  return out;
}

std::set<std::vector<std::string>> RowsToStrings(const std::vector<Row>& rows) {
  std::set<std::vector<std::string>> out;
  for (const Row& row : rows) {
    std::vector<std::string> r;
    for (const Term& t : row) r.push_back(t.ToNTriples());
    out.insert(std::move(r));
  }
  return out;
}

class ReferenceEvalTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReferenceEvalTest, RandomRbgpQueriesAgree) {
  gen::HeteroOptions opt;
  opt.seed = GetParam();
  opt.num_nodes = 40;  // small enough for the exponential reference
  opt.num_properties = 6;
  opt.mean_out_degree = 2.5;
  opt.type_probability = 0.4;
  Graph g = gen::GenerateHetero(opt);
  BgpEvaluator fast(g);
  Random rng(GetParam() * 17 + 5);
  for (int i = 0; i < 10; ++i) {
    RbgpGeneratorOptions gen_opt;
    gen_opt.num_patterns = 1 + static_cast<uint32_t>(rng.Uniform(3));
    BgpQuery q = GenerateRbgpQuery(g, rng, gen_opt);
    if (q.triples.empty()) continue;
    auto expected = ReferenceEvaluate(g, q);
    auto actual = Drain(fast, q);
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(RowsToStrings(*actual), expected) << q.ToString();
    EXPECT_EQ(fast.ExistsMatch(q), !expected.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceEvalTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ReferenceEvalFixedTest, HandwrittenQueriesAgree) {
  gen::Figure2Example ex = gen::BuildFigure2();
  const std::vector<std::string> queries = {
      "PREFIX f: <http://example.org/fig2/>\n"
      "SELECT ?s ?o WHERE { ?s f:title ?o }",
      "PREFIX f: <http://example.org/fig2/>\n"
      "SELECT ?s WHERE { ?s f:editor ?e . ?s f:comment ?c }",
      "PREFIX f: <http://example.org/fig2/>\n"
      "SELECT ?a ?r WHERE { ?a f:reviewed ?r . ?r f:title ?t }",
      "PREFIX f: <http://example.org/fig2/>\n"
      "SELECT ?x WHERE { ?x a f:Journal }",
      // Constant subject (non-RBGP) still evaluates correctly.
      "PREFIX f: <http://example.org/fig2/>\n"
      "SELECT ?o WHERE { f:r1 f:author ?o }",
  };
  BgpEvaluator fast(ex.graph);
  for (const std::string& text : queries) {
    auto q = ParseSparql(text);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    auto expected = ReferenceEvaluate(ex.graph, *q);
    auto actual = Drain(fast, *q);
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(RowsToStrings(*actual), expected) << text;
  }
}

TEST(ReferenceEvalFixedTest, CartesianProductQuery) {
  // Disconnected patterns: the evaluator must enumerate the cross product.
  Graph g;
  Dictionary& d = g.dict();
  TermId p = d.EncodeIri("http://p"), q_prop = d.EncodeIri("http://q");
  g.Add({d.EncodeIri("http://a1"), p, d.EncodeIri("http://b1")});
  g.Add({d.EncodeIri("http://a2"), p, d.EncodeIri("http://b2")});
  g.Add({d.EncodeIri("http://c1"), q_prop, d.EncodeIri("http://e1")});
  auto query = ParseSparql(
      "SELECT ?x ?y WHERE { ?x <http://p> ?u . ?y <http://q> ?v }");
  ASSERT_TRUE(query.ok());
  BgpEvaluator fast(g);
  auto expected = ReferenceEvaluate(g, *query);
  auto actual = Drain(fast, *query);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(expected.size(), 2u);
  EXPECT_EQ(RowsToStrings(*actual), expected);
}

}  // namespace
}  // namespace rdfsum::query
