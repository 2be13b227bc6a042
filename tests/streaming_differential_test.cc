// Differential wall for the streaming executor (PR 4): the cursor-drained
// rows must be byte-identical — same rows, same order — to the legacy
// materializing path across every planner mode x {BSBM, LUBM, paper,
// hetero} x {raw, saturated}, limit/offset slices must equal the matching
// window of the full result stream, and forced hash joins must agree with
// nested loops as sets (chain order can differ from probe-scan order on
// multi-variable keys). Streaming must never change answers — only when
// the work happens.
//
// "Legacy" is not a cursor drain: LegacyPlanRunner below is a frozen
// verbatim copy of the PR 3 backtracking executor, kept as the
// pre-streaming oracle the way tests/oracle/reference_partition freezes the
// pre-substrate algorithms. An executor-wide regression that corrupts every
// cursor drain identically still diverges from this independent
// implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "gen/bsbm.h"
#include "gen/hetero.h"
#include "gen/lubm.h"
#include "gen/paper_example.h"
#include "oracle/drain.h"
#include "query/evaluator.h"
#include "query/executor.h"
#include "query/pruned_evaluator.h"
#include "query/rbgp.h"
#include "query/sparql_parser.h"
#include "reasoner/saturation.h"
#include "store/triple_table.h"
#include "summary/cardinality.h"
#include "summary/summarizer.h"
#include "util/random.h"
#include "util/row_set.h"

namespace rdfsum::query {
namespace {

BgpQuery MustParse(const std::string& text) {
  auto q = ParseSparql(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

// ------------------------------------------- frozen pre-streaming oracle

constexpr TermId kUnbound = kInvalidTermId;

/// The pre-streaming executor: follows plan.steps by backtracking over
/// TripleTable::MatchSpan ranges. Do not "modernize" — its whole
/// value is being the independent materializing implementation the cursor
/// tree is compared against byte-for-byte.
class LegacyPlanRunner {
 public:
  LegacyPlanRunner(const store::TripleTable& table, const QueryPlan& plan)
      : table_(table), plan_(plan) {
    bindings_.assign(plan_.compiled.var_names.size(), kUnbound);
  }

  /// Invokes `fn(bindings)` for each embedding; fn returns false to stop.
  template <typename Fn>
  void Enumerate(Fn&& fn) {
    if (plan_.compiled.impossible) return;
    stop_ = false;
    Recurse(0, fn);
  }

 private:
  store::TriplePattern Instantiate(const CompiledPattern& p) const {
    store::TriplePattern q;
    auto fill = [&](const CompiledSlot& s) -> std::optional<TermId> {
      if (!s.is_var) return s.constant;
      TermId b = bindings_[s.var];
      if (b != kUnbound) return b;
      return std::nullopt;
    };
    q.s = fill(p.s);
    q.p = fill(p.p);
    q.o = fill(p.o);
    return q;
  }

  template <typename Fn>
  void Recurse(size_t depth, Fn&& fn) {
    if (stop_) return;
    if (depth == plan_.steps.size()) {
      if (!fn(bindings_)) stop_ = true;
      return;
    }
    const CompiledPattern& pat =
        plan_.compiled.patterns[plan_.steps[depth].pattern];
    for (const Triple& m : table_.MatchSpan(Instantiate(pat))) {
      uint32_t newly[3];
      int num_newly = 0;
      bool ok = true;
      auto bind = [&](const CompiledSlot& s, TermId value) {
        if (!s.is_var) return;
        TermId cur = bindings_[s.var];
        if (cur == kUnbound) {
          bindings_[s.var] = value;
          newly[num_newly++] = s.var;
        } else if (cur != value) {
          ok = false;
        }
      };
      bind(pat.s, m.s);
      if (ok) bind(pat.p, m.p);
      if (ok) bind(pat.o, m.o);
      if (ok) Recurse(depth + 1, fn);
      for (int i = 0; i < num_newly; ++i) bindings_[newly[i]] = kUnbound;
      if (stop_) return;
    }
  }

  const store::TripleTable& table_;
  const QueryPlan& plan_;
  std::vector<TermId> bindings_;
  bool stop_ = false;
};

struct LegacyResult {
  std::vector<Row> rows;         // discovery order, deduplicated
  uint64_t num_embeddings = 0;
};

/// The PR 3 materializing semantics: enumerate embeddings in plan order, dedup
/// projections with a RowSet, decode at the end.
LegacyResult LegacyEvaluate(const Graph& g, const BgpEvaluator& eval,
                            const BgpQuery& q, PlannerMode mode) {
  QueryPlan plan = eval.Plan(q, mode);
  auto head = ResolveDistinguished(q, plan.compiled);
  EXPECT_TRUE(head.ok()) << q.ToString();
  LegacyResult out;
  util::RowSet dedup(head->size());
  std::vector<TermId> scratch(head->size());
  LegacyPlanRunner runner(eval.table(), plan);
  runner.Enumerate([&](const std::vector<TermId>& bindings) {
    ++out.num_embeddings;
    for (size_t i = 0; i < head->size(); ++i) {
      scratch[i] = bindings[(*head)[i]];
    }
    dedup.Insert(scratch.data());
    return true;
  });
  for (size_t r = 0; r < dedup.size(); ++r) {
    Row row;
    row.reserve(head->size());
    const TermId* encoded = dedup.row(r);
    for (size_t i = 0; i < head->size(); ++i) {
      row.push_back(g.dict().Decode(encoded[i]));
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

std::string Render(const Row& row) {
  std::string line;
  for (const Term& t : row) {
    line += t.ToNTriples();
    line += '\t';
  }
  return line;
}

/// Order-preserving rendering: byte-identity includes row order.
std::vector<std::string> Exact(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(Render(row));
  return out;
}

std::vector<Row> DrainCursor(const BgpEvaluator& eval, const BgpQuery& q,
                             PlannerMode mode, CursorOptions options = {}) {
  auto rows = Drain(eval, q, mode, options);
  EXPECT_TRUE(rows.ok()) << q.ToString();
  return rows.ok() ? std::move(rows).value() : std::vector<Row>();
}

struct Workload {
  std::string name;
  Graph graph;
  std::vector<BgpQuery> fixed_queries;
};

Workload BsbmWorkload() {
  gen::BsbmOptions opt;
  opt.num_products = 60;
  Workload w{"bsbm", gen::GenerateBsbm(opt), {}};
  const std::string prefix = "PREFIX b: <http://bsbm.example.org/>\n";
  w.fixed_queries.push_back(MustParse(
      prefix +
      "SELECT ?p ?l WHERE { ?p b:label ?l . ?p b:productFeature ?f . "
      "?p b:producer ?pr . ?pr b:country ?c }"));
  w.fixed_queries.push_back(MustParse(
      prefix +
      "SELECT ?o ?c WHERE { ?pr b:country ?c . ?p b:producer ?pr . "
      "?o b:offerProduct ?p }"));
  w.fixed_queries.push_back(MustParse(
      prefix +
      "SELECT ?r WHERE { ?r b:reviewFor ?p . ?r b:reviewer ?x . "
      "?x b:country ?c . ?p b:productFeature ?f }"));
  return w;
}

Workload LubmWorkload() {
  gen::LubmOptions opt;
  opt.num_universities = 1;
  Workload w{"lubm", gen::GenerateLubm(opt), {}};
  const std::string prefix = "PREFIX l: <http://lubm.example.org/>\n";
  w.fixed_queries.push_back(MustParse(
      prefix +
      "SELECT ?s ?d WHERE { ?s l:advisor ?a . ?a l:worksFor ?d . "
      "?d l:subOrganizationOf ?u }"));
  w.fixed_queries.push_back(MustParse(
      prefix +
      "SELECT ?x WHERE { ?x l:name ?n . ?x l:emailAddress ?e . "
      "?x l:worksFor ?dep }"));
  w.fixed_queries.push_back(MustParse(
      prefix + "ASK WHERE { ?x l:headOf ?d . ?x l:takesCourse ?c }"));
  return w;
}

Workload PaperWorkload() {
  gen::BookExample book = gen::BuildBookExample();
  Workload w{"paper", book.graph.Clone(), {}};
  const std::string prefix = "PREFIX b: <http://example.org/book/>\n";
  w.fixed_queries.push_back(MustParse(
      prefix +
      "SELECT ?x3 WHERE { ?x1 b:hasAuthor ?x2 . ?x2 b:hasName ?x3 . "
      "?x1 b:hasTitle \"Le Port des Brumes\" }"));
  w.fixed_queries.push_back(
      MustParse(prefix + "SELECT ?x WHERE { ?x a b:Publication }"));
  return w;
}

Workload HeteroWorkload() {
  gen::HeteroOptions opt;
  opt.num_nodes = 150;
  opt.seed = 17;
  return Workload{"hetero", gen::GenerateHetero(opt), {}};
}

class StreamingDifferentialTest : public ::testing::TestWithParam<bool> {};

void RunDifferential(const Workload& w, bool saturate) {
  Graph target = saturate ? reasoner::Saturate(w.graph) : w.graph.Clone();
  summary::CardinalityEstimator estimator(
      summary::Summarize(target, summary::SummaryKind::kWeak));
  EvaluatorOptions options;
  options.estimator = &estimator;
  BgpEvaluator eval(target, options);

  std::vector<BgpQuery> queries = w.fixed_queries;
  Random rng(42);
  for (int i = 0; i < 10; ++i) {
    BgpQuery q = GenerateRbgpQuery(target, rng);
    if (!q.triples.empty()) queries.push_back(std::move(q));
  }

  for (const BgpQuery& q : queries) {
    for (PlannerMode mode : kAllPlannerModes) {
      // 1. Byte-identity: the cursor drains the very rows the frozen PR 3
      // backtracking executor materializes, in the same order.
      LegacyResult legacy = LegacyEvaluate(target, eval, q, mode);
      std::vector<std::string> full = Exact(legacy.rows);
      EXPECT_EQ(Exact(DrainCursor(eval, q, mode)), full)
          << w.name << " mode=" << PlannerModeName(mode)
          << " saturate=" << saturate << "\n"
          << q.ToString();
      // Embedding counts must survive the executor swap as well.
      EXPECT_EQ(eval.Explain(q, mode)->num_embeddings, legacy.num_embeddings)
          << q.ToString();

      // 2. Limit/offset pushdown: every slice equals the same window of
      // the full stream.
      for (size_t offset : {size_t{0}, size_t{1}, size_t{5}}) {
        for (size_t limit : {size_t{0}, size_t{1}, size_t{3}}) {
          CursorOptions slice;
          slice.limit = limit;
          slice.offset = offset;
          std::vector<std::string> got =
              Exact(DrainCursor(eval, q, mode, slice));
          std::vector<std::string> expected;
          for (size_t i = offset;
               i < full.size() && expected.size() < limit; ++i) {
            expected.push_back(full[i]);
          }
          EXPECT_EQ(got, expected)
              << w.name << " mode=" << PlannerModeName(mode)
              << " limit=" << limit << " offset=" << offset << "\n"
              << q.ToString();
        }
      }

      // 3. Forced hash joins return the same result set (order may differ
      // from the nested-loop stream on multi-variable keys).
      CursorOptions hashed;
      hashed.hash_join = HashJoinMode::kAlways;
      std::vector<std::string> hash_rows =
          Exact(DrainCursor(eval, q, mode, hashed));
      std::multiset<std::string> hash_set(hash_rows.begin(),
                                          hash_rows.end());
      EXPECT_EQ(hash_set,
                std::multiset<std::string>(full.begin(), full.end()))
          << w.name << " mode=" << PlannerModeName(mode) << " (hash)\n"
          << q.ToString();
    }
  }
}

TEST_P(StreamingDifferentialTest, Bsbm) {
  RunDifferential(BsbmWorkload(), GetParam());
}
TEST_P(StreamingDifferentialTest, Lubm) {
  RunDifferential(LubmWorkload(), GetParam());
}
TEST_P(StreamingDifferentialTest, Paper) {
  RunDifferential(PaperWorkload(), GetParam());
}
TEST_P(StreamingDifferentialTest, Hetero) {
  RunDifferential(HeteroWorkload(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(RawAndSaturated, StreamingDifferentialTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "saturated" : "raw";
                         });

// The pruned evaluator's cursor must drain exactly the rows the frozen
// backtracking executor produces over Saturate(g) under the greedy plan —
// the plan the pruned evaluator runs on its graph side — and nothing at
// all for the queries its summary pruned (Proposition 1: those are empty
// on G∞, so the oracle agrees). Random RBGP queries over G∞ are never
// empty; the fixed ones below join properties whose weak-summary classes
// never meet, so the summary proves them empty.
TEST(PrunedStreamingTest, OpenMatchesLegacyGreedyOnSaturation) {
  gen::LubmOptions opt;
  opt.num_universities = 1;
  Graph g = gen::GenerateLubm(opt);
  Graph saturated = reasoner::Saturate(g);
  auto pruned_or = SummaryPrunedEvaluator::Create(g);
  ASSERT_TRUE(pruned_or.ok()) << pruned_or.status().ToString();
  SummaryPrunedEvaluator& pruned = **pruned_or;
  BgpEvaluator reference(saturated);

  const std::string prefix = "PREFIX l: <http://lubm.example.org/>\n";
  std::vector<BgpQuery> queries = {
      MustParse(prefix +
                "SELECT ?x WHERE { ?x l:takesCourse ?c . "
                "?c l:takesCourse ?y }"),
      MustParse(prefix +
                "SELECT ?x ?e WHERE { ?x l:emailAddress ?e . "
                "?e l:name ?n }"),
  };
  Random rng(5);
  for (int i = 0; i < 10; ++i) {
    BgpQuery q = GenerateRbgpQuery(saturated, rng);
    if (!q.triples.empty()) queries.push_back(std::move(q));
  }

  uint64_t num_pruned = 0;
  for (const BgpQuery& q : queries) {
    const uint64_t pruned_before = pruned.stats().pruned_by_summary;
    auto streamed = Drain(pruned, q);
    ASSERT_TRUE(streamed.ok()) << q.ToString();
    const bool was_pruned = pruned.stats().pruned_by_summary > pruned_before;
    num_pruned += was_pruned ? 1 : 0;
    if (was_pruned) {
      EXPECT_TRUE(streamed->empty()) << q.ToString();
    }
    EXPECT_EQ(Exact(*streamed),
              Exact(LegacyEvaluate(saturated, reference, q,
                                   PlannerMode::kGreedy)
                        .rows))
        << q.ToString();
  }
  // Both arms ran: some queries were pruned, some reached the graph.
  EXPECT_GT(num_pruned, 0u);
  EXPECT_LT(num_pruned, queries.size());
}

}  // namespace
}  // namespace rdfsum::query
