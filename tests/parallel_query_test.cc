// Differential wall for morsel-driven parallel query execution (PR 10):
// with ExecutorOptions::parallelism != 1 the gather-merged stream must be
// BYTE-identical — same rows, same order — to the sequential cursor tree
// for every planner mode x {BSBM, LUBM, paper, hetero} x thread count,
// including forced hash joins (shared partitioned builds) and forced
// nested loops, and limit/offset slices that tear the gather down
// mid-stream. Parallelism must never change answers — only wall-clock.
//
// The wall also pins the governance story: the fan-out gate keeps small
// scans sequential, budget trips (rows, deadline, cancellation, memory)
// surface mid-fan-out without deadlocking the shared pool, every
// outstanding memory charge is refunded by teardown, and randomized
// mid-flight cancellation (x30) always joins. Runs under TSan in CI.
//
// The wall forces pool workers (kForceWorkers) so the exchange machinery
// runs even on a 1-core host, where kAuto compiles the sequential tree; a
// dedicated section checks that kAuto, whatever this host resolves it to,
// agrees with the sequential stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gen/bsbm.h"
#include "gen/hetero.h"
#include "gen/lubm.h"
#include "gen/paper_example.h"
#include "query/evaluator.h"
#include "query/executor.h"
#include "query/rbgp.h"
#include "query/sparql_parser.h"
#include "reasoner/saturation.h"
#include "util/exec_context.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace rdfsum::query {
namespace {

BgpQuery MustParse(const std::string& text) {
  auto q = ParseSparql(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
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

/// Drains Open()'s cursor; the cursor must end OK (asserted).
std::vector<Row> DrainCursor(const BgpEvaluator& eval, const BgpQuery& q,
                             PlannerMode mode, CursorOptions options = {}) {
  auto cursor = eval.Open(q, mode, options);
  EXPECT_TRUE(cursor.ok()) << q.ToString();
  std::vector<Row> rows;
  IdRow row;
  while ((*cursor)->Next(&row)) rows.push_back(eval.Decode(row));
  EXPECT_TRUE((*cursor)->status().ok())
      << (*cursor)->status().ToString() << "\n" << q.ToString();
  return rows;
}

/// Options that force fan-out on small test fixtures: gate at one row,
/// tiny morsels so every query sees a many-morsel schedule. Pins
/// kForceWorkers: on a single-CPU host kAuto compiles the sequential tree,
/// which would silently skip the exchange machinery (workers, run-ahead
/// window, ordered merge) this wall exists to exercise.
CursorOptions Parallel(uint32_t threads, CursorOptions base = {}) {
  base.parallelism = threads;
  base.min_parallel_rows = 1;
  base.morsel_rows = 16;
  base.worker_mode = ParallelWorkerMode::kForceWorkers;
  return base;
}

// 1 re-checks the sequential route, 2/4 split evenly, 7 leaves a ragged
// last morsel assignment, 8 oversubscribes the 1-core CI runner, 0 = all
// hardware threads.
constexpr uint32_t kThreadCounts[] = {1, 2, 4, 7, 8, 0};

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
  return w;
}

Workload HeteroWorkload() {
  gen::HeteroOptions opt;
  opt.num_nodes = 150;
  opt.seed = 17;
  return Workload{"hetero", gen::GenerateHetero(opt), {}};
}

class ParallelQueryTest : public ::testing::TestWithParam<bool> {};

void RunDifferential(const Workload& w, bool saturate) {
  Graph target = saturate ? reasoner::Saturate(w.graph) : w.graph.Clone();
  BgpEvaluator eval(target);

  std::vector<BgpQuery> queries = w.fixed_queries;
  Random rng(42);
  for (int i = 0; i < 8; ++i) {
    BgpQuery q = GenerateRbgpQuery(target, rng);
    if (!q.triples.empty()) queries.push_back(std::move(q));
  }

  for (const BgpQuery& q : queries) {
    for (PlannerMode mode : kAllPlannerModes) {
      for (HashJoinMode hj :
           {HashJoinMode::kFromPlan, HashJoinMode::kNever,
            HashJoinMode::kAlways}) {
        CursorOptions seq;
        seq.hash_join = hj;
        std::vector<std::string> full =
            Exact(DrainCursor(eval, q, mode, seq));
        for (uint32_t threads : kThreadCounts) {
          // 1. Byte-identity at every thread count, every join algorithm:
          // nested loops probe the indexes per morsel; forced hash joins
          // probe one shared partitioned build.
          CursorOptions par = Parallel(threads, seq);
          EXPECT_EQ(Exact(DrainCursor(eval, q, mode, par)), full)
              << w.name << " mode=" << PlannerModeName(mode)
              << " hj=" << static_cast<int>(hj) << " threads=" << threads
              << " saturate=" << saturate << "\n"
              << q.ToString();
        }
        // 2. Limit slices equal the same window of the full stream, and
        // tear the gather down with morsels still in flight (early-exit
        // teardown is the hard path: workers must observe stop and fall
        // through the join).
        for (size_t limit : {size_t{0}, size_t{1}, size_t{3}}) {
          CursorOptions slice = Parallel(4, seq);
          slice.limit = limit;
          slice.offset = 1;
          std::vector<std::string> got =
              Exact(DrainCursor(eval, q, mode, slice));
          std::vector<std::string> expected;
          for (size_t i = 1; i < full.size() && expected.size() < limit;
               ++i) {
            expected.push_back(full[i]);
          }
          EXPECT_EQ(got, expected)
              << w.name << " mode=" << PlannerModeName(mode)
              << " limit=" << limit << "\n"
              << q.ToString();
        }
      }
    }
  }
}

TEST_P(ParallelQueryTest, Bsbm) { RunDifferential(BsbmWorkload(), GetParam()); }
TEST_P(ParallelQueryTest, Lubm) { RunDifferential(LubmWorkload(), GetParam()); }
TEST_P(ParallelQueryTest, Paper) {
  RunDifferential(PaperWorkload(), GetParam());
}
TEST_P(ParallelQueryTest, Hetero) {
  RunDifferential(HeteroWorkload(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(RawAndSaturated, ParallelQueryTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "saturated" : "raw";
                         });

// ----------------------------------------------------------- fan-out gate

bool TreeHasGather(const BgpEvaluator& eval, const BgpQuery& q,
                   CursorOptions options) {
  auto cursor = eval.Open(q, PlannerMode::kGreedy, std::move(options));
  EXPECT_TRUE(cursor.ok());
  std::vector<OperatorStats> ops;
  (*cursor)->CollectOperators(&ops);
  for (const OperatorStats& op : ops) {
    if (op.op.find("ParallelGather") != std::string::npos) return true;
  }
  return false;
}

TEST(ParallelGateTest, SmallScansStaySequentialAtDefaultGate) {
  Workload w = BsbmWorkload();  // a few thousand triples, far under the gate
  BgpEvaluator eval(w.graph);
  CursorOptions options;
  options.parallelism = 8;  // requested, but the gate must refuse
  EXPECT_FALSE(TreeHasGather(eval, w.fixed_queries[0], options));
}

TEST(ParallelGateTest, LoweredGateEngagesAndSequentialRequestNever) {
  Workload w = BsbmWorkload();
  BgpEvaluator eval(w.graph);
  EXPECT_TRUE(TreeHasGather(eval, w.fixed_queries[0], Parallel(4)));
  // parallelism == 1 is the hard sequential switch, gate irrelevant.
  EXPECT_FALSE(TreeHasGather(eval, w.fixed_queries[0], Parallel(1)));
}

// ------------------------------------------------- governance mid-fan-out

struct GovernedFixture {
  Workload w = LubmWorkload();
  BgpEvaluator eval{w.graph};
  BgpQuery q = MustParse(
      "PREFIX l: <http://lubm.example.org/>\n"
      "SELECT ?x ?c WHERE { ?x l:takesCourse ?c . ?x l:advisor ?a }");
  // Enough result rows (> ExecContext::kCheckInterval) that the governed
  // root is guaranteed to poll mid-drain — cancellation/deadline checks
  // are amortized, so tiny results can finish before the first poll.
  BgpQuery big = MustParse(
      "PREFIX l: <http://lubm.example.org/>\n"
      "SELECT ?x ?c WHERE { ?x l:takesCourse ?c }");
};

TEST(ParallelGovernanceTest, RowBudgetTripsMidFanOut) {
  GovernedFixture f;
  util::ExecContext::Limits limits;
  limits.max_rows = 3;
  util::ExecContext ctx(limits);
  CursorOptions options = Parallel(4);
  options.exec = &ctx;
  {
    auto cursor = f.eval.Open(f.q, PlannerMode::kGreedy, options);
    ASSERT_TRUE(cursor.ok());
    IdRow row;
    size_t rows = 0;
    while ((*cursor)->Next(&row)) ++rows;
    EXPECT_TRUE((*cursor)->status().IsResourceExhausted())
        << (*cursor)->status().ToString();
    EXPECT_LE(rows, 3u);
  }
  // All-or-nothing refunds: teardown with morsels in flight leaves no
  // outstanding memory charge.
  EXPECT_EQ(ctx.memory_used(), 0u);
}

TEST(ParallelGovernanceTest, PreCancelledFailsWithoutDeadlock) {
  GovernedFixture f;
  util::ExecContext ctx;
  ctx.Cancel();
  CursorOptions options = Parallel(8);
  options.exec = &ctx;
  auto cursor = f.eval.Open(f.big, PlannerMode::kGreedy, options);
  ASSERT_TRUE(cursor.ok());
  IdRow row;
  while ((*cursor)->Next(&row)) {
  }
  EXPECT_TRUE((*cursor)->status().IsCancelled())
      << (*cursor)->status().ToString();
  EXPECT_EQ(ctx.memory_used(), 0u);
}

TEST(ParallelGovernanceTest, ExpiredDeadlineSurfaces) {
  GovernedFixture f;
  util::ExecContext::Limits limits;
  limits.timeout_ms = 1;
  util::ExecContext ctx(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  CursorOptions options = Parallel(4);
  options.exec = &ctx;
  auto cursor = f.eval.Open(f.big, PlannerMode::kGreedy, options);
  ASSERT_TRUE(cursor.ok());
  IdRow row;
  while ((*cursor)->Next(&row)) {
  }
  EXPECT_TRUE((*cursor)->status().IsDeadlineExceeded())
      << (*cursor)->status().ToString();
  EXPECT_EQ(ctx.memory_used(), 0u);
}

TEST(ParallelGovernanceTest, SharedBuildDegradesUnderMemoryBudget) {
  GovernedFixture f;
  // Sequential forced-hash result first (degrades the same way).
  CursorOptions seq;
  seq.hash_join = HashJoinMode::kAlways;
  std::vector<std::string> full =
      Exact(DrainCursor(f.eval, f.q, PlannerMode::kGreedy, seq));

  util::ExecContext::Limits limits;
  limits.memory_budget_bytes = 1;  // every build charge refused
  util::ExecContext ctx(limits);
  CursorOptions par = Parallel(4, seq);
  par.exec = &ctx;
  EXPECT_EQ(Exact(DrainCursor(f.eval, f.q, PlannerMode::kGreedy, par)), full);
  EXPECT_EQ(ctx.memory_used(), 0u);
}

TEST(ParallelGovernanceTest,
     PartialBudgetDegradesTheSameStepAtEveryThreadCount) {
  // Two hash builds, each of which fits the budget alone but not both:
  // `?s ?p ?o` (62 triples) and `?o <tag> ?z` (6 triples). The compile-time
  // check admits both, so the second build to run is refused after the
  // first one's charges — and must be the same build at every thread count,
  // or t=1 and t>1 degrade different joins and emit different streams.
  Graph g;
  const std::string ex = "http://ex.org/";
  for (int k = 0; k < 8; ++k) {
    g.AddIris(ex + "m", ex + "uses", ex + "p" + std::to_string(k));
  }
  // Tags first, so the o_i are interned in index order: the nested-loop
  // probe of `?s ?p ?o` (POS) and its hash probe (SPO build order) then
  // emit the s_i in different orders, and a wrong degrade shows.
  for (int i = 0; i < 6; ++i) {
    g.AddIris(ex + "o" + std::to_string(i), ex + "tag",
              ex + "z" + std::to_string(i));
  }
  for (int i = 0; i < 6; ++i) {
    for (int k = 0; k < 8; ++k) {
      g.AddIris(ex + "s" + std::to_string(i), ex + "p" + std::to_string(k),
                ex + "o" + std::to_string((5 * i + 3) % 6));
    }
  }
  ASSERT_EQ(g.NumTriples(), 62u);
  BgpEvaluator eval(g);
  BgpQuery q = MustParse(
      "PREFIX e: <http://ex.org/>\n"
      "SELECT ?s ?o ?z WHERE { ?m e:uses ?p . ?s ?p ?o . ?o e:tag ?z }");

  CursorOptions hashed;
  hashed.hash_join = HashJoinMode::kAlways;
  std::vector<std::string> ungoverned =
      Exact(DrainCursor(eval, q, PlannerMode::kNaive, hashed));
  std::sort(ungoverned.begin(), ungoverned.end());
  ASSERT_EQ(ungoverned.size(), 6u);

  auto governed = [&](uint32_t threads) {
    util::ExecContext::Limits limits;
    limits.memory_budget_bytes = 62 * kHashJoinBuildBytesPerRow + 100;
    util::ExecContext ctx(limits);
    CursorOptions options = hashed;
    if (threads > 1) {
      options = Parallel(threads, hashed);
      options.morsel_rows = 2;
    }
    options.exec = &ctx;
    std::vector<std::string> rows =
        Exact(DrainCursor(eval, q, PlannerMode::kNaive, options));
    EXPECT_EQ(ctx.memory_used(), 0u) << "threads=" << threads;
    return rows;
  };
  const std::vector<std::string> sequential = governed(1);
  std::vector<std::string> sorted = sequential;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, ungoverned);
  for (uint32_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(governed(threads), sequential) << "threads=" << threads;
  }
}

TEST(ParallelGovernanceTest, AbandonedCursorJoinsCleanly) {
  // Destroy the gather after a single row with many morsels unconsumed:
  // workers must observe the teardown stop and fall through the join.
  GovernedFixture f;
  util::ExecContext ctx;
  CursorOptions options = Parallel(8);
  options.exec = &ctx;
  for (int i = 0; i < 5; ++i) {
    auto cursor = f.eval.Open(f.q, PlannerMode::kGreedy, options);
    ASSERT_TRUE(cursor.ok());
    IdRow row;
    (*cursor)->Next(&row);
  }
  EXPECT_EQ(ctx.memory_used(), 0u);
}

TEST(ParallelGovernanceTest, RandomizedMidFlightCancel) {
  GovernedFixture f;
  std::vector<std::string> full =
      Exact(DrainCursor(f.eval, f.q, PlannerMode::kGreedy, {}));
  Random rng(7);
  for (int round = 0; round < 30; ++round) {
    util::ExecContext ctx;
    CursorOptions options = Parallel(4);
    options.exec = &ctx;
    auto cursor = f.eval.Open(f.q, PlannerMode::kGreedy, options);
    ASSERT_TRUE(cursor.ok());
    const uint64_t delay_us = rng.Next() % 400;
    std::thread canceller([&ctx, delay_us] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      ctx.Cancel();
    });
    std::vector<Row> rows;
    IdRow row;
    while ((*cursor)->Next(&row)) rows.push_back(f.eval.Decode(row));
    canceller.join();
    const Status& st = (*cursor)->status();
    if (st.ok()) {
      // Won the race: the full, untruncated sequential stream.
      EXPECT_EQ(Exact(rows), full) << "round " << round;
    } else {
      EXPECT_TRUE(st.IsCancelled()) << st.ToString() << " round " << round;
      EXPECT_LE(rows.size(), full.size());
    }
    cursor->reset();
    EXPECT_EQ(ctx.memory_used(), 0u) << "round " << round;
  }
}

// ------------------------------------------------------------- failpoints

TEST(ParallelFaultTest, MorselFailpointFailsTheQueryWithoutDeadlock) {
  if (!util::FaultInjection::compiled_in()) {
    GTEST_SKIP() << "failpoints not compiled in";
  }
  GovernedFixture f;
  util::FaultInjection::Arm("query:morsel",
                           Status::IOError("injected morsel fault"));
  auto cursor = f.eval.Open(f.q, PlannerMode::kGreedy, Parallel(4));
  ASSERT_TRUE(cursor.ok());
  IdRow row;
  while ((*cursor)->Next(&row)) {
  }
  EXPECT_TRUE((*cursor)->status().IsIOError())
      << (*cursor)->status().ToString();
  util::FaultInjection::Clear();
}

TEST(ParallelFaultTest, SharedBuildFailpointDegradesOrFails) {
  if (!util::FaultInjection::compiled_in()) {
    GTEST_SKIP() << "failpoints not compiled in";
  }
  GovernedFixture f;
  CursorOptions hashed = Parallel(4);
  hashed.hash_join = HashJoinMode::kAlways;
  std::vector<std::string> full = Exact(
      DrainCursor(f.eval, f.q, PlannerMode::kGreedy, hashed));

  // ResourceExhausted at the build site = degrade to nested loops, same
  // rows.
  util::FaultInjection::Arm("query:hashjoin-build",
                           Status::ResourceExhausted("injected"));
  EXPECT_EQ(Exact(DrainCursor(f.eval, f.q, PlannerMode::kGreedy, hashed)),
            full);

  // Any other failure fails the query.
  util::FaultInjection::Arm("query:hashjoin-build",
                           Status::IOError("injected build fault"));
  auto cursor = f.eval.Open(f.q, PlannerMode::kGreedy, hashed);
  ASSERT_TRUE(cursor.ok());
  IdRow row;
  while ((*cursor)->Next(&row)) {
  }
  EXPECT_TRUE((*cursor)->status().IsIOError())
      << (*cursor)->status().ToString();
  util::FaultInjection::Clear();
}

// ------------------------------------------------------- kAuto worker mode
//
// kAuto fans out to pool workers on a multi-CPU host and compiles the
// sequential tree on a single-CPU one. Either way the stream is the
// sequential stream.

TEST(ParallelWorkerModeTest, AutoIsByteIdenticalToSequential) {
  Workload w = LubmWorkload();
  BgpEvaluator eval(w.graph);
  for (const BgpQuery& q : w.fixed_queries) {
    for (HashJoinMode hj : {HashJoinMode::kNever, HashJoinMode::kAlways}) {
      CursorOptions seq;
      seq.hash_join = hj;
      std::vector<std::string> full =
          Exact(DrainCursor(eval, q, PlannerMode::kGreedy, seq));
      for (uint32_t threads : {2u, 4u, 8u}) {
        CursorOptions aut = Parallel(threads, seq);
        aut.worker_mode = ParallelWorkerMode::kAuto;
        EXPECT_EQ(Exact(DrainCursor(eval, q, PlannerMode::kGreedy, aut)),
                  full)
            << "hj=" << static_cast<int>(hj) << " threads=" << threads
            << "\n"
            << q.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace rdfsum::query
