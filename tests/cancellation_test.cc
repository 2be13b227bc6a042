// The cancellation wall (satellite of the governance PR): cooperative
// cancellation must be prompt (observed within one ExecContext check
// interval), clean (no partial output escapes, no crash), and race-free: the
// randomized test cancels from another thread while the summarizer runs,
// and runs under TSan in CI, which would flag a racy read of the token.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <iostream>
#include <random>
#include <thread>
#include <utility>

#include "gen/bsbm.h"
#include "io/ntriples_parser.h"
#include "query/evaluator.h"
#include "query/sparql_parser.h"
#include "rdf/graph.h"
#include "summary/node_partition.h"
#include "summary/summarizer.h"
#include "util/exec_context.h"

namespace rdfsum {
namespace {

const Graph& TestGraph() {
  static const Graph* g = [] {
    gen::BsbmOptions opt;
    opt.num_products = 400;
    return new Graph(gen::GenerateBsbm(opt));
  }();
  return *g;
}

query::BgpQuery MustParse(const std::string& text) {
  auto q = query::ParseSparql(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

TEST(CancellationTest, PreCancelledSummarizeFailsWithoutWork) {
  util::ExecContext ctx;
  ctx.Cancel();
  summary::SummaryOptions options;
  options.exec = &ctx;
  auto r = summary::TrySummarize(TestGraph(), summary::SummaryKind::kWeak,
                                 options);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
}

TEST(CancellationTest, CancelledPartitionReturnsEmptyAndStickyStatus) {
  const DenseGraph dg(TestGraph());
  util::ExecContext weak_ctx;
  weak_ctx.Cancel();
  EXPECT_TRUE(
      summary::ComputeWeakPartition(dg, &weak_ctx).class_of.empty());
  EXPECT_TRUE(weak_ctx.Check().IsCancelled());

  util::ExecContext bisim_ctx;
  bisim_ctx.Cancel();
  EXPECT_TRUE(summary::ComputeBisimulationPartition(
                  dg, 2, true, summary::BisimulationDirection::kForwardBackward,
                  &bisim_ctx)
                  .class_of.empty());
  EXPECT_TRUE(bisim_ctx.Check().IsCancelled());
}

// Randomized cancellation points: a canceller thread fires after a random
// delay within the span of an uncancelled run, so the token trips before,
// during or after each pass — the weak union-find pass, the bisimulation
// rounds, and the quotient (alone, over a fixed partition). Every iteration
// must terminate and return either a complete correct summary or
// kCancelled — nothing in between.
TEST(CancellationTest, RandomizedMidFlightCancellation) {
  using Run = std::function<StatusOr<summary::SummaryResult>(
      const summary::SummaryOptions&)>;
  const Graph& g = TestGraph();
  const summary::NodePartition weak =
      summary::ComputeWeakPartition(DenseGraph(g));
  const std::pair<const char*, Run> targets[] = {
      {"weak",
       [&](const summary::SummaryOptions& o) {
         return summary::TrySummarize(g, summary::SummaryKind::kWeak, o);
       }},
      {"bisimulation",
       [&](const summary::SummaryOptions& o) {
         return summary::TrySummarize(g, summary::SummaryKind::kBisimulation,
                                      o);
       }},
      {"quotient",
       [&](const summary::SummaryOptions& o) {
         return summary::QuotientByPartition(g, weak,
                                             summary::SummaryKind::kWeak, o);
       }},
  };
  std::mt19937_64 rng(20260808);
  for (const auto& [name, run] : targets) {
    const auto start = std::chrono::steady_clock::now();
    const uint64_t expected_triples = run({}).value().graph.NumTriples();
    const uint64_t span_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    int cancelled_runs = 0, completed_runs = 0;
    for (int iter = 0; iter < 30; ++iter) {
      util::ExecContext ctx;
      summary::SummaryOptions options;
      options.exec = &ctx;
      const auto delay =
          std::chrono::microseconds(rng() % (span_us * 6 / 5 + 1));
      std::thread canceller([&ctx, delay] {
        std::this_thread::sleep_for(delay);
        ctx.Cancel();
      });
      auto r = run(options);
      canceller.join();
      if (r.ok()) {
        ++completed_runs;
        EXPECT_EQ(r->graph.NumTriples(), expected_triples) << name;
      } else {
        ++cancelled_runs;
        EXPECT_TRUE(r.status().IsCancelled())
            << name << ": " << r.status().ToString();
      }
    }
    // Not asserted in ratio (timing-dependent), but both outcomes existing
    // in a typical run is what gives the test its coverage.
    std::cout << name << ": " << completed_runs << " completed, "
              << cancelled_runs << " cancelled\n";
  }
}

// A cursor stream must stop within one check interval of cancellation: at
// most kCheckInterval further candidate triples are scanned, which bounds
// the rows delivered after Cancel() by kCheckInterval.
TEST(CancellationTest, CursorStopsWithinOneCheckInterval) {
  const Graph& g = TestGraph();
  query::BgpQuery q = MustParse("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }");
  util::ExecContext ctx;
  query::EvaluatorOptions ev_options;
  query::BgpEvaluator eval(g, ev_options);
  query::CursorOptions options;
  options.exec = &ctx;
  auto cursor = eval.Open(q, options);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();

  query::IdRow row;
  uint64_t before = 0;
  while (before < 100 && (*cursor)->Next(&row)) ++before;
  ASSERT_EQ(before, 100u) << "graph too small for the test";
  ctx.Cancel();
  uint64_t after = 0;
  while ((*cursor)->Next(&row)) ++after;
  EXPECT_LE(after, util::ExecContext::kCheckInterval);
  EXPECT_TRUE((*cursor)->status().IsCancelled())
      << (*cursor)->status().ToString();
  // The failure is sticky, like exhaustion.
  EXPECT_FALSE((*cursor)->Next(&row));
  EXPECT_TRUE((*cursor)->status().IsCancelled());
}

TEST(CancellationTest, DeadlineTripsCursorMidStream) {
  const Graph& g = TestGraph();
  query::BgpQuery q = MustParse("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }");
  util::ExecContext::Limits limits;
  limits.timeout_ms = 1;
  util::ExecContext ctx(limits);
  query::BgpEvaluator eval(g);
  query::CursorOptions options;
  options.exec = &ctx;
  auto cursor = eval.Open(q, options);
  ASSERT_TRUE(cursor.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  query::IdRow row;
  uint64_t rows = 0;
  while ((*cursor)->Next(&row)) ++rows;
  // The deadline was already expired before the first pull, so the stream
  // dies within the first check interval.
  EXPECT_LE(rows, util::ExecContext::kCheckInterval);
  EXPECT_TRUE((*cursor)->status().IsDeadlineExceeded())
      << (*cursor)->status().ToString();
}

// Cancelling the governed N-Triples parse aborts with kCancelled.
TEST(CancellationTest, ParserHonoursCancellation) {
  std::string text;
  for (int i = 0; i < 2000; ++i) {
    text += "<http://e/s" + std::to_string(i) + "> <http://e/p> <http://e/o> .\n";
  }
  util::ExecContext ctx;
  ctx.Cancel();
  io::ParseOptions options;
  options.exec = &ctx;
  Graph g;
  Status st = io::NTriplesParser::ParseString(text, &g, nullptr, options);
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
}

}  // namespace
}  // namespace rdfsum
