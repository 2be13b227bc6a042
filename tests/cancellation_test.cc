// The cancellation wall (satellite of the governance PR): cooperative
// cancellation must be prompt (observed within one ExecContext check
// interval), clean (no partial output escapes, no crash), and barrier-safe
// (threaded summarization shards fall through their join instead of
// deadlocking). The randomized tests run under TSan in CI — a worker that
// raced the cancel token would be flagged there.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>

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

TEST(CancellationTest, PreCancelledThreadedSummarizeFails) {
  for (uint32_t threads : {2u, 4u, 8u}) {
    util::ExecContext ctx;
    ctx.Cancel();
    summary::SummaryOptions options;
    options.exec = &ctx;
    options.num_threads = threads;
    auto r = summary::TrySummarize(TestGraph(), summary::SummaryKind::kWeak,
                                   options);
    ASSERT_FALSE(r.ok()) << "threads " << threads;
    EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  }
}

TEST(CancellationTest, CancelledPartitionReturnsEmptyAndStickyStatus) {
  for (uint32_t threads : {1u, 4u}) {
    util::ExecContext ctx;
    ctx.Cancel();
    summary::NodePartition part =
        summary::ComputeWeakPartition(DenseGraph(TestGraph()), threads, &ctx);
    EXPECT_TRUE(part.class_of.empty()) << "threads " << threads;
    EXPECT_TRUE(ctx.Check().IsCancelled()) << "threads " << threads;
  }
}

// Randomized cancellation points: a canceller thread fires after a random
// delay while threaded summarization runs. Every iteration must terminate
// (no shard deadlocks on its join barrier) and return either a complete
// correct summary or kCancelled — nothing in between.
TEST(CancellationTest, RandomizedMidFlightCancellation) {
  const Graph& g = TestGraph();
  const uint64_t expected_triples =
      summary::Summarize(g, summary::SummaryKind::kWeak).graph.NumTriples();
  std::mt19937_64 rng(20260808);
  int cancelled_runs = 0, completed_runs = 0;
  for (int iter = 0; iter < 30; ++iter) {
    util::ExecContext ctx;
    summary::SummaryOptions options;
    options.exec = &ctx;
    options.num_threads = 4;
    const auto delay = std::chrono::microseconds(rng() % 3000);
    std::thread canceller([&ctx, delay] {
      std::this_thread::sleep_for(delay);
      ctx.Cancel();
    });
    auto r =
        summary::TrySummarize(g, summary::SummaryKind::kWeak, options);
    canceller.join();
    if (r.ok()) {
      ++completed_runs;
      EXPECT_EQ(r->graph.NumTriples(), expected_triples);
    } else {
      ++cancelled_runs;
      EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
    }
  }
  // Not asserted in ratio (timing-dependent), but both outcomes existing in
  // a typical run is what gives the test its coverage; log for the curious.
  SCOPED_TRACE(testing::Message() << completed_runs << " completed, "
                                  << cancelled_runs << " cancelled");
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
