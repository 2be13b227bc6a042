// Design ablations called out in DESIGN.md:
//   1. Batch union-find weak summarizer (our production path) vs the paper's
//      incremental Algorithms 1-3 (§6.2).
//   2. Within the incremental algorithm, the "merge the node with fewer
//      edges" heuristic vs arbitrary merge order.
// Both variants must produce isomorphic summaries (the binary exits non-zero
// when one does not); the interesting output is the cost difference.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.h"
#include "summary/incremental_weak.h"
#include "summary/isomorphism.h"
#include "summary/summarizer.h"
#include "util/csv.h"
#include "util/timer.h"

namespace rdfsum {
namespace {

using bench::BenchScales;
using bench::CachedBsbm;
using bench::Num;
using summary::IncrementalWeakOptions;
using summary::IncrementalWeakSummarize;
using summary::Summarize;
using summary::SummaryKind;

/// Prints the ablation table; returns false if any variant's summary is not
/// isomorphic to the batch one.
bool PrintAblation() {
  bool all_iso = true;
  TablePrinter table({"triples", "batch UF (ms)", "incremental (ms)",
                      "incr. arbitrary-merge (ms)", "isomorphic"});
  for (uint64_t scale : BenchScales()) {
    const Graph& g = CachedBsbm(scale);

    Timer t1;
    auto batch = Summarize(g, SummaryKind::kWeak);
    double batch_s = t1.ElapsedSeconds();

    Timer t2;
    auto incremental = IncrementalWeakSummarize(g);
    double incr_s = t2.ElapsedSeconds();

    IncrementalWeakOptions arbitrary;
    arbitrary.merge_smaller_node = false;
    Timer t3;
    auto incr_arbitrary = IncrementalWeakSummarize(g, arbitrary);
    double arb_s = t3.ElapsedSeconds();

    bool iso =
        summary::AreSummariesIsomorphic(batch.graph, incremental.graph) &&
        summary::AreSummariesIsomorphic(batch.graph, incr_arbitrary.graph);
    table.AddRow({Num(g.NumTriples()), FormatDouble(batch_s * 1e3, 1),
                  FormatDouble(incr_s * 1e3, 1), FormatDouble(arb_s * 1e3, 1),
                  iso ? "yes" : "NO (bug!)"});
    all_iso = all_iso && iso;
  }
  table.Print(std::cout,
              "Ablation: weak summary algorithms (batch vs Algorithms 1-3)");
  std::cout.flush();
  return all_iso;
}

void BM_BatchWeak(benchmark::State& state) {
  const Graph& g = CachedBsbm(250'000);
  for (auto _ : state) {
    auto r = Summarize(g, SummaryKind::kWeak);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_BatchWeak)->Unit(benchmark::kMillisecond);

void BM_IncrementalWeak(benchmark::State& state) {
  const Graph& g = CachedBsbm(250'000);
  for (auto _ : state) {
    auto r = IncrementalWeakSummarize(g);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_IncrementalWeak)->Unit(benchmark::kMillisecond);

void BM_IncrementalWeakArbitraryMerge(benchmark::State& state) {
  const Graph& g = CachedBsbm(250'000);
  IncrementalWeakOptions options;
  options.merge_smaller_node = false;
  for (auto _ : state) {
    auto r = IncrementalWeakSummarize(g, options);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_IncrementalWeakArbitraryMerge)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rdfsum

int main(int argc, char** argv) {
  const bool all_iso = rdfsum::PrintAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return all_iso ? 0 : 1;
}
