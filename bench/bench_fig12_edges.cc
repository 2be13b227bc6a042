// Reproduces Figure 12: the number of data edges (top) and of all edges
// (bottom) in the four BSBM summaries. The paper highlights that the largest
// summary stays at most 0.028x of the input ("at most 28210 edges" for
// 10-100M triples) — the edge counts here should stay a few orders of
// magnitude below the triple count, with TW/TS above W/S.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.h"
#include "summary/node_partition.h"
#include "summary/summarizer.h"
#include "util/csv.h"

namespace rdfsum {
namespace {

using bench::BenchScales;
using bench::CachedBsbm;
using bench::Num;
using summary::Summarize;
using summary::SummaryKind;
using summary::SummaryResult;

void PrintFigure12() {
  TablePrinter data_edges(
      {"triples", "Weak", "Strong", "TypedWeak", "TypedStrong"});
  TablePrinter all_edges(
      {"triples", "Weak", "Strong", "TypedWeak", "TypedStrong", "max/input"});
  for (uint64_t scale : BenchScales()) {
    const Graph& g = CachedBsbm(scale);
    SummaryResult w = Summarize(g, SummaryKind::kWeak);
    SummaryResult s = Summarize(g, SummaryKind::kStrong);
    SummaryResult tw = Summarize(g, SummaryKind::kTypedWeak);
    SummaryResult ts = Summarize(g, SummaryKind::kTypedStrong);
    data_edges.AddRow({Num(g.NumTriples()), Num(w.stats.num_data_edges),
                       Num(s.stats.num_data_edges),
                       Num(tw.stats.num_data_edges),
                       Num(ts.stats.num_data_edges)});
    uint64_t max_edges =
        std::max({w.stats.num_all_edges, s.stats.num_all_edges,
                  tw.stats.num_all_edges, ts.stats.num_all_edges});
    double ratio = static_cast<double>(max_edges) /
                   static_cast<double>(g.NumTriples());
    all_edges.AddRow({Num(g.NumTriples()), Num(w.stats.num_all_edges),
                      Num(s.stats.num_all_edges), Num(tw.stats.num_all_edges),
                      Num(ts.stats.num_all_edges), FormatDouble(ratio, 5)});
  }
  data_edges.Print(std::cout,
                   "Figure 12 (top): data edges in BSBM summaries");
  all_edges.Print(std::cout,
                  "Figure 12 (bottom): all edges in BSBM summaries");
  std::cout.flush();
}

// Micro-benchmark: quotient construction alone (partition given), the edge
// emission half of the summarizer.
void BM_QuotientConstruction(benchmark::State& state) {
  const Graph& g = CachedBsbm(100'000);
  summary::NodePartition part = summary::ComputeWeakPartition(DenseGraph(g));
  for (auto _ : state) {
    auto r = summary::QuotientByPartition(g, part, SummaryKind::kWeak).value();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.NumTriples()));
}
BENCHMARK(BM_QuotientConstruction)->Unit(benchmark::kMillisecond);

void BM_WeakPartitionOnly(benchmark::State& state) {
  const Graph& g = CachedBsbm(100'000);
  const DenseGraph dg(g);
  for (auto _ : state) {
    auto part = summary::ComputeWeakPartition(dg);
    benchmark::DoNotOptimize(part);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.NumTriples()));
}
BENCHMARK(BM_WeakPartitionOnly)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rdfsum

int main(int argc, char** argv) {
  rdfsum::PrintFigure12();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
