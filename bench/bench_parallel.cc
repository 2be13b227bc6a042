// Summarization at scale on one thread — the paper's Algorithms 1-3 and
// Figure 13 describe a single-threaded summarizer, and a sharded build of
// it (the paper's §9 future work) did not reach 1.5x at four threads here,
// so it was collapsed to the one-pass code. This bench times that code
// phase by phase (weak partition, quotient, the full Summarize pipeline,
// and the bisimulation baseline), each result checked against the test
// oracles (tests/oracle/), plus the one-thread N-Triples load (a chunked
// parse did not reach 1.5x at four threads either) and the streaming
// maintainer's per-triple cost. Wall times land in BENCH_parallel.json
// (override the path with RDFSUM_BENCH_JSON) so the trajectory can be
// tracked and diffed across changes.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <thread>
#include <utility>

#include "bench_common.h"
#include "io/ntriples_parser.h"
#include "io/ntriples_writer.h"
#include "oracle/reference_partition.h"
#include "oracle/reference_quotient.h"
#include "rdf/dense_graph.h"
#include "store/triple_table.h"
#include "summary/isomorphism.h"
#include "summary/maintenance.h"
#include "summary/node_partition.h"
#include "summary/summarizer.h"
#include "util/csv.h"
#include "util/timer.h"

namespace rdfsum {
namespace {

using bench::BenchScales;
using bench::CachedBsbm;
using bench::Num;
using bench::TimeRuns;
using summary::ComputeBisimulationPartition;
using summary::ComputeWeakPartition;
using summary::NodePartition;
using summary::SummaryKind;

/// Whether `r` is the oracle's summary up to the names of minted nodes.
bool SameSummary(const summary::SummaryResult& oracle,
                 const summary::SummaryResult& r) {
  return r.graph.NumTriples() == oracle.graph.NumTriples() &&
         r.stats.num_all_nodes == oracle.stats.num_all_nodes &&
         summary::AreSummariesIsomorphic(oracle.graph, r.graph);
}

// The summarizer phase by phase, each checked against the oracles: the weak
// partition alone (over a substrate built once per scale), the quotient
// over that fixed partition (QuotientByPartition, which builds its own
// substrate), the full weak pipeline through Summarize — what `rdfsum
// summarize` and the daemon's mint run — and the bisimulation baseline
// (depth 2, typed, forward-backward). Rows land as <phase>_sequential; any
// oracle mismatch clears *all_equal (the caller turns that into a non-zero
// exit).
void PrintSummarizer(bench::BenchJson* json, bool* all_equal) {
  TablePrinter table({"triples", "weak partition (ms)", "quotient (ms)",
                      "pipeline (ms)", "bisim (ms)", "equal"});
  for (uint64_t scale : BenchScales()) {
    const Graph& g = CachedBsbm(scale);
    const DenseGraph dg(g);
    const summary::ReferencePartition ref_weak =
        summary::ReferenceWeakPartition(g);
    const summary::SummaryResult oracle =
        summary::ReferenceQuotient(g, ref_weak, SummaryKind::kWeak).value();

    NodePartition weak;
    const double weak_s =
        TimeRuns(2, [&] { weak = ComputeWeakPartition(dg); }).best();
    bool equal = summary::PartitionMismatch(dg, weak, ref_weak).empty();

    summary::SummaryResult quotient;
    const double quotient_s =
        TimeRuns(2, [&] {
          quotient = summary::QuotientByPartition(g, weak, SummaryKind::kWeak)
                         .value();
        }).best();
    equal = equal && SameSummary(oracle, quotient);

    summary::SummaryResult pipeline;
    const double pipeline_s =
        TimeRuns(2, [&] {
          pipeline = summary::Summarize(g, SummaryKind::kWeak);
        }).best();
    equal = equal && SameSummary(oracle, pipeline);

    NodePartition bisim;
    const double bisim_s =
        TimeRuns(2, [&] {
          bisim = ComputeBisimulationPartition(dg, 2, true);
        }).best();
    equal = equal &&
            summary::PartitionMismatch(
                dg, bisim, summary::ReferenceBisimulationPartition(g, 2, true))
                .empty();

    json->Record("weak_partition_sequential", scale, weak_s);
    json->Record("quotient_sequential", scale, quotient_s);
    json->Record("pipeline_sequential", scale, pipeline_s);
    json->Record("bisim_sequential", scale, bisim_s);
    table.AddRow({Num(g.NumTriples()), FormatDouble(weak_s * 1e3, 1),
                  FormatDouble(quotient_s * 1e3, 1),
                  FormatDouble(pipeline_s * 1e3, 1),
                  FormatDouble(bisim_s * 1e3, 1),
                  equal ? "yes" : "NO (bug!)"});
    *all_equal = *all_equal && equal;
  }
  table.Print(std::cout,
              "Summarizer on one thread: weak partition, quotient, "
              "Summarize(W), bisimulation (depth 2)");
}

// The load: the N-Triples parse and TripleTable::Build, both on the
// calling thread, timed phase by phase (best of two runs by total). The
// parsed graph must write back to the input text byte for byte, or
// *all_equal is cleared.
void PrintLoad(bench::BenchJson* json, bool* all_equal) {
  TablePrinter table(
      {"triples", "parse (ms)", "freeze (ms)", "total (ms)", "round trip"});
  for (uint64_t scale : BenchScales()) {
    const std::string input = io::NTriplesWriter::ToString(CachedBsbm(scale));
    Graph g;
    bool ok = true;
    double total = 0.0, parse_s = 0.0, freeze_s = 0.0;
    for (int run = 0; run < 2; ++run) {
      g = Graph();
      Timer t;
      ok = io::NTriplesParser::ParseString(input, &g).ok() && ok;
      const double parsed = t.ElapsedSeconds();
      std::vector<Triple> rows = g.Triples();
      Timer ft;
      const store::TripleTable built =
          store::TripleTable::Build(std::move(rows));
      const double frozen = ft.ElapsedSeconds();
      const double elapsed = t.ElapsedSeconds();
      benchmark::DoNotOptimize(built);
      if (run == 0 || elapsed < total) {
        total = elapsed;
        parse_s = parsed;
        freeze_s = frozen;
      }
    }
    const bool equal = ok && io::NTriplesWriter::ToString(g) == input;
    json->RecordLoad("load_sequential", scale, total, parse_s, freeze_s);
    table.AddRow({Num(g.NumTriples()), FormatDouble(parse_s * 1e3, 1),
                  FormatDouble(freeze_s * 1e3, 1), FormatDouble(total * 1e3, 1),
                  equal ? "yes" : "NO (bug!)"});
    *all_equal = *all_equal && equal;
  }
  table.Print(std::cout, "Load on one thread: N-Triples parse + Freeze");
}

void PrintMaintenance() {
  // Streaming maintenance: amortized cost per inserted triple.
  TablePrinter stream({"triples", "maintainer total (ms)", "ns/triple",
                       "snapshot (ms)"});
  for (uint64_t scale : BenchScales()) {
    const Graph& g = CachedBsbm(scale);
    Timer t;
    summary::WeakSummaryMaintainer maintainer(g.dict_ptr());
    g.ForEachTriple(
        [&](const Triple& triple) { maintainer.AddTriple(triple); });
    double feed = t.ElapsedSeconds();
    Timer ts;
    auto snap = maintainer.Snapshot();
    double snap_s = ts.ElapsedSeconds();
    benchmark::DoNotOptimize(snap);
    stream.AddRow({Num(g.NumTriples()), FormatDouble(feed * 1e3, 1),
                   FormatDouble(feed / static_cast<double>(g.NumTriples()) *
                                    1e9,
                                0),
                   FormatDouble(snap_s * 1e3, 2)});
  }
  stream.Print(std::cout, "Streaming maintenance cost (insert-only)");
}

bool PrintParallel() {
  bench::BenchJson json("bench_parallel");
  // Interpretation context: the cores of the machine that produced the
  // file (every row runs on one thread).
  json.MetaInt("hardware_concurrency", std::thread::hardware_concurrency());
  bool all_equal = true;
  PrintLoad(&json, &all_equal);
  PrintSummarizer(&json, &all_equal);
  PrintMaintenance();
  const char* path = std::getenv("RDFSUM_BENCH_JSON");
  std::string out = path != nullptr ? path : "BENCH_parallel.json";
  bool wrote = json.WriteFile(out);
  if (wrote) {
    std::cout << "wrote " << out << "\n";
  } else {
    // Failing loudly matters: CI's bench gate reads this file next and
    // would otherwise silently validate a stale committed copy.
    std::cerr << "failed to write " << out << "\n";
  }
  if (!all_equal) {
    std::cerr << "BUG: a summarizer phase diverged from its oracle or a load "
                 "did not round-trip (see the 'equal' and 'round trip' "
                 "columns above)\n";
  }
  std::cout.flush();
  return all_equal && wrote;
}

void BM_MaintainerInsert(benchmark::State& state) {
  const Graph& g = CachedBsbm(100'000);
  for (auto _ : state) {
    summary::WeakSummaryMaintainer maintainer(g.dict_ptr());
    g.ForEachTriple(
        [&](const Triple& triple) { maintainer.AddTriple(triple); });
    benchmark::DoNotOptimize(maintainer);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.NumTriples()));
}
BENCHMARK(BM_MaintainerInsert)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rdfsum

int main(int argc, char** argv) {
  // An oracle or load divergence is a correctness bug, not a perf
  // datapoint: fail the run so CI's bench smoke gates on it.
  if (!rdfsum::PrintParallel()) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
