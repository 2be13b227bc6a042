// The paper's §9 future work — parallel summarization — measured: the one
// sharded summarizer path (weak partition, quotient, full pipeline, and the
// bisimulation baseline) across a thread sweep, each result checked against
// the test oracles (tests/oracle/), plus parallel ingestion and the streaming
// maintainer's per-triple cost. Wall times land in BENCH_parallel.json
// (override the path with RDFSUM_BENCH_JSON) so the scaling trajectory can
// be tracked and diffed across PRs.

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
#include "util/parallel_for.h"
#include "util/timer.h"

namespace rdfsum {
namespace {

using bench::BenchScales;
using bench::CachedBsbm;
using bench::Num;
using summary::ComputeBisimulationPartition;
using summary::ComputeWeakPartition;
using summary::NodePartition;
using summary::QuotientByPartition;
using summary::Summarize;
using summary::SummaryKind;
using summary::SummaryOptions;

constexpr uint32_t kSweepThreads[] = {1, 2, 4, 8};
static_assert(kSweepThreads[0] == 1, "the _sequential rows are the t=1 run");

SummaryOptions Threads(uint32_t num_threads) {
  SummaryOptions options;
  options.num_threads = num_threads;
  return options;
}

/// Best-of-two wall time; the first run doubles as warm-up (single-shot
/// timings at small scales are dominated by allocator/page-fault
/// cold-start, not the algorithm).
template <typename Fn>
double BestOfTwo(Fn&& fn) {
  Timer t1;
  fn();
  double first = t1.ElapsedSeconds();
  Timer t2;
  fn();
  return std::min(first, t2.ElapsedSeconds());
}

/// One measurement at one thread count: wall time, whether the result
/// matched the oracle, and the thread count the runtime actually used for
/// the dominant sharded phase (ResolveThreadCount of the requested count
/// against that phase's work size; phases over smaller inputs — the type
/// scan, bisimulation's node ranges — may resolve lower).
struct ParallelRun {
  double seconds = 0.0;
  bool matched = false;
  uint32_t effective_threads = 0;
};

// One thread sweep over the bench scales: `oracle(g)` prepares the oracle
// result for the scale (untimed), then `run(g, threads)` times the library
// at each thread count and checks it against that oracle. Records land in
// the JSON as <prefix>_p<threads>, each carrying its requested and effective
// thread counts, and <prefix>_sequential, which is the t=1 run (one shard
// on the calling thread — there is no other build path). Any oracle
// mismatch clears *all_equal (the caller turns that into a non-zero exit).
template <typename Oracle, typename Run>
void PrintSweep(bench::BenchJson* json, const std::string& prefix,
                const std::string& title, bool* all_equal, Oracle&& oracle,
                Run&& run) {
  TablePrinter table({"triples", "1t (ms)", "2t (ms)", "4t (ms)", "8t (ms)",
                      "speedup@4", "equal"});
  for (uint64_t scale : BenchScales()) {
    const Graph& g = CachedBsbm(scale);
    const DenseGraph dg(g);  // substrate of the partition-only runs below
    oracle(g);

    std::vector<ParallelRun> runs;
    for (uint32_t threads : kSweepThreads) {
      runs.push_back(run(g, dg, threads));
    }
    json->RecordThreads(prefix + "_sequential", scale, runs[0].seconds, 1, 1);
    std::vector<std::string> row = {Num(g.NumTriples())};
    double at1 = runs[0].seconds;
    double at4 = at1;
    bool equal = true;
    for (size_t i = 0; i < runs.size(); ++i) {
      const uint32_t threads = kSweepThreads[i];
      json->RecordThreads(prefix + "_p" + std::to_string(threads), scale,
                          runs[i].seconds, threads, runs[i].effective_threads);
      row.push_back(FormatDouble(runs[i].seconds * 1e3, 1));
      if (threads == 4) at4 = runs[i].seconds;
      equal = equal && runs[i].matched;
    }
    row.push_back(FormatDouble(at1 / at4, 2) + "x");
    row.push_back(equal ? "yes" : "NO (bug!)");
    *all_equal = *all_equal && equal;
    table.AddRow(row);
  }
  table.Print(std::cout, title);
}

// Partition + quotient through the Summarize facade with
// SummaryOptions::num_threads — what `rdfsum summarize --threads N` runs.
// The weak_* and pipeline_* rows of BENCH_parallel.json time this same
// call (they predate the single build path); both are kept so the file's
// history stays comparable.
void PrintParallelWeak(bench::BenchJson* json, const std::string& prefix,
                       const std::string& title, bool* all_equal) {
  summary::SummaryResult oracle;
  PrintSweep(
      json, prefix, title, all_equal,
      [&](const Graph& g) {
        oracle = summary::ReferenceSummarize(g, SummaryKind::kWeak).value();
      },
      [&](const Graph& g, const DenseGraph& dg, uint32_t threads) {
        summary::SummaryResult r;
        double secs = BestOfTwo(
            [&] { r = Summarize(g, SummaryKind::kWeak, Threads(threads)); });
        bool matched =
            r.graph.NumTriples() == oracle.graph.NumTriples() &&
            summary::AreSummariesIsomorphic(oracle.graph, r.graph);
        return ParallelRun{
            secs, matched,
            util::ResolveThreadCount(threads, dg.num_data_edges())};
      });
}

// Partition construction alone — the phase the sharded scan parallelizes.
void PrintParallelWeakPartitionOnly(bench::BenchJson* json, bool* all_equal) {
  summary::ReferencePartition oracle;
  PrintSweep(
      json, "weak_partition",
      "Sharded weak partition only (quotient excluded)", all_equal,
      [&](const Graph& g) { oracle = summary::ReferenceWeakPartition(g); },
      [&](const Graph&, const DenseGraph& dg, uint32_t threads) {
        NodePartition part;
        double secs =
            BestOfTwo([&] { part = ComputeWeakPartition(dg, threads); });
        return ParallelRun{
            secs, summary::PartitionMismatch(dg, part, oracle).empty(),
            util::ResolveThreadCount(threads, dg.num_data_edges())};
      });
}

// Quotient construction alone over a fixed weak partition, checked against
// the oracle's sequential quotient walk over the oracle's partition (the
// weak_partition sweep holds the two partitions equal).
void PrintParallelQuotient(bench::BenchJson* json, bool* all_equal) {
  NodePartition part;
  summary::SummaryResult oracle;
  PrintSweep(
      json, "quotient",
      "Sharded quotient construction (fixed weak partition)", all_equal,
      [&](const Graph& g) {
        part = ComputeWeakPartition(DenseGraph(g));
        oracle = summary::ReferenceQuotient(
                     g, summary::ReferenceWeakPartition(g), SummaryKind::kWeak)
                     .value();
      },
      [&](const Graph& g, const DenseGraph& dg, uint32_t threads) {
        summary::SummaryResult r;
        double secs = BestOfTwo([&] {
          r = QuotientByPartition(g, part, SummaryKind::kWeak,
                                  Threads(threads))
                  .value();
        });
        bool matched =
            r.graph.NumTriples() == oracle.graph.NumTriples() &&
            r.stats.num_all_nodes == oracle.stats.num_all_nodes &&
            summary::AreSummariesIsomorphic(oracle.graph, r.graph);
        return ParallelRun{
            secs, matched,
            util::ResolveThreadCount(threads, dg.num_data_edges())};
      });
}

void PrintParallelBisimulation(bench::BenchJson* json, bool* all_equal) {
  summary::ReferencePartition oracle;
  PrintSweep(
      json, "bisim", "Sharded bisimulation refinement (depth 2, typed)",
      all_equal,
      [&](const Graph& g) {
        oracle = summary::ReferenceBisimulationPartition(g, 2, true);
      },
      [&](const Graph&, const DenseGraph& dg, uint32_t threads) {
        NodePartition part;
        double secs = BestOfTwo([&] {
          part = ComputeBisimulationPartition(
              dg, 2, true, summary::BisimulationDirection::kForwardBackward,
              threads);
        });
        return ParallelRun{
            secs, summary::PartitionMismatch(dg, part, oracle).empty(),
            util::ResolveThreadCount(threads, dg.num_nodes())};
      });
}

// The ingestion pipeline this PR parallelizes: N-Triples parse (chunked),
// dictionary merge + replay, and TripleTable::Build, swept across thread
// counts. Each row records the requested and effective thread counts
// (effective = chunks the parser actually split into) plus the phase
// breakdown; any deviation from the sequential load — triples, ids, or
// frozen SPO permutation — clears *all_equal.
void PrintParallelLoad(bench::BenchJson* json, bool* all_equal) {
  struct LoadRun {
    double total = 0.0;
    double freeze_seconds = 0.0;
    io::ParseStats stats;
    Graph g;
    std::vector<Triple> spo;
    bool ok = false;
  };
  auto run_once = [](const std::string& input, uint32_t threads,
                     LoadRun* out) {
    Timer t;
    out->g = Graph();
    out->stats = io::ParseStats();
    io::ParseOptions options;
    options.num_threads = threads;
    out->ok =
        io::NTriplesParser::ParseString(input, &out->g, &out->stats, options)
            .ok();
    std::vector<Triple> rows = out->g.Triples();
    Timer ft;
    const store::TripleTable table =
        store::TripleTable::Build(std::move(rows), threads);
    out->freeze_seconds = ft.ElapsedSeconds();
    out->total = t.ElapsedSeconds();
    auto spo = table.Permutation(store::IndexKind::kSpo);
    out->spo.assign(spo.begin(), spo.end());
  };
  // Best-of-two like the other sweeps, keeping the stats of the faster run.
  auto best_of_two = [&](const std::string& input, uint32_t threads,
                         LoadRun* out) {
    LoadRun second;
    run_once(input, threads, out);
    run_once(input, threads, &second);
    if (second.total < out->total) *out = std::move(second);
  };

  TablePrinter table({"triples", "sequential (ms)", "1t (ms)", "2t (ms)",
                      "4t (ms)", "8t (ms)", "speedup@4", "equal"});
  for (uint64_t scale : BenchScales()) {
    const std::string input = io::NTriplesWriter::ToString(CachedBsbm(scale));
    LoadRun seq;
    best_of_two(input, 1, &seq);
    json->RecordLoad("load_sequential", scale, seq.total, 1, 1,
                     seq.stats.parse_seconds, seq.stats.intern_seconds,
                     seq.freeze_seconds);

    std::vector<std::string> row = {Num(seq.g.NumTriples()),
                                    FormatDouble(seq.total * 1e3, 1)};
    double at4 = seq.total;
    bool equal = seq.ok;
    for (uint32_t threads : kSweepThreads) {
      LoadRun par;
      best_of_two(input, threads, &par);
      json->RecordLoad("load_p" + std::to_string(threads), scale, par.total,
                       threads, par.stats.chunks, par.stats.parse_seconds,
                       par.stats.intern_seconds, par.freeze_seconds);
      row.push_back(FormatDouble(par.total * 1e3, 1));
      if (threads == 4) at4 = par.total;
      // Byte-identity: same triples with the same ids in the same insertion
      // order, same dictionary size, same frozen SPO permutation.
      equal = equal && par.ok && par.g.data() == seq.g.data() &&
              par.g.types() == seq.g.types() &&
              par.g.schema() == seq.g.schema() &&
              par.g.dict().size() == seq.g.dict().size() &&
              par.spo == seq.spo;
    }
    row.push_back(FormatDouble(seq.total / at4, 2) + "x");
    row.push_back(equal ? "yes" : "NO (bug!)");
    *all_equal = *all_equal && equal;
    table.AddRow(row);
  }
  table.Print(std::cout,
              "Parallel ingestion: chunked parse + dict merge + Freeze");
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
  // Interpretation context: speedups are bounded by the cores of the
  // machine that produced the file (per-row threads_effective records what
  // each measurement actually ran with).
  json.MetaInt("hardware_concurrency", std::thread::hardware_concurrency());
  bool all_equal = true;
  PrintParallelLoad(&json, &all_equal);
  PrintParallelWeak(&json, "weak",
                    "Future work (§9): parallel weak summarization "
                    "(substrate-sharded)",
                    &all_equal);
  PrintParallelWeakPartitionOnly(&json, &all_equal);
  PrintParallelQuotient(&json, &all_equal);
  PrintParallelWeak(&json, "pipeline",
                    "Parallel pipeline: partition + quotient (Summarize, weak)",
                    &all_equal);
  PrintParallelBisimulation(&json, &all_equal);
  PrintMaintenance();
  const char* path = std::getenv("RDFSUM_BENCH_JSON");
  std::string out = path != nullptr ? path : "BENCH_parallel.json";
  bool wrote = json.WriteFile(out);
  if (wrote) {
    std::cout << "wrote " << out << "\n";
  } else {
    // Failing loudly matters: CI's quotient gate reads this file next and
    // would otherwise silently validate a stale committed copy.
    std::cerr << "failed to write " << out << "\n";
  }
  if (!all_equal) {
    std::cerr << "BUG: a sweep diverged from its oracle or its sequential "
                 "baseline (see the 'equal' columns above)\n";
  }
  std::cout.flush();
  return all_equal && wrote;
}

void BM_ParallelWeak(benchmark::State& state) {
  const Graph& g = CachedBsbm(250'000);
  const SummaryOptions options =
      Threads(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    auto r = Summarize(g, SummaryKind::kWeak, options);
    benchmark::DoNotOptimize(r);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ParallelWeak)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

void BM_ParallelBisimulation(benchmark::State& state) {
  const Graph& g = CachedBsbm(250'000);
  const SummaryOptions options =
      Threads(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    auto r = Summarize(g, SummaryKind::kBisimulation, options);
    benchmark::DoNotOptimize(r);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ParallelBisimulation)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

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
  // A parallel/sequential divergence is a correctness bug, not a perf
  // datapoint: fail the run so CI's bench smoke gates on it.
  if (!rdfsum::PrintParallel()) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
