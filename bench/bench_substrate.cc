// Substrate micro-benchmarks: the N-Triples parser/writer, the dictionary,
// the triple-table pattern scans the query evaluator builds on, and the
// DenseGraph dense-ID substrate.
//
// Besides the google-benchmark microbenches, main() runs a before/after
// partition sweep — reference (pre-substrate, hash-map indexed) vs current
// (DenseGraph) weak and strong partitions across the BSBM scales — a
// warm-start sweep and an anchored-probe sweep, and writes the results to
// BENCH_substrate.json for cross-PR tracking.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "io/ntriples_parser.h"
#include "io/ntriples_writer.h"
#include "oracle/reference_partition.h"
#include "rdf/dense_graph.h"
#include "store/mmap_store.h"
#include "store/triple_table.h"
#include "summary/node_partition.h"
#include "util/random.h"
#include "util/timer.h"

namespace rdfsum {
namespace {

using bench::CachedBsbm;

void BM_NTriplesWrite(benchmark::State& state) {
  const Graph& g = CachedBsbm(100'000);
  for (auto _ : state) {
    std::string text = io::NTriplesWriter::ToString(g);
    benchmark::DoNotOptimize(text);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.NumTriples()));
}
BENCHMARK(BM_NTriplesWrite)->Unit(benchmark::kMillisecond);

void BM_NTriplesParse(benchmark::State& state) {
  const Graph& g = CachedBsbm(100'000);
  std::string text = io::NTriplesWriter::ToString(g);
  for (auto _ : state) {
    Graph parsed;
    io::ParseStats stats;
    auto st = io::NTriplesParser::ParseString(text, &parsed, &stats);
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.NumTriples()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_NTriplesParse)->Unit(benchmark::kMillisecond);

void BM_DictionaryEncode(benchmark::State& state) {
  for (auto _ : state) {
    Dictionary dict;
    for (int i = 0; i < 10000; ++i) {
      dict.EncodeIri("http://bench.example.org/resource/" +
                     std::to_string(i % 4096));
    }
    benchmark::DoNotOptimize(dict);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_DictionaryEncode);

void BM_DenseGraphBuild(benchmark::State& state) {
  const Graph& g = CachedBsbm(250'000);
  for (auto _ : state) {
    DenseGraph dg(g);
    benchmark::DoNotOptimize(dg);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.NumTriples()));
}
BENCHMARK(BM_DenseGraphBuild)->Unit(benchmark::kMillisecond);

void BM_WeakPartition(benchmark::State& state) {
  const Graph& g = CachedBsbm(250'000);
  const DenseGraph dg(g);  // built once, outside the loop
  for (auto _ : state) {
    auto part = summary::ComputeWeakPartition(dg);
    benchmark::DoNotOptimize(part);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.NumTriples()));
}
BENCHMARK(BM_WeakPartition)->Unit(benchmark::kMillisecond);

void BM_TripleTableFreeze(benchmark::State& state) {
  const std::vector<Triple> rows = CachedBsbm(250'000).Triples();
  for (auto _ : state) {
    store::TripleTable table = store::TripleTable::Build(rows);
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_TripleTableFreeze)->Unit(benchmark::kMillisecond);

void BM_TripleTableScanByProperty(benchmark::State& state) {
  const Graph& g = CachedBsbm(250'000);
  const store::TripleTable table = store::TripleTable::Build(g.Triples());
  // Scan every property id round-robin.
  std::vector<TermId> props;
  for (const Triple& t : g.data()) props.push_back(t.p);
  Random rng(5);
  size_t i = 0;
  for (auto _ : state) {
    store::TriplePattern q;
    q.p = props[i++ % props.size()];
    benchmark::DoNotOptimize(table.Count(q));
  }
}
BENCHMARK(BM_TripleTableScanByProperty)->Unit(benchmark::kMicrosecond);

void BM_TripleTablePointLookup(benchmark::State& state) {
  const std::vector<Triple> rows = CachedBsbm(250'000).Triples();
  const store::TripleTable table = store::TripleTable::Build(rows);
  size_t i = 0;
  for (auto _ : state) {
    const Triple& t = rows[i++ % rows.size()];
    benchmark::DoNotOptimize(table.Count({t.s, t.p, t.o}));
  }
}
BENCHMARK(BM_TripleTablePointLookup);

/// Before/after sweep: pre-substrate reference partitions vs the DenseGraph
/// implementations, at every BSBM bench scale. Substrate construction is
/// timed separately and also folded into the "cold" numbers so the speedup
/// claim does not hide the build cost.
void RunPartitionSweep(bench::BenchJson& json) {
  std::printf(
      "\n%-12s %-12s %-12s %-12s %-12s %-12s %-10s %-10s\n", "scale",
      "ref_weak", "ref_strong", "dense_build", "weak", "strong", "speedupW",
      "speedupS");
  for (uint64_t scale : bench::BenchScales()) {
    const Graph& g = bench::CachedBsbm(scale);

    Timer t;
    auto ref_weak = summary::ReferenceWeakPartition(g);
    double ref_weak_s = t.ElapsedSeconds();
    t.Reset();
    auto ref_strong = summary::ReferenceStrongPartition(g);
    double ref_strong_s = t.ElapsedSeconds();

    // One substrate build, timed on its own; the partitions below read it.
    t.Reset();
    const DenseGraph dg(g);
    double build_s = t.ElapsedSeconds();
    benchmark::DoNotOptimize(&dg);

    t.Reset();
    auto weak = summary::ComputeWeakPartition(dg);
    double weak_s = t.ElapsedSeconds();
    t.Reset();
    auto strong = summary::ComputeStrongPartition(dg);
    double strong_s = t.ElapsedSeconds();

    // The sweep doubles as a correctness check at full bench scale.
    if (!summary::PartitionMismatch(dg, weak, ref_weak).empty() ||
        !summary::PartitionMismatch(dg, strong, ref_strong).empty()) {
      std::printf("MISMATCH against reference at scale %llu\n",
                  static_cast<unsigned long long>(scale));
      std::exit(1);
    }

    json.Record("weak_partition_reference", scale, ref_weak_s);
    json.Record("strong_partition_reference", scale, ref_strong_s);
    json.Record("dense_graph_build", scale, build_s);
    json.Record("weak_partition", scale, weak_s);
    json.Record("strong_partition", scale, strong_s);
    json.Record("weak_plus_strong_reference", scale, ref_weak_s + ref_strong_s);
    json.Record("weak_plus_strong_with_build", scale,
                build_s + weak_s + strong_s);

    std::printf(
        "%-12s %-12.4f %-12.4f %-12.4f %-12.4f %-12.4f %-10.2f %-10.2f\n",
        bench::Num(scale).c_str(), ref_weak_s, ref_strong_s, build_s, weak_s,
        strong_s, ref_weak_s / weak_s, ref_strong_s / strong_s);
  }
}

/// Warm-start sweep (the mmap-store tentpole's headline number): wall time
/// from a cold file to the first answered pattern count, parse path (.nt ->
/// Graph -> TripleTable::Build) vs store path (MmapStore::Open over a
/// frozen image, checksums verified).
void RunWarmstartSweep(bench::BenchJson& json) {
  const char* tmp_env = std::getenv("TMPDIR");
  const std::string tmp = tmp_env != nullptr ? tmp_env : "/tmp";
  std::printf("\n%-12s %-14s %-14s %-10s %-14s\n", "scale", "parse_s",
              "mmap_s", "speedup", "image_bytes");
  for (uint64_t scale : bench::BenchScales()) {
    if (scale != 50'000 && scale != 250'000 && scale != 1'000'000) continue;
    const Graph& g = bench::CachedBsbm(scale);
    const std::string base =
        tmp + "/rdfsum_warmstart_" + std::to_string(scale);
    if (!io::NTriplesWriter::WriteFile(g, base + ".nt").ok() ||
        !store::FreezeGraphToFile(g, base + ".rsb").ok()) {
      std::printf("FAILED to stage warm-start files at scale %llu\n",
                  static_cast<unsigned long long>(scale));
      std::exit(1);
    }
    const Term probe = g.dict().Decode(g.data().front().p);

    // Parse path: everything between "the process has a file" and "the
    // first pattern count comes back".
    Timer t;
    Graph parsed;
    if (!io::NTriplesParser::ParseFile(base + ".nt", &parsed).ok()) {
      std::exit(1);
    }
    const store::TripleTable table =
        store::TripleTable::Build(parsed.Triples());
    store::TriplePattern q;
    q.p = parsed.dict().Lookup(probe);
    uint64_t parse_count = table.Count(q);
    benchmark::DoNotOptimize(parse_count);
    double parse_s = t.ElapsedSeconds();

    // Store path: mmap + corruption wall + the same count, zero-copy.
    t.Reset();
    auto store = store::MmapStore::Open(base + ".rsb");
    if (!store.ok()) std::exit(1);
    store::TriplePattern q2;
    q2.p = (*store)->dict().Lookup(probe);
    uint64_t mmap_count = (*store)->table().Count(q2);
    benchmark::DoNotOptimize(mmap_count);
    double mmap_s = t.ElapsedSeconds();

    if (parse_count != mmap_count) {
      std::printf("MISMATCH: warm-start counts differ at scale %llu\n",
                  static_cast<unsigned long long>(scale));
      std::exit(1);
    }

    json.Record("warmstart_parse", scale, parse_s);
    json.Record("warmstart_mmap", scale, mmap_s);
    std::printf("%-12s %-14.4f %-14.4f %-10.1f %-14llu\n",
                bench::Num(scale).c_str(), parse_s, mmap_s, parse_s / mmap_s,
                static_cast<unsigned long long>((*store)->image().size()));
    std::remove((base + ".nt").c_str());
    std::remove((base + ".rsb").c_str());
  }
}

/// Anchored-probe sweep: the cost of one TripleTable::MatchSpan as an
/// index nested-loop join issues it, with the index's leading key bound:
/// SPO (s,p), POS (p,o) and OSP (o). The keys come from rows sampled at
/// random, so consecutive probes land far apart in the index, as a join's
/// do.
void RunProbeSweep(bench::BenchJson& json) {
  constexpr size_t kKeys = 1 << 16;
  constexpr size_t kRounds = 8;
  struct Probe {
    const char* name;
    store::TriplePattern (*pattern)(const Triple& t);
  };
  constexpr Probe kProbes[] = {
      {"probe_spo_sp",
       [](const Triple& t) { return store::TriplePattern{t.s, t.p, {}}; }},
      {"probe_pos_po",
       [](const Triple& t) { return store::TriplePattern{{}, t.p, t.o}; }},
      {"probe_osp_o",
       [](const Triple& t) { return store::TriplePattern{{}, {}, t.o}; }},
  };
  std::printf("\n%-12s %-16s %-16s %-16s\n", "scale", "spo_sp_ns",
              "pos_po_ns", "osp_o_ns");
  for (uint64_t scale : bench::BenchScales()) {
    if (scale != 100'000 && scale != 250'000 && scale != 1'000'000) continue;
    const std::vector<Triple> rows = CachedBsbm(scale).Triples();
    const store::TripleTable table = store::TripleTable::Build(rows);
    Random rng(11);
    std::vector<Triple> keys(kKeys);
    for (Triple& k : keys) k = rows[rng.Uniform(rows.size())];
    std::printf("%-12s", bench::Num(scale).c_str());
    for (const Probe& probe : kProbes) {
      size_t matched = 0;
      Timer t;
      for (size_t r = 0; r < kRounds; ++r) {
        for (const Triple& k : keys) {
          matched += table.MatchSpan(probe.pattern(k)).size();
        }
      }
      const double ns = t.ElapsedSeconds() * 1e9 / (kRounds * kKeys);
      benchmark::DoNotOptimize(matched);
      if (matched < kRounds * kKeys) {
        std::printf("\nMISMATCH: a sampled row did not match its own %s\n",
                    probe.name);
        std::exit(1);
      }
      json.RecordNsPerProbe(probe.name, scale, ns);
      std::printf(" %-16.1f", ns);
    }
    std::printf("\n");
  }
}

void RunSweeps() {
  bench::BenchJson json("bench_substrate");
  RunPartitionSweep(json);
  RunWarmstartSweep(json);
  RunProbeSweep(json);
  const char* path = std::getenv("RDFSUM_BENCH_JSON");
  std::string out = path != nullptr ? path : "BENCH_substrate.json";
  if (json.WriteFile(out)) {
    std::printf("\nwrote %s\n", out.c_str());
  } else {
    std::printf("\nFAILED to write %s\n", out.c_str());
  }
}

}  // namespace
}  // namespace rdfsum

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Sweeps first: the partition sweep relies on every cached graph's
  // substrate being cold.
  rdfsum::RunSweeps();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
