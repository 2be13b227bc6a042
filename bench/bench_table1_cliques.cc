// Reproduces Table 1: the source and target cliques of every resource of the
// Figure 2 sample graph, plus clique-computation throughput on BSBM.

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "bench_common.h"
#include "gen/paper_example.h"
#include "io/dot_writer.h"
#include "summary/cliques.h"
#include "util/csv.h"

namespace rdfsum {
namespace {

using bench::CachedBsbm;
using summary::CliqueScope;
using summary::ComputePropertyCliques;
using summary::PropertyCliques;

std::string CliqueToString(const Graph& g,
                           const std::vector<std::vector<TermId>>& members,
                           uint32_t id) {
  if (id == 0) return "{}";
  std::string out = "{";
  bool first = true;
  for (TermId p : members[id - 1]) {
    if (!first) out += ",";
    out += io::IriLocalName(g.dict().Decode(p).lexical);
    first = false;
  }
  return out + "}";
}

void PrintTable1() {
  gen::Figure2Example ex = gen::BuildFigure2();
  const DenseGraph dg(ex.graph);
  PropertyCliques cliques = ComputePropertyCliques(dg);

  TablePrinter table({"r", "SC(r)", "TC(r)"});
  struct Entry {
    const char* name;
    TermId id;
  };
  const Entry entries[] = {
      {"r1", ex.r1}, {"r2", ex.r2}, {"r3", ex.r3}, {"r4", ex.r4},
      {"r5", ex.r5}, {"a1", ex.a1}, {"t1", ex.t1}, {"t2", ex.t2},
      {"e1", ex.e1}, {"e2", ex.e2}, {"c1", ex.c1}, {"t4", ex.t4},
      {"a2", ex.a2}, {"t3", ex.t3}, {"r6", ex.r6},
  };
  for (const Entry& e : entries) {
    table.AddRow({e.name,
                  CliqueToString(ex.graph, cliques.source_clique_members,
                                 cliques.SourceCliqueOf(e.id)),
                  CliqueToString(ex.graph, cliques.target_clique_members,
                                 cliques.TargetCliqueOf(e.id))});
  }
  table.Print(std::cout,
              "Table 1: source and target cliques of the sample RDF graph");

  TablePrinter distances({"pair", "distance (Definition 6)"});
  distances.AddRow(
      {"d(a,t)", std::to_string(summary::PropertyDistance(
                     dg, ex.author, ex.title, true))});
  distances.AddRow(
      {"d(a,e)", std::to_string(summary::PropertyDistance(
                     dg, ex.author, ex.editor, true))});
  distances.AddRow(
      {"d(a,c)", std::to_string(summary::PropertyDistance(
                     dg, ex.author, ex.comment, true))});
  distances.Print(std::cout, "Property distances in SC1 (§3.1)");
  std::cout.flush();
}

void BM_ComputeCliques(benchmark::State& state) {
  const Graph& g = CachedBsbm(static_cast<uint64_t>(state.range(0)));
  const DenseGraph dg(g);
  for (auto _ : state) {
    auto c = ComputePropertyCliques(dg);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.data().size()));
}
BENCHMARK(BM_ComputeCliques)
    ->Arg(50'000)
    ->Arg(250'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

void BM_ComputeCliquesUntypedScope(benchmark::State& state) {
  const DenseGraph dg(CachedBsbm(static_cast<uint64_t>(state.range(0))));
  for (auto _ : state) {
    auto c = ComputePropertyCliques(dg, CliqueScope::kUntypedEndpoints);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_ComputeCliquesUntypedScope)
    ->Arg(250'000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rdfsum

int main(int argc, char** argv) {
  rdfsum::PrintTable1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
