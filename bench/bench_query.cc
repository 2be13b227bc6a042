// The cost-based BGP engine measured: naive (frozen textual order) vs.
// greedy TableStats plans vs. summary-estimated plans over star/chain/
// snowflake shapes on BSBM and LUBM, plus the planner's estimate error
// (q-error of the final estimated cardinality vs. the true embedding
// count). Wall times land in BENCH_query.json (override the path with
// RDFSUM_BENCH_JSON); q-error records carry a _qerror suffix and are
// dimensionless despite the file's "seconds" unit label.
//
// Query texts are written with the *worst* pattern first, so the naive
// baseline pays the textual order and the planners have something to win.
//
// PR 4 adds two streaming sections at the largest BSBM scale of the sweep:
// limit pushdown (a full drain into a row vector vs. a cursor drained to 10
// rows — the stream_* records) and the hash-join pick on fat intermediates
// (kNever vs. kFromPlan vs. kAlways cursors over unanchored joins — the
// hashjoin_* records). Both re-check result identity against the
// legacy path and fail the run on divergence, like the planner sweep.
//
// Each scale's graph is frozen ONCE to a temporary .rsb and reopened via
// store::MmapStore, and every section's evaluator borrows that store's
// table. Every query runs on one thread.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "gen/lubm.h"
#include "oracle/drain.h"
#include "query/cursor.h"
#include "query/evaluator.h"
#include "query/executor.h"
#include "query/sparql_parser.h"
#include "store/mmap_store.h"
#include "summary/cardinality.h"
#include "summary/summarizer.h"
#include "util/csv.h"
#include "util/timer.h"

namespace rdfsum {
namespace {

using bench::BenchScales;
using bench::CachedBsbm;
using bench::Num;
using bench::TimeRuns;
using query::BgpEvaluator;
using query::BgpQuery;
using query::PlannerMode;
using query::PlannerModeName;

struct ShapeQuery {
  std::string shape;  // "star", "chain", "snowflake"
  std::string sparql;
};

std::vector<ShapeQuery> BsbmQueries() {
  const std::string p = "PREFIX b: <http://bsbm.example.org/>\n";
  return {
      // Star around a product, anchored at one feature. Textually the
      // unselective label pattern (every entity kind has labels) comes
      // first; the planners should start at the anchored feature.
      {"star",
       p +
           "SELECT ?p ?l ?pr WHERE { ?p b:label ?l . ?p b:producer ?pr . "
           "?p b:productFeature <http://bsbm.example.org/feature/Feature0> }"},
      // Offer -> product -> producer chain written from the fat end.
      {"chain",
       p +
           "SELECT ?o ?d WHERE { ?o b:offerProduct ?p . ?o b:deliveryDays ?d "
           ". ?p b:producer <http://bsbm.example.org/producer/Producer0> }"},
      // Snowflake: review star and offer star sharing the product center,
      // anchored at one producer; textual order starts at the reviews.
      {"snowflake",
       p +
           "SELECT ?r ?price WHERE { ?r b:reviewFor ?p . ?r b:reviewer ?x . "
           "?x b:country ?c . ?o b:offerProduct ?p . ?o b:price ?price . "
           "?p b:producer <http://bsbm.example.org/producer/Producer1> }"},
  };
}

std::vector<ShapeQuery> LubmQueries() {
  const std::string p = "PREFIX l: <http://lubm.example.org/>\n";
  return {
      // Person star with the ubiquitous name/email patterns first.
      {"star",
       p +
           "SELECT ?x ?n WHERE { ?x l:name ?n . ?x l:emailAddress ?e . "
           "?x l:worksFor ?d . ?d l:subOrganizationOf ?u }"},
      // Student -> advisor -> department chain from the fat end (name).
      {"chain",
       p +
           "SELECT ?s ?d WHERE { ?s l:name ?n . ?s l:advisor ?a . "
           "?a l:headOf ?d . ?d l:subOrganizationOf ?u }"},
  };
}

BgpQuery MustParse(const std::string& text) {
  auto q = query::ParseSparql(text);
  if (!q.ok()) {
    std::cerr << "bench query failed to parse: " << q.status().ToString()
              << "\n";
    std::abort();
  }
  return std::move(q).value();
}

std::multiset<std::string> CanonicalRows(const std::vector<query::Row>& rows) {
  std::multiset<std::string> out;
  for (const query::Row& row : rows) {
    std::string line;
    for (const Term& t : row) {
      line += t.ToNTriples();
      line += '\t';
    }
    out.insert(std::move(line));
  }
  return out;
}

double QError(double estimate, uint64_t actual) {
  double a = static_cast<double>(actual);
  if (a < 1.0) a = 1.0;
  if (estimate < 1.0) estimate = 1.0;
  return std::max(estimate / a, a / estimate);
}

const Graph& CachedLubm(uint64_t universities) {
  static auto* cache = new std::map<uint64_t, Graph>();
  auto it = cache->find(universities);
  if (it == cache->end()) {
    gen::LubmOptions opt;
    opt.num_universities = universities;
    it = cache->emplace(universities, gen::GenerateLubm(opt)).first;
  }
  return it->second;
}

/// Freezes `g` once per (workload, scale) to a temp .rsb, reopens it via
/// MmapStore, and memoizes the open store for the process lifetime. Every
/// section at a given scale shares this store's borrowed table instead
/// of rebuilding (re-sorting) it from the Graph per evaluator; the one-time
/// freeze+open wall lands in the `<workload>_freeze_open` record.
const store::MmapStore& FrozenStore(bench::BenchJson* json,
                                    const std::string& workload,
                                    const Graph& g) {
  static auto* cache =
      new std::map<std::string, std::unique_ptr<store::MmapStore>>();
  const std::string key =
      workload + "_" + std::to_string(g.NumTriples());
  auto it = cache->find(key);
  if (it == cache->end()) {
    const char* tmp = std::getenv("TMPDIR");
    std::string path = std::string(tmp != nullptr ? tmp : "/tmp") +
                       "/bench_query_" + std::to_string(::getpid()) + "_" +
                       key + ".rsb";
    Timer t;
    Status frozen = store::FreezeGraphToFile(g, path);
    if (!frozen.ok()) {
      std::cerr << "bench freeze failed: " << frozen.ToString() << "\n";
      std::abort();
    }
    auto opened = store::MmapStore::Open(path);
    if (!opened.ok()) {
      std::cerr << "bench open failed: " << opened.status().ToString()
                << "\n";
      std::abort();
    }
    json->Record(workload + "_freeze_open", g.NumTriples(),
                 t.ElapsedSeconds());
    std::remove(path.c_str());  // the open store keeps the mapping alive
    it = cache->emplace(key, std::move(opened).value()).first;
  }
  return *it->second;
}

/// One workload x scale sweep: evaluates every shape under every planner
/// mode, asserts result identity (sets *all_equal false on divergence),
/// and records wall times + q-errors.
void RunWorkload(bench::BenchJson* json, const std::string& workload,
                 const Graph& g, const std::vector<ShapeQuery>& queries,
                 TablePrinter* table, bool* all_equal) {
  // Setup shared by all modes: frozen store once per scale (cached across
  // sections), summary + estimator once. The evaluator borrows the store's
  // already-sorted table, so setup no longer pays a per-section re-sort.
  const store::MmapStore& st = FrozenStore(json, workload, g);
  Timer setup_timer;
  summary::CardinalityEstimator estimator(
      summary::Summarize(g, summary::SummaryKind::kWeak));
  query::EvaluatorOptions options;
  options.estimator = &estimator;
  BgpEvaluator eval(st.dict(), st.table(), options);
  json->Record(workload + "_setup", g.NumTriples(),
               setup_timer.ElapsedSeconds());

  for (const ShapeQuery& sq : queries) {
    BgpQuery q = MustParse(sq.sparql);
    std::map<PlannerMode, double> secs;
    std::multiset<std::string> baseline_rows;
    bool equal = true;
    std::map<PlannerMode, double> qerr;
    for (PlannerMode mode : query::kAllPlannerModes) {
      std::vector<query::Row> rows;
      secs[mode] = TimeRuns(2, [&] {
                     auto r = query::Drain(eval, q, mode);
                     rows = std::move(r).value();
                   }).best();
      json->Record(workload + "_" + sq.shape + "_" + PlannerModeName(mode),
                   g.NumTriples(), secs[mode]);
      if (mode == PlannerMode::kNaive) {
        baseline_rows = CanonicalRows(rows);
      } else {
        equal = equal && CanonicalRows(rows) == baseline_rows;
      }
      if (mode != PlannerMode::kNaive) {
        auto ex = eval.Explain(q, mode);
        double est = ex->plan.steps.empty()
                         ? 0.0
                         : ex->plan.steps.back().estimated_rows;
        qerr[mode] = QError(est, ex->num_embeddings);
        json->Record(
            workload + "_" + sq.shape + "_qerror_" + PlannerModeName(mode),
            g.NumTriples(), qerr[mode]);
      }
    }
    table->AddRow({workload, Num(g.NumTriples()), sq.shape,
                   FormatDouble(secs[PlannerMode::kNaive] * 1e3, 2),
                   FormatDouble(secs[PlannerMode::kGreedy] * 1e3, 2),
                   FormatDouble(secs[PlannerMode::kSummary] * 1e3, 2),
                   FormatDouble(secs[PlannerMode::kNaive] /
                                    std::max(1e-9,
                                             secs[PlannerMode::kGreedy]),
                                1) +
                       "x",
                   FormatDouble(qerr[PlannerMode::kGreedy], 1),
                   FormatDouble(qerr[PlannerMode::kSummary], 1),
                   equal ? "yes" : "NO (bug!)"});
    *all_equal = *all_equal && equal;
  }
}

std::multiset<std::string> DrainCursorCanonical(const BgpEvaluator& eval,
                                                const BgpQuery& q,
                                                query::CursorOptions options,
                                                uint64_t* out_rows) {
  auto cursor = eval.Open(q, options);
  std::multiset<std::string> rows;
  if (!cursor.ok()) {
    std::cerr << "bench open failed: " << cursor.status().ToString() << "\n";
    std::abort();
  }
  query::IdRow row;
  uint64_t n = 0;
  while ((*cursor)->Next(&row)) {
    query::Row decoded = eval.Decode(row);
    std::string line;
    for (const Term& t : decoded) {
      line += t.ToNTriples();
      line += '\t';
    }
    rows.insert(std::move(line));
    ++n;
  }
  if (out_rows != nullptr) *out_rows = n;
  return rows;
}

/// Wall times of `repeats` cursor drains: open a cursor and decode every
/// produced row, like the CLI does.
bench::RunTimes TimeCursorDrains(const BgpEvaluator& eval, const BgpQuery& q,
                                 query::CursorOptions options, int repeats) {
  return TimeRuns(repeats, [&] {
    auto cursor = eval.Open(q, options);
    query::IdRow row;
    while ((*cursor)->Next(&row)) {
      query::Row decoded = eval.Decode(row);
      benchmark::DoNotOptimize(decoded);
    }
  });
}

/// Limit pushdown: a full drain into a row vector vs. a cursor drained to
/// its first 10 distinct rows, per shape, on the greedy plan. The cursor
/// stops scanning once the quota fills, so small limits should beat the
/// materializing path by orders of magnitude on fat results.
void RunStreamingBench(bench::BenchJson* json, const store::MmapStore& st,
                       uint64_t triples, bool* all_equal) {
  BgpEvaluator eval(st.dict(), st.table());
  TablePrinter table({"shape", "rows", "materialize full (ms)",
                      "cursor full (ms)", "cursor limit 10 (ms)",
                      "speedup@10", "equal"});
  std::vector<ShapeQuery> queries = BsbmQueries();
  // The snowflake without its producer anchor: tens of thousands of result
  // rows, the workload where pagination without pushdown hurts most.
  queries.push_back(
      {"snowflake_free",
       "PREFIX b: <http://bsbm.example.org/>\n"
       "SELECT ?r ?price WHERE { ?r b:reviewFor ?p . ?r b:reviewer ?x . "
       "?x b:country ?c . ?o b:offerProduct ?p . ?o b:price ?price }"});
  for (const ShapeQuery& sq : queries) {
    BgpQuery q = MustParse(sq.sparql);
    std::vector<query::Row> materialized;
    double full_materialize = TimeRuns(2, [&] {
                                auto r = query::Drain(eval, q);
                                materialized = std::move(r).value();
                              }).best();
    uint64_t cursor_rows = 0;
    std::multiset<std::string> streamed =
        DrainCursorCanonical(eval, q, {}, &cursor_rows);
    bool equal = streamed == CanonicalRows(materialized);
    double full_cursor = TimeCursorDrains(eval, q, {}, 2).best();
    query::CursorOptions limit10;
    limit10.limit = 10;
    double at10 = TimeCursorDrains(eval, q, limit10, 2).best();
    json->Record("stream_" + sq.shape + "_materialize_full", triples,
                 full_materialize);
    json->Record("stream_" + sq.shape + "_cursor_full", triples,
                 full_cursor);
    json->Record("stream_" + sq.shape + "_cursor_limit10", triples,
                 at10);
    table.AddRow({sq.shape, Num(cursor_rows),
                  FormatDouble(full_materialize * 1e3, 3),
                  FormatDouble(full_cursor * 1e3, 3),
                  FormatDouble(at10 * 1e3, 3),
                  FormatDouble(full_materialize / std::max(1e-9, at10), 1) +
                      "x",
                  equal ? "yes" : "NO (bug!)"});
    *all_equal = *all_equal && equal;
  }
  table.Print(std::cout,
              "Streaming cursors: limit pushdown stops the scan after the "
              "first 10 distinct rows (greedy plans, largest BSBM scale)");
}

constexpr int kHashJoinRuns = 21;

/// Hash joins on fat intermediates: unanchored joins whose probe side is
/// every offer/review. Each shape runs under kNever (index nested loops all
/// the way down), kFromPlan (the planner's join pick) and kAlways (every
/// join step hashed), so the table shows where the pick sits against both
/// extremes. The modes are timed round-robin: kHashJoinRuns rounds of one
/// drain per mode, nlj drained twice, with the order rotated and reversed
/// from round to round, and each mode's row is its median. (Timed one mode
/// after another, two modes compiling the same tree read 25% apart.) Every
/// row carries the within-run A/A spread, the median |a-b| of a round's two
/// nlj drains; a gap between modes below it is noise.
void RunHashJoinBench(bench::BenchJson* json, const store::MmapStore& st,
                      uint64_t triples, bool* all_equal) {
  const std::string p = "PREFIX b: <http://bsbm.example.org/>\n";
  const std::vector<ShapeQuery> queries = {
      // Every offer probes its price: the probe side is all offerProduct
      // triples, the build side all price triples. The probes lead with
      // the bound offer (SPO), so the pick keeps the nested loop.
      {"fatchain",
       p + "SELECT ?o ?price WHERE { ?o b:offerProduct ?p . "
           "?o b:price ?price }"},
      // Review x offer join on the shared product, then the price lookup.
      // The offer step probes POS with the constant predicate leading: the
      // one step the pick hashes.
      {"fatstar",
       p + "SELECT ?r ?price WHERE { ?r b:reviewFor ?p . "
           "?o b:offerProduct ?p . ?o b:price ?price }"},
  };
  BgpEvaluator eval(st.dict(), st.table());
  TablePrinter table({"query", "flagged steps", "rows", "nlj (ms)",
                      "pick (ms)", "hash (ms)", "A/A spread (ms)", "equal"});
  const std::pair<const char*, query::HashJoinMode> modes[] = {
      {"nlj", query::HashJoinMode::kNever},
      {"pick", query::HashJoinMode::kFromPlan},
      {"hash", query::HashJoinMode::kAlways}};
  for (const ShapeQuery& sq : queries) {
    BgpQuery q = MustParse(sq.sparql);
    query::QueryPlan plan = eval.Plan(q);
    int flagged = 0;
    for (const query::PlanStep& step : plan.steps) {
      if (step.use_hash_join) ++flagged;
    }
    std::multiset<std::string> reference;
    uint64_t reference_rows = 0;
    bool equal = true;
    for (const auto& [name, mode] : modes) {
      query::CursorOptions options;
      options.hash_join = mode;
      uint64_t rows = 0;
      std::multiset<std::string> got =
          DrainCursorCanonical(eval, q, options, &rows);
      if (mode == query::HashJoinMode::kNever) {
        reference = std::move(got);
        reference_rows = rows;
      } else {
        equal = equal && got == reference && rows == reference_rows;
      }
    }
    // secs[m][round] for m = nlj, pick, hash, then nlj's A/A twin. Each
    // round starts one mode later, and odd rounds run the cycle backwards,
    // so no mode always follows the same one (on fatchain nlj and pick
    // drain the same tree, and the second of two such drains finds warmer
    // caches).
    std::vector<std::vector<double>> secs(4);
    for (int round = 0; round < kHashJoinRuns; ++round) {
      for (int k = 0; k < 4; ++k) {
        const int m = (round + (round % 2 == 0 ? k : 4 - k)) % 4;
        query::CursorOptions options;
        options.hash_join = modes[m % 3].second;
        secs[m].push_back(TimeCursorDrains(eval, q, options, 1).best());
      }
    }
    auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    std::vector<double> aa;
    for (int round = 0; round < kHashJoinRuns; ++round) {
      aa.push_back(std::abs(secs[0][round] - secs[3][round]));
    }
    const double spread = median(aa);
    std::vector<std::string> row = {sq.shape, std::to_string(flagged),
                                    Num(reference_rows)};
    for (int m = 0; m < 3; ++m) {
      const double t = median(secs[m]);
      json->RecordWithSpread("hashjoin_" + sq.shape + "_" + modes[m].first,
                             triples, t, spread);
      row.push_back(FormatDouble(t * 1e3, 2));
    }
    row.push_back(FormatDouble(spread * 1e3, 2));
    row.push_back(equal ? "yes" : "NO (bug!)");
    table.AddRow(row);
    *all_equal = *all_equal && equal;
  }
  table.Print(std::cout,
              "Hash joins on fat intermediates: nested loops (kNever), the "
              "planner's pick (kFromPlan) and every step hashed (kAlways), "
              "largest BSBM scale");
}

/// Returns false when any planner mode diverged from the naive rows.
bool PrintQueryBench() {
  bench::BenchJson json("bench_query");
  json.MetaInt("hardware_concurrency", std::thread::hardware_concurrency());
  TablePrinter table({"workload", "triples", "shape", "naive (ms)",
                      "greedy (ms)", "summary (ms)", "speedup",
                      "qerr greedy", "qerr summary", "equal"});
  // BSBM scales: query evaluation is per-row work, so cap the sweep at
  // 250k triples (RDFSUM_BENCH_MAX_TRIPLES lowers it further).
  bool all_equal = true;
  for (uint64_t scale : BenchScales()) {
    if (scale > 250'000) continue;
    RunWorkload(&json, "bsbm", CachedBsbm(scale), BsbmQueries(), &table,
                &all_equal);
  }
  for (uint64_t universities : {2ull, 10ull}) {
    RunWorkload(&json, "lubm", CachedLubm(universities), LubmQueries(),
                &table, &all_equal);
  }
  table.Print(std::cout,
              "Cost-based BGP planning: naive vs. greedy vs. summary "
              "(q-error = est/actual of final cardinality)");

  // Streaming sections at the largest BSBM scale the sweep reached.
  uint64_t stream_scale = 0;
  for (uint64_t scale : BenchScales()) {
    if (scale <= 250'000) stream_scale = scale;
  }
  if (stream_scale > 0) {
    const Graph& g = CachedBsbm(stream_scale);
    const store::MmapStore& st = FrozenStore(&json, "bsbm", g);
    RunStreamingBench(&json, st, g.NumTriples(), &all_equal);
    RunHashJoinBench(&json, st, g.NumTriples(), &all_equal);
  }
  const char* path = std::getenv("RDFSUM_BENCH_JSON");
  std::string out = path != nullptr ? path : "BENCH_query.json";
  if (json.WriteFile(out)) {
    std::cout << "wrote " << out << "\n";
  } else {
    std::cerr << "failed to write " << out << "\n";
  }
  std::cout.flush();
  if (!all_equal) {
    std::cerr << "bench_query: planner modes diverged from the naive result "
                 "set (see the 'equal' column) — this is a correctness bug\n";
  }
  return all_equal;
}

void BM_PlanAndExecute(benchmark::State& state) {
  const Graph& g = CachedBsbm(100'000);
  summary::CardinalityEstimator estimator(
      summary::Summarize(g, summary::SummaryKind::kWeak));
  query::EvaluatorOptions options;
  options.estimator = &estimator;
  BgpEvaluator eval(g, options);
  BgpQuery q = MustParse(BsbmQueries()[0].sparql);
  auto mode = static_cast<PlannerMode>(state.range(0));
  for (auto _ : state) {
    auto rows = query::Drain(eval, q, mode);
    benchmark::DoNotOptimize(rows);
  }
  state.SetLabel(PlannerModeName(mode));
}
BENCHMARK(BM_PlanAndExecute)
    ->Arg(static_cast<int>(PlannerMode::kNaive))
    ->Arg(static_cast<int>(PlannerMode::kGreedy))
    ->Arg(static_cast<int>(PlannerMode::kSummary))
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rdfsum

int main(int argc, char** argv) {
  // A divergence fails the run so CI's bench smoke gates on it.
  if (!rdfsum::PrintQueryBench()) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
