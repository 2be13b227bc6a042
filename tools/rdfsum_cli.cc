// rdfsum — command-line front end to the library.
//
//   rdfsum stats     <file>                       dataset profile + phases
//   rdfsum summarize <file> [--kind K] [--out P]  build one/all summaries
//                    [--saturate] [--report] [--strict-typed] [--depth N]
//   rdfsum saturate  <file> [--out out.nt]        materialize G∞
//   rdfsum convert   <in> <out.nt>                Turtle/N-Triples -> N-Triples
//   rdfsum query     <file> <sparql...> [--no-prune] [--explicit-only]
//                    [--plan naive|greedy|summary] [--explain] [--limit N]
//                    [--offset N | --page N] [--stream]
//   rdfsum freeze    <file> [--out graph.rsb]
//                                                 write a frozen store image
//
// stats/summarize/query accept `--store graph.rsb` instead of <file>: the
// image is mmap'd and opened in milliseconds (docs/FORMAT.md) instead of
// re-parsed. A query with --explicit-only --no-prune and a non-summary plan
// runs zero-copy straight off the mapping; everything else materializes the
// graph from the image — still far cheaper than parsing.
//
// Input format is chosen by extension: .ttl/.turtle uses the Turtle parser,
// anything else the N-Triples parser. Every command runs on one thread.

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gen/bsbm.h"
#include "io/dot_writer.h"
#include "io/ntriples_parser.h"
#include "io/ntriples_writer.h"
#include "io/turtle_parser.h"
#include "query/pruned_evaluator.h"
#include "query/sparql_parser.h"
#include "rdf/dense_graph.h"
#include "rdf/graph.h"
#include "rdf/graph_stats.h"
#include "store/mmap_store.h"
#include "reasoner/saturation.h"
#include "server/server.h"
#include "summary/report.h"
#include "summary/summarizer.h"
#include "util/exec_context.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace rdfsum {
namespace {

// Exit-code classes (documented in Usage()): 0 success, 1 other failure,
// 2 usage error, 3 bad input data (parse/corruption/missing file),
// 4 governance trip (deadline/cancellation/budget).
constexpr int kExitUsage = 2;
constexpr int kExitData = 3;
constexpr int kExitBudget = 4;

int ExitCodeFor(const Status& st) {
  if (st.ok()) return 0;
  if (st.IsDeadlineExceeded() || st.IsCancelled() || st.IsResourceExhausted()) {
    return kExitBudget;
  }
  if (st.IsInvalidArgument() || st.IsCorruption() || st.IsIOError() ||
      st.IsNotFound()) {
    return kExitData;
  }
  return 1;
}

int FailStatus(const Status& st) {
  std::cerr << "rdfsum: " << st.ToString() << "\n";
  return ExitCodeFor(st);
}

int Fail(const std::string& msg) {
  std::cerr << "rdfsum: " << msg << "\n";
  return kExitUsage;
}

int Usage() {
  std::cerr <<
      "usage:\n"
      "  rdfsum stats     <file>\n"
      "  rdfsum summarize <file> [--kind W|S|TW|TS|T|BISIM|all] [--out prefix]\n"
      "                   [--saturate] [--report] [--strict-typed] [--depth N]\n"
      "  rdfsum saturate  <file> [--out out.nt]\n"
      "  rdfsum convert   <in.(nt|ttl)> <out.nt>\n"
      "  rdfsum query     <file> <sparql string> [--no-prune] [--explicit-only]\n"
      "                   [--plan naive|greedy|summary] [--explain] [--limit N]\n"
      "                   [--offset N | --page N] [--stream]\n"
      "                   (--explain prints the chosen join order per step:\n"
      "                    pattern, index, join op, est vs. actual rows;\n"
      "                    --page N is 1-based and needs --limit as the page\n"
      "                    size; --stream flushes each row as it is produced)\n"
      "  rdfsum freeze    <file> [--out graph.rsb]\n"
      "                   (writes a frozen store image: mmap-able dictionary,\n"
      "                    SPO/POS/OSP permutations + stats, and the data,\n"
      "                    type and schema triples in insertion order)\n"
      "  rdfsum serve     <graph.rsb> [--host H] [--port N] [--workers N]\n"
      "                   [--queue-depth N] [--no-plan-cache]\n"
      "                   [--plan naive|greedy|summary]\n"
      "                   (daemon over the wire protocol of docs/PROTOCOL.md;\n"
      "                    port 0 picks an ephemeral port, printed on start;\n"
      "                    SIGHUP re-opens the image as a new epoch with zero\n"
      "                    downtime; the governance flags below become the\n"
      "                    per-request default budgets)\n"
      "  rdfsum gen bsbm  <approx-triples> --out <file.nt> [--seed N]\n"
      "                   (deterministic BSBM-shaped dataset, sized by triple\n"
      "                    count — the smoke/bench harnesses' generator)\n"
      "\n"
      "stats/summarize/query accept `--store graph.rsb` instead of <file>:\n"
      "  the frozen image is mmap'd and validated instead of re-parsed, so\n"
      "  the store is queryable in milliseconds; results are byte-identical\n"
      "  to the parse path\n"
      "\n"
      "global resource-governance flags (any command; 0 = unlimited):\n"
      "  --timeout-ms N     wall-clock budget; exceeding it aborts with\n"
      "                     DeadlineExceeded\n"
      "  --max-rows N       query answer-row budget (ResourceExhausted)\n"
      "  --mem-budget-mb N  operator-state budget; hash joins degrade to\n"
      "                     nested-loop instead of exceeding it\n"
      "\n"
      "exit codes: 0 ok; 1 other failure; 2 usage; 3 bad input data\n"
      "  (parse error, corrupt image, missing file); 4 resource\n"
      "  governance trip (timeout, cancellation, row/memory budget)\n";
  return kExitUsage;
}

Status LoadGraph(const std::string& path, Graph* g,
                 util::ExecContext* exec = nullptr) {
  Status st;
  if (EndsWith(path, ".ttl") || EndsWith(path, ".turtle")) {
    io::TurtleParseOptions options;
    options.strict = false;
    options.exec = exec;
    io::TurtleParseStats stats;
    st = io::TurtleParser::ParseFile(path, g, &stats, options);
    if (st.ok() && stats.skipped > 0) {
      std::cerr << "warning: skipped " << stats.skipped
                << " malformed statement(s)\n";
      for (const std::string& d : stats.diagnostics) {
        std::cerr << "  " << d << "\n";
      }
    }
  } else {
    io::ParseOptions options;
    options.strict = false;
    options.exec = exec;
    io::ParseStats stats;
    st = io::NTriplesParser::ParseFile(path, g, &stats, options);
    if (st.ok() && stats.skipped > 0) {
      std::cerr << "warning: skipped " << stats.skipped
                << " malformed line(s)\n";
      for (const std::string& d : stats.diagnostics) {
        std::cerr << "  " << d << "\n";
      }
    }
  }
  return st;
}

/// Strict decimal uint32 parse (ParseDecimal): rejects signs, blanks,
/// trailing characters and out-of-range values.
bool ParseUint32(const std::string& s, uint32_t* out) {
  uint64_t v = 0;
  if (!ParseDecimal(s, UINT32_MAX, &v)) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

bool ParseKind(const std::string& name, summary::SummaryKind* kind) {
  std::string upper;
  for (char c : name) upper.push_back(static_cast<char>(std::toupper(c)));
  if (upper == "W") *kind = summary::SummaryKind::kWeak;
  else if (upper == "S") *kind = summary::SummaryKind::kStrong;
  else if (upper == "TW") *kind = summary::SummaryKind::kTypedWeak;
  else if (upper == "TS") *kind = summary::SummaryKind::kTypedStrong;
  else if (upper == "T") *kind = summary::SummaryKind::kTypeBased;
  else if (upper == "BISIM") *kind = summary::SummaryKind::kBisimulation;
  else return false;
  return true;
}

/// Opens a frozen image and materializes its graph. On success `*store_out`
/// owns the mapping the graph's dictionary borrows — keep it alive as long
/// as the graph.
Status LoadGraphFromStore(const std::string& store_path,
                          std::unique_ptr<store::MmapStore>* store_out,
                          Graph* g) {
  StatusOr<std::unique_ptr<store::MmapStore>> opened =
      store::MmapStore::Open(store_path);
  if (!opened.ok()) return opened.status();
  *g = (*opened)->ToGraph();
  *store_out = std::move(opened).value();
  return Status::OK();
}

/// "parse 12.3 ms" with sub-ms resolution — phase times on small inputs are
/// fractions of a millisecond and "0 ms" breakdowns diagnose nothing.
std::string PhaseMs(const char* name, double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s %.2f ms", name, seconds * 1e3);
  return buf;
}

int CmdStats(const std::vector<std::string>& args, util::ExecContext* exec) {
  std::string store_path;
  std::vector<std::string> positional;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--store" && i + 1 < args.size()) store_path = args[++i];
    else if (StartsWith(args[i], "--")) return Fail("unknown option " + args[i]);
    else positional.push_back(args[i]);
  }
  if (store_path.empty() ? positional.size() != 1 : !positional.empty()) {
    return Usage();
  }
  const std::string source = store_path.empty() ? positional[0] : store_path;
  std::unique_ptr<store::MmapStore> mstore;
  Graph g;
  Timer timer;
  Status load = store_path.empty()
                    ? LoadGraph(positional[0], &g, exec)
                    : LoadGraphFromStore(store_path, &mstore, &g);
  if (!load.ok()) return FailStatus(load);
  const double load_seconds = timer.ElapsedSeconds();
  std::cout << "loaded " << source << " in " << timer.ElapsedMillis()
            << " ms\n";
  if (store_path.empty()) {
    // The cold-path phase breakdown (parse / freeze / dense): the parse is
    // the load just timed; freeze and dense are measured here on the
    // loaded graph so a regression in any cold-path stage is visible from
    // this one command.
    Timer freeze_timer;
    store::TripleTable::Build(g.Triples());
    const double freeze_seconds = freeze_timer.ElapsedSeconds();
    Timer dense_timer;
    const DenseGraph dense(g);
    const double dense_seconds = dense_timer.ElapsedSeconds();
    std::cout << "phases: " << PhaseMs("parse", load_seconds) << ", "
              << PhaseMs("freeze", freeze_seconds) << ", "
              << PhaseMs("dense", dense_seconds) << "\n";
  }
  GraphStats stats = ComputeGraphStats(g);
  std::cout << stats.ToString() << "\n";
  Status wb = CheckWellBehaved(g);
  std::cout << "well-behaved: " << (wb.ok() ? "yes" : wb.ToString()) << "\n";
  return 0;
}

int CmdSummarize(const std::vector<std::string>& args,
                 util::ExecContext* exec) {
  std::string kind_name = "all";
  std::string out_prefix;
  std::string store_path;
  bool saturate = false, report = false;
  summary::SummaryOptions options;
  std::vector<std::string> positional;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--kind" && i + 1 < args.size()) kind_name = args[++i];
    else if (args[i] == "--out" && i + 1 < args.size()) out_prefix = args[++i];
    else if (args[i] == "--store" && i + 1 < args.size()) store_path = args[++i];
    else if (args[i] == "--saturate") saturate = true;
    else if (args[i] == "--report") report = true;
    else if (args[i] == "--strict-typed") {
      options.typed_mode = summary::TypedSummaryMode::kUntypedDataGraph;
    } else if (args[i] == "--depth" && i + 1 < args.size()) {
      if (!ParseUint32(args[++i], &options.bisimulation_depth)) {
        return Fail("bad --depth " + args[i]);
      }
    } else if (StartsWith(args[i], "--")) {
      return Fail("unknown option " + args[i]);
    } else {
      positional.push_back(args[i]);
    }
  }
  if (store_path.empty() ? positional.size() != 1 : !positional.empty()) {
    return Usage();
  }
  options.exec = exec;

  std::unique_ptr<store::MmapStore> mstore;
  Graph g;
  Status load = store_path.empty()
                    ? LoadGraph(positional[0], &g, exec)
                    : LoadGraphFromStore(store_path, &mstore, &g);
  if (!load.ok()) return FailStatus(load);
  if (saturate) g = reasoner::Saturate(g);

  std::vector<summary::SummaryKind> kinds;
  if (kind_name == "all") {
    kinds.assign(std::begin(summary::kAllQuotientKinds),
                 std::end(summary::kAllQuotientKinds));
  } else {
    summary::SummaryKind kind;
    if (!ParseKind(kind_name, &kind)) return Fail("bad --kind " + kind_name);
    kinds.push_back(kind);
  }

  for (summary::SummaryKind kind : kinds) {
    Timer timer;
    StatusOr<summary::SummaryResult> r =
        summary::TrySummarize(g, kind, options);
    if (!r.ok()) return FailStatus(r.status());
    std::cout << summary::SummaryKindName(kind) << ": " << r->stats.ToString()
              << " (" << timer.ElapsedMillis() << " ms)\n";
    if (report) std::cout << summary::DescribeSummary(*r).ToString();
    if (!out_prefix.empty()) {
      std::string base =
          out_prefix + "." + summary::SummaryKindName(kind);
      Status st = io::NTriplesWriter::WriteFile(r->graph, base + ".nt");
      if (st.ok()) st = summary::WriteSummaryDotFile(*r, base + ".dot");
      if (!st.ok()) return FailStatus(st);
      std::cout << "  wrote " << base << ".nt / .dot\n";
    }
  }
  return 0;
}

int CmdSaturate(const std::vector<std::string>& args, util::ExecContext* exec) {
  if (args.empty()) return Usage();
  std::string out;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--out" && i + 1 < args.size()) out = args[++i];
    else return Fail("unknown option " + args[i]);
  }
  Graph g;
  Status load = LoadGraph(args[0], &g, exec);
  if (!load.ok()) return FailStatus(load);
  reasoner::SaturationStats stats;
  Timer timer;
  Graph sat = reasoner::Saturate(g, &stats);
  std::cout << stats.input_triples << " -> " << stats.output_triples
            << " triples (+" << stats.derived_data << " data, +"
            << stats.derived_types << " type, +" << stats.derived_schema
            << " schema) in " << timer.ElapsedMillis() << " ms\n";
  if (!out.empty()) {
    Status st = io::NTriplesWriter::WriteFile(sat, out);
    if (!st.ok()) return FailStatus(st);
    std::cout << "wrote " << out << "\n";
  }
  return 0;
}

int CmdConvert(const std::vector<std::string>& args, util::ExecContext* exec) {
  if (args.size() != 2) return Usage();
  Graph g;
  Status load = LoadGraph(args[0], &g, exec);
  if (!load.ok()) return FailStatus(load);
  Status st = io::NTriplesWriter::WriteFile(g, args[1]);
  if (!st.ok()) return FailStatus(st);
  std::cout << "wrote " << g.NumTriples() << " triples to " << args[1]
            << "\n";
  return 0;
}

int CmdQuery(const std::vector<std::string>& args, util::ExecContext* exec) {
  bool prune = true;
  bool saturate = true;
  bool explain = false;
  bool stream = false;
  bool limit_set = false, offset_set = false, page_set = false;
  uint32_t limit = 1000;
  uint32_t offset = 0;
  uint32_t page = 0;
  query::PlannerMode planner = query::PlannerMode::kGreedy;
  std::string store_path;
  std::vector<std::string> positional;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--no-prune") prune = false;
    else if (args[i] == "--explicit-only") saturate = false;
    else if (args[i] == "--explain") explain = true;
    else if (args[i] == "--stream") stream = true;
    else if (args[i] == "--store" && i + 1 < args.size()) {
      store_path = args[++i];
    } else if (args[i] == "--plan" && i + 1 < args.size()) {
      if (!query::ParsePlannerMode(args[++i], &planner)) {
        return Fail("bad --plan " + args[i] + " (naive|greedy|summary)");
      }
    } else if (args[i] == "--limit" && i + 1 < args.size()) {
      if (!ParseUint32(args[++i], &limit)) {
        return Fail("bad --limit " + args[i]);
      }
      limit_set = true;
    } else if (args[i] == "--offset" && i + 1 < args.size()) {
      if (!ParseUint32(args[++i], &offset)) {
        return Fail("bad --offset " + args[i]);
      }
      offset_set = true;
    } else if (args[i] == "--page" && i + 1 < args.size()) {
      if (!ParseUint32(args[++i], &page) || page == 0) {
        return Fail("bad --page " + args[i] + " (pages are 1-based)");
      }
      page_set = true;
    } else if (StartsWith(args[i], "--")) {
      return Fail("unknown option " + args[i]);
    } else {
      positional.push_back(args[i]);
    }
  }
  // With --store every positional is SPARQL; otherwise the first is the
  // input file.
  size_t sparql_begin = store_path.empty() ? 1 : 0;
  if (positional.size() < sparql_begin + 1) return Usage();
  std::string sparql;
  for (size_t i = sparql_begin; i < positional.size(); ++i) {
    sparql += (sparql.empty() ? "" : " ") + positional[i];
  }
  if (page_set && offset_set) {
    return Fail("--page and --offset are mutually exclusive");
  }
  if (page_set && !limit_set) {
    return Fail("--page needs --limit as the page size");
  }
  // The cursor skips (page-1)*limit distinct rows, then emits one page.
  uint64_t skip = page_set
                      ? static_cast<uint64_t>(page - 1) * limit
                      : static_cast<uint64_t>(offset);
  if (explain && (limit_set || offset_set || page_set)) {
    std::cerr << "warning: --explain enumerates every embedding to report "
                 "actual cardinalities; --limit/--offset/--page are "
                 "ignored\n";
  }
  auto q = query::ParseSparql(sparql);
  if (!q.ok()) return FailStatus(q.status());

  // Store fast path: with no pruning, no saturation, and no summary-based
  // planning, the query runs zero-copy off the mmap'd permutations — no
  // Graph is ever materialized. Any of those features forces ToGraph()
  // first (still far cheaper than parsing).
  const bool zero_copy = !store_path.empty() && !prune && !saturate &&
                         planner != query::PlannerMode::kSummary;

  std::unique_ptr<store::MmapStore> mstore;
  Graph g;
  if (zero_copy) {
    StatusOr<std::unique_ptr<store::MmapStore>> opened =
        store::MmapStore::Open(store_path);
    if (!opened.ok()) return FailStatus(opened.status());
    mstore = std::move(opened).value();
  } else {
    Status load = store_path.empty()
                      ? LoadGraph(positional[0], &g, exec)
                      : LoadGraphFromStore(store_path, &mstore, &g);
    if (!load.ok()) return FailStatus(load);
  }

  // --no-prune skips the pruning evaluator entirely (its summary and
  // second saturation would be wasted work); only the estimator is built
  // when the summary planner asks for one.
  std::unique_ptr<query::SummaryPrunedEvaluator> pruned;
  std::optional<Graph> direct_target;
  std::optional<summary::CardinalityEstimator> estimator;
  std::optional<query::BgpEvaluator> direct;
  if (zero_copy) {
    query::EvaluatorOptions direct_options;
    direct_options.planner = planner;
    direct.emplace(mstore->dict(), mstore->table(), direct_options);
  } else if (prune) {
    query::SummaryPrunedEvaluator::Options options;
    options.saturate = saturate;
    options.planner = planner;
    auto created = query::SummaryPrunedEvaluator::Create(g, options, exec);
    if (!created.ok()) return FailStatus(created.status());
    pruned = std::move(created).value();
  } else {
    direct_target.emplace(saturate ? reasoner::Saturate(g) : g.Clone());
    query::EvaluatorOptions direct_options;
    direct_options.planner = planner;
    if (planner == query::PlannerMode::kSummary) {
      summary::SummaryOptions summary_options;
      summary_options.exec = exec;
      StatusOr<summary::SummaryResult> h = summary::TrySummarize(
          *direct_target, summary::SummaryKind::kWeak, summary_options);
      if (!h.ok()) return FailStatus(h.status());
      estimator.emplace(std::move(h).value());
      direct_options.estimator = &*estimator;
    }
    direct.emplace(*direct_target, direct_options);
  }

  if (explain) {
    Timer timer;
    StatusOr<query::Explanation> ex =
        prune ? pruned->Explain(*q) : direct->Explain(*q);
    if (!ex.ok()) return FailStatus(ex.status());
    std::cout << ex->ToString();
    std::cout << "-- explained in " << timer.ElapsedMillis() << " ms\n";
    if (prune) {
      const auto& stats = pruned->stats();
      std::cout << "pruning stats: " << stats.exists_checks << " check(s), "
                << stats.pruned_by_summary << " pruned, "
                << stats.graph_probes << " graph probe(s)\n";
    }
    return 0;
  }

  // Streaming drain: rows print as the operator tree produces them, and the
  // tree stops scanning the moment the limit quota is filled.
  Timer timer;
  query::CursorOptions cursor_options;
  cursor_options.limit = limit;
  cursor_options.offset = static_cast<size_t>(skip);
  cursor_options.exec = exec;
  StatusOr<std::unique_ptr<query::Cursor>> cursor =
      prune ? pruned->Open(*q, cursor_options)
            : direct->Open(*q, cursor_options);
  if (!cursor.ok()) return FailStatus(cursor.status());
  uint64_t printed = 0;
  query::IdRow encoded;
  std::string line;  // one row's rendering, reused across rows
  while ((*cursor)->Next(&encoded)) {
    query::Row row = prune ? pruned->Decode(encoded) : direct->Decode(encoded);
    line.clear();
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line.push_back('\t');
      row[i].AppendNTriples(&line);
    }
    line.push_back('\n');
    std::cout.write(line.data(), static_cast<std::streamsize>(line.size()));
    if (stream) std::cout.flush();
    ++printed;
  }
  // Next() returning false means exhaustion or failure; only status() tells
  // them apart. A governance trip mid-drain still printed the rows that fit
  // the budget — the non-zero exit is what the caller scripts against.
  if (!(*cursor)->status().ok()) return FailStatus((*cursor)->status());
  std::cout << "-- " << printed << " row(s) in " << timer.ElapsedMillis()
            << " ms (plan=" << query::PlannerModeName(planner) << ")";
  if (skip > 0) std::cout << " (offset " << skip << ")";
  if (prune && pruned->stats().pruned_by_summary > 0) {
    std::cout << " (pruned by summary without touching the graph)";
  }
  std::cout << "\n";
  return 0;
}

int CmdFreeze(const std::vector<std::string>& args, util::ExecContext* exec) {
  if (args.empty()) return Usage();
  std::string out;
  store::FreezeOptions options;
  double freeze_seconds = 0.0;
  options.freeze_seconds = &freeze_seconds;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--out" && i + 1 < args.size()) out = args[++i];
    else return Fail("unknown option " + args[i]);
  }
  if (out.empty()) out = args[0] + ".rsb";
  Graph g;
  Timer timer;
  Status load = LoadGraph(args[0], &g, exec);
  if (!load.ok()) return FailStatus(load);
  const double parse_seconds = timer.ElapsedSeconds();
  Status st = store::FreezeGraphToFile(g, out, options);
  if (!st.ok()) return FailStatus(st);
  // Re-open what we just wrote: cheap, and it proves the image passes the
  // full corruption wall before anyone depends on it.
  StatusOr<std::unique_ptr<store::MmapStore>> check =
      store::MmapStore::Open(out);
  if (!check.ok()) return FailStatus(check.status());
  std::cout << "froze " << g.NumTriples() << " triples ("
            << (*check)->image().size() << " bytes) to "
            << out << " in " << timer.ElapsedMillis() << " ms\n"
            << "phases: " << PhaseMs("parse", parse_seconds) << ", "
            << PhaseMs("freeze", freeze_seconds) << "\n";
  return 0;
}

// Signal flag for the serve loop: handlers only record the signal; the
// polling loop in CmdServe acts on it (async-signal-safety).
volatile std::sig_atomic_t g_serve_signal = 0;
void OnServeSignal(int sig) { g_serve_signal = sig; }

int CmdServe(const std::vector<std::string>& args,
             const util::ExecContext::Limits& limits) {
  server::ServerOptions options;
  options.default_limits = limits;
  std::vector<std::string> positional;
  for (size_t i = 0; i < args.size(); ++i) {
    uint32_t v = 0;
    if (args[i] == "--host" && i + 1 < args.size()) {
      options.host = args[++i];
    } else if (args[i] == "--port" && i + 1 < args.size()) {
      if (!ParseUint32(args[++i], &v) || v > 0xFFFF) {
        return Fail("bad --port " + args[i]);
      }
      options.port = static_cast<uint16_t>(v);
    } else if (args[i] == "--workers" && i + 1 < args.size()) {
      if (!ParseUint32(args[++i], &v) || v == 0) {
        return Fail("bad --workers " + args[i]);
      }
      options.num_workers = v;
    } else if (args[i] == "--queue-depth" && i + 1 < args.size()) {
      if (!ParseUint32(args[++i], &v)) {
        return Fail("bad --queue-depth " + args[i]);
      }
      options.queue_depth = v;
    } else if (args[i] == "--no-plan-cache") {
      options.plan_cache = false;
    } else if (args[i] == "--plan" && i + 1 < args.size()) {
      if (!query::ParsePlannerMode(args[++i], &options.default_planner)) {
        return Fail("bad --plan " + args[i] + " (naive|greedy|summary)");
      }
    } else if (StartsWith(args[i], "--")) {
      return Fail("unknown option " + args[i]);
    } else {
      positional.push_back(args[i]);
    }
  }
  if (positional.size() != 1) return Usage();

  server::Server server;
  Status st = server.Start(positional[0], options);
  if (!st.ok()) return FailStatus(st);
  // The harness contract: one parseable line on stdout once the socket is
  // live. Scripts grep the port out of it (ephemeral binds).
  std::cout << "rdfsum serve: listening on " << options.host << ":"
            << server.port() << " epoch " << server.snapshot()->epoch()
            << " (" << server.snapshot()->num_triples() << " triples)"
            << std::endl;

  std::signal(SIGINT, OnServeSignal);
  std::signal(SIGTERM, OnServeSignal);
  std::signal(SIGHUP, OnServeSignal);
  while (!server.stopped()) {
    if (g_serve_signal == SIGHUP) {
      g_serve_signal = 0;
      Status rs = server.Reload("");
      if (rs.ok()) {
        std::cout << "rdfsum serve: reloaded, epoch "
                  << server.snapshot()->epoch() << std::endl;
      } else {
        // A failed reload keeps the old epoch serving; report and carry on.
        std::cerr << "rdfsum serve: reload failed: " << rs.ToString() << "\n";
      }
    } else if (g_serve_signal != 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  server.Wait();
  std::cout << "rdfsum serve: shut down cleanly" << std::endl;
  return 0;
}

int CmdGen(const std::vector<std::string>& args) {
  std::string out;
  uint32_t seed = 0;
  bool seed_set = false;
  std::vector<std::string> positional;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out" && i + 1 < args.size()) {
      out = args[++i];
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      if (!ParseUint32(args[++i], &seed)) return Fail("bad --seed " + args[i]);
      seed_set = true;
    } else if (StartsWith(args[i], "--")) {
      return Fail("unknown option " + args[i]);
    } else {
      positional.push_back(args[i]);
    }
  }
  if (positional.size() != 2 || positional[0] != "bsbm" || out.empty()) {
    return Usage();
  }
  uint32_t target = 0;
  if (!ParseUint32(positional[1], &target) || target == 0) {
    return Fail("bad triple count " + positional[1]);
  }
  gen::BsbmOptions options;
  options.num_products = gen::BsbmProductsForTriples(target);
  if (seed_set) options.seed = seed;
  Graph g = gen::GenerateBsbm(options);
  Status st = io::NTriplesWriter::WriteFile(g, out);
  if (!st.ok()) return FailStatus(st);
  std::cout << "generated " << g.NumTriples() << " triples ("
            << options.num_products << " products, seed " << options.seed
            << ") to " << out << "\n";
  return 0;
}

// Strips the global governance flags out of `args` (they are accepted
// anywhere on the command line), builds one ExecContext per invocation from
// them, and dispatches. A run with no flag set dispatches ungoverned
// (exec = nullptr) — zero overhead on the hot paths.
int Run(const std::string& cmd, const std::vector<std::string>& args) {
  util::ExecContext::Limits limits;
  std::vector<std::string> rest;
  for (size_t i = 0; i < args.size(); ++i) {
    uint32_t v = 0;
    if (args[i] == "--timeout-ms" && i + 1 < args.size()) {
      if (!ParseUint32(args[++i], &v)) {
        return Fail("bad --timeout-ms " + args[i]);
      }
      limits.timeout_ms = v;
    } else if (args[i] == "--max-rows" && i + 1 < args.size()) {
      if (!ParseUint32(args[++i], &v)) {
        return Fail("bad --max-rows " + args[i]);
      }
      limits.max_rows = v;
    } else if (args[i] == "--mem-budget-mb" && i + 1 < args.size()) {
      if (!ParseUint32(args[++i], &v)) {
        return Fail("bad --mem-budget-mb " + args[i]);
      }
      limits.memory_budget_bytes = static_cast<uint64_t>(v) << 20;
    } else {
      rest.push_back(args[i]);
    }
  }
  const bool governed = limits.timeout_ms != 0 || limits.max_rows != 0 ||
                        limits.memory_budget_bytes != 0;
  util::ExecContext ctx(limits);
  util::ExecContext* exec = governed ? &ctx : nullptr;
  if (cmd == "stats") return CmdStats(rest, exec);
  if (cmd == "summarize") return CmdSummarize(rest, exec);
  if (cmd == "saturate") return CmdSaturate(rest, exec);
  if (cmd == "convert") return CmdConvert(rest, exec);
  if (cmd == "query") return CmdQuery(rest, exec);
  if (cmd == "freeze") return CmdFreeze(rest, exec);
  // serve gets the raw Limits: they become per-request defaults, applied by
  // the server as each request's ExecContext, not one context for the whole
  // daemon lifetime.
  if (cmd == "serve") return CmdServe(rest, limits);
  if (cmd == "gen") return CmdGen(rest);
  return Usage();
}

}  // namespace
}  // namespace rdfsum

int main(int argc, char** argv) {
  if (argc < 2) return rdfsum::Usage();
  std::vector<std::string> args(argv + 2, argv + argc);
  return rdfsum::Run(argv[1], args);
}
