// The serving daemon measured end to end over its wire protocol: qps and
// client-observed latency percentiles (p50/p99) for 1/4/8 concurrent client
// threads, with the plan cache on vs. off. Results land in BENCH_serve.json
// (override the path with RDFSUM_BENCH_JSON); qps records are requests per
// second — dimensionless despite the file's "seconds" unit label — while the
// p50/p99 records are per-request wall seconds.
//
// The workload is the one the plan cache exists for: a stream of same-shape
// snowflake queries whose constants rotate per request, planned in summary
// mode. A cache miss pays summary-estimated join ordering on every request;
// a hit re-instantiates the memoized skeleton and goes straight to
// execution, so cache-on should win by a wide margin. Both daemons run side
// by side and their sweeps alternate; main() exits non-zero unless the
// cache-on median qps beats cache-off at every client count and the
// cache-on daemon's STATS show hits and a shorter plan phase. CI's bench
// gate runs this binary and then re-checks the medians and plan phases in
// the JSON.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <latch>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "query/plan.h"
#include "server/client.h"
#include "server/server.h"
#include "store/mmap_store.h"
#include "util/csv.h"
#include "util/timer.h"

namespace rdfsum {
namespace {

using bench::Num;
using server::Client;
using server::QueryRequest;
using server::Server;
using server::ServerOptions;

constexpr int kClientSweeps[] = {1, 4, 8};
constexpr int kWarmupPerThread = 8;
constexpr int kRequestsPerThread = 1000;
constexpr int kRounds = 5;  // alternating off/on sweeps per client count

/// Same-shape snowflake (the bench_query shape), anchored at a rotating
/// producer so every request carries different constants but normalizes to
/// one plan-cache key.
std::string SnowflakeQuery(int i) {
  return "PREFIX b: <http://bsbm.example.org/>\n"
         "SELECT ?r ?price WHERE { ?r b:reviewFor ?p . ?r b:reviewer ?x . "
         "?x b:country ?c . ?o b:offerProduct ?p . ?o b:price ?price . "
         "?p b:producer <http://bsbm.example.org/producer/Producer" +
         std::to_string(i % 8) + "> }";
}

struct SweepResult {
  double qps = 0;
  double p50 = 0;
  double p99 = 0;
  uint64_t rows = 0;
};

/// The number after `key: ` in a STATS reply, or 0 when the key is absent.
uint64_t StatField(const std::string& text, const std::string& key) {
  const size_t at = text.find(key + ": ");
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size() + 2, nullptr, 10);
}

/// One STATS reply from the daemon on `port`.
StatusOr<std::string> DaemonStats(uint16_t port) {
  auto client = Client::Connect("127.0.0.1", port);
  if (!client.ok()) return client.status();
  return (*client)->Stats();
}

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0;
  std::sort(sorted->begin(), sorted->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted->size()));
  if (idx >= sorted->size()) idx = sorted->size() - 1;
  return (*sorted)[idx];
}

/// Drives `threads` clients against the server, each issuing
/// kRequestsPerThread timed summary-mode queries after a short warmup.
/// Returns aggregate qps and cross-thread latency percentiles. The qps
/// clock starts once every client has connected and warmed up, so it
/// covers exactly the timed requests it counts; the warmup includes the
/// snapshot's one-time summary mint on a fresh server.
bool RunSweep(uint16_t port, int threads, SweepResult* out) {
  std::vector<std::vector<double>> latencies(threads);
  std::vector<uint64_t> rows(threads, 0);
  std::vector<bool> failed(threads, false);
  std::latch warmed(threads + 1);
  QueryRequest req;
  req.planner = static_cast<uint8_t>(query::PlannerMode::kSummary);

  auto worker = [&](int tid) {
    auto client = Client::Connect("127.0.0.1", port);
    if (!client.ok()) failed[tid] = true;
    auto run_one = [&](int i, bool timed) {
      Timer t;
      uint64_t n = 0;
      Status st = (*client)->Query(
          SnowflakeQuery(tid * kRequestsPerThread + i), req,
          [](const std::vector<std::string>&) { return true; }, &n);
      if (!st.ok()) {
        failed[tid] = true;
        return;
      }
      if (timed) {
        latencies[tid].push_back(t.ElapsedSeconds());
        rows[tid] += n;
      }
    };
    for (int i = 0; i < kWarmupPerThread && !failed[tid]; ++i) {
      run_one(i, /*timed=*/false);
    }
    warmed.arrive_and_wait();
    for (int i = 0; i < kRequestsPerThread && !failed[tid]; ++i) {
      run_one(i, /*timed=*/true);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  warmed.arrive_and_wait();
  Timer wall;
  for (std::thread& t : pool) t.join();
  double elapsed = wall.ElapsedSeconds();

  std::vector<double> all;
  for (int t = 0; t < threads; ++t) {
    if (failed[t]) return false;
    all.insert(all.end(), latencies[t].begin(), latencies[t].end());
    out->rows += rows[t];
  }
  out->qps = static_cast<double>(all.size()) / std::max(1e-9, elapsed);
  out->p50 = Percentile(&all, 0.50);
  out->p99 = Percentile(&all, 0.99);
  return true;
}

/// Unanchored snowflake (no producer constant): the heavy per-request
/// workload. Naive-planned so the driving scan is the whole reviewFor
/// range.
std::string HeavySnowflakeQuery() {
  return "PREFIX b: <http://bsbm.example.org/>\n"
         "SELECT ?r ?price WHERE { ?r b:reviewFor ?p . ?r b:reviewer ?x . "
         "?x b:country ?c . ?o b:offerProduct ?p . ?o b:price ?price }";
}

/// Heavy queries over the wire: one client issues heavy queries (the
/// serve_par_*_p1 rows; every query runs on one thread, so there is no
/// other parallelism to sweep), then a mixed sweep runs two heavy and two
/// cheap anchored clients together. Latency is recorded, not gated.
bool RunHeavyServeBench(bench::BenchJson* json) {
  uint64_t scale = 200'000;
  if (const char* env = std::getenv("RDFSUM_BENCH_MAX_TRIPLES")) {
    scale = std::min<uint64_t>(scale, std::strtoull(env, nullptr, 10));
  }
  const Graph& g = bench::CachedBsbm(scale);
  const char* tmp = std::getenv("TMPDIR");
  const std::string image =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/bench_serve_par.rsb";
  Status frozen = store::FreezeGraphToFile(g, image);
  if (!frozen.ok()) {
    std::cerr << "bench_serve: par freeze failed: " << frozen.ToString()
              << "\n";
    return false;
  }

  ServerOptions options;
  options.num_workers = 4;
  options.queue_depth = 16;
  Server server;
  Status started = server.Start(image, options);
  if (!started.ok()) {
    std::cerr << "bench_serve: par start failed: " << started.ToString()
              << "\n";
    return false;
  }

  TablePrinter table({"workload", "qps", "p50 (ms)", "p99 (ms)", "rows/req"});
  bool ok = true;
  constexpr int kHeavyWarmup = 2;
  constexpr int kHeavyRequests = 12;
  {
    auto client = Client::Connect("127.0.0.1", server.port());
    ok = client.ok();
    QueryRequest req;
    req.planner = 0;  // naive: the driving scan is the reviewFor range
    std::vector<double> lat;
    uint64_t rows = 0;
    Timer wall;
    for (int i = 0; ok && i < kHeavyWarmup + kHeavyRequests; ++i) {
      Timer t;
      uint64_t n = 0;
      Status st = (*client)->Query(
          HeavySnowflakeQuery(), req,
          [](const std::vector<std::string>&) { return true; }, &n);
      if (!st.ok()) {
        std::cerr << "bench_serve: heavy query failed: " << st.ToString()
                  << "\n";
        ok = false;
      } else if (i >= kHeavyWarmup) {
        lat.push_back(t.ElapsedSeconds());
        rows = n;
      }
    }
    if (ok) {
      const double elapsed = wall.ElapsedSeconds();
      const double qps =
          static_cast<double>(lat.size()) / std::max(1e-9, elapsed);
      json->Record("serve_par_qps_p1", g.NumTriples(), qps);
      json->Record("serve_par_p50_p1", g.NumTriples(), Percentile(&lat, 0.50));
      json->Record("serve_par_p99_p1", g.NumTriples(), Percentile(&lat, 0.99));
      table.AddRow({"heavy", FormatDouble(qps, 1),
                    FormatDouble(Percentile(&lat, 0.50) * 1e3, 3),
                    FormatDouble(Percentile(&lat, 0.99) * 1e3, 3),
                    std::to_string(rows)});
    }
  }

  // Mixed traffic: two heavy clients and two cheap anchored clients at
  // once; the cheap requests' p99 is the liveness number.
  if (ok) {
    std::vector<double> cheap_lat;
    std::vector<bool> failed(4, false);
    std::mutex mu;
    auto worker = [&](int tid) {
      auto client = Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failed[tid] = true;
        return;
      }
      const bool heavy = tid < 2;
      QueryRequest req;
      req.planner = heavy ? 0 : static_cast<uint8_t>(
                                    query::PlannerMode::kSummary);
      const int n_requests = heavy ? 6 : 40;
      for (int i = 0; i < n_requests; ++i) {
        Timer t;
        uint64_t n = 0;
        Status st = (*client)->Query(
            heavy ? HeavySnowflakeQuery() : SnowflakeQuery(i),
            req, [](const std::vector<std::string>&) { return true; }, &n);
        if (!st.ok()) {
          failed[tid] = true;
          return;
        }
        if (!heavy) {
          std::lock_guard<std::mutex> lock(mu);
          cheap_lat.push_back(t.ElapsedSeconds());
        }
      }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t) pool.emplace_back(worker, t);
    for (std::thread& t : pool) t.join();
    for (bool f : failed) ok = ok && !f;
    if (ok) {
      json->Record("serve_par_mixed_cheap_p99", g.NumTriples(),
                   Percentile(&cheap_lat, 0.99));
      table.AddRow({"mixed cheap", "-",
                    FormatDouble(Percentile(&cheap_lat, 0.50) * 1e3, 3),
                    FormatDouble(Percentile(&cheap_lat, 0.99) * 1e3, 3),
                    "-"});
    } else {
      std::cerr << "bench_serve: mixed sweep failed\n";
    }
  }

  table.Print(std::cout,
              "Heavy naive snowflakes over the wire, then mixed with cheap "
              "anchored traffic (" + Num(g.NumTriples()) + " triples)");
  server.Stop();
  server.Wait();
  std::remove(image.c_str());
  return ok;
}

bool PrintServeBench() {
  // One modest image: the wire/planning overheads under test are
  // per-request, not per-triple, so 50k triples is plenty of graph.
  uint64_t scale = 50'000;
  if (const char* env = std::getenv("RDFSUM_BENCH_MAX_TRIPLES")) {
    scale = std::min<uint64_t>(scale, std::strtoull(env, nullptr, 10));
  }
  const Graph& g = bench::CachedBsbm(scale);
  const char* tmp = std::getenv("TMPDIR");
  const std::string image =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/bench_serve.rsb";
  Status frozen = store::FreezeGraphToFile(g, image);
  if (!frozen.ok()) {
    std::cerr << "bench_serve: freeze failed: " << frozen.ToString() << "\n";
    return false;
  }

  bench::BenchJson json("bench_serve");
  json.MetaInt("hardware_concurrency", std::thread::hardware_concurrency());
  TablePrinter table({"clients", "plan cache", "qps", "qps min-max",
                      "p50 (ms)", "p99 (ms)"});

  // Both daemons stay up, indexed by cache_on. At each client count their
  // sweeps alternate for kRounds rounds, the side that goes first
  // alternating too, and the rows are the per-side medians: host drift
  // hits both sides alike and one noisy reading cannot decide the check.
  Server servers[2];
  auto stop_all = [&] {
    for (Server& server : servers) {
      server.Stop();
      server.Wait();
    }
  };
  for (int on = 0; on < 2; ++on) {
    ServerOptions options;
    options.num_workers = 8;  // >= the widest client sweep: never queue
    options.queue_depth = 16;
    options.plan_cache = on == 1;
    Status started = servers[on].Start(image, options);
    if (!started.ok()) {
      std::cerr << "bench_serve: start failed: " << started.ToString() << "\n";
      stop_all();
      return false;
    }
  }
  bool on_wins = true;
  for (int threads : kClientSweeps) {
    std::vector<SweepResult> runs[2];
    for (int round = 0; round < kRounds; ++round) {
      for (int k = 0; k < 2; ++k) {
        const int on = (round + k) % 2;
        SweepResult r;
        if (!RunSweep(servers[on].port(), threads, &r)) {
          std::cerr << "bench_serve: sweep failed (clients=" << threads
                    << ", cache=" << (on ? "on" : "off") << ")\n";
          stop_all();
          return false;
        }
        runs[on].push_back(r);
      }
    }
    double median_qps[2];
    for (int on = 0; on < 2; ++on) {
      auto sorted = [&](double SweepResult::*field) {
        std::vector<double> v;
        for (const SweepResult& r : runs[on]) v.push_back(r.*field);
        std::sort(v.begin(), v.end());
        return v;
      };
      const std::vector<double> qps = sorted(&SweepResult::qps);
      const double p50 = sorted(&SweepResult::p50)[kRounds / 2];
      const double p99 = sorted(&SweepResult::p99)[kRounds / 2];
      median_qps[on] = qps[kRounds / 2];
      const std::string suffix = "_c" + std::to_string(threads) +
                                 (on ? "_cacheon" : "_cacheoff");
      json.Record("serve_qps" + suffix, g.NumTriples(), median_qps[on]);
      json.Record("serve_p50" + suffix, g.NumTriples(), p50);
      json.Record("serve_p99" + suffix, g.NumTriples(), p99);
      table.AddRow({std::to_string(threads), on ? "on" : "off",
                    FormatDouble(median_qps[on], 0),
                    FormatDouble(qps.front(), 0) + "-" +
                        FormatDouble(qps.back(), 0),
                    FormatDouble(p50 * 1e3, 3), FormatDouble(p99 * 1e3, 3)});
    }
    if (median_qps[1] <= median_qps[0]) {
      std::cerr << "bench_serve: plan cache ON did not beat OFF at "
                << threads << " clients (median " << median_qps[1] << " vs "
                << median_qps[0] << " qps)\n";
      on_wins = false;
    }
  }

  table.Print(std::cout,
              "Serving daemon over the wire: summary-planned same-shape "
              "queries, rotating constants (" + Num(g.NumTriples()) +
              " triples)");

  // A median comparison alone cannot catch a dead cache: two equal daemons
  // win it half the time. So the cache-on daemon's own STATS must show
  // plan-cache hits and a lower mean plan phase than the cache-off one.
  uint64_t hits[2] = {0, 0};
  double plan_mean_us[2] = {0, 0};
  for (int on = 0; on < 2; ++on) {
    StatusOr<std::string> text = DaemonStats(servers[on].port());
    if (!text.ok()) {
      std::cerr << "bench_serve: STATS failed: " << text.status().ToString()
                << "\n";
      stop_all();
      return false;
    }
    hits[on] = StatField(*text, "plan_cache_hits");
    plan_mean_us[on] =
        static_cast<double>(StatField(*text, "phase_plan_total_us")) /
        static_cast<double>(std::max<uint64_t>(
            1, StatField(*text, "phase_plan_count")));
    json.Record(on ? "serve_plan_mean_cacheon" : "serve_plan_mean_cacheoff",
                g.NumTriples(), plan_mean_us[on] * 1e-6);
  }
  stop_all();
  std::cout << "daemon STATS: plan_cache_hits " << hits[1]
            << " (cache on), mean plan phase "
            << FormatDouble(plan_mean_us[1], 1) << " us (cache on) vs "
            << FormatDouble(plan_mean_us[0], 1) << " us (cache off)\n";
  if (hits[1] == 0 || plan_mean_us[1] >= plan_mean_us[0]) {
    std::cerr << "bench_serve: the plan cache did no work (cache-on hits "
              << hits[1] << ", plan phase " << plan_mean_us[1] << " us vs "
              << plan_mean_us[0] << " us with the cache off)\n";
    on_wins = false;
  }

  const bool par_ok = RunHeavyServeBench(&json);

  const char* path = std::getenv("RDFSUM_BENCH_JSON");
  std::string out = path != nullptr ? path : "BENCH_serve.json";
  if (json.WriteFile(out)) {
    std::cout << "wrote " << out << "\n";
  } else {
    std::cerr << "failed to write " << out << "\n";
  }

  std::remove(image.c_str());
  return on_wins && par_ok;
}

}  // namespace
}  // namespace rdfsum

int main() { return rdfsum::PrintServeBench() ? 0 : 1; }
