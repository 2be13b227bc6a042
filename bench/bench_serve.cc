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
// execution, so cache-on should win by a wide margin. main() exits non-zero
// if it does not — CI's bench gate runs this binary and then re-checks the
// qps relationship in the JSON.

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
/// workload for the parallelism sweep. Naive-planned so the driving scan is
/// the reviewFor range — at the sweep's 200k-triple image that clears the
/// executor's fan-out gate; under RDFSUM_BENCH_MAX_TRIPLES caps it may not,
/// in which case the sweep still measures the wire + admission-control path
/// with the fan-out gate (correctly) refusing.
std::string HeavySnowflakeQuery() {
  return "PREFIX b: <http://bsbm.example.org/>\n"
         "SELECT ?r ?price WHERE { ?r b:reviewFor ?p . ?r b:reviewer ?x . "
         "?x b:country ?c . ?o b:offerProduct ?p . ?o b:price ?price }";
}

/// Per-request parallelism over the wire (protocol 1.1): one client issues
/// heavy queries at req.parallelism in {1, 4, 8} against a server with
/// spare parallel slots, then a mixed sweep runs heavy parallel and cheap
/// anchored traffic together. Row counts must be identical at every
/// parallelism (the wire carries the same byte stream); latency is recorded,
/// not gated — a 1-core container serializes the fan-out anyway.
bool RunParallelServeBench(bench::BenchJson* json) {
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
  options.max_parallelism = 8;
  Server server;
  Status started = server.Start(image, options);
  if (!started.ok()) {
    std::cerr << "bench_serve: par start failed: " << started.ToString()
              << "\n";
    return false;
  }

  TablePrinter table(
      {"workload", "parallelism", "qps", "p50 (ms)", "p99 (ms)", "rows/req"});
  bool ok = true;
  uint64_t rows_at_p1 = 0;
  constexpr int kHeavyWarmup = 2;
  constexpr int kHeavyRequests = 12;
  for (uint32_t par : {1u, 4u, 8u}) {
    auto client = Client::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      ok = false;
      break;
    }
    QueryRequest req;
    req.planner = 0;  // naive: the driving scan is the reviewFor range
    req.parallelism = par;
    std::vector<double> lat;
    uint64_t rows = 0;
    Timer wall;
    for (int i = 0; i < kHeavyWarmup + kHeavyRequests; ++i) {
      Timer t;
      uint64_t n = 0;
      Status st = (*client)->Query(
          HeavySnowflakeQuery(), req,
          [](const std::vector<std::string>&) { return true; }, &n);
      if (!st.ok()) {
        std::cerr << "bench_serve: heavy query failed (par=" << par
                  << "): " << st.ToString() << "\n";
        ok = false;
        break;
      }
      if (i >= kHeavyWarmup) {
        lat.push_back(t.ElapsedSeconds());
        rows = n;
      }
    }
    if (!ok) break;
    if (par == 1) {
      rows_at_p1 = rows;
    } else if (rows != rows_at_p1) {
      std::cerr << "bench_serve: parallel row count diverged (par=" << par
                << ": " << rows << " vs " << rows_at_p1 << ")\n";
      ok = false;
      break;
    }
    const double elapsed = wall.ElapsedSeconds();
    const double qps =
        static_cast<double>(lat.size()) / std::max(1e-9, elapsed);
    const std::string suffix = "_p" + std::to_string(par);
    json->Record("serve_par_qps" + suffix, g.NumTriples(), qps);
    json->Record("serve_par_p50" + suffix, g.NumTriples(),
                 Percentile(&lat, 0.50));
    json->Record("serve_par_p99" + suffix, g.NumTriples(),
                 Percentile(&lat, 0.99));
    table.AddRow({"heavy", std::to_string(par), FormatDouble(qps, 1),
                  FormatDouble(Percentile(&lat, 0.50) * 1e3, 3),
                  FormatDouble(Percentile(&lat, 0.99) * 1e3, 3),
                  std::to_string(rows)});
  }

  // Mixed traffic: two heavy parallel clients and two cheap anchored
  // clients at once — admission control must keep cheap requests moving
  // while heavy ones hold the spare slots.
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
      req.parallelism = heavy ? 4 : 1;
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
      table.AddRow({"mixed cheap", "1", "-",
                    FormatDouble(Percentile(&cheap_lat, 0.50) * 1e3, 3),
                    FormatDouble(Percentile(&cheap_lat, 0.99) * 1e3, 3),
                    "-"});
    } else {
      std::cerr << "bench_serve: mixed sweep failed\n";
    }
  }

  // The admission-control counters must reflect the sweep: every granted
  // fan-out shows up in parallel_queries.
  if (ok) {
    auto stats_client = Client::Connect("127.0.0.1", server.port());
    if (stats_client.ok()) {
      auto text = (*stats_client)->Stats();
      if (text.ok()) {
        size_t pq = text->find("parallel_queries: ");
        if (pq != std::string::npos) {
          json->Record("serve_par_granted", g.NumTriples(),
                       static_cast<double>(std::strtoull(
                           text->c_str() + pq + 18, nullptr, 10)));
        }
      }
    }
  }

  table.Print(std::cout,
              "Per-request parallelism over the wire (protocol 1.1): heavy "
              "naive snowflakes at requested fan-out, then mixed with cheap "
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
  TablePrinter table({"clients", "plan cache", "qps", "p50 (ms)", "p99 (ms)",
                      "cache hit rate"});
  // qps[threads][cache_on] for the final on-beats-off check.
  std::vector<std::vector<double>> qps(kClientSweeps[2] + 1,
                                       std::vector<double>(2, 0));

  for (bool cache_on : {false, true}) {
    ServerOptions options;
    options.num_workers = 8;  // >= the widest client sweep: never queue
    options.queue_depth = 16;
    options.plan_cache = cache_on;
    Server server;
    Status started = server.Start(image, options);
    if (!started.ok()) {
      std::cerr << "bench_serve: start failed: " << started.ToString() << "\n";
      return false;
    }
    for (int threads : kClientSweeps) {
      SweepResult r;
      if (!RunSweep(server.port(), threads, &r)) {
        std::cerr << "bench_serve: sweep failed (clients=" << threads
                  << ", cache=" << (cache_on ? "on" : "off") << ")\n";
        server.Stop();
        server.Wait();
        return false;
      }
      qps[threads][cache_on ? 1 : 0] = r.qps;
      const std::string suffix = "_c" + std::to_string(threads) +
                                 (cache_on ? "_cacheon" : "_cacheoff");
      json.Record("serve_qps" + suffix, g.NumTriples(), r.qps);
      json.Record("serve_p50" + suffix, g.NumTriples(), r.p50);
      json.Record("serve_p99" + suffix, g.NumTriples(), r.p99);

      std::string hit_rate = "off";
      if (cache_on) {
        auto stats_client = Client::Connect("127.0.0.1", server.port());
        if (stats_client.ok()) {
          auto text = (*stats_client)->Stats();
          if (text.ok()) {
            uint64_t hits = 0, misses = 0;
            size_t m = text->find("plan_cache_misses: ");
            if (m != std::string::npos) {
              misses = std::strtoull(text->c_str() + m + 19, nullptr, 10);
            }
            size_t h = text->find("plan_cache_hits: ");
            if (h != std::string::npos) {
              hits = std::strtoull(text->c_str() + h + 17, nullptr, 10);
            }
            if (hits + misses > 0) {
              hit_rate = FormatDouble(
                  100.0 * static_cast<double>(hits) /
                      static_cast<double>(hits + misses),
                  1) + "%";
            }
          }
        }
      }
      table.AddRow({std::to_string(threads), cache_on ? "on" : "off",
                    FormatDouble(r.qps, 0), FormatDouble(r.p50 * 1e3, 3),
                    FormatDouble(r.p99 * 1e3, 3), hit_rate});
    }
    server.Stop();
    server.Wait();
  }

  table.Print(std::cout,
              "Serving daemon over the wire: summary-planned same-shape "
              "queries, rotating constants (" + Num(g.NumTriples()) +
              " triples)");

  const bool par_ok = RunParallelServeBench(&json);

  const char* path = std::getenv("RDFSUM_BENCH_JSON");
  std::string out = path != nullptr ? path : "BENCH_serve.json";
  if (json.WriteFile(out)) {
    std::cout << "wrote " << out << "\n";
  } else {
    std::cerr << "failed to write " << out << "\n";
  }

  bool on_wins = true;
  for (int threads : kClientSweeps) {
    if (qps[threads][1] <= qps[threads][0]) {
      std::cerr << "bench_serve: plan cache ON did not beat OFF at "
                << threads << " clients (" << qps[threads][1] << " vs "
                << qps[threads][0] << " qps)\n";
      on_wins = false;
    }
  }
  std::remove(image.c_str());
  return on_wins && par_ok;
}

}  // namespace
}  // namespace rdfsum

int main() { return rdfsum::PrintServeBench() ? 0 : 1; }
