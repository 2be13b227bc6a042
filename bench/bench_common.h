#ifndef RDFSUM_BENCH_BENCH_COMMON_H_
#define RDFSUM_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gen/bsbm.h"
#include "rdf/graph.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace rdfsum::bench {

/// Benchmark scales in target triple counts. The paper sweeps BSBM from 10M
/// to 100M triples on a Xeon + PostgreSQL; in-process and offline we sweep
/// the same shape at 50k-1M (override the ceiling with
/// RDFSUM_BENCH_MAX_TRIPLES to go bigger on a beefier machine).
inline std::vector<uint64_t> BenchScales() {
  uint64_t max_triples = 1'000'000;
  if (const char* env = std::getenv("RDFSUM_BENCH_MAX_TRIPLES")) {
    max_triples = std::strtoull(env, nullptr, 10);
    if (max_triples < 50'000) max_triples = 50'000;
  }
  std::vector<uint64_t> scales;
  for (uint64_t s : {50'000ull, 100'000ull, 250'000ull, 500'000ull,
                     1'000'000ull, 2'000'000ull, 5'000'000ull}) {
    if (s <= max_triples) scales.push_back(s);
  }
  return scales;
}

/// Generates (and memoizes per process) the BSBM graph of ~`triples` size.
inline const Graph& CachedBsbm(uint64_t triples) {
  static std::map<uint64_t, Graph>* cache = new std::map<uint64_t, Graph>();
  auto it = cache->find(triples);
  if (it == cache->end()) {
    gen::BsbmOptions opt;
    opt.num_products = gen::BsbmProductsForTriples(triples);
    it = cache->emplace(triples, gen::GenerateBsbm(opt)).first;
  }
  return it->second;
}

inline std::string Num(uint64_t n) { return FormatWithCommas(n); }

/// Wall seconds of `repeats` back-to-back runs of one operation, sorted
/// ascending. best() is the fastest run: with two repeats the first doubles
/// as warm-up (single-shot timings at small scales are dominated by
/// allocator/page-fault cold start). median() is the middle run (the upper
/// middle for an even count), which one slow or fast run cannot move —
/// the statistic for operations of a few milliseconds whose best-of-two
/// swings with the host.
struct RunTimes {
  std::vector<double> seconds;
  double best() const { return seconds.front(); }
  double median() const { return seconds[seconds.size() / 2]; }
};

/// Times `repeats` (>= 1) runs of `fn`.
template <typename Fn>
RunTimes TimeRuns(int repeats, Fn&& fn) {
  RunTimes out;
  for (int i = 0; i < repeats; ++i) {
    Timer timer;
    fn();
    out.seconds.push_back(timer.ElapsedSeconds());
  }
  std::sort(out.seconds.begin(), out.seconds.end());
  return out;
}

/// Machine-readable results next to the human-readable tables: collects
/// (name, scale, seconds) wall-time records and writes them as a JSON file
/// (e.g. BENCH_substrate.json) so the perf trajectory can be tracked and
/// diffed across PRs.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void Record(const std::string& name, uint64_t scale, double seconds) {
    records_.push_back(Record_{name, scale, seconds});
  }

  /// Load record: the one-thread load's wall time with its phase
  /// breakdown (the N-Triples parse and the table build, in seconds), so a
  /// load regression can be attributed to the phase that moved.
  void RecordLoad(const std::string& name, uint64_t scale, double seconds,
                  double parse_seconds, double freeze_seconds) {
    Record_ r{name, scale, seconds};
    r.parse_seconds = parse_seconds;
    r.freeze_seconds = freeze_seconds;
    records_.push_back(r);
  }

  /// Wall-time record of one of several modes timed round-robin, with the
  /// run's A/A spread: the median |a-b| of one mode timed twice per round.
  /// A difference between the modes smaller than the spread is noise.
  void RecordWithSpread(const std::string& name, uint64_t scale,
                        double seconds, double aa_spread_seconds) {
    Record_ r{name, scale, seconds};
    r.aa_spread_seconds = aa_spread_seconds;
    records_.push_back(r);
  }

  /// Per-operation latency record: carries `ns_per_probe` in place of
  /// `seconds`, so a nanosecond figure is never read as a wall time.
  void RecordNsPerProbe(const std::string& name, uint64_t scale, double ns) {
    Record_ r{name, scale, -1};
    r.ns_per_probe = ns;
    records_.push_back(r);
  }

  /// Adds a top-level integer metadata field (e.g. the producing machine's
  /// hardware_concurrency) — context for interpreting the results, kept out
  /// of the results array so per-name diffs across PRs stay clean.
  void MetaInt(const std::string& key, uint64_t value) {
    meta_.emplace_back(key, value);
  }

  /// Writes all records as JSON. Returns false on I/O failure.
  bool WriteFile(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"unit\": \"seconds\",\n",
                 bench_name_.c_str());
    for (const auto& [key, value] : meta_) {
      std::fprintf(f, "  \"%s\": %llu,\n", key.c_str(),
                   static_cast<unsigned long long>(value));
    }
    std::fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record_& r = records_[i];
      std::fprintf(f, "    {\"name\": \"%s\", \"scale\": %llu",
                   r.name.c_str(), static_cast<unsigned long long>(r.scale));
      if (r.ns_per_probe >= 0) {
        std::fprintf(f, ", \"ns_per_probe\": %.1f", r.ns_per_probe);
      } else {
        std::fprintf(f, ", \"seconds\": %.6f", r.seconds);
      }
      if (r.aa_spread_seconds >= 0) {
        std::fprintf(f, ", \"aa_spread_seconds\": %.6f", r.aa_spread_seconds);
      }
      if (r.parse_seconds >= 0) {
        std::fprintf(f,
                     ", \"parse_seconds\": %.6f, \"freeze_seconds\": %.6f",
                     r.parse_seconds, r.freeze_seconds);
      }
      std::fprintf(f, "}%s\n", i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Record_ {
    std::string name;
    uint64_t scale;
    double seconds;
    double parse_seconds = -1;  // -1 = not a load row (phase breakdown absent)
    double freeze_seconds = -1;
    double ns_per_probe = -1;  // -1 = a wall-time row
    double aa_spread_seconds = -1;  // -1 = not timed round-robin
  };
  std::string bench_name_;
  std::vector<std::pair<std::string, uint64_t>> meta_;
  std::vector<Record_> records_;
};

}  // namespace rdfsum::bench

#endif  // RDFSUM_BENCH_BENCH_COMMON_H_
