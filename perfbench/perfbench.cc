// The rdfsum benchmark binary: runs one workload (point, drain or publish)
// end to end through the library's public API and writes its raw
// measurements as one JSON object. perfbench/run.py builds this binary,
// generates the request file from the seed, pins the CPU set, and reduces
// the raw samples to the metrics named in BENCHMARK.json. See
// perfbench/README.md for the workloads, the metrics and the noise rules.
//
//   perfbench --workload point --requests reqs.tsv --products 7352
//             --data-seed 1 --seconds 10 --trace 0 --workdir DIR --out raw.json
//
// Every request runs at parallelism 1. The measured phase repeats a fixed
// round of operations until --seconds have elapsed; every operation's
// answer is checked against the in-process evaluator on the same image.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gen/bsbm.h"
#include "io/ntriples_parser.h"
#include "io/ntriples_writer.h"
#include "query/cursor.h"
#include "query/evaluator.h"
#include "query/plan.h"
#include "query/sparql_parser.h"
#include "server/client.h"
#include "server/server.h"
#include "server/snapshot.h"
#include "server/wire.h"
#include "store/mmap_store.h"
#include "summary/summarizer.h"

namespace rdfsum::perfbench {
namespace {

using query::PlannerMode;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

struct Usage {
  double cpu_s = 0;
  uint64_t ctx_switches = 0;
};

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime),
          static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---- Tracing ---------------------------------------------------------------
//
// Spans are recorded around every call into a library layer, into a
// per-thread buffer, and written out when the run ends. A span's name is
// "<layer>.<call>"; its layer is the part before the first dot. Spans are
// recorded only while g_tracing is on, which is never during the phases
// whose numbers become end-to-end metrics.

std::atomic<bool> g_tracing{false};

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index into the same thread's spans; -1 for a root
  uint64_t op;     // operation id; 0 outside the measured loop
};

struct SpanLog {
  uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<int32_t> open;  // stack of unfinished spans
};

std::mutex g_logs_mu;
std::vector<std::unique_ptr<SpanLog>> g_logs;  // guarded by g_logs_mu
thread_local SpanLog* tl_log = nullptr;
thread_local uint64_t tl_op = 0;
std::atomic<uint64_t> g_next_op{1};

SpanLog& ThreadLog() {
  if (tl_log == nullptr) {
    std::lock_guard<std::mutex> lock(g_logs_mu);
    g_logs.push_back(std::make_unique<SpanLog>());
    tl_log = g_logs.back().get();
    tl_log->thread = static_cast<uint32_t>(g_logs.size());
  }
  return *tl_log;
}

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (!g_tracing.load(std::memory_order_relaxed)) return;
    log_ = &ThreadLog();
    index_ = static_cast<int32_t>(log_->spans.size());
    const int32_t parent = log_->open.empty() ? -1 : log_->open.back();
    log_->spans.push_back({name, NowNs(), 0, parent, tl_op});
    log_->open.push_back(index_);
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    log_->spans[index_].end_ns = NowNs();
    log_->open.pop_back();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_ = nullptr;
  int32_t index_ = -1;
};

/// One measured operation: assigns the thread's op id and opens the root
/// span every layer span of the operation nests under.
class OpScope {
 public:
  OpScope() : span_((tl_op = g_next_op.fetch_add(1), "bench.op")) {}
  ~OpScope() { tl_op = 0; }

 private:
  ScopedSpan span_;
};

std::string_view LayerOf(const char* name) {
  std::string_view n(name);
  return n.substr(0, n.find('.'));
}

/// Self time per layer over the spans of measured operations (op != 0):
/// each span's duration minus the part its child spans cover. Returns
/// microseconds per operation, keyed by layer.
std::map<std::string, double> SelfTimePerOp() {
  std::map<std::string, double> total_ns;
  uint64_t ops = 0;
  for (const auto& log : g_logs) {
    std::vector<int64_t> child_ns(log->spans.size(), 0);
    for (const Span& s : log->spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < log->spans.size(); ++i) {
      const Span& s = log->spans[i];
      if (s.op == 0) continue;
      if (s.parent < 0) ++ops;
      total_ns[std::string(LayerOf(s.name))] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
    }
  }
  std::map<std::string, double> out;
  for (const auto& [layer, ns] : total_ns) {
    out[layer] = ops == 0 ? 0 : ns / 1e3 / static_cast<double>(ops);
  }
  return out;
}

/// Writes every span as a Chrome trace-event file (chrome://tracing,
/// Perfetto): one complete event per span, microsecond timestamps.
bool WriteTrace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  int64_t t0 = INT64_MAX;
  for (const auto& log : g_logs) {
    for (const Span& s : log->spans) t0 = std::min(t0, s.start_ns);
  }
  for (const auto& log : g_logs) {
    for (const Span& s : log->spans) {
      if (!first) out << ",\n";
      first = false;
      out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << LayerOf(s.name)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << log->thread
          << ",\"ts\":" << static_cast<double>(s.start_ns - t0) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"op\":" << s.op << ",\"parent\":" << s.parent
          << "}}";
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- Answers ----------------------------------------------------------------

uint64_t Fnv(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Row count plus an order-insensitive hash of the rows (a sum of mixed
/// per-row hashes), so answers compare equal whatever order a plan emits.
struct Answer {
  uint64_t rows = 0;
  uint64_t hash = 0;

  void AddTerms(const std::vector<std::string>& cols) {
    uint64_t h = 1469598103934665603ULL;
    for (const std::string& c : cols) h = Fnv(c, Fnv("\x1f", h));
    Add(h);
  }
  void AddIds(const query::IdRow& row) {
    uint64_t h = 1469598103934665603ULL;
    for (TermId id : row) h = Mix(h ^ id);
    Add(h);
  }
  void Add(uint64_t row_hash) {
    ++rows;
    hash += Mix(row_hash);
  }
  bool operator==(const Answer& o) const {
    return rows == o.rows && hash == o.hash;
  }
};

// ---- Host speed -------------------------------------------------------------
//
// The host's speed moves by up to 2x over seconds to minutes, on every CPU
// at once (README.md, "Noise"). So every end-to-end time this binary
// reports is scaled to a reference speed: a fixed kernel is timed before
// and after each measured stretch, and the stretch's times are multiplied
// by (kCalibRefMs / the kernel's mean time around it)^kHostExponent. The
// kernel uses only the standard library, so a change to rdfsum cannot
// speed it up and cancel itself out. Per-layer times stay raw wall time.

/// The kernel's time at the host's fast speed.
constexpr double kCalibRefMs = 3.0;

/// How strongly the workloads follow the kernel: across 240 bench
/// processes of two ten-seed runs per workload, log(median round time) grew
/// with log(median kernel time) with slope 0.72 (point), 0.78 (drain) and
/// 0.89 (publish), correlation >= 0.89 (README.md, "Noise"). Scaling by the
/// full ratio over-corrected a slow host by 16% on point.
constexpr double kHostExponent = 0.75;

uint64_t g_calib_sink = 0;

/// Time of one pass of the calibration kernel, the median of three. The
/// kernel does what the workloads do most: it builds and probes a hash
/// table, sorts, allocates, and follows a chain of random reads through a
/// 4 MiB table. Of the kernels tried, its time tracked the 1-CPU
/// workloads' round times best (README.md, "Noise").
double CalibrateMs() {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(1u << 20);
    uint64_t x = 1;
    for (uint32_t& v : t) v = static_cast<uint32_t>(x = Mix(x));
    return t;
  }();
  std::vector<double> ms;
  for (int pass = 0; pass < 3; ++pass) {
    const int64_t t0 = NowNs();
    uint64_t x = 0;
    std::unordered_map<uint64_t, uint64_t> map;
    for (uint64_t i = 0; i < 10'000; ++i) map.emplace(Mix(i), i);
    for (uint64_t i = 0; i < 20'000; ++i) {
      auto it = map.find(Mix(i >> 1));
      if (it != map.end()) x += it->second;
    }
    std::vector<uint64_t> keys(10'000);
    for (uint64_t i = 0; i < keys.size(); ++i) keys[i] = Mix(i + x);
    std::sort(keys.begin(), keys.end());
    x += keys[keys.size() / 2];
    for (int i = 0; i < 50'000; ++i) {
      x = Mix(x + table[x & (table.size() - 1)]);
    }
    g_calib_sink += x;
    ms.push_back(MsSince(t0));
  }
  return Median(ms);
}

/// The factor that scales a time measured between two calibrations to the
/// reference speed.
double HostScale(double calib_before_ms, double calib_after_ms) {
  return std::pow(kCalibRefMs / ((calib_before_ms + calib_after_ms) / 2),
                  kHostExponent);
}

/// A stopwatch scaled to the reference speed stretch by stretch: each Lap()
/// times the kernel and scales the stretch since the previous lap by the
/// kernel's mean time around it. The kernel's own time is not counted.
class ScaledStopwatch {
 public:
  ScaledStopwatch() : calib_ms_(CalibrateMs()), start_ns_(NowNs()) {}

  /// Ends a stretch; returns the scaled milliseconds since construction.
  double Lap() {
    const double raw_ms = MsSince(start_ns_);
    const double next = CalibrateMs();
    total_ms_ += raw_ms * HostScale(calib_ms_, next);
    calib_ms_ = next;
    start_ns_ = NowNs();
    return total_ms_;
  }

 private:
  double calib_ms_;
  int64_t start_ns_;
  double total_ms_ = 0;
};

// ---- Requests ---------------------------------------------------------------

struct Request {
  std::string kind;  // empty | star | chain | snowflake | d-* (drain shapes)
  PlannerMode mode = PlannerMode::kGreedy;
  std::string text;
  query::BgpQuery q;
  /// In-process answers, one per data version (point and drain use [0]).
  Answer expect[2];
};

bool LoadRequests(const std::string& path, std::vector<Request>* out,
                  std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot read " + path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const size_t a = line.find('\t');
    const size_t b = a == std::string::npos ? a : line.find('\t', a + 1);
    if (b == std::string::npos) {
      *err = "malformed request line: " + line;
      return false;
    }
    Request r;
    r.kind = line.substr(0, a);
    r.text = line.substr(b + 1);
    if (!query::ParsePlannerMode(line.substr(a + 1, b - a - 1), &r.mode)) {
      *err = "unknown planner in: " + line;
      return false;
    }
    auto parsed = query::ParseSparql(r.text);
    if (!parsed.ok()) {
      *err = "request does not parse: " + parsed.status().ToString();
      return false;
    }
    r.q = std::move(parsed).value();
    out->push_back(std::move(r));
  }
  if (out->empty()) {
    *err = "no requests in " + path;
    return false;
  }
  return true;
}

/// The reference answer: the greedy planner's rows on the in-process
/// evaluator over the same image, rendered exactly as the wire renders them
/// (`by_ids` hashes TermIds instead, for the in-process drain). Greedy, not
/// naive: a naive plan scans a whole predicate for every anchored query.
StatusOr<Answer> ReferenceAnswer(const query::BgpEvaluator& ev,
                                 const query::BgpQuery& q, bool by_ids) {
  auto cursor = ev.Open(q, PlannerMode::kGreedy);
  if (!cursor.ok()) return cursor.status();
  Answer a;
  query::IdRow row;
  std::vector<std::string> cols;
  while ((*cursor)->Next(&row)) {
    if (by_ids) {
      a.AddIds(row);
      continue;
    }
    cols.clear();
    for (const Term& t : ev.Decode(row)) cols.push_back(t.ToNTriples());
    a.AddTerms(cols);
  }
  if (!(*cursor)->status().ok()) return (*cursor)->status();
  return a;
}

/// Fills expect[version] of every request, computing each distinct text once.
Status FillExpected(const query::BgpEvaluator& ev, bool by_ids, int version,
                    std::vector<Request>* reqs) {
  std::unordered_map<std::string, Answer> seen;
  for (Request& r : *reqs) {
    auto it = seen.find(r.text);
    if (it == seen.end()) {
      auto a = ReferenceAnswer(ev, r.q, by_ids);
      if (!a.ok()) return a.status();
      it = seen.emplace(r.text, *a).first;
    }
    r.expect[version] = it->second;
  }
  return Status::OK();
}

// ---- Wire client ------------------------------------------------------------
//
// A minimal blocking client over server/wire.h. Unlike server::Client it
// reports the DONE frame's row count (checked against the rows received)
// and the arrival time of the first ROW frame.

class WireConn {
 public:
  static StatusOr<std::unique_ptr<WireConn>> Connect(uint16_t port) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::IOError("socket failed");
    std::unique_ptr<WireConn> conn(new WireConn(fd));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      return Status::IOError("connect failed");
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    server::Frame hello;
    RDFSUM_RETURN_IF_ERROR(server::ReadFrame(fd, &hello));
    if (hello.type != server::kFrameHello) {
      return Status::Corruption("expected HELLO");
    }
    return conn;
  }

  ~WireConn() { ::close(fd_); }
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  /// Runs one query at parallelism 1. `first_row_ns` receives the delay
  /// from sending the request to the first ROW frame (-1 when the answer is
  /// empty).
  Status Query(const Request& r, Answer* out, int64_t* first_row_ns) {
    server::QueryRequest req;
    req.planner = static_cast<uint8_t>(r.mode);  // same numbering as wire
    req.parallelism = 1;
    req.query = r.text;
    *first_row_ns = -1;
    const int64_t sent = NowNs();
    RDFSUM_RETURN_IF_ERROR(server::WriteFrame(
        fd_, server::kFrameQuery, server::EncodeQueryRequest(req)));
    std::vector<std::string> cols;
    for (;;) {
      server::Frame frame;
      RDFSUM_RETURN_IF_ERROR(server::ReadFrame(fd_, &frame));
      if (frame.type == server::kFrameRow) {
        if (*first_row_ns < 0) *first_row_ns = NowNs() - sent;
        server::PayloadReader reader(frame.payload);
        uint32_t n = 0;
        if (!reader.ReadU32(&n)) return Status::Corruption("bad ROW frame");
        cols.resize(n);
        for (std::string& c : cols) {
          if (!reader.ReadLenBytes(&c)) {
            return Status::Corruption("bad ROW frame");
          }
        }
        out->AddTerms(cols);
        continue;
      }
      if (frame.type != server::kFrameDone) {
        return Status::Corruption("unexpected frame " +
                                  std::to_string(frame.type));
      }
      server::DoneReply done;
      if (!server::DecodeDone(frame.payload, &done)) {
        return Status::Corruption("bad DONE frame");
      }
      Status st = server::StatusFromWire(done.code, done.message);
      if (st.ok() && done.rows != out->rows) {
        return Status::Corruption(
            "DONE reports " + std::to_string(done.rows) + " rows, received " +
            std::to_string(out->rows));
      }
      return st;
    }
  }

 private:
  explicit WireConn(int fd) : fd_(fd) {}
  int fd_;
};

// ---- Results ----------------------------------------------------------------

struct Round {
  uint64_t ops = 0;
  uint64_t rows = 0;
  double seconds = 0;  // scaled to the reference speed, as is cpu_s
  double cpu_s = 0;
  double calib_ms = 0;  // the kernel's mean time around the round
  uint64_t ctx_switches = 0;
  bool traced = false;
};

/// Per-thread samples of the measured loop, merged at the end.
struct Samples {
  std::vector<double> latency_ms;  // scaled once the round ends
  std::vector<double> first_row_ms;
  double raw_latency_ms = 0;  // unscaled sum of latency_ms
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rows = 0;
  std::vector<std::string> errors;

  void Error(std::string msg) {
    if (errors.size() < 20) errors.push_back(std::move(msg));
  }
  void AddLatency(double ms) {
    latency_ms.push_back(ms);
    raw_latency_ms += ms;
  }
  void ClearTimings() {
    latency_ms.clear();
    first_row_ms.clear();
    raw_latency_ms = 0;
  }
  void Merge(const Samples& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    first_row_ms.insert(first_row_ms.end(), o.first_row_ms.begin(),
                        o.first_row_ms.end());
    raw_latency_ms += o.raw_latency_ms;
    attempted += o.attempted;
    failed += o.failed;
    rows += o.rows;
    for (const std::string& e : o.errors) Error(e);
  }
};

struct Results {
  std::vector<double> setup_s;
  std::vector<double> publish_ms;
  std::vector<Round> rounds;
  Samples samples;
  std::map<std::string, double> layers;
  std::map<std::string, std::string> not_measured;
};

/// Runs one wire request, records its samples, and checks its answer.
void RunWireOp(WireConn* conn, const Request& r, int version, Samples* s) {
  OpScope op;
  Answer got;
  int64_t first_ns = -1;
  const int64_t t0 = NowNs();
  Status st;
  {
    ScopedSpan span("server.request");
    st = conn->Query(r, &got, &first_ns);
  }
  const double ms = MsSince(t0);
  ++s->attempted;
  if (!st.ok()) {
    ++s->failed;
    s->Error(r.kind + " request failed: " + st.ToString());
    return;
  }
  if (!(got == r.expect[version])) {
    s->Error(r.kind + " answer mismatch (" + std::to_string(got.rows) +
             " rows served, " + std::to_string(r.expect[version].rows) +
             " in process): " + r.text);
  }
  s->rows += got.rows;
  s->AddLatency(ms);
  if (first_ns >= 0) {
    s->first_row_ms.push_back(static_cast<double>(first_ns) / 1e6);
  }
}

// ---- Publish path -----------------------------------------------------------

struct ImageTimes {
  double parse_ms = 0;
  double dense_ms = 0;
  double freeze_ms = 0;
  double sort_ms = 0;
  uint64_t triples = 0;
};

/// N-Triples text -> Graph -> dense substrate -> frozen image at `path`.
/// When `graph_out` is non-null the parsed graph is handed back.
Status BuildImage(const std::string& text, const std::string& path,
                  ImageTimes* t, Graph* graph_out = nullptr) {
  Graph g;
  int64_t t0 = NowNs();
  {
    ScopedSpan span("io.parse");
    RDFSUM_RETURN_IF_ERROR(io::NTriplesParser::ParseString(text, &g));
  }
  t->parse_ms = MsSince(t0);
  t0 = NowNs();
  {
    ScopedSpan span("rdf.dense");
    g.Dense();
  }
  t->dense_ms = MsSince(t0);
  t0 = NowNs();
  double sort_s = 0;
  {
    ScopedSpan span("store.freeze");
    store::FreezeOptions fo;
    fo.freeze_seconds = &sort_s;
    RDFSUM_RETURN_IF_ERROR(store::FreezeGraphToFile(g, path, fo));
  }
  t->freeze_ms = MsSince(t0);
  t->sort_ms = sort_s * 1e3;
  t->triples = g.NumTriples();
  if (graph_out != nullptr) *graph_out = std::move(g);
  return Status::OK();
}

std::string GenerateText(uint64_t products, uint64_t seed) {
  gen::BsbmOptions o;
  o.num_products = products;
  o.seed = seed;
  return io::NTriplesWriter::ToString(gen::GenerateBsbm(o));
}

/// The numeric values of a STATS payload (`key: value` lines).
std::map<std::string, double> StatsValues(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const size_t colon = line.find(": ");
    if (colon == std::string::npos) continue;
    out[line.substr(0, colon)] =
        std::strtod(line.c_str() + colon + 2, nullptr);
  }
  return out;
}

// ---- Layer probe (traced runs) ----------------------------------------------
//
// Calls each layer's public functions on the workload's own data and
// requests, outside the measured loop, and records how long each takes.
// The image-build times are the medians of `measured`, the builds of the
// measured loop (publish), or else of the probe's own build.

void ProbeLayers(const std::string& text, const std::string& probe_path,
                 const std::vector<Request>& reqs,
                 std::vector<ImageTimes> measured, Results* res) {
  auto& L = res->layers;
  ImageTimes t;
  Graph g;
  Status built = BuildImage(text, probe_path, &t, &g);
  if (!built.ok()) {
    res->samples.Error("probe build failed: " + built.ToString());
    return;
  }
  if (measured.empty()) measured.push_back(t);
  auto median_of = [&](double ImageTimes::*field) {
    std::vector<double> v;
    for (const ImageTimes& m : measured) v.push_back(m.*field);
    return Median(v);
  };
  L["io.parse_ms"] = median_of(&ImageTimes::parse_ms);
  L["rdf.dense_ms"] = median_of(&ImageTimes::dense_ms);
  L["store.freeze_ms"] = median_of(&ImageTimes::freeze_ms);
  L["store.sort_ms"] = median_of(&ImageTimes::sort_ms);
  L["store.image_bytes_per_triple"] =
      static_cast<double>(std::filesystem::file_size(probe_path)) /
      static_cast<double>(std::max<uint64_t>(1, t.triples));

  std::vector<double> open_ms;
  for (int i = 0; i < 3; ++i) {
    const int64_t t0 = NowNs();
    ScopedSpan span("store.open");
    auto st = store::MmapStore::Open(probe_path);
    if (!st.ok()) {
      res->samples.Error("probe open failed: " + st.status().ToString());
      return;
    }
    open_ms.push_back(MsSince(t0));
  }
  L["store.open_ms"] = Median(open_ms);

  {
    ScopedSpan span("summary.summarize");
    auto sum = summary::TrySummarize(g, summary::SummaryKind::kWeak);
    if (!sum.ok()) {
      res->samples.Error("probe summarize failed: " + sum.status().ToString());
      return;
    }
    L["summary.partition_ms"] = sum->stats.partition_seconds * 1e3;
    L["summary.quotient_ms"] = sum->stats.quotient_seconds * 1e3;
    L["summary.edges"] = static_cast<double>(sum->stats.num_all_edges);
  }

  auto snap = server::Snapshot::Open(probe_path, 1);
  if (!snap.ok()) {
    res->samples.Error("probe snapshot failed: " + snap.status().ToString());
    return;
  }
  const int64_t est_t0 = NowNs();
  const summary::CardinalityEstimator* est = nullptr;
  {
    ScopedSpan span("summary.estimator");
    auto e = (*snap)->Estimator();
    if (e.ok()) est = *e;
  }
  const double est_total_ms = MsSince(est_t0);
  double mint_ms = 0;
  for (const auto& m : (*snap)->MintReports()) mint_ms += m.seconds * 1e3;
  L["summary.mint_ms"] = mint_ms;
  L["summary.estimator_ms"] = est_total_ms - mint_ms;
  if (est == nullptr) res->samples.Error("probe estimator failed");

  // Query layer, once per distinct request text.
  const query::BgpEvaluator& ev = (*snap)->evaluator();
  const Dictionary& dict = (*snap)->dict();
  double parse_ns = 0, plan_ns = 0, replan_ns = 0, open_ns = 0, first_ns = 0,
         next_ns = 0, decode_ns = 0, op_rows = 0, result_rows = 0;
  double q_greedy = 1, q_summary = 1;
  uint64_t n = 0, total_rows = 0, with_rows = 0;
  std::unordered_map<std::string, bool> seen;
  for (const Request& r : reqs) {
    if (!seen.emplace(r.text, true).second) continue;
    ++n;
    int64_t t0 = NowNs();
    {
      ScopedSpan span("query.parse");
      auto q = query::ParseSparql(r.text);
      if (!q.ok()) continue;
    }
    parse_ns += static_cast<double>(NowNs() - t0);
    t0 = NowNs();
    query::QueryPlan plan;
    {
      ScopedSpan span("query.plan");
      plan = query::BuildQueryPlan(r.q, dict, ev.table(), r.mode,
                                   r.mode == PlannerMode::kSummary ? est
                                                                   : nullptr);
    }
    plan_ns += static_cast<double>(NowNs() - t0);
    const query::PlanSkeleton skeleton = query::SkeletonOf(plan);
    t0 = NowNs();
    {
      ScopedSpan span("query.replan");
      query::NormalizedBgpShape(r.q);
      plan = query::PlanFromSkeleton(r.q, dict, skeleton);
    }
    replan_ns += static_cast<double>(NowNs() - t0);

    t0 = NowNs();
    std::unique_ptr<query::Cursor> cursor;
    {
      ScopedSpan span("query.open");
      query::CursorOptions copts;
      copts.parallelism = 1;
      auto c = ev.Open(r.q, plan, copts);
      if (!c.ok()) continue;
      cursor = std::move(c).value();
    }
    open_ns += static_cast<double>(NowNs() - t0);
    std::vector<query::IdRow> rows;
    query::IdRow row;
    t0 = NowNs();
    {
      ScopedSpan span("query.next");
      if (cursor->Next(&row)) {
        first_ns += static_cast<double>(NowNs() - t0);
        rows.push_back(row);
        while (cursor->Next(&row)) rows.push_back(row);
      }
    }
    next_ns += static_cast<double>(NowNs() - t0);
    t0 = NowNs();
    size_t checksum = 0;
    {
      ScopedSpan span("query.decode");
      for (const query::IdRow& ids : rows) {
        checksum += ev.Decode(ids).front().lexical.size();
      }
    }
    decode_ns += static_cast<double>(NowNs() - t0);
    total_rows += rows.size();
    if (rows.empty()) continue;
    if (checksum == 0) res->samples.Error("decoded rows are empty");
    ++with_rows;

    auto ex = ev.Explain(r.q, PlannerMode::kGreedy);
    if (!ex.ok()) continue;
    for (const auto& o : ex->operators) {
      op_rows += static_cast<double>(o.rows_produced);
    }
    result_rows += static_cast<double>(ex->num_result_rows);
    const double actual =
        std::max(1.0, static_cast<double>(ex->num_embeddings));
    for (PlannerMode mode : {PlannerMode::kGreedy, PlannerMode::kSummary}) {
      const query::QueryPlan p = query::BuildQueryPlan(
          r.q, dict, ev.table(), mode,
          mode == PlannerMode::kSummary ? est : nullptr);
      const double e =
          std::max(1.0, p.steps.empty() ? 0.0 : p.steps.back().estimated_rows);
      const double qe = std::max(e / actual, actual / e);
      double& slot = mode == PlannerMode::kGreedy ? q_greedy : q_summary;
      slot = std::max(slot, qe);
    }
  }
  const double dn = static_cast<double>(std::max<uint64_t>(1, n));
  const double dr = static_cast<double>(std::max<uint64_t>(1, total_rows));
  L["query.parse_us"] = parse_ns / 1e3 / dn;
  L["query.plan_us"] = plan_ns / 1e3 / dn;
  L["query.replan_us"] = replan_ns / 1e3 / dn;
  L["query.open_us"] = open_ns / 1e3 / dn;
  L["query.first_row_us"] =
      first_ns / 1e3 / static_cast<double>(std::max<uint64_t>(1, with_rows));
  L["query.next_ns_per_row"] = next_ns / dr;
  L["query.decode_ns_per_row"] = decode_ns / dr;
  L["query.work_per_row"] = result_rows > 0 ? op_rows / result_rows : 0;
  L["query.q_error_greedy"] = q_greedy;
  L["query.q_error_summary"] = q_summary;
}

/// Server-side per-layer metrics of the measured phase: STATS deltas, the
/// client-observed time of its `queries` queries (`client_ms` in total),
/// and the getrusage deltas of its rounds.
void ServerLayers(const std::map<std::string, double>& before,
                  const std::map<std::string, double>& after,
                  double client_ms, uint64_t queries, Results* res) {
  auto delta = [&](const std::string& k) {
    auto a = after.find(k), b = before.find(k);
    return (a == after.end() ? 0 : a->second) -
           (b == before.end() ? 0 : b->second);
  };
  auto& L = res->layers;
  double server_us = 0;
  for (const char* p : {"parse", "plan", "exec"}) {
    const std::string base = std::string("phase_") + p;
    const double count = delta(base + "_count");
    const double total = delta(base + "_total_us");
    L[std::string("server.") + p + "_us"] = count > 0 ? total / count : 0;
    server_us += total;
  }
  const double hits = delta("plan_cache_hits");
  const double misses = delta("plan_cache_misses");
  L["server.plan_cache_hits"] = hits;
  L["server.plan_cache_misses"] = misses;
  L["server.plan_cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  const double q = static_cast<double>(std::max<uint64_t>(1, queries));
  L["server.outside_us"] = (client_ms * 1e3 - server_us) / q;
  uint64_t ops = 0, switches = 0;
  for (const Round& r : res->rounds) {
    ops += r.ops;
    switches += r.ctx_switches;
  }
  L["server.ctx_switches_per_op"] =
      static_cast<double>(switches) /
      static_cast<double>(std::max<uint64_t>(1, ops));
}

// ---- Workloads --------------------------------------------------------------

struct Config {
  std::string workload;
  std::string requests_path;
  std::string workdir;
  std::string out_path;
  uint64_t products = 0;
  uint64_t data_seed = 1;  // the BSBM generator's seed
  double seconds = 10;
  bool trace = false;
};

/// Untimed rounds before the measured phase: page faults on the fresh
/// image and allocator warm-up.
constexpr int64_t kWarmupNs = 500'000'000;

/// The measured loop shared by all workloads: runs `round` untimed for
/// kWarmupNs, calls `reset` to drop the warm-up's samples, then repeats
/// `round` until `seconds` have elapsed (at least three rounds). Each
/// round's seconds and CPU time, and the entries it appends to the
/// `per_op` sample lists, are scaled to the reference speed. In traced
/// runs every other round is traced, so traced and untraced rounds see the
/// same host conditions and their rates compare fairly for
/// trace.overhead_frac.
template <typename RoundFn, typename ResetFn>
void MeasureRounds(double seconds, bool trace,
                   const std::vector<std::vector<double>*>& per_op,
                   Results* res, RoundFn round, ResetFn reset) {
  const int64_t w0 = NowNs();
  while (NowNs() - w0 < kWarmupNs) round();
  reset();
  double calib = CalibrateMs();
  double elapsed = 0;
  for (int n = 0; elapsed < seconds || n < 3; ++n) {
    const bool traced = trace && n % 2 == 1;
    std::vector<size_t> from;
    for (const auto* v : per_op) from.push_back(v->size());
    g_tracing.store(traced, std::memory_order_relaxed);
    const Usage u0 = ProcessUsage();
    const int64_t t0 = NowNs();
    Round r = round();
    const double raw_s = static_cast<double>(NowNs() - t0) / 1e9;
    const Usage u1 = ProcessUsage();
    g_tracing.store(false, std::memory_order_relaxed);
    const double next = CalibrateMs();
    const double scale = HostScale(calib, next);
    r.calib_ms = (calib + next) / 2;
    calib = next;
    r.seconds = raw_s * scale;
    r.cpu_s = (u1.cpu_s - u0.cpu_s) * scale;
    r.ctx_switches = u1.ctx_switches - u0.ctx_switches;
    r.traced = traced;
    for (size_t i = 0; i < per_op.size(); ++i) {
      std::vector<double>& v = *per_op[i];
      for (size_t j = from[i]; j < v.size(); ++j) v[j] *= scale;
    }
    res->rounds.push_back(r);
    elapsed += raw_s;
  }
}

server::ServerOptions ServeOptions(uint32_t workers) {
  server::ServerOptions o;
  o.num_workers = workers;
  o.queue_depth = 4;
  o.plan_cache = true;
  o.default_planner = PlannerMode::kSummary;
  o.default_parallelism = 1;
  o.max_parallelism = 1;
  return o;
}

/// Median round trip of `n` RELOADs of the live image (each re-opens and
/// re-validates it and clears the plan cache).
Status ProbeReload(uint16_t port, int n, Results* res) {
  auto ctrl = server::Client::Connect("127.0.0.1", port);
  if (!ctrl.ok()) return ctrl.status();
  std::vector<double> ms;
  for (int i = 0; i < n; ++i) {
    const int64_t t0 = NowNs();
    RDFSUM_RETURN_IF_ERROR((*ctrl)->Reload(""));
    ms.push_back(MsSince(t0));
  }
  res->layers["server.reload_ms"] = Median(ms);
  return Status::OK();
}

Status RunPoint(const Config& cfg, std::vector<Request>& reqs, Results* res) {
  constexpr int kClients = 2;
  const std::string image = cfg.workdir + "/point.rsb";
  // Set-up: generate, publish (parse, freeze, start, first query), warm.
  ScaledStopwatch setup;
  const std::string text = GenerateText(cfg.products, cfg.data_seed);
  const double generate_ms = setup.Lap();
  ImageTimes times;
  RDFSUM_RETURN_IF_ERROR(BuildImage(text, image, &times));
  setup.Lap();
  server::Server srv;
  RDFSUM_RETURN_IF_ERROR(srv.Start(image, ServeOptions(kClients)));
  std::vector<std::unique_ptr<WireConn>> conns;
  for (int c = 0; c < kClients; ++c) {
    auto conn = WireConn::Connect(srv.port());
    if (!conn.ok()) return conn.status();
    conns.push_back(std::move(conn).value());
  }
  setup.Lap();
  // The first summary-planned query mints the weak summary + estimator.
  Answer first;
  int64_t first_ns = 0;
  RDFSUM_RETURN_IF_ERROR(conns[0]->Query(reqs.front(), &first, &first_ns));
  res->publish_ms.push_back(setup.Lap() - generate_ms);
  // One request of every shape fills the plan cache.
  std::map<std::string, const Request*> shapes;
  for (const Request& r : reqs) shapes.emplace(r.kind, &r);
  for (const auto& [kind, r] : shapes) {
    Answer a;
    RDFSUM_RETURN_IF_ERROR(conns[0]->Query(*r, &a, &first_ns));
  }
  res->setup_s.push_back(setup.Lap() / 1e3);
  RDFSUM_RETURN_IF_ERROR(
      FillExpected(srv.snapshot()->evaluator(), false, 0, &reqs));
  if (!(first == reqs.front().expect[0])) {
    res->samples.Error("the set-up's first query has a wrong answer");
  }

  std::vector<Samples> samples(kClients);
  std::barrier sync(kClients + 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (;;) {
        sync.arrive_and_wait();
        if (stop.load()) return;
        for (size_t i = c; i < reqs.size(); i += kClients) {
          RunWireOp(conns[c].get(), reqs[i], 0, &samples[c]);
        }
        sync.arrive_and_wait();
      }
    });
  }
  std::map<std::string, double> stats0;
  uint64_t rows_before = 0;
  std::vector<std::vector<double>*> per_op;
  for (Samples& s : samples) {
    per_op.push_back(&s.latency_ms);
    per_op.push_back(&s.first_row_ms);
  }
  MeasureRounds(
      cfg.seconds, cfg.trace, per_op, res,
      [&] {
        sync.arrive_and_wait();  // clients start the round
        sync.arrive_and_wait();  // clients finished it
        uint64_t rows = 0;
        for (const Samples& s : samples) rows += s.rows;
        Round r;
        r.ops = reqs.size();
        r.rows = rows - rows_before;
        rows_before = rows;
        return r;
      },
      [&] {
        for (Samples& s : samples) s.ClearTimings();
        stats0 = StatsValues(srv.StatsText());
      });
  stop.store(true);
  sync.arrive_and_wait();
  for (std::thread& t : clients) t.join();
  conns.clear();  // frees the workers for the control connection below

  for (const Samples& s : samples) res->samples.Merge(s);
  if (cfg.trace) {
    ServerLayers(stats0, StatsValues(srv.StatsText()),
                 res->samples.raw_latency_ms, res->samples.latency_ms.size(),
                 res);
    RDFSUM_RETURN_IF_ERROR(ProbeReload(srv.port(), 3, res));
    ProbeLayers(text, cfg.workdir + "/probe.rsb", reqs, {}, res);
  }
  return Status::OK();
}

/// Drains one request in process: plan, open, pull every row and decode it.
/// The answer is checked against r.expect[0] when `check` is set, and
/// returned either way.
Answer DrainOp(const Dictionary& dict, const query::BgpEvaluator& ev,
               const Request& r, bool check, Samples* s) {
  OpScope op;
  const int64_t t0 = NowNs();
  query::QueryPlan plan;
  {
    ScopedSpan span("query.plan");
    plan = query::BuildQueryPlan(r.q, dict, ev.table(), r.mode);
  }
  const int64_t open0 = NowNs();
  int64_t first_ns = -1;
  std::unique_ptr<query::Cursor> cursor;
  ++s->attempted;
  {
    ScopedSpan span("query.open");
    query::CursorOptions copts;
    copts.parallelism = 1;
    auto c = ev.Open(r.q, plan, copts);
    if (!c.ok()) {
      ++s->failed;
      s->Error(r.kind + " open failed: " + c.status().ToString());
      return {};
    }
    cursor = std::move(c).value();
  }
  Answer got;
  size_t checksum = 0;
  query::IdRow row;
  {
    ScopedSpan span("query.drain");
    while (cursor->Next(&row)) {
      if (first_ns < 0) first_ns = NowNs() - open0;
      checksum += ev.Decode(row).front().lexical.size();
      got.AddIds(row);
    }
  }
  const double ms = MsSince(t0);
  if (!cursor->status().ok()) {
    ++s->failed;
    s->Error(r.kind + " drain failed: " + cursor->status().ToString());
    return got;
  }
  if (got.rows > 0 && checksum == 0) {
    s->Error(r.kind + " decoded rows are empty: " + r.text);
  }
  if (check && !(got == r.expect[0])) {
    s->Error(r.kind + " answer mismatch (" + std::to_string(got.rows) +
             " rows drained, " + std::to_string(r.expect[0].rows) +
             " by the reference): " + r.text);
  }
  s->rows += got.rows;
  s->AddLatency(ms);
  if (first_ns >= 0) {
    s->first_row_ms.push_back(static_cast<double>(first_ns) / 1e6);
  }
  return got;
}

Status RunDrain(const Config& cfg, std::vector<Request>& reqs, Results* res) {
  const std::string image = cfg.workdir + "/drain.rsb";
  // Set-up: generate, publish (parse, freeze, open, first query).
  ScaledStopwatch setup;
  const std::string text = GenerateText(cfg.products, cfg.data_seed);
  const double generate_ms = setup.Lap();
  ImageTimes times;
  RDFSUM_RETURN_IF_ERROR(BuildImage(text, image, &times));
  setup.Lap();
  auto store = store::MmapStore::Open(image);
  if (!store.ok()) return store.status();
  query::BgpEvaluator ev((*store)->dict(), (*store)->table());
  // The first query; its answer is checked once the references exist.
  Samples s;
  const Answer first =
      DrainOp((*store)->dict(), ev, reqs.front(), /*check=*/false, &s);
  const double setup_ms = setup.Lap();
  res->publish_ms.push_back(setup_ms - generate_ms);
  res->setup_s.push_back(setup_ms / 1e3);
  RDFSUM_RETURN_IF_ERROR(FillExpected(ev, true, 0, &reqs));
  if (!(first == reqs.front().expect[0])) {
    s.Error("the set-up's first query has a wrong answer");
  }

  MeasureRounds(
      cfg.seconds, cfg.trace, {&s.latency_ms, &s.first_row_ms}, res,
      [&] {
        Round r;
        const uint64_t rows0 = s.rows;
        for (const Request& q : reqs) {
          DrainOp((*store)->dict(), ev, q, /*check=*/true, &s);
        }
        r.ops = reqs.size();
        r.rows = s.rows - rows0;
        return r;
      },
      [&] { s.ClearTimings(); });
  res->samples.Merge(s);
  res->not_measured["server"] =
      "drain bypasses the daemon: it opens the image in process";
  if (cfg.trace) {
    for (const char* k :
         {"server.parse_us", "server.plan_us", "server.exec_us",
          "server.outside_us", "server.plan_cache_hit_ratio",
          "server.plan_cache_hits", "server.plan_cache_misses",
          "server.ctx_switches_per_op", "server.reload_ms"}) {
      res->layers[k] = 0;
    }
    ProbeLayers(text, cfg.workdir + "/probe.rsb", reqs, {}, res);
  }
  return Status::OK();
}

/// publish: the request list as point-mix reads over one connection, then
/// one publish of the other data version, repeated. The live snapshot maps
/// one of two image paths; a publish freezes into the other one, because
/// FreezeGraphToFile truncates its target in place.
Status RunPublish(const Config& cfg, std::vector<Request>& reqs,
                  Results* res) {
  const std::string images[2] = {cfg.workdir + "/publish-0.rsb",
                                 cfg.workdir + "/publish-1.rsb"};
  const uint64_t version_seeds[2] = {cfg.data_seed,
                                     cfg.data_seed + 1000003};
  std::string texts[2];
  texts[1] = GenerateText(cfg.products, version_seeds[1]);
  // Set-up: generate version 0, publish it (parse, freeze, start, first
  // query).
  ScaledStopwatch setup;
  texts[0] = GenerateText(cfg.products, version_seeds[0]);
  setup.Lap();
  ImageTimes times;
  RDFSUM_RETURN_IF_ERROR(BuildImage(texts[0], images[0], &times));
  setup.Lap();
  // Two workers: the read connection and the control connection.
  server::Server srv;
  RDFSUM_RETURN_IF_ERROR(srv.Start(images[0], ServeOptions(2)));
  auto conn = WireConn::Connect(srv.port());
  if (!conn.ok()) return conn.status();
  auto ctrl = server::Client::Connect("127.0.0.1", srv.port());
  if (!ctrl.ok()) return ctrl.status();
  Answer first;
  int64_t first_ns = 0;
  RDFSUM_RETURN_IF_ERROR((*conn)->Query(reqs.front(), &first, &first_ns));
  res->setup_s.push_back(setup.Lap() / 1e3);

  {
    // References: version 0 from the live snapshot, version 1 from an
    // image frozen into the idle path and closed again before the loop.
    RDFSUM_RETURN_IF_ERROR(
        FillExpected(srv.snapshot()->evaluator(), false, 0, &reqs));
    RDFSUM_RETURN_IF_ERROR(BuildImage(texts[1], images[1], &times));
    auto st = store::MmapStore::Open(images[1]);
    if (!st.ok()) return st.status();
    query::BgpEvaluator ev((*st)->dict(), (*st)->table());
    RDFSUM_RETURN_IF_ERROR(FillExpected(ev, false, 1, &reqs));
    if (reqs.front().expect[0] == reqs.front().expect[1]) {
      return Status::InvalidArgument(
          "the first query cannot tell the two data versions apart");
    }
  }
  Samples s;
  if (!(first == reqs.front().expect[0])) {
    s.Error("the set-up's first query has a wrong answer");
  }

  int live = 0;
  std::vector<double> reload_ms, first_query_ms;
  std::vector<ImageTimes> image_times;
  std::map<std::string, double> stats0;
  MeasureRounds(
      cfg.seconds, cfg.trace,
      {&s.latency_ms, &s.first_row_ms, &res->publish_ms}, res,
      [&] {
        const uint64_t rows0 = s.rows;
        Round r;
        r.ops = reqs.size() + 1;
        for (const Request& q : reqs) RunWireOp(conn->get(), q, live, &s);
        const double misses0 =
            StatsValues(srv.StatsText())["plan_cache_misses"];
        const int next = 1 - live;
        OpScope op;
        const int64_t pub0 = NowNs();
        ++s.attempted;
        if (srv.snapshot()->path() == images[next]) {
          ++s.failed;
          s.Error("publish target is the image the live snapshot maps");
          return r;
        }
        ImageTimes t;
        Status st = BuildImage(texts[next], images[next], &t);
        image_times.push_back(t);
        if (st.ok()) {
          const int64_t rl0 = NowNs();
          ScopedSpan span("server.reload");
          st = (*ctrl)->Reload(images[next]);
          reload_ms.push_back(MsSince(rl0));
        }
        if (st.ok()) {
          // The first query on the new epoch must see the new version.
          Answer got;
          int64_t first_row_ns = 0;
          const int64_t q0 = NowNs();
          ScopedSpan span("server.request");
          st = (*conn)->Query(reqs.front(), &got, &first_row_ns);
          first_query_ms.push_back(MsSince(q0));
          if (st.ok() && !(got == reqs.front().expect[next])) {
            s.Error("first query after a publish missed the new version");
          }
          s.rows += got.rows;
        }
        if (!st.ok()) {
          ++s.failed;
          s.Error("publish failed: " + st.ToString());
          return r;
        }
        live = next;
        res->publish_ms.push_back(MsSince(pub0));
        if (StatsValues(srv.StatsText())["plan_cache_misses"] <= misses0) {
          s.Error("a swap showed no plan-cache misses");
        }
        r.rows = s.rows - rows0;
        return r;
      },
      [&] {
        s.ClearTimings();
        res->publish_ms.clear();
        reload_ms.clear();
        first_query_ms.clear();
        image_times.clear();
        stats0 = StatsValues(srv.StatsText());
      });
  res->samples.Merge(s);
  if (cfg.trace) {
    ServerLayers(stats0, StatsValues(srv.StatsText()),
                 s.raw_latency_ms + Sum(first_query_ms),
                 s.latency_ms.size() + first_query_ms.size(), res);
    res->layers["server.reload_ms"] = Median(reload_ms);
    ProbeLayers(texts[0], cfg.workdir + "/probe.rsb", reqs, image_times, res);
  }
  return Status::OK();
}

// ---- Output -----------------------------------------------------------------

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(v[i]);
  }
  return out + "]";
}

template <typename Map, typename Fn>
std::string JsonObject(const Map& m, Fn value) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ",";
    first = false;
    out += JsonString(k) + ":" + value(v);
  }
  return out + "}";
}

bool WriteResults(const Config& cfg, const Results& res, const Status& status,
                  const std::map<std::string, double>& self_us) {
  std::ofstream out(cfg.out_path);
  if (!out) return false;
  std::vector<double> rounds_ops, rounds_s, rounds_rows, rounds_cpu,
      rounds_calib;
  for (const Round& r : res.rounds) {
    rounds_calib.push_back(r.calib_ms);
    if (r.traced) continue;
    rounds_ops.push_back(static_cast<double>(r.ops));
    rounds_rows.push_back(static_cast<double>(r.rows));
    rounds_s.push_back(r.seconds);
    rounds_cpu.push_back(r.cpu_s);
  }
  std::vector<double> traced_ops, traced_s;
  for (const Round& r : res.rounds) {
    if (!r.traced) continue;
    traced_ops.push_back(static_cast<double>(r.ops));
    traced_s.push_back(r.seconds);
  }
  std::vector<std::string> errors = res.samples.errors;
  if (!status.ok()) errors.insert(errors.begin(), status.ToString());
  out << "{\"workload\":" << JsonString(cfg.workload)
      << ",\"ok\":" << (status.ok() ? "true" : "false")
      << ",\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    out << (i > 0 ? "," : "") << JsonString(errors[i]);
  }
  out << "],\"attempted\":" << res.samples.attempted
      << ",\"failed\":" << res.samples.failed
      << ",\"setup_s\":" << JsonArray(res.setup_s)
      << ",\"publish_ms\":" << JsonArray(res.publish_ms)
      << ",\"latency_ms\":" << JsonArray(res.samples.latency_ms)
      << ",\"first_row_ms\":" << JsonArray(res.samples.first_row_ms)
      << ",\"round_ops\":" << JsonArray(rounds_ops)
      << ",\"round_rows\":" << JsonArray(rounds_rows)
      << ",\"round_s\":" << JsonArray(rounds_s)
      << ",\"round_cpu_s\":" << JsonArray(rounds_cpu)
      << ",\"round_calib_ms\":" << JsonArray(rounds_calib)
      << ",\"traced_round_ops\":" << JsonArray(traced_ops)
      << ",\"traced_round_s\":" << JsonArray(traced_s)
      << ",\"peak_rss_mb\":" << JsonNumber(PeakRssMb())
      << ",\"layers\":" << JsonObject(res.layers, JsonNumber)
      << ",\"self_us_per_op\":" << JsonObject(self_us, JsonNumber)
      << ",\"not_measured\":" << JsonObject(res.not_measured, JsonString)
      << "}\n";
  return static_cast<bool>(out);
}

bool ParseArgs(int argc, char** argv, Config* cfg) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      cfg->workload = val;
    } else if (key == "--requests") {
      cfg->requests_path = val;
    } else if (key == "--workdir") {
      cfg->workdir = val;
    } else if (key == "--out") {
      cfg->out_path = val;
    } else if (key == "--products") {
      cfg->products = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--data-seed") {
      cfg->data_seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      cfg->trace = val == "1";
    } else {
      std::cerr << "perfbench: unknown flag " << key << "\n";
      return false;
    }
  }
  return !cfg->workload.empty() && !cfg->requests_path.empty() &&
         !cfg->workdir.empty() && !cfg->out_path.empty() &&
         cfg->products > 0 && cfg->seconds > 0;
}

int Main(int argc, char** argv) {
  Config cfg;
  if (!ParseArgs(argc, argv, &cfg)) {
    std::cerr << "usage: perfbench --workload point|drain|publish --requests "
                 "FILE --products N --data-seed N --seconds S --trace 0|1 "
                 "--workdir DIR --out FILE\n";
    return 2;
  }
  std::vector<Request> reqs;
  std::string err;
  if (!LoadRequests(cfg.requests_path, &reqs, &err)) {
    std::cerr << "perfbench: " << err << "\n";
    return 2;
  }
  Results res;
  Status st;
  if (cfg.workload == "point") {
    st = RunPoint(cfg, reqs, &res);
  } else if (cfg.workload == "drain") {
    st = RunDrain(cfg, reqs, &res);
  } else if (cfg.workload == "publish") {
    st = RunPublish(cfg, reqs, &res);
  } else {
    st = Status::InvalidArgument("unknown workload " + cfg.workload);
  }
  std::map<std::string, double> self_us;
  if (cfg.trace) {
    self_us = SelfTimePerOp();
    const std::string trace_path =
        cfg.workdir + "/trace-" + cfg.workload + ".json";
    if (!WriteTrace(trace_path)) {
      std::cerr << "perfbench: cannot write " << trace_path << "\n";
      return 1;
    }
  }
  if (!WriteResults(cfg, res, st, self_us)) {
    std::cerr << "perfbench: cannot write " << cfg.out_path << "\n";
    return 1;
  }
  return st.ok() ? 0 : 1;
}

}  // namespace
}  // namespace rdfsum::perfbench

int main(int argc, char** argv) {
  return rdfsum::perfbench::Main(argc, argv);
}
