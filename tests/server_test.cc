// The serving daemon's concurrency wall (run under TSan in CI):
//
//   - byte-identity: rows served over the wire equal a local BgpEvaluator
//     drain of the same image, rendering for rendering;
//   - snapshot swap under load: N client threads hammer queries while the
//     image is RELOADed back and forth between two different graphs — every
//     response must be *entirely* one epoch's answer set, never a torn mix,
//     and nothing may race (the drain invariant);
//   - governance over the wire: timeout, row budget, and client cancel come
//     back as their documented Status codes, never a hang or a silent
//     truncation reported as OK;
//   - admission control: connections beyond workers + queue are refused
//     with kResourceExhausted before HELLO;
//   - plan cache: same-shape queries with different constants hit, and the
//     skeleton-instantiated plan returns identical rows;
//   - summary mint: every epoch is minted by Snapshot::Open, before Start
//     or Reload publishes it, so no request ever mints; a failed mint still
//     publishes a serving epoch, reported in STATS;
//   - plan cache across a swap: a request pinned to an older epoch never
//     leaves a skeleton a newer epoch's request hits;
//   - reload serialization: racing RELOADs publish epochs in order.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gen/bsbm.h"
#include "io/ntriples_writer.h"
#include "query/evaluator.h"
#include "query/plan.h"
#include "query/sparql_parser.h"
#include "rdf/graph.h"
#include "server/client.h"
#include "server/plan_cache.h"
#include "server/server.h"
#include "server/snapshot.h"
#include "server/wire.h"
#include "store/mmap_store.h"
#include "summary/isomorphism.h"
#include "summary/summarizer.h"
#include "summary/summary.h"
#include "util/fault_injection.h"

namespace rdfsum {
namespace {

using server::Client;
using server::QueryRequest;
using server::Server;
using server::ServerOptions;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// Freezes a BSBM graph (plus optional extra triples) to a temp image and
/// returns its path.
std::string FreezeBsbm(uint32_t products, const std::string& name,
                       int extra_triples = 0) {
  gen::BsbmOptions opt;
  opt.num_products = products;
  Graph g = gen::GenerateBsbm(opt);
  for (int i = 0; i < extra_triples; ++i) {
    g.AddIris("http://swap.example.org/s" + std::to_string(i),
              "http://swap.example.org/marker",
              "http://swap.example.org/o" + std::to_string(i));
  }
  const std::string path = TempPath(name);
  Status st = store::FreezeGraphToFile(g, path);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return path;
}

/// All rows of `sparql` against the image at `path`, each row rendered the
/// way the server renders it (tab-joined N-Triples), collected as a sorted
/// multiset for order-insensitive comparison.
std::vector<std::string> LocalRows(const std::string& path,
                                   const std::string& sparql) {
  auto store = store::MmapStore::Open(path);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  query::BgpEvaluator eval((*store)->dict(), (*store)->table());
  auto q = query::ParseSparql(sparql);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  auto cursor = eval.Open(*q);
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::vector<std::string> rows;
  query::IdRow encoded;
  while ((*cursor)->Next(&encoded)) {
    std::string line;
    for (const Term& t : eval.Decode(encoded)) {
      if (!line.empty()) line.push_back('\t');
      line += t.ToNTriples();
    }
    rows.push_back(std::move(line));
  }
  EXPECT_TRUE((*cursor)->status().ok()) << (*cursor)->status().ToString();
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Runs `sparql` against a live server, returning tab-joined rows (sorted)
/// and the request's final status.
Status ServedRows(const std::string& host, uint16_t port,
                  const std::string& sparql, QueryRequest req,
                  std::vector<std::string>* rows) {
  auto client = Client::Connect(host, port);
  if (!client.ok()) return client.status();
  Status st = (*client)->Query(
      sparql, req,
      [&](const std::vector<std::string>& cols) {
        std::string line;
        for (const std::string& c : cols) {
          if (!line.empty()) line.push_back('\t');
          line += c;
        }
        rows->push_back(std::move(line));
        return true;
      });
  std::sort(rows->begin(), rows->end());
  return st;
}

/// Drains `sparql` over a bare socket, frame by frame, so the test sees
/// what Client hides: the DONE frame's row count and the bytes on the wire.
/// Returns the rows (tab-joined, sorted) and the DONE reply.
Status RawServedRows(uint16_t port, const std::string& sparql,
                     std::vector<std::string>* rows, server::DoneReply* done,
                     uint64_t* wire_bytes) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  Status st;
  server::Frame frame;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    st = Status::IOError("connect");
  } else if (st = server::ReadFrame(fd, &frame); st.ok()) {
    QueryRequest req;
    req.query = sparql;
    st = server::WriteFrame(fd, server::kFrameQuery,
                            server::EncodeQueryRequest(req));
  }
  *wire_bytes = 0;
  while (st.ok()) {
    st = server::ReadFrame(fd, &frame);
    if (!st.ok()) break;
    *wire_bytes += 8 + frame.payload.size();
    if (frame.type == server::kFrameDone) {
      if (!server::DecodeDone(frame.payload, done)) {
        st = Status::Corruption("malformed DONE");
      }
      break;
    }
    server::PayloadReader r(frame.payload);
    uint32_t ncols = 0;
    std::string line, col;
    bool ok = frame.type == server::kFrameRow && r.ReadU32(&ncols);
    for (uint32_t i = 0; ok && i < ncols; ++i) {
      ok = r.ReadLenBytes(&col);
      if (!line.empty()) line.push_back('\t');
      line += col;
    }
    if (!ok || !r.AtEnd()) st = Status::Corruption("malformed ROW");
    rows->push_back(std::move(line));
  }
  ::close(fd);
  std::sort(rows->begin(), rows->end());
  return st;
}

constexpr char kAllQuery[] = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }";
constexpr char kMarkerQuery[] =
    "SELECT ?s ?o WHERE { ?s <http://swap.example.org/marker> ?o }";
/// A join the summary planner orders with the estimator.
constexpr char kSummaryQuery[] =
    "SELECT ?s WHERE { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
    " ?t . ?s <http://bsbm.example.org/price> ?p }";

TEST(ServerTest, ServedRowsAreByteIdenticalToLocalEvaluation) {
  const std::string image = FreezeBsbm(20, "ident.rsb");
  Server server;
  ASSERT_TRUE(server.Start(image).ok());

  const std::string queries[] = {
      kAllQuery,
      "SELECT ?s WHERE { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
      " ?t . ?s <http://bsbm.example.org/price> ?p }",
      "SELECT ?p WHERE { ?s ?p ?o }",
  };
  for (const std::string& q : queries) {
    std::vector<std::string> expected = LocalRows(image, q);
    std::vector<std::string> served;
    Status st = ServedRows("127.0.0.1", server.port(), q, {}, &served);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(served, expected) << q;
  }
  server.Stop();
  server.Wait();

  // A drain spanning several 64 KiB response writes: the rows the server
  // batched into each send() must arrive byte-identical, and DONE must
  // count exactly the ROW frames received.
  const std::string big_image = FreezeBsbm(300, "ident_big.rsb");
  Server big;
  ASSERT_TRUE(big.Start(big_image).ok());
  std::vector<std::string> served;
  server::DoneReply done;
  uint64_t wire_bytes = 0;
  Status st = RawServedRows(big.port(), kAllQuery, &served, &done,
                            &wire_bytes);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(done.code, 0) << done.message;
  EXPECT_GE(wire_bytes, 3u * (64u << 10));
  EXPECT_EQ(done.rows, served.size());
  EXPECT_EQ(served, LocalRows(big_image, kAllQuery));
  big.Stop();
  big.Wait();
}

TEST(ServerTest, ConcurrentReadersRaceSnapshotSwapWithoutTearing) {
  // Image A has no marker triples; image B has 7. A response to the marker
  // query must be exactly A's answer (empty) or exactly B's — the epoch is
  // pinned per request, so a swap mid-drain must never mix them.
  const std::string image_a = FreezeBsbm(15, "swap_a.rsb", 0);
  const std::string image_b = FreezeBsbm(15, "swap_b.rsb", 7);
  const std::vector<std::string> expected_a = LocalRows(image_a, kMarkerQuery);
  const std::vector<std::string> expected_b = LocalRows(image_b, kMarkerQuery);
  ASSERT_TRUE(expected_a.empty());
  ASSERT_EQ(expected_b.size(), 7u);
  const std::vector<std::string> all_a = LocalRows(image_a, kAllQuery);
  const std::vector<std::string> all_b = LocalRows(image_b, kAllQuery);
  ASSERT_NE(all_a, all_b);

  ServerOptions options;
  options.num_workers = 6;
  Server server;
  ASSERT_TRUE(server.Start(image_a, options).ok());
  const uint16_t port = server.port();

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 12;
  std::atomic<int> torn{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const bool marker = (t + i) % 2 == 0;
        std::vector<std::string> rows;
        Status st = ServedRows("127.0.0.1", port,
                               marker ? kMarkerQuery : kAllQuery, {}, &rows);
        if (!st.ok()) {
          failed.fetch_add(1);
          continue;
        }
        const auto& ea = marker ? expected_a : all_a;
        const auto& eb = marker ? expected_b : all_b;
        if (rows != ea && rows != eb) torn.fetch_add(1);
      }
    });
  }
  // Swap epochs continuously under the read load.
  std::thread swapper([&] {
    for (int i = 0; i < 10; ++i) {
      Status st = server.Reload(i % 2 == 0 ? image_b : image_a);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  });
  for (std::thread& r : readers) r.join();
  swapper.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(failed.load(), 0);
  EXPECT_GE(server.snapshot()->epoch(), 11u);
  server.Stop();
  server.Wait();
}

TEST(ServerTest, ParallelRequestsRaceReloadAndStayByteIdentical) {
  // ~10K triples. Requests carry the protocol 1.1 `parallelism` field,
  // which the server accepts and ignores: every query runs on its
  // connection's worker thread.
  const std::string image_a = FreezeBsbm(300, "par_swap_a.rsb", 0);
  const std::string image_b = FreezeBsbm(300, "par_swap_b.rsb", 7);
  const std::vector<std::string> all_a = LocalRows(image_a, kAllQuery);
  const std::vector<std::string> all_b = LocalRows(image_b, kAllQuery);
  ASSERT_NE(all_a, all_b);

  ServerOptions options;
  options.num_workers = 6;
  Server server;
  ASSERT_TRUE(server.Start(image_a, options).ok());
  const uint16_t port = server.port();

  // Order identity over the wire: a request with parallelism = 4 streams
  // the very same rows, in the same order, as one with 1 (unsorted
  // compare).
  {
    auto collect = [&](uint32_t parallelism) {
      QueryRequest req;
      req.parallelism = parallelism;
      std::vector<std::string> rows;
      auto client = Client::Connect("127.0.0.1", port);
      EXPECT_TRUE(client.ok());
      Status st = (*client)->Query(
          kAllQuery, req, [&](const std::vector<std::string>& cols) {
            std::string line;
            for (const std::string& c : cols) {
              if (!line.empty()) line.push_back('\t');
              line += c;
            }
            rows.push_back(std::move(line));
            return true;
          });
      EXPECT_TRUE(st.ok()) << st.ToString();
      return rows;
    };
    EXPECT_EQ(collect(4), collect(1));
  }

  // Race: readers asking for parallelism 4 against a continuous epoch
  // swapper. Every response must be exactly A's rows or exactly B's —
  // pinned epoch, no tearing.
  std::atomic<int> torn{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        QueryRequest req;
        req.parallelism = 4;
        std::vector<std::string> rows;
        Status st = ServedRows("127.0.0.1", port, kAllQuery, req, &rows);
        if (!st.ok()) {
          failed.fetch_add(1);
          continue;
        }
        if (rows != all_a && rows != all_b) torn.fetch_add(1);
      }
    });
  }
  std::thread swapper([&] {
    for (int i = 0; i < 10; ++i) {
      Status st = server.Reload(i % 2 == 0 ? image_b : image_a);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  });
  for (std::thread& r : readers) r.join();
  swapper.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(failed.load(), 0);
  server.Stop();
  server.Wait();
}

TEST(ServerTest, GovernancePropagatesOverTheWire) {
  // ~10K triples. The 1-ms deadline below starts when the request's
  // ExecContext does, after parse and plan. The server-side drain of
  // kAllQuery then needs the scan itself (~0.8 ms in a Release build),
  // the encoding of every row, and the 64 KiB response writes, which block
  // once the fixed socket send buffer and the client's receive window are
  // full, so the drain is paced by the client's reads (~15 ms). The
  // deadline therefore trips at a governance poll a few thousand rows in.
  const std::string image = FreezeBsbm(300, "gov.rsb");
  Server server;
  ASSERT_TRUE(server.Start(image).ok());
  const uint16_t port = server.port();

  {
    // Row budget: kResourceExhausted, with at most max_rows rows delivered.
    QueryRequest req;
    req.max_rows = 5;
    std::vector<std::string> rows;
    Status st = ServedRows("127.0.0.1", port, kAllQuery, req, &rows);
    EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
    EXPECT_LE(rows.size(), 5u);
  }
  {
    // Timeout: the deadline expires at a governance poll long before the
    // ~10K-row drain can finish.
    QueryRequest req;
    req.timeout_ms = 1;
    auto client = Client::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok());
    Status st = (*client)->Query(
        kAllQuery, req, [](const std::vector<std::string>&) { return true; });
    EXPECT_TRUE(st.IsDeadlineExceeded() || st.IsCancelled()) << st.ToString();
  }
  {
    // Client-initiated cancel: row callback returns false -> CANCEL frame
    // -> server cancels the ExecContext -> DONE(kCancelled).
    auto client = Client::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok());
    uint64_t rows = 0;
    Status st = (*client)->Query(
        kAllQuery, {}, [](const std::vector<std::string>&) { return false; },
        &rows);
    EXPECT_TRUE(st.IsCancelled()) << st.ToString();
    // The server polls for CANCEL every 64 rows, and its bounded send
    // buffer keeps it from running ahead of a client that has not yet
    // sent CANCEL; the stream must stop well short of a full drain (~10K
    // triples in this image).
    EXPECT_LT(rows, 9000u);
  }
  {
    // LIMIT is not an error: exactly limit rows then DONE(OK).
    QueryRequest req;
    req.limit = 3;
    std::vector<std::string> rows;
    Status st = ServedRows("127.0.0.1", port, kAllQuery, req, &rows);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(rows.size(), 3u);
  }
  server.Stop();
  server.Wait();
}

TEST(ServerTest, FrameOtherThanCancelMidStreamEndsTheConnection) {
  // A STATS pipelined behind a QUERY is read by the stream's cancel poll
  // (every 64 rows). It cannot be answered in place or dropped (its sender
  // would wait forever for a reply), so the stream ends with a classified
  // DONE and the server closes the connection.
  const std::string image = FreezeBsbm(300, "midstream.rsb");
  Server server;
  ASSERT_TRUE(server.Start(image).ok());
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // A bounded wait: a dropped frame shows up as a read timeout, not a hang.
  timeval timeout{10, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof timeout),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const auto start = std::chrono::steady_clock::now();
  server::Frame frame;
  ASSERT_TRUE(server::ReadFrame(fd, &frame).ok());
  ASSERT_EQ(frame.type, server::kFrameHello);
  QueryRequest req;
  req.query = kAllQuery;
  ASSERT_TRUE(server::WriteFrame(fd, server::kFrameQuery,
                                 server::EncodeQueryRequest(req))
                  .ok());
  ASSERT_TRUE(server::WriteFrame(fd, server::kFrameStats, "").ok());

  uint64_t rows = 0;
  server::DoneReply done;
  bool got_done = false;
  while (server::ReadFrame(fd, &frame).ok()) {
    if (frame.type == server::kFrameDone) {
      ASSERT_TRUE(server::DecodeDone(frame.payload, &done));
      got_done = true;
      break;
    }
    ASSERT_EQ(frame.type, server::kFrameRow);
    ++rows;
  }
  ASSERT_TRUE(got_done);
  const Status st = server::StatusFromWire(done.code, done.message);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_EQ(done.rows, rows);
  // The stream stopped at a poll, well short of the ~10K-row drain.
  EXPECT_LT(rows, 9000u);
  // Then EOF: recv returns 0, not a timeout's -1.
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  ::close(fd);
  server.Stop();
  server.Wait();
}

TEST(ServerTest, AdmissionOverflowIsRefusedNotHung) {
  const std::string image = FreezeBsbm(5, "admission.rsb");
  ServerOptions options;
  options.num_workers = 1;
  options.queue_depth = 1;
  Server server;
  ASSERT_TRUE(server.Start(image, options).ok());
  const uint16_t port = server.port();

  // Occupy the single worker with an idle-but-connected client, then fill
  // the queue depth with a raw connection that never gets a worker.
  auto occupant = Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(occupant.ok()) << occupant.status().ToString();
  int filler = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(filler, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(filler, reinterpret_cast<sockaddr*>(&addr),
                      sizeof addr), 0);
  // Give the accept loop time to queue the filler.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Worker busy + queue full: the next connection must be refused with a
  // classified status, not parked indefinitely.
  auto refused = Client::Connect("127.0.0.1", port);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsResourceExhausted())
      << refused.status().ToString();

  ::close(filler);
  server.Stop();
  server.Wait();
}

TEST(ServerTest, PlanCacheHitsAcrossConstantsAndSkeletonPlansAgree) {
  const std::string image = FreezeBsbm(20, "cache.rsb");
  Server server;
  ASSERT_TRUE(server.Start(image).ok());
  const uint16_t port = server.port();

  // Same shape (?s <const> ?o), three different constants: 1 miss + 2 hits.
  const std::string shapes[] = {
      "SELECT ?s ?o WHERE { ?s <http://bsbm.example.org/price> ?o }",
      "SELECT ?s ?o WHERE { ?s <http://bsbm.example.org/label> ?o }",
      "SELECT ?s ?o WHERE { ?s <http://bsbm.example.org/vendor> ?o }",
  };
  for (const std::string& q : shapes) {
    std::vector<std::string> served;
    Status st = ServedRows("127.0.0.1", port, q, {}, &served);
    ASSERT_TRUE(st.ok()) << st.ToString();
    // The skeleton-instantiated plan must produce exactly the locally
    // planned rows (results are planner/plan-invariant).
    EXPECT_EQ(served, LocalRows(image, q)) << q;
  }
  auto client = Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("plan_cache_hits: 2"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("plan_cache_misses: 1"), std::string::npos) << *stats;
  server.Stop();
  server.Wait();
}

TEST(ServerTest, PlanCacheLruEvictsAndClears) {
  server::PlanCache cache(2);
  query::PlanSkeleton s;
  cache.Insert("a", s);
  cache.Insert("b", s);
  query::PlanSkeleton out;
  EXPECT_TRUE(cache.Lookup("a", &out));  // refreshes a
  cache.Insert("c", s);                  // evicts b (LRU)
  EXPECT_FALSE(cache.Lookup("b", &out));
  EXPECT_TRUE(cache.Lookup("a", &out));
  EXPECT_TRUE(cache.Lookup("c", &out));
  EXPECT_EQ(cache.size(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 3u);  // counters survive Clear
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ServerTest, NormalizedShapeAbstractsConstantsButNotStructure) {
  auto shape = [](const std::string& sparql) {
    auto q = query::ParseSparql(sparql);
    EXPECT_TRUE(q.ok());
    return query::NormalizedBgpShape(*q);
  };
  // Different constants, same join structure: same shape.
  EXPECT_EQ(shape("SELECT ?s WHERE { ?s <http://e.org/a> ?o }"),
            shape("SELECT ?s WHERE { ?s <http://e.org/b> ?o }"));
  // A repeated constant is an equality class, a distinct one is not.
  EXPECT_NE(shape("SELECT ?s WHERE { ?s <http://e.org/a> ?o ."
                  " ?o <http://e.org/a> ?z }"),
            shape("SELECT ?s WHERE { ?s <http://e.org/a> ?o ."
                  " ?o <http://e.org/b> ?z }"));
  // Variable join structure differs: different shape.
  EXPECT_NE(shape("SELECT ?s WHERE { ?s <http://e.org/a> ?o ."
                  " ?s <http://e.org/b> ?z }"),
            shape("SELECT ?s WHERE { ?s <http://e.org/a> ?o ."
                  " ?z <http://e.org/b> ?o }"));
}

TEST(ServerTest, SnapshotMemoizesSummariesAcrossConcurrentRequests) {
  const std::string image = FreezeBsbm(10, "memo.rsb");
  auto snap = server::Snapshot::Open(image, 1);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  // Open already minted; concurrent first requests get the same object.
  EXPECT_EQ((*snap)->MintReports().size(), 1u);
  constexpr int kThreads = 4;
  const summary::SummaryResult* seen[kThreads] = {};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto r = (*snap)->WeakSummary();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      seen[t] = *r;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);

  // The mint shows up in the mint report with a recorded wall time.
  auto reports = (*snap)->MintReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_STREQ(reports[0].kind, "W");
  EXPECT_TRUE(reports[0].ok);
  EXPECT_GE(reports[0].seconds, 0.0);
  // The estimator memoizes too and reuses the weak mint.
  auto est1 = (*snap)->Estimator();
  auto est2 = (*snap)->Estimator();
  ASSERT_TRUE(est1.ok());
  EXPECT_EQ(*est1, *est2);
  EXPECT_EQ((*snap)->MintReports().size(), 1u);  // no extra mint
}

TEST(ServerTest, SummaryMintRunsOverTheImageIds) {
  // Checks that the weak summary and the estimator Snapshot::Open mints run
  // over the image's own ids: the serving dictionary holds no more terms
  // than a freshly opened store's, the private dictionary decodes every
  // base id as the serving one does, and the minted summary is the one the
  // original graph has, N-Triples byte for byte. The mint runs in a fresh
  // dictionary at the frozen minted-URI counter, so the reference summary
  // is taken from a freshly generated original graph too. The other five
  // kinds are held to the same bytes through View() by
  // MmapStoreTest.ToGraphIsByteIdenticalForSummaries.
  auto make_graph = [] {
    gen::BsbmOptions opt;
    opt.num_products = 12;
    return gen::GenerateBsbm(opt);
  };
  const std::string image = TempPath("mint_ids.rsb");
  ASSERT_TRUE(store::FreezeGraphToFile(make_graph(), image).ok());
  auto snap = server::Snapshot::Open(image, 1);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const Dictionary& serving = (*snap)->dict();
  auto fresh = store::MmapStore::Open(image);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  const size_t serving_size = (*fresh)->dict().size();

  auto weak = (*snap)->WeakSummary();
  ASSERT_TRUE(weak.ok()) << weak.status().ToString();
  const summary::SummaryResult original =
      summary::Summarize(make_graph(), summary::SummaryKind::kWeak);
  EXPECT_EQ(io::NTriplesWriter::ToString((*weak)->graph),
            io::NTriplesWriter::ToString(original.graph));
  ASSERT_TRUE((*snap)->Estimator().ok());
  EXPECT_EQ(serving.size(), serving_size);

  EXPECT_TRUE(summary::AreSummariesIsomorphic((*weak)->graph, original.graph));

  const Dictionary& minted = (*weak)->graph.dict();
  ASSERT_NE(&minted, &serving);
  ASSERT_EQ(minted.base_terms(), serving.base_terms());
  ASSERT_GT(minted.size(), minted.base_terms() + 1);  // minted above the base
  for (TermId id = 1; id <= serving.base_terms(); ++id) {
    ASSERT_EQ(minted.Decode(id).ToNTriples(), serving.Decode(id).ToNTriples())
        << "id " << id;
  }
}

TEST(ServerTest, SummaryPlannerServesWithMemoizedEstimator) {
  const std::string image = FreezeBsbm(15, "sumplan.rsb");
  Server server;
  ASSERT_TRUE(server.Start(image).ok());
  const uint16_t port = server.port();
  const std::string q =
      "SELECT ?s WHERE { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
      " ?t . ?s <http://bsbm.example.org/price> ?p }";
  QueryRequest req;
  req.planner = 2;  // summary
  std::vector<std::string> first, second;
  ASSERT_TRUE(ServedRows("127.0.0.1", port, q, req, &first).ok());
  ASSERT_TRUE(ServedRows("127.0.0.1", port, q, req, &second).ok());
  EXPECT_EQ(first, LocalRows(image, q));
  EXPECT_EQ(second, first);
  // The weak-summary mint Start ran shows up in STATS.
  auto client = Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("summary_mint_W: ok"), std::string::npos) << *stats;
  server.Stop();
  server.Wait();
}

TEST(ServerTest, ReloadPublishesAMintedEpoch) {
  // Start and Reload publish a snapshot only after Snapshot::Open minted
  // it, so the W row is there before any request, and the first
  // summary-planned request after a reload plans with that estimator.
  const std::string image_a = FreezeBsbm(15, "minted_a.rsb", 0);
  const std::string image_b = FreezeBsbm(15, "minted_b.rsb", 7);
  Server server;
  ASSERT_TRUE(server.Start(image_a).ok());
  auto expect_minted = [&](uint64_t epoch) {
    std::shared_ptr<server::Snapshot> snap = server.snapshot();
    EXPECT_EQ(snap->epoch(), epoch);
    const auto reports = snap->MintReports();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_STREQ(reports[0].kind, "W");
    EXPECT_TRUE(reports[0].ok);
    EXPECT_TRUE(snap->Estimator().ok());
  };
  expect_minted(1);
  ASSERT_TRUE(server.Reload(image_b).ok());
  expect_minted(2);

  QueryRequest req;
  req.planner = 2;  // summary
  for (const char* q : {kSummaryQuery, kMarkerQuery}) {
    std::vector<std::string> rows;
    ASSERT_TRUE(ServedRows("127.0.0.1", server.port(), q, req, &rows).ok());
    EXPECT_EQ(rows, LocalRows(image_b, q)) << q;
  }
  server.Stop();
  server.Wait();
}

TEST(ServerTest, FailedMintStillPublishesAServingEpoch) {
  if (!util::FaultInjection::compiled_in()) {
    GTEST_SKIP() << "failpoints not compiled in (Release build)";
  }
  const std::string image_a = FreezeBsbm(15, "mintfail_a.rsb", 0);
  const std::string image_b = FreezeBsbm(15, "mintfail_b.rsb", 7);
  Server server;
  ASSERT_TRUE(server.Start(image_a).ok());
  util::FaultInjection::Clear();
  util::FaultInjection::Arm("quotient:shard", Status::Internal("shard died"));
  const Status reloaded = server.Reload(image_b);
  util::FaultInjection::Clear();
  ASSERT_TRUE(reloaded.ok()) << reloaded.ToString();
  EXPECT_EQ(server.snapshot()->epoch(), 2u);
  EXPECT_TRUE(server.snapshot()->Estimator().status().IsInternal());
  EXPECT_NE(server.StatsText().find("summary_mint_W: failed"),
            std::string::npos)
      << server.StatsText();

  // Summary planning degrades to greedy; the rows do not change.
  QueryRequest req;
  req.planner = 2;  // summary
  for (const char* q : {kSummaryQuery, kMarkerQuery}) {
    std::vector<std::string> rows;
    ASSERT_TRUE(ServedRows("127.0.0.1", server.port(), q, req, &rows).ok());
    EXPECT_EQ(rows, LocalRows(image_b, q)) << q;
  }
  server.Stop();
  server.Wait();
}

TEST(ServerTest, SkeletonFromAnOlderEpochIsNeverServed) {
  if (!util::FaultInjection::compiled_in()) {
    GTEST_SKIP() << "failpoints not compiled in (Release build)";
  }
  // Client A pins epoch 1 and stalls in `serve:plan` (after the pin, before
  // the plan-cache lookup) while a reload publishes epoch 2 and clears the
  // cache; A then plans on epoch 1 and inserts its skeleton. Client B sends
  // the same shape on epoch 2 and must not be served A's skeleton.
  const std::string image_a = FreezeBsbm(15, "stale_plan_a.rsb", 3);
  const std::string image_b = FreezeBsbm(15, "stale_plan_b.rsb", 7);
  Server server;
  ASSERT_TRUE(server.Start(image_a).ok());
  util::FaultInjection::Clear();
  util::FaultInjection::Arm("serve:plan", Status::OK(),
                            {.countdown = 1, .latency_ms = 300});
  std::vector<std::string> rows_a;
  Status st_a;
  std::thread client_a([&] {
    st_a = ServedRows("127.0.0.1", server.port(), kMarkerQuery, {}, &rows_a);
  });
  while (util::FaultInjection::HitCount("serve:plan") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Status reloaded = server.Reload(image_b);
  client_a.join();
  util::FaultInjection::Clear();
  ASSERT_TRUE(reloaded.ok()) << reloaded.ToString();
  ASSERT_TRUE(st_a.ok()) << st_a.ToString();
  EXPECT_EQ(rows_a, LocalRows(image_a, kMarkerQuery));  // epoch 1's rows

  std::vector<std::string> rows_b;
  ASSERT_TRUE(
      ServedRows("127.0.0.1", server.port(), kMarkerQuery, {}, &rows_b).ok());
  EXPECT_EQ(rows_b, LocalRows(image_b, kMarkerQuery));
  const std::string stats = server.StatsText();
  EXPECT_NE(stats.find("plan_cache_hits: 0\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("plan_cache_misses: 2\n"), std::string::npos) << stats;
  server.Stop();
  server.Wait();
}

TEST(ServerTest, ConcurrentReloadsPublishEpochsInOrder) {
  // Four threads reload ten times each; every reload takes the next epoch,
  // and a reader polling the live snapshot never sees its epoch go down.
  const std::string image_a = FreezeBsbm(50, "reloads_a.rsb", 0);
  const std::string image_b = FreezeBsbm(50, "reloads_b.rsb", 3);
  Server server;
  ASSERT_TRUE(server.Start(image_a).ok());
  std::atomic<bool> done{false};
  std::atomic<int> decreases{0};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!done.load()) {
      const uint64_t epoch = server.snapshot()->epoch();
      if (epoch < last) decreases.fetch_add(1);
      last = epoch;
      std::this_thread::yield();
    }
  });
  constexpr int kThreads = 4;
  constexpr int kReloadsPerThread = 10;
  std::vector<std::thread> reloaders;
  for (int t = 0; t < kThreads; ++t) {
    reloaders.emplace_back([&, t] {
      for (int i = 0; i < kReloadsPerThread; ++i) {
        const Status st = server.Reload((t + i) % 2 == 0 ? image_b : image_a);
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
    });
  }
  for (std::thread& t : reloaders) t.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(server.snapshot()->epoch(), 1u + kThreads * kReloadsPerThread);
  const std::string reloads =
      "\nreloads: " + std::to_string(kThreads * kReloadsPerThread) + "\n";
  EXPECT_NE(server.StatsText().find(reloads), std::string::npos)
      << server.StatsText();
  EXPECT_EQ(decreases.load(), 0);
  server.Stop();
  server.Wait();
}

TEST(ServerTest, MalformedPayloadsAreCorruptionNeverUB) {
  QueryRequest req;
  EXPECT_FALSE(server::DecodeQueryRequest("", &req));
  EXPECT_FALSE(server::DecodeQueryRequest("\x01\x00\x00", &req));
  // A length prefix pointing past the payload end.
  std::string lying;
  server::AppendU8(&lying, 1);
  server::AppendU8(&lying, 0);
  server::AppendU8(&lying, 0);
  server::AppendU8(&lying, 0);
  server::AppendU64(&lying, 0);
  server::AppendU64(&lying, 0);
  server::AppendU32(&lying, 0);
  server::AppendU64(&lying, 0);
  server::AppendU32(&lying, 1000);  // "1000 bytes of query follow" (they don't)
  EXPECT_FALSE(server::DecodeQueryRequest(lying, &req));
  // Trailing junk after a well-formed request is malformed too.
  std::string ok_payload = server::EncodeQueryRequest(QueryRequest{});
  EXPECT_TRUE(server::DecodeQueryRequest(ok_payload, &req));
  ok_payload.push_back('x');
  EXPECT_FALSE(server::DecodeQueryRequest(ok_payload, &req));

  server::DoneReply done;
  EXPECT_FALSE(server::DecodeDone("\x00", &done));
  // Unknown wire status codes become kInternal, not UB.
  EXPECT_TRUE(server::StatusFromWire(200, "??").IsInternal());
}

TEST(ServerTest, ReloadFailureKeepsServing) {
  const std::string image = FreezeBsbm(10, "reloadfail.rsb");
  Server server;
  ASSERT_TRUE(server.Start(image).ok());
  const uint16_t port = server.port();
  auto client = Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  // Reload of a nonexistent image fails with a classified status...
  Status st = (*client)->Reload(TempPath("no-such-image.rsb"));
  EXPECT_FALSE(st.ok());
  // ...and the old epoch keeps serving.
  EXPECT_EQ(server.snapshot()->epoch(), 1u);
  std::vector<std::string> rows;
  QueryRequest req;
  req.limit = 1;
  EXPECT_TRUE(ServedRows("127.0.0.1", port, kAllQuery, req, &rows).ok());
  EXPECT_EQ(rows.size(), 1u);
  server.Stop();
  server.Wait();
}

TEST(ServerTest, ShutdownCommandStopsTheServer) {
  const std::string image = FreezeBsbm(5, "shutdown.rsb");
  Server server;
  ASSERT_TRUE(server.Start(image).ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Shutdown().ok());
  server.Wait();
  EXPECT_TRUE(server.stopped());
}

}  // namespace
}  // namespace rdfsum
