// Frozen-image round trip: freeze a graph, mmap it back, and prove the
// store serves *identical* results through every path — zero-copy queries
// off the mapped permutations, the View() of the stored components, the
// ToGraph() replay, and summaries of every kind, all byte-for-byte equal to
// the parse-path originals. The
// adversarial half of the wall (truncation, bit flips, wrong formats) lives
// in tests/image_corruption_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <latch>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "gen/bsbm.h"
#include "gen/paper_example.h"
#include "io/ntriples_writer.h"
#include "oracle/drain.h"
#include "query/evaluator.h"
#include "query/rbgp.h"
#include "query/sparql_parser.h"
#include "reasoner/saturation.h"
#include "rdf/frozen_image.h"
#include "store/mmap_store.h"
#include "summary/cardinality.h"
#include "summary/isomorphism.h"
#include "summary/summarizer.h"

namespace rdfsum {
namespace {

using store::MmapStore;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

Graph BsbmGraph(uint32_t products) {
  gen::BsbmOptions opt;
  opt.num_products = products;
  return gen::GenerateBsbm(opt);
}

/// A graph with no data edges: kDataTriples is empty and every node is a
/// typed resource.
Graph TypesOnlyGraph() {
  Graph g;
  TermId a = g.dict().Encode(Term::Iri("http://ex.org/a"));
  TermId b = g.dict().Encode(Term::Iri("http://ex.org/b"));
  TermId type = g.dict().Encode(
      Term::Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"));
  TermId c1 = g.dict().Encode(Term::Iri("http://ex.org/C1"));
  TermId c2 = g.dict().Encode(Term::Iri("http://ex.org/C2"));
  g.Add({a, type, c1});
  g.Add({b, type, c2});
  g.Add({b, type, c1});
  return g;
}

std::unique_ptr<MmapStore> FreezeAndOpen(const Graph& g,
                                         const std::string& name) {
  const std::string path = TempPath(name);
  Status st = store::FreezeGraphToFile(g, path);
  EXPECT_TRUE(st.ok()) << st.ToString();
  auto opened = MmapStore::Open(path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(MmapStoreTest, RoundTripCountsAndStats) {
  Graph g = BsbmGraph(40);
  auto store = FreezeAndOpen(g, "roundtrip.rsb");
  EXPECT_EQ(store->table().size(), g.NumTriples());

  // The restored statistics equal the parse path's.
  const store::TripleTable reference = store::TripleTable::Build(g.Triples());
  EXPECT_EQ(store->table().stats().num_triples(),
            reference.stats().num_triples());
  EXPECT_EQ(store->table().stats().num_distinct_subjects(),
            reference.stats().num_distinct_subjects());
  EXPECT_EQ(store->table().stats().num_distinct_predicates(),
            reference.stats().num_distinct_predicates());
  EXPECT_EQ(store->table().stats().num_distinct_objects(),
            reference.stats().num_distinct_objects());
  EXPECT_EQ(store->table().stats().by_predicate().size(),
            reference.stats().by_predicate().size());
}

TEST(MmapStoreTest, PermutationsAreIdenticalToRebuilt) {
  Graph g = BsbmGraph(25);
  auto store = FreezeAndOpen(g, "perms.rsb");
  const store::TripleTable reference = store::TripleTable::Build(g.Triples());
  for (auto kind : {store::IndexKind::kSpo, store::IndexKind::kPos,
                    store::IndexKind::kOsp}) {
    auto mapped = store->table().Permutation(kind);
    auto rebuilt = reference.Permutation(kind);
    ASSERT_EQ(mapped.size(), rebuilt.size());
    EXPECT_TRUE(std::equal(mapped.begin(), mapped.end(), rebuilt.begin()));
  }
}

TEST(MmapStoreTest, BorrowedTableSpansEqualBuiltTableSpans) {
  // The image table's directories are derived at open from the mapped
  // permutations; a table built from the same graph must give every
  // sampled pattern the same rows at the same offsets of its index.
  Graph g = BsbmGraph(25);
  auto store = FreezeAndOpen(g, "spans.rsb");
  const store::TripleTable& mapped = store->table();
  const store::TripleTable built = store::TripleTable::Build(g.Triples());
  std::span<const Triple> spo = built.Permutation(store::IndexKind::kSpo);
  const TermId absent = spo.back().s + 1;
  size_t compared = 0;
  for (size_t i = 0; i < spo.size(); i += 13) {
    for (int mask = 0; mask < 8; ++mask) {
      for (bool hit : {true, false}) {
        store::TriplePattern q;
        if (mask & 1) q.s = hit ? spo[i].s : absent;
        if (mask & 2) q.p = spo[i].p;
        if (mask & 4) q.o = spo[i].o;
        const store::IndexKind kind = store::TripleTable::ChooseIndex(q);
        std::span<const Triple> a = mapped.MatchSpan(q);
        std::span<const Triple> b = built.MatchSpan(q);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << "mask=" << mask << " hit=" << hit;
        EXPECT_EQ(a.data() - mapped.Permutation(kind).data(),
                  b.data() - built.Permutation(kind).data())
            << "mask=" << mask << " hit=" << hit;
        if (hit) {
          EXPECT_FALSE(a.empty()) << "mask=" << mask;
        }
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 100u);
}

TEST(MmapStoreTest, FreezeIsDeterministic) {
  Graph g = BsbmGraph(15);
  const std::string a = TempPath("det_a.rsb");
  const std::string b = TempPath("det_b.rsb");
  ASSERT_TRUE(store::FreezeGraphToFile(g, a).ok());
  ASSERT_TRUE(store::FreezeGraphToFile(g, b).ok());
  EXPECT_EQ(FileBytes(a), FileBytes(b));
  // And freezing the materialized graph reproduces the same image: the
  // round trip loses nothing the format records.
  auto store = MmapStore::Open(a);
  ASSERT_TRUE(store.ok());
  Graph again = (*store)->ToGraph();
  const std::string c = TempPath("det_c.rsb");
  ASSERT_TRUE(store::FreezeGraphToFile(again, c).ok());
  EXPECT_EQ(FileBytes(a), FileBytes(c));
}

TEST(MmapStoreTest, ZeroCopyQueriesMatchParsePathAllPlanners) {
  Graph g = BsbmGraph(60);
  auto store = FreezeAndOpen(g, "queries.rsb");

  query::BgpEvaluator parse_eval(g);
  query::BgpEvaluator store_eval(store->dict(), store->table());

  Random rng(7);
  int compared = 0;
  for (int i = 0; i < 25; ++i) {
    query::BgpQuery q = query::GenerateRbgpQuery(g, rng);
    if (q.triples.empty()) continue;
    for (auto mode :
         {query::PlannerMode::kNaive, query::PlannerMode::kGreedy}) {
      auto a = query::Drain(parse_eval, q, mode);
      auto b = query::Drain(store_eval, q, mode);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      ASSERT_EQ(a->size(), b->size()) << q.ToString();
      for (size_t r = 0; r < a->size(); ++r) {
        ASSERT_EQ((*a)[r].size(), (*b)[r].size());
        for (size_t c = 0; c < (*a)[r].size(); ++c) {
          // Byte identity, not just term equality: the shared canonical ids
          // mean Decode must render the very same lexical forms.
          ASSERT_EQ((*a)[r][c].ToNTriples(), (*b)[r][c].ToNTriples());
        }
      }
      ++compared;
    }
  }
  ASSERT_GT(compared, 0);
}

TEST(MmapStoreTest, SummaryPlannerMatchesOverTheImageView) {
  // kSummary plans with an estimator over the image's View() and runs on
  // the zero-copy table, as the daemon does; rows must still match the
  // parse path exactly.
  Graph g = BsbmGraph(40);
  auto store = FreezeAndOpen(g, "splan.rsb");
  const GraphView view = store->View();

  summary::CardinalityEstimator est_a(
      summary::Summarize(g, summary::SummaryKind::kWeak));
  summary::CardinalityEstimator est_b(
      summary::Summarize(view, summary::SummaryKind::kWeak));
  query::EvaluatorOptions opt_a;
  opt_a.planner = query::PlannerMode::kSummary;
  opt_a.estimator = &est_a;
  query::EvaluatorOptions opt_b = opt_a;
  opt_b.estimator = &est_b;
  query::BgpEvaluator eval_a(g, opt_a);
  query::BgpEvaluator eval_b(store->dict(), store->table(), opt_b);

  Random rng(11);
  for (int i = 0; i < 10; ++i) {
    query::BgpQuery q = query::GenerateRbgpQuery(g, rng);
    if (q.triples.empty()) continue;
    auto a = query::Drain(eval_a, q);
    auto b = query::Drain(eval_b, q);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->size(), b->size()) << q.ToString();
  }
}

/// Freezes `g` and requires both ways back from the image — the View()
/// summaries read and the ToGraph() replay — to hold the original's
/// components, and the N-Triples of every summary kind over each to equal
/// the original's. The summaries mint in lockstep: all three dictionaries
/// start at the frozen minted-URI counter, and each kind advances each by
/// the same count.
void ExpectToGraphByteIdentical(const Graph& g, const std::string& name) {
  auto store = FreezeAndOpen(g, name);
  Graph g2 = store->ToGraph();
  const GraphView view = store->View();
  ASSERT_EQ(g2.NumTriples(), g.NumTriples());
  EXPECT_EQ(g2.data(), g.data());
  EXPECT_EQ(g2.types(), g.types());
  EXPECT_EQ(g2.schema(), g.schema());
  EXPECT_TRUE(std::ranges::equal(view.data, g.data()));
  EXPECT_TRUE(std::ranges::equal(view.types, g.types()));
  EXPECT_TRUE(std::ranges::equal(view.schema, g.schema()));
  EXPECT_EQ(view.vocab.rdf_type, g.vocab().rdf_type);

  for (summary::SummaryKind kind :
       {summary::SummaryKind::kWeak, summary::SummaryKind::kStrong,
        summary::SummaryKind::kTypedWeak, summary::SummaryKind::kTypedStrong,
        summary::SummaryKind::kTypeBased,
        summary::SummaryKind::kBisimulation}) {
    SCOPED_TRACE(summary::SummaryKindName(kind));
    const summary::SummaryResult a = summary::Summarize(g, kind);
    const std::string a_nt = io::NTriplesWriter::ToString(a.graph);
    for (const GraphView& from_image : {GraphView(g2), view}) {
      const summary::SummaryResult b = summary::Summarize(from_image, kind);
      EXPECT_EQ(a.graph.NumTriples(), b.graph.NumTriples());
      EXPECT_TRUE(summary::AreSummariesIsomorphic(a.graph, b.graph));
      // Stronger than isomorphism: the same N-Triples, byte for byte.
      EXPECT_EQ(a_nt, io::NTriplesWriter::ToString(b.graph));
    }
  }
}

TEST(MmapStoreTest, ToGraphIsByteIdenticalForSummaries) {
  {
    SCOPED_TRACE("figure 2");
    gen::Figure2Example ex = gen::BuildFigure2();
    ExpectToGraphByteIdentical(ex.graph, "fig2.rsb");
  }
  {
    SCOPED_TRACE("bsbm");
    ExpectToGraphByteIdentical(BsbmGraph(30), "bytes_bsbm.rsb");
  }
  {
    SCOPED_TRACE("types only");
    ExpectToGraphByteIdentical(TypesOnlyGraph(), "bytes_typesonly.rsb");
  }
}

TEST(MmapStoreTest, SaturationAfterToGraphMatches) {
  Graph g = BsbmGraph(20);
  auto store = FreezeAndOpen(g, "sat.rsb");
  Graph g2 = store->ToGraph();
  Graph sat_a = reasoner::Saturate(g);
  Graph sat_b = reasoner::Saturate(g2);
  EXPECT_EQ(sat_a.NumTriples(), sat_b.NumTriples());
}

TEST(MmapStoreTest, MintCounterSurvives) {
  gen::Figure2Example ex = gen::BuildFigure2();
  // Summarization mints summary-node URIs through the dictionary counter; a
  // restored store must continue the sequence, not restart and collide.
  TermId m1 = ex.graph.dict().MintNodeUri("test");
  ASSERT_NE(m1, kInvalidTermId);
  ASSERT_GT(ex.graph.dict().mint_counter(), 0u);
  auto store = FreezeAndOpen(ex.graph, "mint.rsb");
  EXPECT_EQ(store->dict().mint_counter(), ex.graph.dict().mint_counter());
  // Both sides mint the same next name — the sequence continued.
  Dictionary* mut = const_cast<Dictionary*>(&store->dict());
  TermId next_restored = mut->MintNodeUri("test");
  TermId next_original = ex.graph.dict().MintNodeUri("test");
  EXPECT_EQ(mut->Decode(next_restored).ToNTriples(),
            ex.graph.dict().Decode(next_original).ToNTriples());
}

TEST(MmapStoreTest, EmptyGraphRoundTrips) {
  Graph g;
  auto store = FreezeAndOpen(g, "empty.rsb");
  EXPECT_EQ(store->table().size(), 0u);
  EXPECT_TRUE(store->table().empty());
  Graph g2 = store->ToGraph();
  EXPECT_EQ(g2.NumTriples(), 0u);
  // An empty store still evaluates (to zero rows) without tripping.
  query::BgpEvaluator eval(store->dict(), store->table());
  auto q = query::ParseSparql("SELECT ?s WHERE { ?s ?p ?o }");
  ASSERT_TRUE(q.ok());
  auto rows = query::Drain(eval, *q);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(MmapStoreTest, TypesOnlyGraphRoundTrips) {
  // No data edges: kDataTriples is empty, and summarization still matches.
  Graph g = TypesOnlyGraph();
  auto store = FreezeAndOpen(g, "typesonly.rsb");
  EXPECT_EQ(store->table().size(), 3u);
  Graph g2 = store->ToGraph();
  EXPECT_EQ(g2.NumTriples(), 3u);
  summary::SummaryResult sa =
      summary::Summarize(g, summary::SummaryKind::kTypeBased);
  summary::SummaryResult sb =
      summary::Summarize(g2, summary::SummaryKind::kTypeBased);
  EXPECT_TRUE(summary::AreSummariesIsomorphic(sa.graph, sb.graph));
}

TEST(MmapStoreTest, DictionaryViewDecodesEveryTermIdentically) {
  Graph g = BsbmGraph(20);
  auto store = FreezeAndOpen(g, "dict.rsb");
  const Dictionary& original = g.dict();
  const Dictionary& restored = store->dict();
  ASSERT_EQ(restored.size(), original.size());
  // Valid ids are 1..size()-1 (id 0 is the reserved placeholder).
  for (TermId id = 1; id < original.size(); ++id) {
    const Term& a = original.Decode(id);
    const Term& b = restored.Decode(id);
    ASSERT_EQ(a.ToNTriples(), b.ToNTriples()) << "id " << id;
    // And the view's probe finds the same id back.
    ASSERT_EQ(restored.Lookup(a), id);
  }
  // Encoding a brand-new term extends past the frozen base, ids unchanged.
  Dictionary* mut = const_cast<Dictionary*>(&restored);
  TermId fresh = mut->Encode(Term::Iri("http://ex.org/not-in-the-image"));
  EXPECT_EQ(fresh, original.size());
  EXPECT_EQ(mut->Lookup(Term::Iri("http://ex.org/not-in-the-image")), fresh);
}

TEST(MmapStoreTest, ConcurrentViewDecodesAreStableAndMatchOwnedMode) {
  // Threads released together decode overlapping id ranges of one fresh
  // view dictionary: thread t walks ids 1 + t*n/8 .. n upwards, so each
  // thread trails the next one through ids that one has just decoded and
  // reads them through the lock-free cache without taking the lock itself
  // (the path TSan checks in CI). Every reference handed out must equal
  // the owned-mode decode and never move afterwards.
  Graph g = BsbmGraph(100);
  auto store = FreezeAndOpen(g, "dict_threads.rsb");
  const Dictionary& owned = g.dict();
  const Dictionary& view = store->dict();
  ASSERT_EQ(view.size(), owned.size());
  const size_t n = view.size() - 1;  // ids 1..n
  constexpr int kThreads = 4;
  std::vector<std::vector<const Term*>> seen(kThreads,
                                             std::vector<const Term*>(n + 1));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (size_t id = 1 + t * n / 8; id <= n; ++id) {
        const TermId tid = static_cast<TermId>(id);
        const Term* first = &view.Decode(tid);
        seen[t][id] = first;
        // Reads the Term's bytes, possibly published by another thread.
        EXPECT_EQ(*first, owned.Decode(tid)) << "id " << id;
        EXPECT_EQ(&view.Decode(tid), first) << "id " << id;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (TermId id = 1; id <= n; ++id) {
    const Term* stable = &view.Decode(id);
    for (int t = 0; t < kThreads; ++t) {
      if (seen[t][id] != nullptr) {
        EXPECT_EQ(seen[t][id], stable) << "id " << id;
      }
    }
  }
}

TEST(MmapStoreTest, ViewRowsBorrowBaseTermsThatOverlayGrowthNeverMoves) {
  // Decode borrows: every column of a store-backed row is the view
  // dictionary's own cached base Term. Base terms never move, so rows
  // decoded before the overlay grows — thousands of interned terms, then a
  // minted summary node — still read the same Term objects afterwards.
  Graph g = BsbmGraph(20);
  auto store = FreezeAndOpen(g, "rows.rsb");
  Dictionary* dict = const_cast<Dictionary*>(&store->dict());
  query::BgpEvaluator eval(*dict, store->table());
  auto q = query::ParseSparql("SELECT ?s ?p ?o WHERE { ?s ?p ?o }");
  ASSERT_TRUE(q.ok());
  auto cursor = eval.Open(*q);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::vector<query::IdRow> ids;
  std::vector<query::Row> rows;
  query::IdRow id_row;
  while ((*cursor)->Next(&id_row)) {
    ids.push_back(id_row);
    rows.push_back(eval.Decode(id_row));
  }
  ASSERT_EQ(rows.size(), g.NumTriples());
  std::vector<std::vector<Term>> copied;
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t i = 0; i < ids[r].size(); ++i) {
      ASSERT_LE(ids[r][i], dict->base_terms());
      ASSERT_EQ(&rows[r][i], &dict->Decode(ids[r][i])) << "row " << r;
    }
    copied.emplace_back(rows[r].begin(), rows[r].end());
  }

  const size_t base_size = dict->size();
  for (int i = 0; i < 4096; ++i) {
    dict->EncodeIri("http://overlay.example.org/" + std::to_string(i));
  }
  const TermId minted = dict->MintNodeUri("row");
  ASSERT_EQ(dict->size(), base_size + 4097);
  ASSERT_GT(minted, dict->base_terms());

  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t i = 0; i < ids[r].size(); ++i) {
      ASSERT_EQ(&rows[r][i], &dict->Decode(ids[r][i])) << "row " << r;
      ASSERT_EQ(rows[r][i], copied[r][i]) << "row " << r;
    }
  }
}

TEST(MmapStoreTest, RefreezeDoesNotChangeAnOpenStore) {
  // Freezing into the path an open store maps replaces the file instead of
  // rewriting it in place: the open store keeps serving the old image, and
  // the next Open serves the new one. (B is the larger image, so an
  // in-place rewrite would show as wrong rows rather than a fault past the
  // old end.)
  const Graph a = BsbmGraph(20);
  const Graph b = BsbmGraph(40);
  const std::string path = TempPath("refreeze.rsb");
  ASSERT_TRUE(store::FreezeGraphToFile(a, path).ok());
  auto open_a = MmapStore::Open(path);
  ASSERT_TRUE(open_a.ok()) << open_a.status().ToString();
  ASSERT_TRUE(store::FreezeGraphToFile(b, path).ok());
  auto open_b = MmapStore::Open(path);
  ASSERT_TRUE(open_b.ok()) << open_b.status().ToString();

  const store::TripleTable table_a = store::TripleTable::Build(a.Triples());
  const store::TripleTable table_b = store::TripleTable::Build(b.Triples());
  for (auto kind : {store::IndexKind::kSpo, store::IndexKind::kPos,
                    store::IndexKind::kOsp}) {
    SCOPED_TRACE(store::IndexKindName(kind));
    auto expect_eq = [](std::span<const Triple> got,
                        std::span<const Triple> want) {
      EXPECT_TRUE(
          std::equal(got.begin(), got.end(), want.begin(), want.end()));
    };
    expect_eq((*open_a)->table().Permutation(kind), table_a.Permutation(kind));
    expect_eq((*open_b)->table().Permutation(kind), table_b.Permutation(kind));
  }
}

TEST(MmapStoreTest, MissingFileIsCleanError) {
  auto store = MmapStore::Open(TempPath("does_not_exist.rsb"));
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsIOError() || store.status().IsNotFound())
      << store.status().ToString();
}

}  // namespace
}  // namespace rdfsum
