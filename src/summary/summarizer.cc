#include "summary/summarizer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "rdf/dense_graph.h"
#include "reasoner/saturation.h"
#include "util/fault_injection.h"
#include "util/parallel_for.h"
#include "util/row_set.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace rdfsum::summary {
namespace {

NodePartition ComputePartition(const DenseGraph& dg, SummaryKind kind,
                               const SummaryOptions& options) {
  switch (kind) {
    case SummaryKind::kWeak:
      return ComputeWeakPartition(dg, options.num_threads, options.exec);
    case SummaryKind::kStrong:
      return ComputeStrongPartition(dg);
    case SummaryKind::kTypedWeak:
      return ComputeTypedWeakPartition(dg, options.typed_mode);
    case SummaryKind::kTypedStrong:
      return ComputeTypedStrongPartition(dg, options.typed_mode);
    case SummaryKind::kTypeBased:
      return ComputeTypePartition(dg);
    case SummaryKind::kBisimulation:
      return ComputeBisimulationPartition(
          dg, options.bisimulation_depth, /*use_types=*/true,
          BisimulationDirection::kForwardBackward, options.num_threads,
          options.exec);
  }
  return ComputeWeakPartition(dg, options.num_threads, options.exec);
}

/// Sharded construction of the quotient edge set: shards classify contiguous
/// ranges of the input into summary edges with private dedup tables, then the
/// shards merge in shard-index order so the summary graph's insertion order —
/// and with it every downstream canonical numbering — is the global
/// first-occurrence order of the input walk at every shard count (one shard
/// at num_threads = 1). See src/summary/README.md for why the merge order
/// fixes determinism. Each shard also counts the input rows that land on
/// each of its summary edges; the merge sums them into `multiplicity`.
///
/// `exec` governs the shard loops (workers stop mid-range on cancellation
/// and fall through to their join barrier — partial shard output is never
/// merged), and the "quotient:shard" failpoint injects per-shard failures
/// at each shard boundary in fault-injection builds.
Status QuotientEdges(const GraphView& g, const DenseGraph& dg,
                     const NodePartition& part,
                     const std::vector<TermId>& class_node,
                     uint32_t num_threads, util::ExecContext* exec,
                     SummaryResult* out) {
  const std::vector<uint32_t>& class_of = part.class_of;

  // One dedup table per shard, with the count of input rows that hit each
  // of its ordinals. Shard failures (injected or governance) land in
  // per-shard slots and surface after the join.
  struct Shard {
    util::RowSet rows;
    std::vector<uint64_t> counts;
    Status status;
    explicit Shard(size_t width) : rows(width) {}
    void Count(const TermId* row) {
      auto [ordinal, inserted] = rows.InsertOrFind(row);
      if (inserted) counts.push_back(0);
      ++counts[ordinal];
    }
  };
  auto run_shards = [&](uint64_t num_rows, size_t width, auto&& classify) {
    std::vector<Shard> shards(util::ResolveThreadCount(num_threads, num_rows),
                              Shard(width));
    util::ParallelForRanges(
        static_cast<uint32_t>(shards.size()), num_rows,
        [&](uint32_t shard, uint64_t begin, uint64_t end) {
          Shard& sh = shards[shard];
          sh.status = RDFSUM_FAILPOINT_STATUS("quotient:shard");
          if (!sh.status.ok()) return;
          sh.status = util::CancellableChunks(
              exec, begin, end,
              [&](uint64_t cb, uint64_t ce) { classify(sh, cb, ce); });
        });
    return shards;
  };

  // Data component: each shard scans a contiguous EdgeRange and dedups the
  // summary edges (class(s), property, class(o)) it sees, in first-occurrence
  // order.
  std::vector<Shard> data_shards = run_shards(
      dg.num_data_edges(), 3, [&](Shard& sh, uint64_t cb, uint64_t ce) {
        TermId row[3];
        for (const DenseGraph::Edge& e : dg.EdgeRange(cb, ce)) {
          row[0] = class_of[e.s];
          row[1] = e.p;
          row[2] = class_of[e.o];
          sh.Count(row);
        }
      });
  for (const Shard& sh : data_shards) RDFSUM_RETURN_IF_ERROR(sh.status);

  // Type component: same recipe over g.types with (class(s), class term)
  // keys. Type subjects are dense nodes by the substrate's canonical
  // numbering, so node_of never misses.
  const std::span<const Triple> types = g.types;
  std::vector<Shard> type_shards = run_shards(
      types.size(), 2, [&](Shard& sh, uint64_t cb, uint64_t ce) {
        TermId row[2];
        for (uint64_t i = cb; i < ce; ++i) {
          row[0] = class_of[dg.node_of(types[i].s)];
          row[1] = types[i].o;
          sh.Count(row);
        }
      });
  for (const Shard& sh : type_shards) RDFSUM_RETURN_IF_ERROR(sh.status);

  // Merge in shard-index order. Shards are contiguous input ranges, so an
  // edge's first surviving occurrence is in the earliest shard that saw it,
  // at that shard's first-occurrence position: Graph::Add's cross-shard
  // dedup reproduces the sequential insertion order exactly, and the
  // multiplicity of an edge several shards saw is the sum of their counts.
  size_t distinct_upper = 0;
  for (const Shard& sh : data_shards) distinct_upper += sh.rows.size();
  for (const Shard& sh : type_shards) distinct_upper += sh.rows.size();
  out->graph.Reserve(distinct_upper + g.schema.size());
  out->multiplicity.reserve(distinct_upper);
  auto merge = [&](const Shard& sh, size_t r, const Triple& t) {
    out->graph.Add(t);
    out->multiplicity[t] += sh.counts[r];
  };
  for (const Shard& sh : data_shards) {
    for (size_t r = 0; r < sh.rows.size(); ++r) {
      const TermId* row = sh.rows.row(r);
      merge(sh, r,
            Triple{class_node[row[0]], dg.property_term(row[1]),
                   class_node[row[2]]});
    }
  }
  const TermId rdf_type = g.vocab.rdf_type;
  for (const Shard& sh : type_shards) {
    for (size_t r = 0; r < sh.rows.size(); ++r) {
      const TermId* row = sh.rows.row(r);
      merge(sh, r, Triple{class_node[row[0]], rdf_type, row[1]});
    }
  }
  for (const Triple& t : g.schema) out->graph.Add(t);
  return Status::OK();
}

/// QuotientByPartition over a substrate `dg` already built from `g`, with a
/// partition of that substrate's shape (every caller's is, or is checked).
StatusOr<SummaryResult> Quotient(const GraphView& g, const DenseGraph& dg,
                                 const NodePartition& part, SummaryKind kind,
                                 const SummaryOptions& options) {
  Timer timer;
  util::ExecContext* exec = options.exec;
  if (exec != nullptr) RDFSUM_RETURN_IF_ERROR(exec->Check());
  SummaryResult out;
  out.kind = kind;
  out.graph = Graph(g.dict);

  // One minted node per equivalence class, in class-id order.
  std::string tag = AsciiToLower(SummaryKindName(kind));
  std::vector<TermId> class_node(part.num_classes, kInvalidTermId);
  Dictionary& dict = out.graph.dict();
  for (uint32_t c = 0; c < part.num_classes; ++c) {
    class_node[c] = dict.MintNodeUri("node:" + tag);
  }

  RDFSUM_RETURN_IF_ERROR(QuotientEdges(g, dg, part, class_node,
                                       options.num_threads, exec, &out));

  const uint32_t n = dg.num_nodes();
  out.node_map.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    out.node_map.emplace(dg.term_of(i), class_node[part.class_of[i]]);
  }
  out.stats = ComputeSummaryStats(out.graph, timer.ElapsedSeconds());
  out.stats.quotient_seconds = out.stats.build_seconds;
  return out;
}

}  // namespace

StatusOr<SummaryResult> QuotientByPartition(const GraphView& g,
                                            const NodePartition& part,
                                            SummaryKind kind,
                                            const SummaryOptions& options) {
  const DenseGraph dg(g);
  const uint32_t num_classes = part.num_classes;
  if (part.class_of.size() != dg.num_nodes() || num_classes > dg.num_nodes() ||
      std::any_of(part.class_of.begin(), part.class_of.end(),
                  [&](uint32_t c) { return c >= num_classes; })) {
    return Status::InvalidArgument(
        "partition must map every graph node to a class id below "
        "num_classes, and num_classes must not exceed the node count");
  }
  return Quotient(g, dg, part, kind, options);
}

StatusOr<SummaryResult> TrySummarize(const GraphView& g, SummaryKind kind,
                                     const SummaryOptions& options) {
  Timer timer;
  // One substrate per call, read by both phases; partition_seconds starts
  // after it is built.
  const DenseGraph dg(g);
  Timer partition_timer;
  NodePartition part = ComputePartition(dg, kind, options);
  // A governed partition phase bails out of its shards early when the
  // context trips; the partial partition must be discarded, and the sticky
  // Check() replays the reason.
  if (options.exec != nullptr) RDFSUM_RETURN_IF_ERROR(options.exec->Check());
  const double partition_seconds = partition_timer.ElapsedSeconds();
  RDFSUM_ASSIGN_OR_RETURN(SummaryResult out,
                          Quotient(g, dg, part, kind, options));
  out.stats.partition_seconds = partition_seconds;
  out.stats.build_seconds = timer.ElapsedSeconds();
  return out;
}

namespace {

/// The shared contract of the ungoverned wrappers: they have no error
/// channel, so a failure (only a context the caller was told not to pass,
/// or an injected fault) is fatal.
SummaryResult ValueOrDie(StatusOr<SummaryResult> result,
                         const char* function) {
  if (!result.ok()) {
    std::fprintf(stderr, "rdfsum: %s cannot fail but did: %s\n", function,
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

}  // namespace

SummaryResult Summarize(const GraphView& g, SummaryKind kind,
                        const SummaryOptions& options) {
  return ValueOrDie(TrySummarize(g, kind, options), "Summarize");
}

StatusOr<SummaryResult> TrySummarizeSaturatedViaShortcut(
    const Graph& g, SummaryKind kind, const SummaryOptions& options) {
  Timer timer;
  if (kind != SummaryKind::kWeak && kind != SummaryKind::kStrong) {
    // No completeness guarantee (Propositions 7/10): saturate first.
    Graph saturated = reasoner::Saturate(g);
    RDFSUM_ASSIGN_OR_RETURN(SummaryResult out,
                            TrySummarize(saturated, kind, options));
    out.stats.build_seconds = timer.ElapsedSeconds();
    return out;
  }
  RDFSUM_ASSIGN_OR_RETURN(SummaryResult first, TrySummarize(g, kind, options));
  Graph saturated_summary = reasoner::Saturate(first.graph);
  RDFSUM_ASSIGN_OR_RETURN(SummaryResult second,
                          TrySummarize(saturated_summary, kind, options));
  // Compose the node maps so the result still maps G's data nodes.
  std::unordered_map<TermId, TermId> composed;
  composed.reserve(first.node_map.size());
  for (const auto& [n, mid] : first.node_map) {
    auto it = second.node_map.find(mid);
    if (it != second.node_map.end()) composed.emplace(n, it->second);
  }
  second.node_map = std::move(composed);
  // The second quotient counted the saturated summary's triples, not G∞'s.
  second.multiplicity.clear();
  second.stats.partition_seconds += first.stats.partition_seconds;
  second.stats.quotient_seconds += first.stats.quotient_seconds;
  second.stats.build_seconds = timer.ElapsedSeconds();
  return second;
}

SummaryResult SummarizeSaturatedViaShortcut(const Graph& g, SummaryKind kind,
                                            const SummaryOptions& options) {
  return ValueOrDie(TrySummarizeSaturatedViaShortcut(g, kind, options),
                    "SummarizeSaturatedViaShortcut");
}

}  // namespace rdfsum::summary
