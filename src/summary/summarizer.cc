#include "summary/summarizer.h"

#include <atomic>
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
/// fixes determinism.
///
/// `exec` governs the shard loops (workers stop mid-range on cancellation
/// and fall through to their join barrier — partial shard output is never
/// merged), and the "quotient:shard" failpoint injects per-shard failures
/// at each shard boundary in fault-injection builds.
Status QuotientEdges(const GraphView& g, const DenseGraph& dg,
                     const NodePartition& part,
                     const std::vector<TermId>& class_node,
                     uint32_t num_threads, util::ExecContext* exec,
                     Graph* out) {
  const uint32_t n = dg.num_nodes();

  // Resolve every dense node to its class id once, instead of one hash
  // lookup per edge endpoint. Workers flag missing nodes; the Status
  // materializes after the join so no worker ever blocks on an error.
  std::vector<uint32_t> class_of_dense(n);
  std::atomic<bool> missing{false};
  util::ParallelForRanges(
      util::ResolveThreadCount(num_threads, n), n,
      [&](uint32_t, uint64_t begin, uint64_t end) {
        util::CancellableChunks(exec, begin, end, [&](uint64_t cb,
                                                      uint64_t ce) {
          for (uint64_t i = cb; i < ce; ++i) {
            auto it =
                part.class_of.find(dg.term_of(static_cast<uint32_t>(i)));
            if (it == part.class_of.end()) {
              missing.store(true, std::memory_order_relaxed);
            } else {
              class_of_dense[i] = it->second;
            }
          }
        });
      });
  if (exec != nullptr) RDFSUM_RETURN_IF_ERROR(exec->Check());
  if (missing.load()) {
    return Status::InvalidArgument(
        "partition does not cover every graph node");
  }

  // Data component: each shard scans a contiguous EdgeRange and dedups the
  // summary edges (class(s), property, class(o)) it sees, in first-occurrence
  // order, into a private RowSet. Shard failures (injected or governance)
  // land in per-shard slots and surface after the join.
  const uint32_t edge_threads =
      util::ResolveThreadCount(num_threads, dg.num_data_edges());
  std::vector<util::RowSet> shard_edges(edge_threads, util::RowSet(3));
  std::vector<Status> shard_status(edge_threads);
  util::ParallelForRanges(
      edge_threads, dg.num_data_edges(),
      [&](uint32_t shard, uint64_t begin, uint64_t end) {
        Status fp = RDFSUM_FAILPOINT_STATUS("quotient:shard");
        if (!fp.ok()) {
          shard_status[shard] = std::move(fp);
          return;
        }
        util::RowSet& set = shard_edges[shard];
        TermId row[3];
        shard_status[shard] =
            util::CancellableChunks(exec, begin, end, [&](uint64_t cb,
                                                          uint64_t ce) {
              for (const DenseGraph::Edge& e : dg.EdgeRange(cb, ce)) {
                row[0] = class_of_dense[e.s];
                row[1] = e.p;
                row[2] = class_of_dense[e.o];
                set.Insert(row);
              }
            });
      });
  for (const Status& st : shard_status) RDFSUM_RETURN_IF_ERROR(st);

  // Type component: same recipe over g.types with (class(s), class term)
  // keys. Type subjects are dense nodes by the substrate's canonical
  // numbering, so node_of never misses.
  const std::span<const Triple> types = g.types;
  const uint32_t type_threads =
      util::ResolveThreadCount(num_threads, types.size());
  std::vector<util::RowSet> shard_types(type_threads, util::RowSet(2));
  std::vector<Status> type_status(type_threads);
  util::ParallelForRanges(
      type_threads, types.size(),
      [&](uint32_t shard, uint64_t begin, uint64_t end) {
        Status fp = RDFSUM_FAILPOINT_STATUS("quotient:shard");
        if (!fp.ok()) {
          type_status[shard] = std::move(fp);
          return;
        }
        util::RowSet& set = shard_types[shard];
        TermId row[2];
        type_status[shard] =
            util::CancellableChunks(exec, begin, end, [&](uint64_t cb,
                                                          uint64_t ce) {
              for (uint64_t i = cb; i < ce; ++i) {
                const Triple& t = types[i];
                row[0] = class_of_dense[dg.node_of(t.s)];
                row[1] = t.o;
                set.Insert(row);
              }
            });
      });
  for (const Status& st : type_status) RDFSUM_RETURN_IF_ERROR(st);

  // Merge in shard-index order. Shards are contiguous input ranges, so an
  // edge's first surviving occurrence is in the earliest shard that saw it,
  // at that shard's first-occurrence position: Graph::Add's cross-shard
  // dedup reproduces the sequential insertion order exactly.
  size_t distinct_upper = g.schema.size();
  for (const util::RowSet& set : shard_edges) distinct_upper += set.size();
  for (const util::RowSet& set : shard_types) distinct_upper += set.size();
  out->Reserve(distinct_upper);
  for (const util::RowSet& set : shard_edges) {
    for (size_t r = 0; r < set.size(); ++r) {
      const TermId* row = set.row(r);
      out->Add(Triple{class_node[row[0]], dg.property_term(row[1]),
                      class_node[row[2]]});
    }
  }
  const TermId rdf_type = g.vocab.rdf_type;
  for (const util::RowSet& set : shard_types) {
    for (size_t r = 0; r < set.size(); ++r) {
      const TermId* row = set.row(r);
      out->Add(Triple{class_node[row[0]], rdf_type, row[1]});
    }
  }
  for (const Triple& t : g.schema) out->Add(t);
  return Status::OK();
}

/// QuotientByPartition over a substrate `dg` already built from `g`.
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
                                       options.num_threads, exec, &out.graph));

  out.node_map.reserve(part.class_of.size());
  for (const auto& [n, c] : part.class_of) {
    out.node_map.emplace(n, class_node[c]);
  }
  if (options.record_members) {
    for (const auto& [n, c] : part.class_of) {
      out.members[class_node[c]].push_back(n);
    }
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
  return Quotient(g, DenseGraph(g), part, kind, options);
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
/// channel, so a failure (an incomplete partition — a caller bug — or a
/// context the caller was told not to pass) is fatal.
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
  if (options.record_members) {
    std::unordered_map<TermId, std::vector<TermId>> members;
    for (const auto& [n, h] : second.node_map) members[h].push_back(n);
    second.members = std::move(members);
  }
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
