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
      return ComputeWeakPartition(dg, options.exec);
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
          BisimulationDirection::kForwardBackward, options.exec);
  }
  return ComputeWeakPartition(dg, options.exec);
}

/// The quotient edge set in one pass per component: each pass maps its
/// input rows to summary edges through a dedup table that records them in
/// first-occurrence order and counts the input rows that land on each, so
/// the summary graph's insertion order — and with it every downstream
/// canonical numbering — is the first-occurrence order of the input walk,
/// and the counts are SummaryResult::multiplicity.
///
/// `exec` governs both passes (partial output is discarded), and the
/// "quotient:shard" failpoint injects a failure once per call in
/// fault-injection builds.
Status QuotientEdges(const GraphView& g, const DenseGraph& dg,
                     const NodePartition& part,
                     const std::vector<TermId>& class_node,
                     util::ExecContext* exec, SummaryResult* out) {
  RDFSUM_FAILPOINT("quotient:shard");
  const std::vector<uint32_t>& class_of = part.class_of;

  // A component's distinct summary edges, with the count of input rows
  // that hit each of their ordinals.
  struct Component {
    util::RowSet rows;
    std::vector<uint64_t> counts;
    explicit Component(size_t width) : rows(width) {}
    void Count(const TermId* row) {
      auto [ordinal, inserted] = rows.InsertOrFind(row);
      if (inserted) counts.push_back(0);
      ++counts[ordinal];
    }
  };

  // Data component: (class(s), property, class(o)) over the dense edges.
  Component data(3);
  RDFSUM_RETURN_IF_ERROR(util::CancellableChunks(
      exec, 0, dg.num_data_edges(), [&](uint64_t begin, uint64_t end) {
        TermId row[3];
        for (const DenseGraph::Edge& e : dg.EdgeRange(begin, end)) {
          row[0] = class_of[e.s];
          row[1] = e.p;
          row[2] = class_of[e.o];
          data.Count(row);
        }
      }));

  // Type component: (class(s), class term) over g.types. Type subjects are
  // dense nodes by the substrate's canonical numbering, so node_of never
  // misses.
  const std::span<const Triple> types = g.types;
  Component typed(2);
  RDFSUM_RETURN_IF_ERROR(util::CancellableChunks(
      exec, 0, types.size(), [&](uint64_t begin, uint64_t end) {
        TermId row[2];
        for (uint64_t i = begin; i < end; ++i) {
          row[0] = class_of[dg.node_of(types[i].s)];
          row[1] = types[i].o;
          typed.Count(row);
        }
      }));

  // Emit in first-occurrence order. Mapped data edges keep data properties,
  // type edges use rdf:type and schema is copied, so Graph::Add routes each
  // to its own component and nothing collides.
  const size_t distinct = data.rows.size() + typed.rows.size();
  out->graph.Reserve(distinct + g.schema.size());
  out->multiplicity.reserve(distinct);
  auto emit = [&](const Triple& t, uint64_t count) {
    out->graph.Add(t);
    out->multiplicity[t] = count;
  };
  for (size_t r = 0; r < data.rows.size(); ++r) {
    const TermId* row = data.rows.row(r);
    emit(Triple{class_node[row[0]], dg.property_term(row[1]),
                class_node[row[2]]},
         data.counts[r]);
  }
  const TermId rdf_type = g.vocab.rdf_type;
  for (size_t r = 0; r < typed.rows.size(); ++r) {
    const TermId* row = typed.rows.row(r);
    emit(Triple{class_node[row[0]], rdf_type, row[1]}, typed.counts[r]);
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

  RDFSUM_RETURN_IF_ERROR(QuotientEdges(g, dg, part, class_node, exec, &out));

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
  // A governed partition phase bails out early when the context trips; the
  // partial partition must be discarded, and the sticky Check() replays the
  // reason.
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
