#ifndef RDFSUM_SUMMARY_SUMMARY_H_
#define RDFSUM_SUMMARY_SUMMARY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/graph.h"
#include "util/exec_context.h"

namespace rdfsum::summary {

/// The five summary kinds of the paper — Definitions 11 (W), 15 (S),
/// 14 (TW), 17 (TS) and the helper type-based summary of Definition 12 (T) —
/// plus the related-work baseline the paper compares against in §8:
/// a k-bounded bisimulation structural index ([14, 19] in the paper).
enum class SummaryKind {
  kWeak,
  kStrong,
  kTypedWeak,
  kTypedStrong,
  kTypeBased,
  kBisimulation,
};

/// Short name used in minted URIs and reports: "W", "S", "TW", "TS", "T",
/// "BISIM".
const char* SummaryKindName(SummaryKind kind);

/// All four quotient kinds in presentation order (excludes kTypeBased).
inline constexpr SummaryKind kAllQuotientKinds[] = {
    SummaryKind::kWeak, SummaryKind::kStrong, SummaryKind::kTypedWeak,
    SummaryKind::kTypedStrong};

/// How the typed summaries treat untyped resources; see DESIGN.md §2.2.
enum class TypedSummaryMode {
  /// §6 semantics (default): an untyped endpoint of a data triple is merged
  /// per property, regardless of whether the other endpoint is typed.
  /// Reproduces Figure 7 and the authors' data structures exactly.
  kPerPropertyProjection,
  /// Strict Definition 13/16: only data triples with both endpoints untyped
  /// (the untyped data graph UD_G) induce equivalence; untyped resources
  /// outside UD_G collapse into Nτ.
  kUntypedDataGraph,
};

/// Which labeled neighborhoods the bisimulation baseline compares: outgoing
/// edges only (forward), incoming only (backward), or both — the fb variant
/// the paper's §8 baseline uses, and the one SummaryKind::kBisimulation
/// summarizes with.
enum class BisimulationDirection {
  kForward,
  kBackward,
  kForwardBackward,
};

struct SummaryOptions {
  TypedSummaryMode typed_mode = TypedSummaryMode::kPerPropertyProjection;
  /// Refinement rounds for SummaryKind::kBisimulation (forward-backward,
  /// seeded with the nodes' class sets): nodes are equivalent iff their
  /// k-hop labeled neighborhoods are (k = depth). Larger depths approach
  /// full bisimulation, whose size the paper's §8 warns "can be as large as
  /// the input graph".
  uint32_t bisimulation_depth = 2;
  /// Optional governance (deadline + cancellation token). Borrowed; must
  /// outlive the call; nullptr = ungoverned. The weak partition, the
  /// bisimulation rounds and the quotient poll it between chunks, and the
  /// TrySummarize entry points return its kCancelled/kDeadlineExceeded
  /// status (partial phase output is discarded). Only the Try* entry
  /// points may be called with a context set — plain Summarize has no error
  /// channel.
  util::ExecContext* exec = nullptr;
};

/// Sizes of a summary, in the measures reported by Figures 11 and 12.
struct SummaryStats {
  uint64_t num_data_nodes = 0;  // data nodes of the summary graph
  uint64_t num_class_nodes = 0;
  uint64_t num_all_nodes = 0;  // |H|n, including schema/property nodes
  uint64_t num_data_edges = 0;
  uint64_t num_type_edges = 0;
  uint64_t num_schema_edges = 0;
  uint64_t num_all_edges = 0;  // |H|e
  double build_seconds = 0.0;
  /// Per-phase wall times of the build: computing the equivalence partition
  /// and materializing the quotient graph. For the saturation shortcut these
  /// aggregate over both Summarize passes; they never include saturation
  /// itself, so they need not sum to build_seconds.
  double partition_seconds = 0.0;
  double quotient_seconds = 0.0;

  std::string ToString() const;
};

/// A summary H_G together with the representation mapping.
struct SummaryResult {
  SummaryKind kind = SummaryKind::kWeak;
  /// The summary graph; shares the input graph's dictionary, with summary
  /// nodes minted as urn:rdfsum: URIs.
  Graph graph;
  /// The paper's `rd` map: every data node of G -> its summary node. Its
  /// inverse is the paper's `dr` map (a class's members).
  std::unordered_map<TermId, TermId> node_map;
  /// How many triples of G each data or type summary edge stands for (the
  /// quotient's per-edge counts, Definition 9): one entry per data and type
  /// edge, summing to |D_G| over the data edges and to |T_G| over the type
  /// edges. Schema edges have no entry (each stands for itself, count 1).
  /// Filled by the quotient (Summarize, QuotientByPartition); empty for
  /// results that do not count G's triples — the W/S saturation shortcut,
  /// whose second quotient counts the saturated summary's triples, and
  /// WeakSummaryMaintainer snapshots.
  std::unordered_map<Triple, uint64_t, TripleHash> multiplicity;
  SummaryStats stats;
};

/// Fills a SummaryStats from a summary graph (node/edge accounting only;
/// the caller supplies the build time).
SummaryStats ComputeSummaryStats(const Graph& summary, double build_seconds);

}  // namespace rdfsum::summary

#endif  // RDFSUM_SUMMARY_SUMMARY_H_
