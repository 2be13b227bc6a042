#ifndef RDFSUM_SUMMARY_INCREMENTAL_WEAK_H_
#define RDFSUM_SUMMARY_INCREMENTAL_WEAK_H_

#include "rdf/graph.h"
#include "summary/summary.h"

namespace rdfsum::summary {

/// Options for the incremental weak summarizer.
struct IncrementalWeakOptions {
  /// Paper §6.2: MERGEDATANODES "replaces the node with less edges". When
  /// false, merges are arbitrary (always into the first operand) — exposed
  /// for the ablation benchmark.
  bool merge_smaller_node = true;
};

/// The paper's Algorithms 1–3 (§6.2): the weak summary is built by a single
/// pass over the data triples, representing each subject and object with a
/// summary data node and merging nodes as shared properties are discovered
/// (maps rd/dr, dpSrc/dpTarg, srcDps/targDps), followed by a pass over the
/// type triples (typed-only resources all represented by one fresh node,
/// Algorithm 3 REPRESENTTYPEDONLY). Runs WeakSummaryMaintainer
/// (summary/maintenance.h), the one port of the algorithms, over `g`.
///
/// Produces a summary isomorphic to Summarize(g, SummaryKind::kWeak); the
/// batch union-find builder is the production path, this one exists to
/// validate it and for the algorithm ablation benchmark.
SummaryResult IncrementalWeakSummarize(
    const Graph& g, const IncrementalWeakOptions& options = {});

/// The typed-weak counterpart of the §6.2 algorithm suite, on the same
/// core: each typed resource is first pinned to one node per class set (the
/// paper's `clsd` map), then data triples are summarized with per-property
/// merging applied to untyped endpoints only — pinned nodes never enter
/// dpSrc/dpTarg and never merge (footnote 3). Produces a summary isomorphic
/// to Summarize(g, kTypedWeak) under the default
/// TypedSummaryMode::kPerPropertyProjection.
SummaryResult IncrementalTypedWeakSummarize(
    const Graph& g, const IncrementalWeakOptions& options = {});

}  // namespace rdfsum::summary

#endif  // RDFSUM_SUMMARY_INCREMENTAL_WEAK_H_
