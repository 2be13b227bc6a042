#ifndef RDFSUM_SUMMARY_SUMMARIZER_H_
#define RDFSUM_SUMMARY_SUMMARIZER_H_

#include "rdf/graph.h"
#include "summary/node_partition.h"
#include "summary/summary.h"
#include "util/statusor.h"

namespace rdfsum::summary {

/// Builds the summary of `g` of the requested kind (Definition 9 quotient
/// with the kind's equivalence relation):
///   SCH      — schema triples are copied unchanged;
///   TYP+DAT  — type and data triples are quotiented through the node
///              partition, class nodes staying fixed.
///
/// The summary shares `g`'s dictionary; summary nodes are freshly minted
/// urn:rdfsum: URIs (the dictionary is mutated through the shared pointer,
/// which is why it is held by shared_ptr rather than by value). Everything
/// else is read-only: each call builds its own dense substrate (DenseGraph)
/// once and both phases read it, so calls over the same triples may run
/// concurrently when each view carries a dictionary of its own.
/// SummaryStats::partition_seconds excludes the substrate build;
/// build_seconds includes it.
///
/// Both phases run on the calling thread; per-phase wall times land in
/// SummaryResult::stats.
///
/// The governed entry point: options.exec carries a deadline/cancellation
/// token the quotient and the W and BISIM partitions poll; a tripped
/// context returns kCancelled or kDeadlineExceeded with all partial output
/// discarded; those are its only errors.
StatusOr<SummaryResult> TrySummarize(const GraphView& g, SummaryKind kind,
                                     const SummaryOptions& options = {});

/// Ungoverned convenience wrapper over TrySummarize for the overwhelmingly
/// common "summarize this graph, it cannot fail" call. Must not be called
/// with options.exec set — without an error channel, a governance failure
/// here aborts the process (a usage bug, not a runtime condition).
SummaryResult Summarize(const GraphView& g, SummaryKind kind,
                        const SummaryOptions& options = {});

/// Builds the quotient of `g` through an explicit partition (exposed so
/// callers can experiment with custom equivalence relations; Summarize runs
/// the same quotient over its own substrate, this builds one). The
/// partition is indexed by the dense node ids of DenseGraph(g), as every
/// ComputeXxxPartition result is: unless class_of.size() == num_nodes(),
/// every class id is below num_classes and num_classes <= num_nodes(), it
/// returns kInvalidArgument (the library does not throw).
///
/// The summary edge set is built in one pass over the dense edge list, then
/// one over the type triples: each pass dedups the summary edges it sees in
/// first-occurrence order and counts the input rows per edge into
/// SummaryResult::multiplicity (see src/summary/README.md). options.exec
/// makes the passes cancellable (kCancelled/kDeadlineExceeded).
StatusOr<SummaryResult> QuotientByPartition(const GraphView& g,
                                            const NodePartition& part,
                                            SummaryKind kind,
                                            const SummaryOptions& options = {});

/// Computes Summary(G∞) via the completeness shortcut of Propositions 5/8:
/// summarize G, saturate the (small) summary, summarize again. Only sound
/// for kWeak and kStrong (Propositions 7/10 show TW/TS lack this property);
/// other kinds fall back to saturating G first. A W or S result has an
/// empty SummaryResult::multiplicity: its second quotient counted the
/// saturated summary's triples, not G∞'s. Governed like TrySummarize
/// (saturation itself is not yet cancellable — the summarization phases
/// around it are).
StatusOr<SummaryResult> TrySummarizeSaturatedViaShortcut(
    const Graph& g, SummaryKind kind, const SummaryOptions& options = {});

/// Ungoverned wrapper; same contract as Summarize (no options.exec).
SummaryResult SummarizeSaturatedViaShortcut(const Graph& g, SummaryKind kind,
                                            const SummaryOptions& options = {});

}  // namespace rdfsum::summary

#endif  // RDFSUM_SUMMARY_SUMMARIZER_H_
