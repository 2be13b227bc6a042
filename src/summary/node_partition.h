#ifndef RDFSUM_SUMMARY_NODE_PARTITION_H_
#define RDFSUM_SUMMARY_NODE_PARTITION_H_

#include <cstdint>
#include <vector>

#include "rdf/dense_graph.h"
#include "summary/summary.h"

namespace rdfsum::summary {

/// A partition of the data nodes of a graph into equivalence classes.
/// Class ids are dense, assigned in first-encounter order over the data
/// component (subjects, then objects, triple by triple) followed by the type
/// component (subjects), which makes partitions deterministic for a given
/// graph construction order.
///
/// Every partition function reads only the dense substrate of the graph
/// (DenseGraph), so one substrate serves any number of partitions, from
/// any number of threads, and the partition is indexed the same way:
/// class_of[i] is the class of dense node i (DenseGraph::term_of(i) names
/// it), so class_of.size() == num_nodes() and every id is < num_classes.
struct NodePartition {
  std::vector<uint32_t> class_of;
  uint32_t num_classes = 0;
};

/// ≡W (Definition 7) with the Nτ convention: all typed-only resources form
/// one class.
///
/// One union-find pass over the dense edge list (see src/summary/README.md).
/// `exec` (optional) makes the pass cancellable: a tripped context returns
/// an empty partition the caller must discard after consulting
/// exec->Check() (governance errors are sticky, so the check replays).
NodePartition ComputeWeakPartition(const DenseGraph& dg,
                                   util::ExecContext* exec = nullptr);

/// ≡S (Definition 7): same (source clique, target clique); typed-only
/// resources have (∅,∅) and form one class (Nτ).
NodePartition ComputeStrongPartition(const DenseGraph& dg);

/// ≡T (Definition 8): typed resources grouped by their exact class set;
/// every untyped data node is a singleton (C(∅) is fresh per call).
NodePartition ComputeTypePartition(const DenseGraph& dg);

/// TW's node partition: typed resources by class set; untyped resources by
/// untyped-weak equivalence per `mode` (see TypedSummaryMode).
NodePartition ComputeTypedWeakPartition(const DenseGraph& dg,
                                        TypedSummaryMode mode);

/// TS's node partition: typed resources by class set; untyped resources by
/// untyped-strong equivalence per `mode`.
NodePartition ComputeTypedStrongPartition(const DenseGraph& dg,
                                          TypedSummaryMode mode);

/// Baseline from the paper's related work (§8): k-bounded bisimulation over
/// the data triples, seeded with class sets when `use_types` is set. Two
/// nodes are equivalent iff their labeled neighborhoods (per `direction`:
/// forward, backward, or both) agree up to `depth` hops: each round
/// interns exact signatures, never a hash of them. The partition builds
/// its own adjacency from `dg.data_edges()`. Unlike the paper's summaries
/// its size grows with structural diversity — the blow-up
/// bench_baseline_bisimulation measures.
///
/// `exec` (optional) makes the rounds cancellable: each round polls it
/// between chunks of nodes, and a tripped context returns an empty
/// partition the caller must discard after consulting exec->Check()
/// (governance errors are sticky, so the check replays).
NodePartition ComputeBisimulationPartition(
    const DenseGraph& dg, uint32_t depth, bool use_types,
    BisimulationDirection direction = BisimulationDirection::kForwardBackward,
    util::ExecContext* exec = nullptr);

}  // namespace rdfsum::summary

#endif  // RDFSUM_SUMMARY_NODE_PARTITION_H_
