#ifndef RDFSUM_ORACLE_REFERENCE_PARTITION_H_
#define RDFSUM_ORACLE_REFERENCE_PARTITION_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "rdf/dense_graph.h"
#include "rdf/graph.h"
#include "summary/node_partition.h"
#include "summary/summary.h"

namespace rdfsum::summary {

/// A partition keyed by term: class_of maps every data node and type-triple
/// subject of the graph to its class id. The oracle's own type, so it shares
/// no representation with the dense NodePartition it checks.
struct ReferencePartition {
  std::unordered_map<TermId, uint32_t> class_of;
  uint32_t num_classes = 0;
};

/// Pre-substrate reference implementations of every partition kind, kept
/// verbatim from before the dense-ID refactor (hash-map-per-endpoint
/// indexing). They are the differential-testing oracle for the DenseGraph
/// substrate — each Compute*Partition must equal its reference through
/// PartitionMismatch (same class_of, same num_classes) — and the "before"
/// side of bench_substrate's before/after measurement. Built into the test-only
/// rdfsum_oracle target, never into librdfsum. The bisimulation reference
/// alone is not the pre-substrate code: it names colors by the exact
/// signature through a std::map, so no hash collision can merge two nodes.
ReferencePartition ReferenceWeakPartition(const Graph& g);
ReferencePartition ReferenceStrongPartition(const Graph& g);
ReferencePartition ReferenceTypePartition(const Graph& g);
ReferencePartition ReferenceTypedWeakPartition(const Graph& g,
                                               TypedSummaryMode mode);
ReferencePartition ReferenceTypedStrongPartition(const Graph& g,
                                                 TypedSummaryMode mode);
ReferencePartition ReferenceBisimulationPartition(const Graph& g,
                                                  uint32_t depth,
                                                  bool use_types);

/// Compares a library partition (indexed by the dense node ids of `dg`)
/// with a reference one through DenseGraph::term_of. Returns "" when they
/// are identical (same nodes, same class ids, same num_classes), else the
/// first difference.
std::string PartitionMismatch(const DenseGraph& dg, const NodePartition& got,
                              const ReferencePartition& want);

}  // namespace rdfsum::summary

#endif  // RDFSUM_ORACLE_REFERENCE_PARTITION_H_
