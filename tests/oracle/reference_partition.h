#ifndef RDFSUM_ORACLE_REFERENCE_PARTITION_H_
#define RDFSUM_ORACLE_REFERENCE_PARTITION_H_

#include <cstdint>

#include "rdf/graph.h"
#include "summary/node_partition.h"
#include "summary/summary.h"

namespace rdfsum::summary {

/// Pre-substrate reference implementations of every partition kind, kept
/// verbatim from before the dense-ID refactor (hash-map-per-endpoint
/// indexing). They are the differential-testing oracle for the DenseGraph
/// substrate — each Compute*Partition must produce a byte-identical
/// NodePartition (same class_of, same num_classes) — and the "before" side
/// of bench_substrate's before/after measurement. Built into the test-only
/// rdfsum_oracle target, never into librdfsum.
NodePartition ReferenceWeakPartition(const Graph& g);
NodePartition ReferenceStrongPartition(const Graph& g);
NodePartition ReferenceTypePartition(const Graph& g);
NodePartition ReferenceTypedWeakPartition(const Graph& g,
                                          TypedSummaryMode mode);
NodePartition ReferenceTypedStrongPartition(const Graph& g,
                                            TypedSummaryMode mode);
NodePartition ReferenceBisimulationPartition(const Graph& g, uint32_t depth,
                                             bool use_types);

}  // namespace rdfsum::summary

#endif  // RDFSUM_ORACLE_REFERENCE_PARTITION_H_
