#ifndef RDFSUM_ORACLE_REFERENCE_QUOTIENT_H_
#define RDFSUM_ORACLE_REFERENCE_QUOTIENT_H_

#include "rdf/graph.h"
#include "oracle/reference_partition.h"
#include "summary/summary.h"
#include "util/statusor.h"

namespace rdfsum::summary {

/// The pre-substrate quotient walk, kept verbatim: one minted node per class
/// in class-id order, then every data, type and schema triple of `g` added
/// in input order through the partition (Definition 9). It is the oracle
/// QuotientByPartition's dense-edge dedup must match byte for byte — same
/// minted ids, same triple insertion order, same node_map. Its multiplicity
/// is counted apart from the quotient walk, by a second walk of G's data and
/// type triples through node_map.
/// Returns kInvalidArgument when `part` misses a node, and honours
/// options.exec.
StatusOr<SummaryResult> ReferenceQuotient(const Graph& g,
                                          const ReferencePartition& part,
                                          SummaryKind kind,
                                          const SummaryOptions& options = {});

/// The oracle summary of `g`: ReferenceQuotient over the kind's reference
/// partition (reference_partition.h), with the options' typed mode and
/// bisimulation depth (the bisimulation is forward-backward and seeded with
/// class sets, as the library's).
StatusOr<SummaryResult> ReferenceSummarize(const Graph& g, SummaryKind kind,
                                           const SummaryOptions& options = {});

}  // namespace rdfsum::summary

#endif  // RDFSUM_ORACLE_REFERENCE_QUOTIENT_H_
