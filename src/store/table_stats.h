#ifndef RDFSUM_STORE_TABLE_STATS_H_
#define RDFSUM_STORE_TABLE_STATS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/triple.h"

namespace rdfsum::store {

/// Aggregates for one predicate, playing the role of an RDBMS per-column
/// histogram head: how many triples carry the predicate and how many
/// distinct subjects/objects they touch. count/distinct_subjects is the
/// expected out-fanout of a subject under this predicate (and symmetrically
/// for objects) — the quantity the cost-based planner divides by when a
/// join variable is already bound.
struct PredicateStats {
  uint64_t count = 0;
  uint64_t distinct_subjects = 0;
  uint64_t distinct_objects = 0;
};

/// Table-wide statistics computed once at TripleTable::Build() from the
/// already-sorted SPO/POS/OSP permutations (single pass each, no hashing:
/// distinct counts are run-boundary counts in sorted order). A table is
/// immutable, so it can never drift from its stats.
class TableStats {
 public:
  TableStats() = default;

  /// Builds the stats from the three sorted permutations of the same triple
  /// set: `spo` sorted by (s,p,o), `pos` by (p,o,s), `osp` by (o,s,p), in
  /// one run-boundary pass over each.
  static TableStats Compute(const std::vector<Triple>& spo,
                            const std::vector<Triple>& pos,
                            const std::vector<Triple>& osp);

  /// Reassembles stats previously computed by Compute() and serialized —
  /// the frozen-image open path (kPredStats section), where re-deriving
  /// them would mean touching every page of the permutations.
  static TableStats Restore(
      uint64_t num_triples, uint64_t num_distinct_subjects,
      uint64_t num_distinct_predicates, uint64_t num_distinct_objects,
      const std::vector<std::pair<TermId, PredicateStats>>& per_predicate);

  uint64_t num_triples() const { return num_triples_; }
  uint64_t num_distinct_subjects() const { return num_distinct_subjects_; }
  uint64_t num_distinct_predicates() const { return num_distinct_predicates_; }
  uint64_t num_distinct_objects() const { return num_distinct_objects_; }

  /// All per-predicate rows, unordered — serializers sort by TermId for a
  /// deterministic on-disk layout.
  const std::unordered_map<TermId, PredicateStats>& by_predicate() const {
    return by_predicate_;
  }

  /// Stats for one predicate, or nullptr if it never occurs.
  const PredicateStats* predicate(TermId p) const {
    auto it = by_predicate_.find(p);
    return it == by_predicate_.end() ? nullptr : &it->second;
  }

  /// Expected number of triples with predicate `p` per distinct subject
  /// (>= 1 when the predicate occurs; 0 otherwise).
  double AvgTriplesPerSubject(TermId p) const;
  /// Expected number of triples with predicate `p` per distinct object.
  double AvgTriplesPerObject(TermId p) const;

  std::string ToString() const;

 private:
  uint64_t num_triples_ = 0;
  uint64_t num_distinct_subjects_ = 0;
  uint64_t num_distinct_predicates_ = 0;
  uint64_t num_distinct_objects_ = 0;
  std::unordered_map<TermId, PredicateStats> by_predicate_;
};

}  // namespace rdfsum::store

#endif  // RDFSUM_STORE_TABLE_STATS_H_
