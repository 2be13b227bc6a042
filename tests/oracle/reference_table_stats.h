#ifndef RDFSUM_ORACLE_REFERENCE_TABLE_STATS_H_
#define RDFSUM_ORACLE_REFERENCE_TABLE_STATS_H_

#include <vector>

#include "rdf/triple.h"
#include "store/table_stats.h"

namespace rdfsum::store {

/// A triple table computed the obvious way, as the oracle
/// TripleTable::Build is compared against: each permutation is std::sort +
/// std::unique of the raw rows under its own key order, and every statistic
/// is the size of a std::set of the keys it counts over the distinct rows —
/// no counting sort, no run boundaries.
struct ReferenceTableStats {
  std::vector<Triple> spo;  // sorted by (s, p, o)
  std::vector<Triple> pos;  // sorted by (p, o, s)
  std::vector<Triple> osp;  // sorted by (o, s, p)
  TableStats stats;
};

ReferenceTableStats ComputeReferenceTableStats(const std::vector<Triple>& rows);

}  // namespace rdfsum::store

#endif  // RDFSUM_ORACLE_REFERENCE_TABLE_STATS_H_
