#include "store/table_stats.h"

#include <utility>

#include "util/string_util.h"

namespace rdfsum::store {

TableStats TableStats::Compute(const std::vector<Triple>& spo,
                               const std::vector<Triple>& pos,
                               const std::vector<Triple>& osp) {
  // SPO pass: distinct subjects globally (s runs) and per predicate
  // (distinct (s, p) pairs, which for a fixed p count its distinct
  // subjects). POS pass: per-predicate triple counts, distinct objects per
  // predicate ((p, o) runs) and distinct predicates (p runs). OSP pass:
  // distinct objects globally (o runs).
  TableStats out;
  out.num_triples_ = spo.size();
  for (size_t i = 0; i < spo.size(); ++i) {
    if (i == 0 || spo[i].s != spo[i - 1].s) ++out.num_distinct_subjects_;
    if (i == 0 || spo[i].s != spo[i - 1].s || spo[i].p != spo[i - 1].p) {
      ++out.by_predicate_[spo[i].p].distinct_subjects;
    }
  }
  for (size_t i = 0; i < pos.size(); ++i) {
    PredicateStats& ps = out.by_predicate_[pos[i].p];
    ++ps.count;
    if (i == 0 || pos[i].p != pos[i - 1].p) ++out.num_distinct_predicates_;
    if (i == 0 || pos[i].p != pos[i - 1].p || pos[i].o != pos[i - 1].o) {
      ++ps.distinct_objects;
    }
  }
  for (size_t i = 0; i < osp.size(); ++i) {
    if (i == 0 || osp[i].o != osp[i - 1].o) ++out.num_distinct_objects_;
  }
  return out;
}

TableStats TableStats::Restore(
    uint64_t num_triples, uint64_t num_distinct_subjects,
    uint64_t num_distinct_predicates, uint64_t num_distinct_objects,
    const std::vector<std::pair<TermId, PredicateStats>>& per_predicate) {
  TableStats out;
  out.num_triples_ = num_triples;
  out.num_distinct_subjects_ = num_distinct_subjects;
  out.num_distinct_predicates_ = num_distinct_predicates;
  out.num_distinct_objects_ = num_distinct_objects;
  out.by_predicate_.reserve(per_predicate.size());
  for (const auto& [p, stats] : per_predicate) out.by_predicate_[p] = stats;
  return out;
}

double TableStats::AvgTriplesPerSubject(TermId p) const {
  const PredicateStats* ps = predicate(p);
  if (ps == nullptr || ps->distinct_subjects == 0) return 0.0;
  return static_cast<double>(ps->count) /
         static_cast<double>(ps->distinct_subjects);
}

double TableStats::AvgTriplesPerObject(TermId p) const {
  const PredicateStats* ps = predicate(p);
  if (ps == nullptr || ps->distinct_objects == 0) return 0.0;
  return static_cast<double>(ps->count) /
         static_cast<double>(ps->distinct_objects);
}

std::string TableStats::ToString() const {
  std::string out = FormatWithCommas(num_triples_) + " triples, " +
                    FormatWithCommas(num_distinct_subjects_) + " subjects, " +
                    FormatWithCommas(num_distinct_predicates_) +
                    " predicates, " + FormatWithCommas(num_distinct_objects_) +
                    " objects";
  return out;
}

}  // namespace rdfsum::store
