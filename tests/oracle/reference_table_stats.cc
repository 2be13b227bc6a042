#include "oracle/reference_table_stats.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>

namespace rdfsum::store {

ReferenceTableStats ComputeReferenceTableStats(
    const std::vector<Triple>& rows) {
  auto sorted = [&rows](auto key) {
    std::vector<Triple> out = rows;
    std::sort(out.begin(), out.end(), [&key](const Triple& a, const Triple& b) {
      return key(a) < key(b);
    });
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  ReferenceTableStats ref;
  ref.spo = sorted([](const Triple& t) { return std::tuple(t.s, t.p, t.o); });
  ref.pos = sorted([](const Triple& t) { return std::tuple(t.p, t.o, t.s); });
  ref.osp = sorted([](const Triple& t) { return std::tuple(t.o, t.s, t.p); });

  const std::set<std::tuple<TermId, TermId, TermId>> distinct = [&rows] {
    std::set<std::tuple<TermId, TermId, TermId>> out;
    for (const Triple& t : rows) out.emplace(t.s, t.p, t.o);
    return out;
  }();
  std::set<TermId> subjects, predicates, objects;
  std::map<TermId, uint64_t> count_by_p;
  std::map<TermId, std::set<TermId>> subjects_by_p, objects_by_p;
  for (const auto& [s, p, o] : distinct) {
    subjects.insert(s);
    predicates.insert(p);
    objects.insert(o);
    ++count_by_p[p];
    subjects_by_p[p].insert(s);
    objects_by_p[p].insert(o);
  }
  std::vector<std::pair<TermId, PredicateStats>> per_predicate;
  for (const auto& [p, count] : count_by_p) {
    per_predicate.push_back(
        {p, PredicateStats{count, subjects_by_p[p].size(),
                           objects_by_p[p].size()}});
  }
  ref.stats = TableStats::Restore(distinct.size(), subjects.size(),
                                  predicates.size(), objects.size(),
                                  per_predicate);
  return ref;
}

}  // namespace rdfsum::store
