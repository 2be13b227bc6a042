#include "store/table_stats.h"

#include <utility>

#include "util/parallel_for.h"
#include "util/string_util.h"

namespace rdfsum::store {

TableStats TableStats::Compute(const std::vector<Triple>& spo,
                               const std::vector<Triple>& pos,
                               const std::vector<Triple>& osp,
                               uint32_t num_threads) {
  // One shard per ~64k triples: below that the three passes are a few
  // hundred microseconds and the spawn cost dominates.
  const uint32_t threads =
      util::ResolveThreadCount(num_threads, spo.size() / 65536);

  // The three permutations hold the same triple set, so one range sharding
  // covers all three passes. Each shard starts its run-boundary comparisons
  // against the global predecessor element, so runs spanning a shard border
  // are counted exactly once. One shard is the whole table on the calling
  // thread.
  //
  // SPO pass: distinct subjects globally (s runs) and per predicate
  // (distinct (s, p) pairs, which for a fixed p count its distinct
  // subjects). POS pass: per-predicate triple counts, distinct objects per
  // predicate ((p, o) runs) and distinct predicates (p runs). OSP pass:
  // distinct objects globally (o runs).
  std::vector<TableStats> parts(threads);
  util::ParallelForRanges(
      threads, spo.size(), [&](uint32_t shard, uint64_t begin, uint64_t end) {
        TableStats& part = parts[shard];
        for (uint64_t i = begin; i < end; ++i) {
          if (i == 0 || spo[i].s != spo[i - 1].s) {
            ++part.num_distinct_subjects_;
          }
          if (i == 0 || spo[i].s != spo[i - 1].s || spo[i].p != spo[i - 1].p) {
            ++part.by_predicate_[spo[i].p].distinct_subjects;
          }
        }
        for (uint64_t i = begin; i < end; ++i) {
          PredicateStats& ps = part.by_predicate_[pos[i].p];
          ++ps.count;
          if (i == 0 || pos[i].p != pos[i - 1].p) {
            ++part.num_distinct_predicates_;
          }
          if (i == 0 || pos[i].p != pos[i - 1].p || pos[i].o != pos[i - 1].o) {
            ++ps.distinct_objects;
          }
        }
        for (uint64_t i = begin; i < end; ++i) {
          if (i == 0 || osp[i].o != osp[i - 1].o) ++part.num_distinct_objects_;
        }
      });

  TableStats out = std::move(parts[0]);
  out.num_triples_ = spo.size();
  for (size_t i = 1; i < parts.size(); ++i) {
    const TableStats& part = parts[i];
    out.num_distinct_subjects_ += part.num_distinct_subjects_;
    out.num_distinct_predicates_ += part.num_distinct_predicates_;
    out.num_distinct_objects_ += part.num_distinct_objects_;
    for (const auto& [p, ps] : part.by_predicate_) {
      PredicateStats& dst = out.by_predicate_[p];
      dst.count += ps.count;
      dst.distinct_subjects += ps.distinct_subjects;
      dst.distinct_objects += ps.distinct_objects;
    }
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
