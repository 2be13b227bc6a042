#ifndef RDFSUM_ORACLE_DRAIN_H_
#define RDFSUM_ORACLE_DRAIN_H_

#include <memory>
#include <utility>
#include <vector>

#include "query/evaluator.h"
#include "util/statusor.h"

namespace rdfsum::query {

/// Opens `q` on `eval` — a BgpEvaluator or a SummaryPrunedEvaluator, with
/// `open_args` forwarded to its Open() (a PlannerMode and/or CursorOptions)
/// — and drains the cursor into decoded rows. A false Next() is exhaustion
/// or failure and the cursor's status says which, so a governed drain that
/// stops on a deadline or budget returns that error, never a truncated row
/// set.
template <typename Evaluator, typename... OpenArgs>
StatusOr<std::vector<Row>> Drain(Evaluator& eval, const BgpQuery& q,
                                 OpenArgs&&... open_args) {
  RDFSUM_ASSIGN_OR_RETURN(std::unique_ptr<Cursor> cursor,
                          eval.Open(q, std::forward<OpenArgs>(open_args)...));
  std::vector<Row> rows;
  IdRow row;
  while (cursor->Next(&row)) rows.push_back(eval.Decode(row));
  RDFSUM_RETURN_IF_ERROR(cursor->status());
  return rows;
}

}  // namespace rdfsum::query

#endif  // RDFSUM_ORACLE_DRAIN_H_
