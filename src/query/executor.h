#ifndef RDFSUM_QUERY_EXECUTOR_H_
#define RDFSUM_QUERY_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "query/cursor.h"
#include "query/plan.h"
#include "store/triple_table.h"
#include "util/exec_context.h"

namespace rdfsum::query {

/// Whether the executor honors the planner's hash-join flags. kNever and
/// kAlways exist for differential tests and benchmarks (kAlways hashes
/// every step with at least one join variable, budget ignored).
enum class HashJoinMode : uint8_t { kFromPlan, kNever, kAlways };

struct ExecutorOptions {
  /// Applied after projection + dedup: at most `limit` distinct rows are
  /// produced, and the tree stops pulling once they are (early exit).
  size_t limit = SIZE_MAX;
  /// Distinct rows skipped before the first emitted one.
  size_t offset = 0;
  HashJoinMode hash_join = HashJoinMode::kFromPlan;
  /// Optional governance: deadline, cancellation, row budget, memory
  /// budget. Borrowed — must outlive the compiled tree. When set, every
  /// scan/join polls it, the root charges the row budget per answer, and
  /// hash joins fit themselves into (or degrade under) the memory budget.
  util::ExecContext* exec = nullptr;
  /// Ignored: every query runs one pipeline on the calling thread. Kept
  /// only so perfbench/perfbench.cc, which assigns 1 here, still builds;
  /// nothing else reads or sets it.
  uint32_t parallelism = 1;
};

/// The compiled operator tree plus non-owning handles into it, for reading
/// the per-operator counters after a drain (Explain). All raw pointers
/// alias nodes owned by `root`.
struct CursorTree {
  std::unique_ptr<Cursor> root;
  /// The scan/join operator of each plan step, parallel to plan.steps
  /// (empty for impossible or zero-pattern queries).
  std::vector<Cursor*> step_cursors;
  /// The deepest join operator — its rows-produced counter is the number of
  /// embeddings enumerated.
  Cursor* embeddings = nullptr;
  /// The Distinct operator when the tree projects; its counter is the
  /// number of distinct result rows. nullptr in embedding-only trees.
  Cursor* distinct = nullptr;
};

/// Compiles `plan` into the join pipeline only (no projection, no dedup):
/// the root enumerates embeddings of the query body as full-width binding
/// rows. Backbone of ExistsMatch. With `options.exec`, operators poll
/// governance, and a hash join whose predicted build state
/// (estimated_build_rows × kHashJoinBuildBytesPerRow) cannot fit the
/// remaining memory budget is compiled as a nested-loop join up front —
/// same rows, no doomed build. The pipeline is the driving scan, then per
/// step a hash join or an index nested-loop join, run on the calling
/// thread.
CursorTree CompileEmbeddingTree(const store::TripleTable& table,
                                const QueryPlan& plan,
                                const ExecutorOptions& options = {});

/// Compiles the full query tree: joins -> Project(head) -> Distinct ->
/// LimitOffset (the last only when limit/offset are set). The root yields
/// the query's distinct answer rows, head-ordered and deduplicated, in a
/// deterministic order; pulling stops early once the limit is reached.
/// Cursors copy what they need from `plan` (it may die) but borrow `table`.
CursorTree CompileQueryTree(const store::TripleTable& table,
                            const QueryPlan& plan,
                            const std::vector<uint32_t>& head,
                            const ExecutorOptions& options = {});

}  // namespace rdfsum::query

#endif  // RDFSUM_QUERY_EXECUTOR_H_
