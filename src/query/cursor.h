#ifndef RDFSUM_QUERY_CURSOR_H_
#define RDFSUM_QUERY_CURSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "query/plan.h"
#include "store/triple_table.h"
#include "util/exec_context.h"
#include "util/row_set.h"
#include "util/status.h"

namespace rdfsum::query {

/// A binding row flowing through the operator tree: TermIds indexed by the
/// plan's dense variable ids (or by head position downstream of Project).
/// kInvalidTermId marks a not-yet-bound slot.
using IdRow = std::vector<TermId>;

/// Volcano-style pull operator: Next() produces one row at a time, so a
/// caller that stops pulling (LIMIT, pagination, first-match existence
/// checks) stops the whole tree — no intermediate result is ever
/// materialized except the explicit stateful operators (a hash join's build
/// side, Distinct's seen-set).
///
/// Lifecycle: Open (construction) -> Next until it returns false ->
/// destruction. Exhaustion is stable: once Next returns false it keeps
/// returning false. Cursors borrow the TripleTable they scan (it must
/// outlive them) but own everything else, including copies of the compiled
/// patterns — the QueryPlan they were compiled from may die.
///
/// Next() returning false means either exhaustion or failure; status()
/// distinguishes them: OK after a clean drain, or the governance/failpoint
/// error (kDeadlineExceeded, kCancelled, kResourceExhausted, injected
/// faults) that stopped the stream. Errors are stable like exhaustion —
/// once status() is non-OK every later Next() returns false immediately —
/// and propagate up the tree, so draining the root and checking its
/// status() observes any failure anywhere in the pipeline.
///
/// Cursors built with an ExecContext poll it every
/// util::ExecContext::kCheckInterval candidate triples (not produced rows:
/// a selective scan that filters millions of triples between rows still
/// honors its deadline); hash builds poll every util::kCancelCheckChunk
/// build triples. A null context means ungoverned, zero overhead.
///
/// Every operator counts the rows it produced; Explain reads the counters
/// off the drained tree (CollectOperators) instead of threading callbacks
/// through the executor.
class Cursor {
 public:
  virtual ~Cursor() = default;

  /// Writes the next row into *row (resized to width()) and returns true,
  /// or returns false when the operator is exhausted or failed (see
  /// status()).
  virtual bool Next(IdRow* row) = 0;

  /// OK while streaming and after clean exhaustion; the terminating error
  /// otherwise.
  const Status& status() const { return status_; }

  /// Width of the rows this operator produces.
  virtual size_t width() const = 0;

  /// Operator label for Explain, e.g. "HashJoin[?o b:price ?price @SPO]".
  virtual std::string Describe() const = 0;

  /// Rows this operator has produced so far.
  uint64_t rows_produced() const { return rows_produced_; }

  /// Appends this operator and its inputs to *out, root-first, with depth
  /// increasing toward the leaves.
  virtual void CollectOperators(std::vector<OperatorStats>* out,
                                int depth = 0) const {
    out->push_back({depth, Describe(), rows_produced()});
  }

 protected:
  uint64_t rows_produced_ = 0;
  Status status_;
};

/// Estimated bytes of hash-join build state per build-side triple: the
/// triple (12), its chain link (4), and its amortized share of the key
/// directory and chain-head arrays. The executor multiplies this by the
/// plan's exact build-side count to decide whether a hash join fits the
/// ExecContext memory budget; SharedHashJoinBuild charges the same rate
/// while actually building.
inline constexpr uint64_t kHashJoinBuildBytesPerRow = 48;

/// Produces nothing. Stands in for provably-empty queries (impossible
/// constants, summary-pruned requests).
std::unique_ptr<Cursor> MakeEmptyCursor(size_t width);

/// Produces exactly one all-unbound row — the unit of the join: a BGP with
/// no patterns has one (empty) embedding.
std::unique_ptr<Cursor> MakeSingletonCursor(size_t width);

/// The pattern with only its constants bound (every variable a wildcard):
/// the driving scan and the hash-join build side.
store::TriplePattern ConstOnly(const CompiledPattern& pat);

/// Leaf scan: emits one binding row of width `num_vars` per triple matching
/// `pat`'s constants, walking the pattern's TripleTable::MatchSpan (one
/// lookup at open, one index step per pull). Handles repeated
/// variables (?x p ?x binds consistently or skips). `label` is the pattern
/// text for Describe. [begin_offset, end_offset) restricts the scan to that
/// sub-range of the match range (one morsel; offsets clamped to the range
/// length); the default is the whole range.
std::unique_ptr<Cursor> MakeIndexScanCursor(const store::TripleTable& table,
                                            const CompiledPattern& pat,
                                            size_t num_vars,
                                            std::string label = "",
                                            util::ExecContext* exec = nullptr,
                                            size_t begin_offset = 0,
                                            size_t end_offset = SIZE_MAX);

/// Index nested-loop join: for each input row, instantiates `pat` with the
/// row's bindings and extends the row with every match (a fresh index range
/// per probe — an O(1) directory lookup of the lead key's rows, then a
/// binary search inside them when more than the lead is bound).
std::unique_ptr<Cursor> MakeIndexNestedLoopJoinCursor(
    std::unique_ptr<Cursor> input, const store::TripleTable& table,
    const CompiledPattern& pat, std::string label = "",
    util::ExecContext* exec = nullptr);

/// The build side of a hash join: every triple matching `pat`'s constants,
/// keyed on the values at `key_vars`' positions (variables of `pat` the
/// input already binds; must be non-empty), in `partitions` hash partitions
/// (1 for sequential trees; the executor resolves it against the hardware
/// for parallel ones). Built once — partitions in parallel, each inserting
/// its keys' triples in index order, so chains replay matches in the same
/// order at every partition count — then probed concurrently, read-only, by
/// every pipeline of the query. With an ExecContext the build charges
/// kHashJoinBuildBytesPerRow per triple against the memory budget; a
/// refused charge abandons the build (full refund) and every probe falls
/// back to index nested-loop probing, byte-identical.
class SharedHashJoinBuild;

std::shared_ptr<SharedHashJoinBuild> MakeSharedHashJoinBuild(
    const store::TripleTable& table, const CompiledPattern& pat,
    std::vector<uint32_t> key_vars, util::ExecContext* exec,
    uint32_t partitions);

/// Hash-join probe: each input row looks up its key in `build` in O(1)
/// instead of binary-searching the index, and is extended with every triple
/// on the key's chain. The first Next builds the table unless a gather
/// already did (a gather builds before fan-out, so concurrent probes only
/// read it). Describe reports "HashJoin[...]", or "HashJoin[...
/// degraded=nlj]" once the build was refused memory.
std::unique_ptr<Cursor> MakeSharedHashJoinProbeCursor(
    std::unique_ptr<Cursor> input, const store::TripleTable& table,
    std::shared_ptr<SharedHashJoinBuild> build, std::string label = "",
    util::ExecContext* exec = nullptr);

/// Root governor: charges each produced row against `exec`'s row budget and
/// polls deadline/cancellation between rows. Invisible to Explain (forwards
/// CollectOperators). `exec` must be non-null and outlive the cursor.
std::unique_ptr<Cursor> MakeGovernedCursor(std::unique_ptr<Cursor> input,
                                           util::ExecContext* exec);

/// Narrows full-width binding rows to the head columns, in head order.
std::unique_ptr<Cursor> MakeProjectCursor(std::unique_ptr<Cursor> input,
                                          std::vector<uint32_t> head,
                                          std::string label = "");

/// Deduplicates rows (util::RowSet seen-set); first occurrence wins, order
/// otherwise preserved.
std::unique_ptr<Cursor> MakeDistinctCursor(std::unique_ptr<Cursor> input);

/// Skips the first `offset` rows, then emits up to `limit` more. Once the
/// quota is reached it stops pulling from its input entirely — this is the
/// operator that makes `--limit k` cost k rows, not the full result.
std::unique_ptr<Cursor> MakeLimitOffsetCursor(std::unique_ptr<Cursor> input,
                                              size_t limit, size_t offset);

// ---- Morsel-driven parallel execution ---------------------------------------
//
// The parallel executor splits the plan's driving scan into fixed-size
// contiguous morsels (store::TripleTable::MatchSpan subranges), runs the
// full join pipeline per morsel on the shared util::ThreadPool, and merges
// the per-morsel row buffers in morsel-index order — so the merged stream
// is byte-identical to the sequential pipeline at every thread count.
// See src/query/README.md for the morsel lifecycle and invariants.

/// Rows per morsel. Fixed independently of the thread count: morsel
/// boundaries are a function of the data alone, so the ordered concatenation
/// of per-morsel outputs never depends on how many workers ran them.
inline constexpr uint64_t kMorselRows = 4096;

/// Everything MakeParallelGatherCursor needs to fan a pipeline out.
struct ParallelGatherSpec {
  /// Compiles one morsel's pipeline over the driving-scan sub-range
  /// [begin, end). Called concurrently from worker threads; must be
  /// self-contained (capture only state that outlives the gather cursor
  /// and is immutable while it runs).
  std::function<std::unique_ptr<Cursor>(size_t begin, size_t end)> pipeline;
  /// Exact size of the driving scan's match range.
  uint64_t total_rows = 0;
  /// Morsel granularity; 0 means kMorselRows. Tests shrink it to exercise
  /// many-morsel schedules on small fixtures.
  uint64_t morsel_rows = 0;
  /// Width of the rows the pipeline produces (the query's variable count).
  size_t width = 0;
  /// Worker fan-out (already resolved against hardware and morsel count).
  uint32_t num_threads = 1;
  /// Hash-join builds referenced by the pipelines, outermost step first —
  /// the order a sequential tree's probes build in, so a memory budget
  /// refuses the same build at every thread count. The gather cursor
  /// EnsureBuilt()s them in this order before spawning workers and keeps
  /// them alive.
  std::vector<std::shared_ptr<SharedHashJoinBuild>> builds;
  /// Driving-pattern text for Describe.
  std::string label;
  /// Borrowed governance context, polled by every morsel pipeline.
  util::ExecContext* exec = nullptr;
};

/// The exchange operator: claims morsels dynamically, runs `spec.pipeline`
/// per morsel on the shared ThreadPool into per-morsel row buffers, and
/// emits the buffers in morsel-index order — a stream byte-identical to the
/// sequential pipeline. A bounded run-ahead window caps buffered rows;
/// workers observing cancellation (or any morsel's failure) fall through to
/// the join instead of blocking, and the first failure in morsel order is
/// surfaced as the cursor's status after the preceding rows. The consumer
/// itself runs unclaimed morsels inline when the pool is saturated, so a
/// drain always makes progress no matter how small the pool is.
std::unique_ptr<Cursor> MakeParallelGatherCursor(ParallelGatherSpec spec);

}  // namespace rdfsum::query

#endif  // RDFSUM_QUERY_CURSOR_H_
