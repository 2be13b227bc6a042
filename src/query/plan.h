#ifndef RDFSUM_QUERY_PLAN_H_
#define RDFSUM_QUERY_PLAN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "query/bgp.h"
#include "rdf/dictionary.h"
#include "store/triple_table.h"
#include "util/statusor.h"

namespace rdfsum::summary {
class CardinalityEstimator;
}  // namespace rdfsum::summary

namespace rdfsum::query {

/// How the pattern order of a QueryPlan is chosen.
enum class PlannerMode {
  /// Textual pattern order, no statistics. The frozen baseline the
  /// differential tests compare every other mode against.
  kNaive,
  /// Greedy cost-based order from the store's TableStats: at each step the
  /// remaining pattern with the fewest estimated matches (exact index-range
  /// counts for constants, distinct-count fan-out ratios for bound
  /// variables) runs next.
  kGreedy,
  /// Greedy order refined by a summary::CardinalityEstimator: candidate
  /// prefixes are ranked by their Stefanoni-style estimated result size.
  /// Falls back to kGreedy when no estimator is supplied.
  kSummary,
};

const char* PlannerModeName(PlannerMode mode);  // "naive", "greedy", "summary"
bool ParsePlannerMode(std::string_view name, PlannerMode* mode);

inline constexpr PlannerMode kAllPlannerModes[] = {
    PlannerMode::kNaive, PlannerMode::kGreedy, PlannerMode::kSummary};

/// Compiled pattern position: variable index (dense) or constant TermId.
struct CompiledSlot {
  bool is_var = false;
  uint32_t var = 0;
  TermId constant = kInvalidTermId;
  /// True when the constant does not occur in the dictionary; the pattern
  /// can never match.
  bool impossible = false;
};

struct CompiledPattern {
  CompiledSlot s, p, o;
};

/// A BGP body compiled against one dictionary: variables numbered densely in
/// first-occurrence order, constants resolved to TermIds.
struct CompiledBgp {
  std::vector<CompiledPattern> patterns;
  std::unordered_map<std::string, uint32_t> var_index;
  std::vector<std::string> var_names;
  bool impossible = false;
};

CompiledBgp CompileBgp(const BgpQuery& q, const Dictionary& dict);

/// Resolves the query head against the compiled body: the dense variable id
/// of every distinguished variable, in head order. InvalidArgument when a
/// head variable does not occur in the body — the single validation shared
/// by every Open/Explain surface, pruned or not.
StatusOr<std::vector<uint32_t>> ResolveDistinguished(const BgpQuery& q,
                                                     const CompiledBgp& c);

/// Join-pick rule (see src/query/README.md): a step is served by a hash
/// join iff it joins on at least one already-bound variable, the lead key
/// of the index its probes use (s for SPO, p for POS, o for OSP) is a
/// constant of the pattern, the estimated rows feeding it (the probe side)
/// reach kHashJoinMinProbeRows, and the exact build-side row count (matches
/// of the pattern with only its constants bound) fits
/// kHashJoinBuildBudget. With a join-variable lead the leading-key
/// directory finds each probe's rows in O(1), so the nested loop stays
/// whatever the probe side; with a constant lead every probe
/// binary-searches the same bucket, which one build replaces once the
/// probes reach the floor. Above the build budget the table would not fit
/// a sane memory envelope.
inline constexpr double kHashJoinMinProbeRows = 4096.0;
inline constexpr double kHashJoinBuildBudget = 1u << 20;

/// One executed pattern of a plan, in execution order.
struct PlanStep {
  /// Index into CompiledBgp::patterns / BgpQuery::triples.
  uint32_t pattern = 0;
  /// The store index this step's probes are served from, derived from the
  /// positions bound when the step runs (constants + earlier steps' vars).
  store::IndexKind index = store::IndexKind::kSpo;
  std::string pattern_text;
  /// Estimated matches per probe when this step runs.
  double estimated_matches = 0.0;
  /// Estimated cumulative embeddings after this step.
  double estimated_rows = 0.0;
  /// True when the planner flagged a fat intermediate feeding this step's
  /// constant-led index and the executor should serve it with a hash join
  /// (join-pick rule above). Always false for the first step (nothing to
  /// join with yet).
  bool use_hash_join = false;
  /// Exact size of the step's would-be hash build side: matches of the
  /// pattern with only its constants bound. 0 for steps without join
  /// variables.
  double estimated_build_rows = 0.0;
};

/// An ordered, binding-annotated execution plan for one BGP query, built
/// once per query (compile -> estimate -> order; see src/query/README.md for
/// the lifecycle). The executor follows steps[] verbatim — there is no
/// per-depth re-selection at run time.
struct QueryPlan {
  PlannerMode mode = PlannerMode::kGreedy;
  CompiledBgp compiled;
  std::vector<PlanStep> steps;
  /// Sum of the per-step estimated cumulative rows — a proxy for total
  /// probe work, comparable across plans for the same query.
  double estimated_cost = 0.0;
  /// True when kSummary planning degraded to the stats-only greedy order
  /// because the estimator's enumeration budget tripped mid-planning (its
  /// partial estimates would mis-rank joins). The plan is then exactly what
  /// kGreedy would have built; mode still records what was asked for.
  bool summary_fallback = false;

  /// Renders the plan as an aligned table (step, pattern, index, est).
  std::string ToString() const;
};

/// Builds the plan: compiles `q` against `dict`, then orders the patterns
/// per `mode` using the table's statistics. `estimator` (optional)
/// enables the kSummary refinement; it must estimate over the same graph
/// `table` indexes.
QueryPlan BuildQueryPlan(const BgpQuery& q, const Dictionary& dict,
                         const store::TripleTable& table, PlannerMode mode,
                         const summary::CardinalityEstimator* estimator =
                             nullptr);

/// Canonical shape key of a BGP body: variables renamed to v0,v1,... in
/// first-occurrence order and constants abstracted to c0,c1,... by equality
/// class within the query (two patterns sharing a constant share its token,
/// but the constant's value never enters the key). Two queries with the same
/// shape differ only in which concrete terms their constants name, so an
/// execution template built for one is *correct* for the other — result
/// sets are planner-invariant (src/query/README.md) — and usually close to
/// optimal, since the join structure is identical. This is the plan-cache
/// key of the serving daemon (src/server/plan_cache.h); the planner mode is
/// appended by the cache, not part of the shape.
std::string NormalizedBgpShape(const BgpQuery& q);

/// The reusable skeleton of a built plan: everything except the resolved
/// constants and the estimates — pattern execution order, the serving index
/// per step, and the executor's hash-join flags. Extracted with SkeletonOf
/// and re-instantiated against a fresh compile with PlanFromSkeleton, which
/// skips the planner's statistics probes (and, for kSummary, the whole
/// estimator enumeration) entirely.
struct PlanSkeleton {
  PlannerMode mode = PlannerMode::kGreedy;
  std::vector<uint32_t> order;          // pattern index executed at step i
  std::vector<store::IndexKind> index;  // serving index at step i
  std::vector<bool> hash_join;          // executor hash-join flag at step i
};

PlanSkeleton SkeletonOf(const QueryPlan& plan);

/// Instantiates `skeleton` for `q`: compiles the query against `dict`
/// (constants re-resolved, so a now-impossible constant still yields an
/// empty-result plan) and lays the cached order/index/join flags over the
/// fresh compile. Estimates are zero — the whole point is not paying for
/// them. Requires skeleton.order to cover exactly q.triples (same shape).
QueryPlan PlanFromSkeleton(const BgpQuery& q, const Dictionary& dict,
                           const PlanSkeleton& skeleton);

/// One operator of the executed cursor tree with its rows-produced counter,
/// as reported by the cursors themselves after a full drain. `depth` is the
/// operator's distance from the tree root (for indented rendering).
struct OperatorStats {
  int depth = 0;
  std::string op;
  uint64_t rows_produced = 0;
};

/// A plan plus the per-step actual cardinalities observed while executing
/// it — the `query --explain` payload.
struct Explanation {
  QueryPlan plan;
  /// Actual cumulative bindings produced at each step (parallel to
  /// plan.steps).
  std::vector<uint64_t> actual_rows;
  /// The executed operator tree (root first) with per-operator rows-produced
  /// counters; empty when the plan was never executed (pruned_by_summary).
  std::vector<OperatorStats> operators;
  uint64_t num_embeddings = 0;   // total embeddings of the body
  uint64_t num_result_rows = 0;  // distinct projected rows
  /// True when a SummaryPrunedEvaluator proved emptiness on the summary and
  /// the plan was never executed against the graph (all actuals are 0).
  bool pruned_by_summary = false;
  /// Renders the per-step table: step, pattern, index, est rows, actual.
  std::string ToString() const;
};

}  // namespace rdfsum::query

#endif  // RDFSUM_QUERY_PLAN_H_
