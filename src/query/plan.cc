#include "query/plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "summary/cardinality.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace rdfsum::query {

const char* PlannerModeName(PlannerMode mode) {
  switch (mode) {
    case PlannerMode::kNaive:
      return "naive";
    case PlannerMode::kGreedy:
      return "greedy";
    case PlannerMode::kSummary:
      return "summary";
  }
  return "?";
}

bool ParsePlannerMode(std::string_view name, PlannerMode* mode) {
  std::string lower = AsciiToLower(name);
  if (lower == "naive") *mode = PlannerMode::kNaive;
  else if (lower == "greedy") *mode = PlannerMode::kGreedy;
  else if (lower == "summary") *mode = PlannerMode::kSummary;
  else return false;
  return true;
}

CompiledBgp CompileBgp(const BgpQuery& q, const Dictionary& dict) {
  CompiledBgp out;
  auto slot = [&](const PatternTerm& t) {
    CompiledSlot s;
    if (t.is_var) {
      s.is_var = true;
      auto [it, inserted] = out.var_index.emplace(
          t.var, static_cast<uint32_t>(out.var_names.size()));
      if (inserted) out.var_names.push_back(t.var);
      s.var = it->second;
    } else {
      s.constant = dict.Lookup(t.term);
      if (s.constant == kInvalidTermId) s.impossible = true;
    }
    return s;
  };
  for (const TriplePatternQ& t : q.triples) {
    CompiledPattern pc{slot(t.s), slot(t.p), slot(t.o)};
    if (pc.s.impossible || pc.p.impossible || pc.o.impossible) {
      out.impossible = true;
    }
    out.patterns.push_back(pc);
  }
  return out;
}

StatusOr<std::vector<uint32_t>> ResolveDistinguished(const BgpQuery& q,
                                                     const CompiledBgp& c) {
  std::vector<uint32_t> head;
  head.reserve(q.distinguished.size());
  for (const std::string& v : q.distinguished) {
    auto it = c.var_index.find(v);
    if (it == c.var_index.end()) {
      return Status::InvalidArgument("distinguished variable ?" + v +
                                     " does not occur in the query body");
    }
    head.push_back(it->second);
  }
  return head;
}

namespace {

/// Expected matches of one probe of `pc` when the variables in `var_bound`
/// already hold values. Constants give an exact index-range count; each
/// bound variable position divides by the relevant distinct count (the
/// uniform-fanout independence assumption of a System-R style model).
double EstimateMatches(const CompiledPattern& pc,
                       const std::vector<bool>& var_bound,
                       const store::TripleTable& table) {
  if (pc.s.impossible || pc.p.impossible || pc.o.impossible) return 0.0;
  store::TriplePattern known;
  if (!pc.s.is_var) known.s = pc.s.constant;
  if (!pc.p.is_var) known.p = pc.p.constant;
  if (!pc.o.is_var) known.o = pc.o.constant;
  double est = static_cast<double>(table.Count(known));
  if (est == 0.0) return 0.0;
  const store::TableStats& st = table.stats();
  auto runtime_bound = [&](const CompiledSlot& sl) {
    return sl.is_var && var_bound[sl.var];
  };
  const store::PredicateStats* ps =
      pc.p.is_var ? nullptr : st.predicate(pc.p.constant);
  if (runtime_bound(pc.s)) {
    uint64_t distinct = ps != nullptr ? ps->distinct_subjects : 0;
    if (distinct == 0) distinct = st.num_distinct_subjects();
    est /= static_cast<double>(std::max<uint64_t>(1, distinct));
  }
  if (runtime_bound(pc.p)) {
    est /= static_cast<double>(
        std::max<uint64_t>(1, st.num_distinct_predicates()));
  }
  if (runtime_bound(pc.o)) {
    uint64_t distinct = ps != nullptr ? ps->distinct_objects : 0;
    if (distinct == 0) distinct = st.num_distinct_objects();
    est /= static_cast<double>(std::max<uint64_t>(1, distinct));
  }
  return est;
}

int CountUnboundVars(const CompiledPattern& pc,
                     const std::vector<bool>& var_bound) {
  int n = 0;
  for (const CompiledSlot* sl : {&pc.s, &pc.p, &pc.o}) {
    if (sl->is_var && !var_bound[sl->var]) ++n;
  }
  return n;
}

std::string FormatEstimate(double v) {
  if (v == 0.0) return "0";
  if (v >= 1e15) {
    // Cartesian-ish estimates can exceed uint64 range; casting those would
    // be UB. Scientific notation is more readable anyway.
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2e", v);
    return buf;
  }
  if (v >= 100.0) return FormatWithCommas(static_cast<uint64_t>(v + 0.5));
  return FormatDouble(v, 2);
}

}  // namespace

namespace {

/// One planning attempt. With an estimator, sets *estimator_tripped and
/// returns a partial plan the moment any prefix estimate comes back
/// truncated (enumeration budget exhausted) — the ranking metric is no
/// longer trustworthy, so the caller discards the attempt and re-plans
/// greedy rather than committing to a half-informed join order.
QueryPlan BuildQueryPlanAttempt(
    const BgpQuery& q, const Dictionary& dict,
    const store::TripleTable& table, PlannerMode mode,
    const summary::CardinalityEstimator* estimator, bool* estimator_tripped) {
  QueryPlan plan;
  plan.mode = mode;
  plan.compiled = CompileBgp(q, dict);
  const std::vector<CompiledPattern>& patterns = plan.compiled.patterns;
  const size_t n = patterns.size();
  std::vector<bool> var_bound(plan.compiled.var_names.size(), false);
  std::vector<bool> used(n, false);
  const bool use_estimator =
      mode == PlannerMode::kSummary && estimator != nullptr;
  // Patterns of the chosen prefix, maintained for estimator refinement.
  std::vector<TriplePatternQ> prefix;
  if (use_estimator) prefix.reserve(n);

  double rows = 1.0;
  for (size_t step_no = 0; step_no < n; ++step_no) {
    const double input_rows = rows;  // probe-side estimate for this step
    size_t pick = SIZE_MAX;
    double pick_matches = 0.0;
    if (mode == PlannerMode::kNaive) {
      pick = step_no;  // frozen textual order
      pick_matches = EstimateMatches(patterns[pick], var_bound, table);
    } else {
      // Greedy: cheapest next probe. With an estimator, rank candidate
      // prefixes by their summary-estimated result size instead, falling
      // back to the stats estimate as tie-break.
      double best_metric = 0.0, best_matches = 0.0;
      int best_unbound = 0;
      for (size_t i = 0; i < n; ++i) {
        if (used[i]) continue;
        double matches = EstimateMatches(patterns[i], var_bound, table);
        double metric = matches;
        if (use_estimator) {
          prefix.push_back(q.triples[i]);
          summary::CardinalityEstimate est =
              estimator->EstimatePatterns(prefix);
          prefix.pop_back();
          if (est.truncated) {
            *estimator_tripped = true;
            return plan;  // partial; the caller re-plans greedy
          }
          metric = est.estimate;
        }
        int unbound = CountUnboundVars(patterns[i], var_bound);
        bool better =
            pick == SIZE_MAX || metric < best_metric ||
            (metric == best_metric &&
             (matches < best_matches ||
              (matches == best_matches && unbound < best_unbound)));
        if (better) {
          pick = i;
          best_metric = metric;
          best_matches = matches;
          best_unbound = unbound;
        }
      }
      pick_matches = best_matches;
    }

    used[pick] = true;
    const CompiledPattern& pc = patterns[pick];
    PlanStep step;
    step.pattern = static_cast<uint32_t>(pick);
    step.pattern_text = q.triples[pick].ToString();
    auto bound_at_run = [&](const CompiledSlot& sl) {
      return !sl.is_var || var_bound[sl.var];
    };
    step.index = store::TripleTable::ChooseIndex(
        bound_at_run(pc.s), bound_at_run(pc.p), bound_at_run(pc.o));
    step.estimated_matches = pick_matches;
    // Join-pick rule: hash-join a step with at least one already-bound join
    // variable when its probes' index leads with a constant, the plan
    // predicts a fat probe side and the exact build-side count fits the
    // budget (kHashJoin* constants and the reasons, plan.h).
    const bool has_join_var =
        (pc.s.is_var && var_bound[pc.s.var]) ||
        (pc.p.is_var && var_bound[pc.p.var]) ||
        (pc.o.is_var && var_bound[pc.o.var]);
    if (step_no > 0 && has_join_var && !plan.compiled.impossible) {
      store::TriplePattern consts;
      if (!pc.s.is_var) consts.s = pc.s.constant;
      if (!pc.p.is_var) consts.p = pc.p.constant;
      if (!pc.o.is_var) consts.o = pc.o.constant;
      step.estimated_build_rows = static_cast<double>(table.Count(consts));
      const CompiledSlot& lead = step.index == store::IndexKind::kSpo ? pc.s
                                 : step.index == store::IndexKind::kPos
                                     ? pc.p
                                     : pc.o;
      step.use_hash_join = !lead.is_var &&
                           input_rows >= kHashJoinMinProbeRows &&
                           step.estimated_build_rows > 0.0 &&
                           step.estimated_build_rows <= kHashJoinBuildBudget;
    }
    if (use_estimator) {
      prefix.push_back(q.triples[pick]);
      summary::CardinalityEstimate est = estimator->EstimatePatterns(prefix);
      if (est.truncated) {
        *estimator_tripped = true;
        return plan;  // partial; the caller re-plans greedy
      }
      step.estimated_rows = est.estimate;
      rows = step.estimated_rows;
    } else {
      rows *= pick_matches;
      step.estimated_rows = rows;
    }
    plan.estimated_cost += step.estimated_rows;
    for (const CompiledSlot* sl : {&pc.s, &pc.p, &pc.o}) {
      if (sl->is_var) var_bound[sl->var] = true;
    }
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

}  // namespace

QueryPlan BuildQueryPlan(const BgpQuery& q, const Dictionary& dict,
                         const store::TripleTable& table, PlannerMode mode,
                         const summary::CardinalityEstimator* estimator) {
  bool tripped = false;
  QueryPlan plan =
      BuildQueryPlanAttempt(q, dict, table, mode, estimator, &tripped);
  if (!tripped) return plan;
  // Graceful degradation: the summary estimator ran out of enumeration
  // budget, so its rankings are partial sums that would mis-order the join.
  // Fall back to the stats-only greedy order (the exact plan kGreedy would
  // build — same rows, possibly a worse order) and record the downgrade.
  plan = BuildQueryPlanAttempt(q, dict, table, PlannerMode::kGreedy, nullptr,
                               &tripped);
  plan.mode = mode;
  plan.summary_fallback = true;
  return plan;
}

std::string NormalizedBgpShape(const BgpQuery& q) {
  std::unordered_map<std::string, uint32_t> vars;
  // Constants keyed on their full N-Triples rendering: equality of tokens
  // must mirror Term equality, and the rendering is unambiguous.
  std::unordered_map<std::string, uint32_t> consts;
  std::string key;
  key.reserve(q.triples.size() * 12);
  auto token = [&](const PatternTerm& t) {
    if (t.is_var) {
      auto [it, inserted] =
          vars.emplace(t.var, static_cast<uint32_t>(vars.size()));
      (void)inserted;
      key += 'v';
      key += std::to_string(it->second);
    } else {
      auto [it, inserted] = consts.emplace(
          t.term.ToNTriples(), static_cast<uint32_t>(consts.size()));
      (void)inserted;
      key += 'c';
      key += std::to_string(it->second);
    }
  };
  for (const TriplePatternQ& t : q.triples) {
    token(t.s);
    key += ' ';
    token(t.p);
    key += ' ';
    token(t.o);
    key += ';';
  }
  return key;
}

PlanSkeleton SkeletonOf(const QueryPlan& plan) {
  PlanSkeleton s;
  s.mode = plan.mode;
  s.order.reserve(plan.steps.size());
  s.index.reserve(plan.steps.size());
  s.hash_join.reserve(plan.steps.size());
  for (const PlanStep& step : plan.steps) {
    s.order.push_back(step.pattern);
    s.index.push_back(step.index);
    s.hash_join.push_back(step.use_hash_join);
  }
  return s;
}

QueryPlan PlanFromSkeleton(const BgpQuery& q, const Dictionary& dict,
                           const PlanSkeleton& skeleton) {
  QueryPlan plan;
  plan.mode = skeleton.mode;
  plan.compiled = CompileBgp(q, dict);
  plan.steps.reserve(skeleton.order.size());
  for (size_t i = 0; i < skeleton.order.size(); ++i) {
    PlanStep step;
    step.pattern = skeleton.order[i];
    step.pattern_text = q.triples[step.pattern].ToString();
    step.index = skeleton.index[i];
    step.use_hash_join = skeleton.hash_join[i];
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

namespace {

/// "scan" for the leading step, otherwise the join operator the executor
/// will pick for the step under the plan's flags.
const char* StepOperatorName(size_t step_no, const PlanStep& s) {
  if (step_no == 0) return "scan";
  return s.use_hash_join ? "hash" : "nlj";
}

/// The "plan mode=… [fallback=greedy] est_cost=…" line both renderings
/// open with.
std::string PlanHeader(const QueryPlan& plan) {
  std::string out = "plan mode=" + std::string(PlannerModeName(plan.mode));
  if (plan.summary_fallback) out += " fallback=greedy";
  return out + " est_cost=" + FormatEstimate(plan.estimated_cost) + "\n";
}

}  // namespace

std::string QueryPlan::ToString() const {
  TablePrinter table(
      {"step", "pattern", "index", "join", "est/probe", "est rows"});
  for (size_t i = 0; i < steps.size(); ++i) {
    const PlanStep& s = steps[i];
    table.AddRow({std::to_string(i + 1), s.pattern_text,
                  store::IndexKindName(s.index), StepOperatorName(i, s),
                  FormatEstimate(s.estimated_matches),
                  FormatEstimate(s.estimated_rows)});
  }
  return PlanHeader(*this) + table.ToAscii();
}

std::string Explanation::ToString() const {
  TablePrinter table(
      {"step", "pattern", "index", "join", "est rows", "actual rows"});
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& s = plan.steps[i];
    uint64_t actual = i < actual_rows.size() ? actual_rows[i] : 0;
    table.AddRow({std::to_string(i + 1), s.pattern_text,
                  store::IndexKindName(s.index), StepOperatorName(i, s),
                  FormatEstimate(s.estimated_rows),
                  FormatWithCommas(actual)});
  }
  std::string out = PlanHeader(plan) + table.ToAscii();
  if (!operators.empty()) {
    out += "operators (rows produced):\n";
    for (const OperatorStats& op : operators) {
      out += "  " + std::string(static_cast<size_t>(op.depth) * 2, ' ') +
             op.op + "  " + FormatWithCommas(op.rows_produced) + "\n";
    }
  }
  out += "embeddings: " + FormatWithCommas(num_embeddings) +
         ", distinct rows: " + FormatWithCommas(num_result_rows) + "\n";
  if (pruned_by_summary) {
    out += "pruned by summary: the graph was never touched\n";
  }
  return out;
}

}  // namespace rdfsum::query
