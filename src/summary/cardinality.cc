#include "summary/cardinality.h"

#include <cmath>
#include <string>
#include <utility>

namespace rdfsum::summary {
namespace {

constexpr TermId kUnboundVar = kInvalidTermId;

}  // namespace

CardinalityEstimator::CardinalityEstimator(
    SummaryResult summary, const CardinalityEstimatorOptions& options)
    : summary_(std::move(summary)),
      options_(options),
      summary_table_(store::TripleTable::Build(summary_.graph.Triples())) {
  extent_size_.reserve(summary_.graph.NumTriples());
  for (const auto& [node, summary_node] : summary_.node_map) {
    (void)node;
    ++extent_size_[summary_node];
  }
}

uint64_t CardinalityEstimator::ExtentSize(TermId summary_node) const {
  auto it = extent_size_.find(summary_node);
  return it == extent_size_.end() ? 1 : it->second;
}

double CardinalityEstimator::Multiplicity(const Triple& t) const {
  // Schema edges have no entry: each stands for itself.
  auto it = summary_.multiplicity.find(t);
  return it == summary_.multiplicity.end() ? 1.0
                                           : static_cast<double>(it->second);
}

CardinalityEstimator::Compiled CardinalityEstimator::Compile(
    const std::vector<query::TriplePatternQ>& patterns) const {
  Compiled out;
  std::unordered_map<std::string, uint32_t> var_index;
  auto slot = [&](const query::PatternTerm& t) {
    Slot s;
    if (t.is_var) {
      s.is_var = true;
      auto [it, inserted] = var_index.emplace(t.var, out.num_vars);
      if (inserted) {
        ++out.num_vars;
        out.occurrences.push_back(0);
      }
      s.var = it->second;
      ++out.occurrences[s.var];
    } else {
      TermId id = summary_.graph.dict().Lookup(t.term);
      if (id == kInvalidTermId) {
        s.impossible = true;
      } else {
        // A data constant stands for its equivalence class in the summary;
        // properties, classes and schema constants map to themselves.
        auto it = summary_.node_map.find(id);
        if (it == summary_.node_map.end()) {
          s.constant = id;
        } else {
          s.constant = it->second;
          s.mapped_constant = true;
        }
      }
    }
    return s;
  };
  for (const query::TriplePatternQ& t : patterns) {
    Pattern pc{slot(t.s), slot(t.p), slot(t.o)};
    if (pc.s.impossible || pc.p.impossible || pc.o.impossible) {
      out.impossible = true;
    }
    out.patterns.push_back(pc);
  }
  return out;
}

CardinalityEstimate CardinalityEstimator::EstimatePatterns(
    const std::vector<query::TriplePatternQ>& patterns) const {
  CardinalityEstimate result;
  if (patterns.empty()) {
    result.estimate = 1.0;  // the empty BGP has exactly one embedding
    return result;
  }
  Compiled q = Compile(patterns);
  if (q.impossible) return result;

  // Backtracking enumeration of the BGP's embeddings into the summary,
  // most-constrained pattern first (the summary is small, but budget-capped
  // all the same).
  struct Enumerator {
    const CardinalityEstimator& est;
    const Compiled& q;
    std::vector<TermId> bindings;
    std::vector<double> mults;  // multiplicity of the match at each depth
    std::vector<bool> used;
    double sum = 0.0;
    uint64_t embeddings = 0;
    uint64_t probes = 0;
    bool truncated = false;

    store::TriplePattern Instantiate(const Pattern& p) const {
      store::TriplePattern out;
      auto fill = [&](const Slot& s) -> std::optional<TermId> {
        if (!s.is_var) return s.constant;
        TermId b = bindings[s.var];
        if (b != kUnboundVar) return b;
        return std::nullopt;
      };
      out.s = fill(p.s);
      out.p = fill(p.p);
      out.o = fill(p.o);
      return out;
    }

    int Unbound(const Pattern& p) const {
      int n = 0;
      for (const Slot* s : {&p.s, &p.p, &p.o}) {
        if (s->is_var && bindings[s->var] == kUnboundVar) ++n;
      }
      return n;
    }

    void AtLeaf() {
      double contribution = 1.0;
      for (double m : mults) contribution *= m;
      // Constant discount: a constant folded into a summary class selects
      // one member out of the extent, keeping ~1/extent of the edge's
      // triples (per pattern position it pins).
      for (const Pattern& p : q.patterns) {
        for (const Slot* s : {&p.s, &p.o}) {
          if (!s->is_var && s->mapped_constant) {
            contribution /= static_cast<double>(
                std::max<uint64_t>(1, est.ExtentSize(s->constant)));
          }
        }
      }
      // Join discount: a variable occurring k times forces k independent
      // member choices within its class to coincide; under uniformity each
      // extra occurrence survives with probability 1/extent.
      for (uint32_t v = 0; v < q.num_vars; ++v) {
        if (q.occurrences[v] <= 1) continue;
        double ext =
            static_cast<double>(std::max<uint64_t>(1, est.ExtentSize(bindings[v])));
        contribution /= std::pow(ext, q.occurrences[v] - 1);
      }
      sum += contribution;
      ++embeddings;
    }

    void Recurse(size_t depth) {
      if (truncated) return;
      if (depth == q.patterns.size()) {
        AtLeaf();
        if (embeddings >= est.options_.max_summary_embeddings) {
          truncated = true;
        }
        return;
      }
      size_t best = SIZE_MAX;
      int best_unbound = 4;
      for (size_t i = 0; i < q.patterns.size(); ++i) {
        if (used[i]) continue;
        int u = Unbound(q.patterns[i]);
        if (u < best_unbound) {
          best_unbound = u;
          best = i;
        }
      }
      used[best] = true;
      const Pattern& pat = q.patterns[best];
      for (const Triple& m : est.summary_table_.MatchSpan(Instantiate(pat))) {
        if (++probes > est.options_.max_summary_probes) {
          truncated = true;
          break;
        }
        uint32_t newly[3];
        int num_newly = 0;
        bool ok = true;
        auto bind = [&](const Slot& s, TermId value) {
          if (!s.is_var) return;
          TermId cur = bindings[s.var];
          if (cur == kUnboundVar) {
            bindings[s.var] = value;
            newly[num_newly++] = s.var;
          } else if (cur != value) {
            ok = false;
          }
        };
        bind(pat.s, m.s);
        if (ok) bind(pat.p, m.p);
        if (ok) bind(pat.o, m.o);
        if (ok) {
          mults.push_back(est.Multiplicity(m));
          Recurse(depth + 1);
          mults.pop_back();
        }
        for (int i = 0; i < num_newly; ++i) bindings[newly[i]] = kUnboundVar;
        if (truncated) break;
      }
      used[best] = false;
    }
  };

  Enumerator e{*this, q, std::vector<TermId>(q.num_vars, kUnboundVar),
               {},    std::vector<bool>(q.patterns.size(), false)};
  e.mults.reserve(q.patterns.size());
  e.Recurse(0);

  result.truncated = e.truncated;
  // Representativeness clamp: at least one summary embedding means the true
  // answer (for RBGP queries) is non-empty, so never report < 1; a
  // *completed* enumeration with no embedding means provably empty, report
  // exactly 0.
  if (e.embeddings > 0) {
    result.estimate = std::max(1.0, e.sum);
  } else if (e.truncated) {
    // The probe budget ran out before any embedding completed — emptiness
    // is NOT proven, so returning 0 would break the documented contract.
    // Fall back to the sound per-pattern product upper bound (0 only when
    // some pattern matches no summary edge at all, which IS a proof).
    double product = 1.0;
    for (const query::TriplePatternQ& t : patterns) {
      product *= EstimatePatternCount(t);
      if (product == 0.0) break;
    }
    result.estimate = product > 0.0 ? std::max(1.0, product) : 0.0;
  }
  return result;
}

double CardinalityEstimator::EstimatePatternCount(
    const query::TriplePatternQ& pattern) const {
  Compiled q = Compile({pattern});
  if (q.impossible) return 0.0;
  const Pattern& pc = q.patterns[0];
  store::TriplePattern probe;
  if (!pc.s.is_var) probe.s = pc.s.constant;
  if (!pc.p.is_var) probe.p = pc.p.constant;
  if (!pc.o.is_var) probe.o = pc.o.constant;
  const bool repeated_so =
      pc.s.is_var && pc.o.is_var && pc.s.var == pc.o.var;
  double constant_discount = 1.0;
  for (const Slot* s : {&pc.s, &pc.o}) {
    if (!s->is_var && s->mapped_constant) {
      constant_discount *=
          static_cast<double>(std::max<uint64_t>(1, ExtentSize(s->constant)));
    }
  }
  double sum = 0.0;
  for (const Triple& m : summary_table_.MatchSpan(probe)) {
    if (repeated_so && m.s != m.o) continue;
    sum += Multiplicity(m);
  }
  return sum / constant_discount;
}

}  // namespace rdfsum::summary
