#ifndef RDFSUM_SUMMARY_CARDINALITY_H_
#define RDFSUM_SUMMARY_CARDINALITY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "query/bgp.h"
#include "rdf/graph.h"
#include "store/triple_table.h"
#include "summary/summary.h"

namespace rdfsum::summary {

/// One estimate: the expected number of embeddings of a BGP body in the
/// summarized graph, derived purely from the summary.
struct CardinalityEstimate {
  double estimate = 0.0;
  /// True when an enumeration budget was exhausted; the estimate is then a
  /// partial (lower) sum over the summary embeddings visited so far, or —
  /// when the budget died before any embedding completed — the per-pattern
  /// product upper bound. Either way, estimate == 0 still implies provably
  /// empty: the 0 verdict is only ever returned on a completed enumeration
  /// or an unmatchable pattern.
  bool truncated = false;
};

struct CardinalityEstimatorOptions {
  /// Cap on summary-level embeddings enumerated per estimate; keeps the
  /// estimator cheap even for adversarial patterns (e.g. all-variable
  /// patterns on a bisimulation summary whose size approaches the graph).
  uint64_t max_summary_embeddings = 1u << 16;
  /// Cap on summary triples visited per estimate — the backstop for
  /// enumerations that scan heavily but rarely complete an embedding
  /// (huge fan-out joined against an almost-never-matching pattern),
  /// which the embedding cap alone would never trip.
  uint64_t max_summary_probes = 1u << 18;
};

/// Estimates BGP result cardinalities from a quotient summary, following
/// Stefanoni et al. ("Estimating the Cardinality of Conjunctive Queries over
/// RDF Data Using Graph Summarisation", PAPERS.md): every triple pattern is
/// mapped to the summary edges it can embed into, each summary edge carries
/// the number of data triples it represents (its multiplicity), and join
/// fan-out is discounted by the extent size of the summary node a shared
/// variable lands on — the uniformity assumption within an equivalence
/// class.
///
/// Soundness for the planner (Proposition 1 tie-in): by representativeness,
/// every embedding of an RBGP query into G factors through an embedding into
/// the summary. Hence if *no* summary embedding exists the true cardinality
/// is exactly 0, and if one exists the true cardinality is >= 1 — which is
/// why Estimate() clamps any non-empty sum to at least 1. The estimate is a
/// heuristic in between, never a wrong emptiness verdict.
///
/// The estimator owns the SummaryResult it estimates from: it reads the
/// quotient's edge counts (SummaryResult::multiplicity) and representation
/// map where they are, counts each summary node's extent from node_map once,
/// and indexes the summary graph. It never reads the summarized graph
/// itself, and it keeps the shared dictionary alive via the summary graph.
class CardinalityEstimator {
 public:
  /// Builds the estimator over `summary`, a quotient summary of the graph
  /// to be estimated (its multiplicity counts that graph's triples; a
  /// summary whose multiplicity is empty estimates every edge at 1).
  explicit CardinalityEstimator(
      SummaryResult summary, const CardinalityEstimatorOptions& options = {});

  /// Estimated number of embeddings of the whole BGP body.
  CardinalityEstimate EstimatePatterns(
      const std::vector<query::TriplePatternQ>& patterns) const;
  CardinalityEstimate Estimate(const query::BgpQuery& q) const {
    return EstimatePatterns(q.triples);
  }

  /// Upper bound on the matches of one pattern alone: the summed
  /// multiplicity of every summary edge it maps onto. Exact when only the
  /// property is bound (multiplicities partition the predicate's triples).
  double EstimatePatternCount(const query::TriplePatternQ& pattern) const;

  /// Number of data nodes represented by summary node `n` (1 for class,
  /// schema and literal-only nodes).
  uint64_t ExtentSize(TermId summary_node) const;

  SummaryKind kind() const { return summary_.kind; }
  /// The summary the estimates come from.
  const SummaryResult& summary() const { return summary_; }

 private:
  struct Slot {
    bool is_var = false;
    uint32_t var = 0;
    TermId constant = kInvalidTermId;  // already mapped into summary space
    /// True when the constant is a data node that was folded into a summary
    /// class: matching it selects one member out of the class's extent, so
    /// the pattern's multiplicity is discounted by 1/extent.
    bool mapped_constant = false;
    bool impossible = false;
  };
  struct Pattern {
    Slot s, p, o;
  };
  struct Compiled {
    std::vector<Pattern> patterns;
    uint32_t num_vars = 0;
    /// occurrences[v]: number of pattern positions variable v fills.
    std::vector<uint32_t> occurrences;
    bool impossible = false;
  };

  Compiled Compile(const std::vector<query::TriplePatternQ>& patterns) const;
  double Multiplicity(const Triple& summary_triple) const;

  SummaryResult summary_;
  CardinalityEstimatorOptions options_;
  store::TripleTable summary_table_;
  /// Summary node -> number of represented data nodes.
  std::unordered_map<TermId, uint64_t> extent_size_;
};

}  // namespace rdfsum::summary

#endif  // RDFSUM_SUMMARY_CARDINALITY_H_
