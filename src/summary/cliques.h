#ifndef RDFSUM_SUMMARY_CLIQUES_H_
#define RDFSUM_SUMMARY_CLIQUES_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rdf/dense_graph.h"
#include "reasoner/schema_index.h"

namespace rdfsum::summary {

/// Which data-triple endpoints induce clique membership.
enum class CliqueScope {
  /// Every data triple counts (Definition 5; used by W and S).
  kAll,
  /// An endpoint contributes only if the resource at that endpoint is
  /// untyped, regardless of the other endpoint (the §6 data-structure
  /// semantics; used by TW/TS in kPerPropertyProjection mode).
  kUntypedEndpoints,
  /// Only triples whose subject AND object are untyped count (the strict
  /// Definition 13/16 "untyped data graph" UD_G).
  kUntypedDataGraph,
};

/// Source and target property cliques of a graph (Definition 5), plus the
/// per-resource clique assignment SC(r) / TC(r).
///
/// Clique ids are 1-based; id 0 means "the empty clique" (the resource has
/// no properties on that side, within the chosen scope).
struct PropertyCliques {
  /// Dense property indexing: properties[i] is the TermId of property i.
  std::vector<TermId> properties;
  std::unordered_map<TermId, uint32_t> property_index;

  /// Clique id of each property (by dense property index); a property that
  /// never occurs within scope has id 0 on that side.
  std::vector<uint32_t> source_clique_of_property;
  std::vector<uint32_t> target_clique_of_property;

  uint32_t num_source_cliques = 0;
  uint32_t num_target_cliques = 0;

  /// Members of each clique (index = clique id - 1), sorted by TermId.
  std::vector<std::vector<TermId>> source_clique_members;
  std::vector<std::vector<TermId>> target_clique_members;

  /// SC(r) / TC(r): clique of each resource; absent entry or id 0 = ∅.
  std::unordered_map<TermId, uint32_t> source_clique_of_node;
  std::unordered_map<TermId, uint32_t> target_clique_of_node;

  uint32_t SourceCliqueOf(TermId node) const {
    auto it = source_clique_of_node.find(node);
    return it == source_clique_of_node.end() ? 0 : it->second;
  }
  uint32_t TargetCliqueOf(TermId node) const {
    auto it = target_clique_of_node.find(node);
    return it == target_clique_of_node.end() ? 0 : it->second;
  }
};

/// Computes source/target property cliques. Scopes other than kAll filter
/// on DenseGraph::IsTyped.
PropertyCliques ComputePropertyCliques(const DenseGraph& dg,
                                       CliqueScope scope = CliqueScope::kAll);

/// The clique assignment reduced to flat arrays over the dense substrate:
/// SC/TC per dense node id, no TermId hash maps anywhere. This is the hot
/// path behind ComputeStrongPartition / ComputeTypedStrongPartition.
/// Clique ids are 1-based with 0 = empty clique, numbered in
/// first-in-scope-observation order exactly like PropertyCliques.
struct DenseCliqueAssignment {
  std::vector<uint32_t> source_clique_of_node;  // by DenseGraph node id
  std::vector<uint32_t> target_clique_of_node;
  uint32_t num_source_cliques = 0;
  uint32_t num_target_cliques = 0;
};

DenseCliqueAssignment ComputeDenseCliqueAssignment(const DenseGraph& dg,
                                                   CliqueScope scope);

/// Distance between two data properties within a source (source=true) or
/// target clique (Definition 6): 0 if some resource carries both, else the
/// length of the shortest witness chain minus one. Returns -1 when the
/// properties are not in the same clique.
int PropertyDistance(const DenseGraph& dg, TermId p1, TermId p2,
                     bool source);

/// The saturated clique C+ of Lemma 1: the property set plus all its
/// generalizations (super-properties).
std::vector<TermId> SaturatedPropertySet(const std::vector<TermId>& props,
                                         const reasoner::SchemaIndex& schema);

}  // namespace rdfsum::summary

#endif  // RDFSUM_SUMMARY_CLIQUES_H_
