#ifndef RDFSUM_RDF_DENSE_GRAPH_H_
#define RDFSUM_RDF_DENSE_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "rdf/graph.h"
#include "rdf/triple.h"

namespace rdfsum {

/// Immutable dense-ID view of a graph's data and type components: the shared
/// substrate every summarization hot path runs on.
///
/// Built from a GraphView (summary::TrySummarize builds one per call), it
/// replaces the per-algorithm `unordered_map<TermId, ...>` indexing idiom
/// with flat arrays. It holds only what more than one summary reads; a
/// structure with a single reader (the bisimulation's per-node adjacency)
/// is built by that reader.
///
///  - **Canonical node numbering.** Data nodes get dense ids 0..n-1 in the
///    canonical first-encounter order used for partition class-id assignment
///    everywhere in summary/: data triples (subject, then object), triple by
///    triple, followed by type-triple subjects. Iterating node ids in
///    ascending order therefore *is* the canonical node walk, and the
///    endpoints of data triples are the prefix 0..num_data_nodes()-1.
///  - **Dense property numbering.** Data properties get ids 0..P-1 in
///    first-occurrence order over the data component.
///  - **Encoded edge list.** `data_edges()` is the data component with both
///    endpoints and the property replaced by dense ids, in graph order.
///  - **Per-property first-seen anchors.** The first subject (resp. object)
///    node of each property in graph order — the seed the weak summary's
///    union-find anchors to.
///  - **Class-set ids.** A dense "class set id" shared by nodes with equal
///    sets of classes.
///
/// The view holds TermIds and dense ids only; it never touches term strings,
/// and it copies what it needs, so it stays valid (describing the graph as
/// it was) after the source graph changes or goes away. Being immutable, it
/// can be read from any number of threads.
class DenseGraph {
 public:
  using NodeId = uint32_t;
  using PropId = uint32_t;
  /// Sentinel for "absent" node / property / class-set ids.
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  /// A data triple with all three positions densely renumbered.
  struct Edge {
    NodeId s;
    PropId p;
    NodeId o;
  };

  explicit DenseGraph(const GraphView& g);

  // ---- Nodes ----------------------------------------------------------
  uint32_t num_nodes() const { return static_cast<uint32_t>(terms_.size()); }
  /// TermId of dense node `i`.
  TermId term_of(NodeId i) const { return terms_[i]; }
  /// Dense id of `t`, or kNone if `t` is not a data node of the graph.
  NodeId node_of(TermId t) const {
    return t < node_of_term_.size() ? node_of_term_[t] : kNone;
  }
  /// True iff node `i` occurs as an endpoint of some data triple.
  bool HasData(NodeId i) const { return i < num_data_nodes_; }
  /// True iff node `i` is the subject of some type triple.
  bool IsTyped(NodeId i) const { return class_set_id_[i] != kNone; }

  // ---- Properties -----------------------------------------------------
  uint32_t num_properties() const {
    return static_cast<uint32_t>(prop_terms_.size());
  }
  TermId property_term(PropId p) const { return prop_terms_[p]; }
  /// Dense property id of `t`, or kNone if `t` is not a data property.
  PropId property_of(TermId t) const {
    return t < prop_of_term_.size() ? prop_of_term_[t] : kNone;
  }

  // ---- Edges ----------------------------------------------------------
  /// Data triples in graph order, fully renumbered.
  const std::vector<Edge>& data_edges() const { return edges_; }

  uint64_t num_data_edges() const { return edges_.size(); }

  /// Contiguous slice [begin, end) of data_edges() — the unit a
  /// cancellable chunked pass scans (util::CancellableChunks).
  std::span<const Edge> EdgeRange(uint64_t begin, uint64_t end) const {
    return {edges_.data() + begin, edges_.data() + end};
  }

  /// First subject (resp. object) node of property `p` in graph order.
  NodeId SourceAnchor(PropId p) const { return source_anchor_[p]; }
  NodeId TargetAnchor(PropId p) const { return target_anchor_[p]; }

  // ---- Types ----------------------------------------------------------
  /// Dense id of the class *set* of node `i` (equal sets share an id,
  /// assigned in canonical node order); kNone for untyped nodes.
  uint32_t ClassSetId(NodeId i) const { return class_set_id_[i]; }
  uint32_t num_class_sets() const { return num_class_sets_; }

 private:
  // Nodes, canonical order; the first num_data_nodes_ are data endpoints.
  std::vector<TermId> terms_;
  std::vector<NodeId> node_of_term_;  // indexed by TermId
  uint32_t num_data_nodes_ = 0;

  // Properties, first-occurrence order.
  std::vector<TermId> prop_terms_;
  std::vector<PropId> prop_of_term_;  // indexed by TermId

  // Data edges and their per-property anchors.
  std::vector<Edge> edges_;
  std::vector<NodeId> source_anchor_, target_anchor_;

  // Type component.
  std::vector<uint32_t> class_set_id_;
  uint32_t num_class_sets_ = 0;
};

}  // namespace rdfsum

#endif  // RDFSUM_RDF_DENSE_GRAPH_H_
