#include "rdf/dense_graph.h"

#include <algorithm>

#include "util/span_interner.h"

namespace rdfsum {

DenseGraph::DenseGraph(const GraphView& g) {
  const size_t dict_size = g.dict->size();
  node_of_term_.assign(dict_size, kNone);
  prop_of_term_.assign(dict_size, kNone);

  auto intern_node = [&](TermId t) -> NodeId {
    NodeId& slot = node_of_term_[t];
    if (slot == kNone) {
      slot = static_cast<NodeId>(terms_.size());
      terms_.push_back(t);
    }
    return slot;
  };
  auto intern_prop = [&](TermId t) -> PropId {
    PropId& slot = prop_of_term_[t];
    if (slot == kNone) {
      slot = static_cast<PropId>(prop_terms_.size());
      prop_terms_.push_back(t);
      source_anchor_.push_back(kNone);
      target_anchor_.push_back(kNone);
    }
    return slot;
  };

  // Pass 1: canonical node + property numbering, encoded edges, anchors.
  edges_.reserve(g.data.size());
  for (const Triple& t : g.data) {
    NodeId s = intern_node(t.s);
    NodeId o = intern_node(t.o);
    PropId p = intern_prop(t.p);
    if (source_anchor_[p] == kNone) source_anchor_[p] = s;
    if (target_anchor_[p] == kNone) target_anchor_[p] = o;
    edges_.push_back(Edge{s, p, o});
  }
  num_data_nodes_ = num_nodes();  // endpoints of data triples
  for (const Triple& t : g.types) intern_node(t.s);
  const uint32_t n = num_nodes();

  // Pass 2: dense class-set ids. Each node's classes are gathered into a
  // local CSR by counting sort and sorted; a graph is a set of triples, so
  // (subject, class) pairs are already unique and a sorted slice is a
  // canonical set. Sets are interned in canonical node order.
  std::vector<uint32_t> class_offsets(n + 1, 0);
  for (const Triple& t : g.types) ++class_offsets[node_of_term_[t.s] + 1];
  for (uint32_t i = 0; i < n; ++i) class_offsets[i + 1] += class_offsets[i];
  std::vector<TermId> classes(g.types.size());
  {
    std::vector<uint32_t> fill(class_offsets.begin(), class_offsets.end() - 1);
    for (const Triple& t : g.types) {
      classes[fill[node_of_term_[t.s]]++] = t.o;
    }
  }
  class_set_id_.assign(n, kNone);
  util::SpanInterner<TermId> sets;
  for (uint32_t i = 0; i < n; ++i) {
    auto first = classes.begin() + class_offsets[i];
    auto last = classes.begin() + class_offsets[i + 1];
    if (first == last) continue;
    std::sort(first, last);
    class_set_id_[i] = sets.Intern({first, last});
  }
  num_class_sets_ = sets.size();
}

}  // namespace rdfsum
