#include "rdf/dense_graph.h"

#include <algorithm>
#include <unordered_map>

namespace rdfsum {
namespace {

/// 64-bit mix for class-set content hashing (splitmix64 finalizer).
uint64_t Mix(uint64_t h) {
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

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
  const uint32_t num_data_only =
      static_cast<uint32_t>(terms_.size());  // endpoints of data triples
  for (const Triple& t : g.types) intern_node(t.s);
  const uint32_t n = num_nodes();
  has_data_.assign(n, 0);
  for (uint32_t i = 0; i < num_data_only; ++i) has_data_[i] = 1;

  // Pass 2: CSR adjacency via counting sort (graph order within a node).
  out_offsets_.assign(n + 1, 0);
  in_offsets_.assign(n + 1, 0);
  for (const Edge& e : edges_) {
    ++out_offsets_[e.s + 1];
    ++in_offsets_[e.o + 1];
  }
  for (uint32_t i = 0; i < n; ++i) {
    out_offsets_[i + 1] += out_offsets_[i];
    in_offsets_[i + 1] += in_offsets_[i];
  }
  out_entries_.resize(edges_.size());
  in_entries_.resize(edges_.size());
  {
    std::vector<uint32_t> out_fill(out_offsets_.begin(),
                                   out_offsets_.end() - 1);
    std::vector<uint32_t> in_fill(in_offsets_.begin(), in_offsets_.end() - 1);
    for (const Edge& e : edges_) {
      out_entries_[out_fill[e.s]++] = Neighbor{e.p, e.o};
      in_entries_[in_fill[e.o]++] = Neighbor{e.p, e.s};
    }
  }

  // Pass 3: per-node class sets (CSR), sorted and de-duplicated.
  class_offsets_.assign(n + 1, 0);
  for (const Triple& t : g.types) ++class_offsets_[node_of_term_[t.s] + 1];
  for (uint32_t i = 0; i < n; ++i) class_offsets_[i + 1] += class_offsets_[i];
  classes_.resize(g.types.size());
  {
    std::vector<uint32_t> fill(class_offsets_.begin(),
                               class_offsets_.end() - 1);
    for (const Triple& t : g.types) {
      classes_[fill[node_of_term_[t.s]]++] = t.o;
    }
  }
  // A graph is a set of triples, so (subject, class) pairs are already
  // unique; sorting each slice is all that's needed for a canonical set.
  for (uint32_t i = 0; i < n; ++i) {
    std::sort(classes_.begin() + class_offsets_[i],
              classes_.begin() + class_offsets_[i + 1]);
  }

  // Pass 4: dense class-set ids, assigned in canonical node order. Equal
  // sets are detected by content hash with explicit collision resolution
  // against a representative node per set.
  class_set_id_.assign(n, kNone);
  std::unordered_map<uint64_t, std::vector<uint32_t>> sets_by_hash;
  std::vector<NodeId> rep_of_set;
  for (uint32_t i = 0; i < n; ++i) {
    std::span<const TermId> set = ClassesOf(i);
    if (set.empty()) continue;
    uint64_t h = Mix(set.size());
    for (TermId c : set) h = Mix(h ^ c);
    std::vector<uint32_t>& candidates = sets_by_hash[h];
    uint32_t found = kNone;
    for (uint32_t sid : candidates) {
      std::span<const TermId> other = ClassesOf(rep_of_set[sid]);
      if (other.size() == set.size() &&
          std::equal(set.begin(), set.end(), other.begin())) {
        found = sid;
        break;
      }
    }
    if (found == kNone) {
      found = static_cast<uint32_t>(rep_of_set.size());
      rep_of_set.push_back(i);
      candidates.push_back(found);
    }
    class_set_id_[i] = found;
  }
  num_class_sets_ = static_cast<uint32_t>(rep_of_set.size());
}

}  // namespace rdfsum
