#include "oracle/reference_partition.h"

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rdf/graph_stats.h"
#include "summary/union_find.h"

// This file intentionally preserves the pre-substrate implementations,
// including their hash-map-per-endpoint indexing idiom. Do not "optimize"
// it: its only job is to define the canonical partition semantics the
// DenseGraph-based implementations must reproduce exactly.
// The bisimulation reference is the exception: its pre-substrate version
// named colors by a 64-bit hash combine and so merged nodes whose
// signatures collided; it now numbers exact signatures instead.

namespace rdfsum::summary {
namespace {

template <typename Fn>
void ForEachDataNodeInOrder(const Graph& g, Fn&& fn) {
  for (const Triple& t : g.data()) {
    fn(t.s);
    fn(t.o);
  }
  for (const Triple& t : g.types()) fn(t.s);
}

struct NodeIndex {
  std::unordered_map<TermId, uint32_t> index_of;
  std::vector<TermId> nodes;

  explicit NodeIndex(const Graph& g) {
    ForEachDataNodeInOrder(g, [&](TermId n) {
      if (index_of.emplace(n, static_cast<uint32_t>(nodes.size())).second) {
        nodes.push_back(n);
      }
    });
  }
};

ReferencePartition Finalize(const Graph& g,
                            const std::unordered_map<TermId, uint32_t>& raw) {
  ReferencePartition out;
  std::unordered_map<uint32_t, uint32_t> remap;
  ForEachDataNodeInOrder(g, [&](TermId n) {
    if (out.class_of.count(n)) return;
    uint32_t raw_class = raw.at(n);
    auto [it, inserted] =
        remap.emplace(raw_class, static_cast<uint32_t>(remap.size()));
    out.class_of.emplace(n, it->second);
  });
  out.num_classes = static_cast<uint32_t>(remap.size());
  return out;
}

std::unordered_map<TermId, std::vector<TermId>> ClassSets(const Graph& g) {
  std::unordered_map<TermId, std::vector<TermId>> out;
  for (const Triple& t : g.types()) out[t.s].push_back(t.o);
  for (auto& [node, classes] : out) {
    std::sort(classes.begin(), classes.end());
    classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  }
  return out;
}

constexpr uint32_t kUnassigned = 0xFFFFFFFFu;

/// Which endpoints of a data triple contribute to clique membership;
/// mirrors summary::CliqueScope without depending on the production header.
enum class RefScope { kAll, kUntypedEndpoints, kUntypedDataGraph };

/// Old SideBuilder-based clique computation, reduced to the per-node clique
/// assignment the reference partitions need.
struct RefCliques {
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

class RefSideBuilder {
 public:
  RefSideBuilder(std::vector<TermId>& properties,
                 std::unordered_map<TermId, uint32_t>& property_index)
      : properties_(properties), property_index_(property_index) {}

  uint32_t PropIndex(TermId p) {
    auto [it, inserted] =
        property_index_.emplace(p, static_cast<uint32_t>(properties_.size()));
    if (inserted) {
      properties_.push_back(p);
      uf_.Add();
      in_scope_.push_back(false);
    }
    while (uf_.size() < properties_.size()) {
      uf_.Add();
      in_scope_.push_back(false);
    }
    return it->second;
  }

  void Observe(TermId node, TermId p) {
    uint32_t pi = PropIndex(p);
    in_scope_[pi] = true;
    auto [it, inserted] = first_prop_of_node_.emplace(node, pi);
    if (!inserted) uf_.Union(pi, it->second);
  }

  void Finalize(std::unordered_map<TermId, uint32_t>* clique_of_node) {
    while (uf_.size() < properties_.size()) {
      uf_.Add();
      in_scope_.push_back(false);
    }
    std::vector<uint32_t> clique_of_property(properties_.size(), 0);
    std::unordered_map<uint32_t, uint32_t> root_to_clique;
    for (uint32_t i = 0; i < properties_.size(); ++i) {
      if (!in_scope_[i]) continue;
      uint32_t root = uf_.Find(i);
      auto [it, inserted] = root_to_clique.emplace(
          root, static_cast<uint32_t>(root_to_clique.size() + 1));
      clique_of_property[i] = it->second;
    }
    for (const auto& [node, pi] : first_prop_of_node_) {
      (*clique_of_node)[node] = clique_of_property[pi];
    }
  }

 private:
  std::vector<TermId>& properties_;
  std::unordered_map<TermId, uint32_t>& property_index_;
  UnionFind uf_;
  std::vector<bool> in_scope_;
  std::unordered_map<TermId, uint32_t> first_prop_of_node_;
};

RefCliques ComputeRefCliques(const Graph& g, RefScope scope,
                             const std::unordered_set<TermId>* typed_resources) {
  std::unordered_set<TermId> typed_local;
  if (scope != RefScope::kAll && typed_resources == nullptr) {
    typed_local = TypedResources(g);
    typed_resources = &typed_local;
  }
  auto is_untyped = [&](TermId n) {
    return typed_resources == nullptr || typed_resources->count(n) == 0;
  };

  RefCliques out;
  std::vector<TermId> properties;
  std::unordered_map<TermId, uint32_t> property_index;
  RefSideBuilder source(properties, property_index);
  RefSideBuilder target(properties, property_index);

  for (const Triple& t : g.data()) {
    bool s_in_scope = true;
    bool o_in_scope = true;
    switch (scope) {
      case RefScope::kAll:
        break;
      case RefScope::kUntypedEndpoints:
        s_in_scope = is_untyped(t.s);
        o_in_scope = is_untyped(t.o);
        break;
      case RefScope::kUntypedDataGraph: {
        bool both = is_untyped(t.s) && is_untyped(t.o);
        s_in_scope = both;
        o_in_scope = both;
        break;
      }
    }
    if (s_in_scope) source.Observe(t.s, t.p);
    if (o_in_scope) target.Observe(t.o, t.p);
  }

  source.Finalize(&out.source_clique_of_node);
  target.Finalize(&out.target_clique_of_node);
  return out;
}

template <typename AssignUntyped>
ReferencePartition TypedPartition(const Graph& g,
                                  AssignUntyped&& assign_untyped) {
  auto class_sets = ClassSets(g);
  std::map<std::vector<TermId>, uint32_t> set_class;
  std::unordered_map<TermId, uint32_t> raw;
  uint32_t next_typed = 0;
  constexpr uint32_t kUntypedBase = 0x80000000u;
  ForEachDataNodeInOrder(g, [&](TermId n) {
    if (raw.count(n)) return;
    auto it = class_sets.find(n);
    if (it != class_sets.end()) {
      auto [sit, inserted] = set_class.emplace(it->second, kUnassigned);
      if (inserted) sit->second = next_typed++;
      raw.emplace(n, sit->second);
    } else {
      raw.emplace(n, kUntypedBase + assign_untyped(n));
    }
  });
  return Finalize(g, raw);
}

}  // namespace

ReferencePartition ReferenceWeakPartition(const Graph& g) {
  NodeIndex idx(g);
  UnionFind uf(static_cast<uint32_t>(idx.nodes.size()));
  std::unordered_map<TermId, uint32_t> source_anchor;  // property -> node idx
  std::unordered_map<TermId, uint32_t> target_anchor;
  for (const Triple& t : g.data()) {
    uint32_t si = idx.index_of.at(t.s);
    uint32_t oi = idx.index_of.at(t.o);
    auto [sit, s_new] = source_anchor.emplace(t.p, si);
    if (!s_new) uf.Union(si, sit->second);
    auto [tit, t_new] = target_anchor.emplace(t.p, oi);
    if (!t_new) uf.Union(oi, tit->second);
  }
  std::unordered_set<TermId> in_data;
  for (const Triple& t : g.data()) {
    in_data.insert(t.s);
    in_data.insert(t.o);
  }
  uint32_t ntau_raw = uf.size();
  std::unordered_map<TermId, uint32_t> raw;
  ForEachDataNodeInOrder(g, [&](TermId n) {
    if (raw.count(n)) return;
    if (in_data.count(n)) {
      raw.emplace(n, uf.Find(idx.index_of.at(n)));
    } else {
      raw.emplace(n, ntau_raw);
    }
  });
  return Finalize(g, raw);
}

ReferencePartition ReferenceStrongPartition(const Graph& g) {
  RefCliques cliques = ComputeRefCliques(g, RefScope::kAll, nullptr);
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> pair_class;
  std::unordered_map<TermId, uint32_t> raw;
  ForEachDataNodeInOrder(g, [&](TermId n) {
    if (raw.count(n)) return;
    std::pair<uint32_t, uint32_t> key{cliques.SourceCliqueOf(n),
                                      cliques.TargetCliqueOf(n)};
    auto [it, inserted] =
        pair_class.emplace(key, static_cast<uint32_t>(pair_class.size()));
    raw.emplace(n, it->second);
  });
  return Finalize(g, raw);
}

ReferencePartition ReferenceTypePartition(const Graph& g) {
  auto class_sets = ClassSets(g);
  std::map<std::vector<TermId>, uint32_t> set_class;
  std::unordered_map<TermId, uint32_t> raw;
  uint32_t next = 0;
  ForEachDataNodeInOrder(g, [&](TermId n) {
    if (raw.count(n)) return;
    auto it = class_sets.find(n);
    if (it == class_sets.end()) {
      raw.emplace(n, next++);  // untyped: fresh class per node (C(∅))
    } else {
      auto [sit, inserted] = set_class.emplace(it->second, kUnassigned);
      if (inserted) sit->second = next++;
      raw.emplace(n, sit->second);
    }
  });
  return Finalize(g, raw);
}

ReferencePartition ReferenceTypedWeakPartition(const Graph& g,
                                               TypedSummaryMode mode) {
  std::unordered_set<TermId> typed = TypedResources(g);
  auto is_untyped = [&](TermId n) { return typed.count(n) == 0; };

  NodeIndex idx(g);
  UnionFind uf(static_cast<uint32_t>(idx.nodes.size()));
  std::unordered_map<TermId, uint32_t> source_anchor;
  std::unordered_map<TermId, uint32_t> target_anchor;
  std::unordered_set<TermId> covered;
  for (const Triple& t : g.data()) {
    bool s_ok, o_ok;
    if (mode == TypedSummaryMode::kPerPropertyProjection) {
      s_ok = is_untyped(t.s);
      o_ok = is_untyped(t.o);
    } else {
      bool both = is_untyped(t.s) && is_untyped(t.o);
      s_ok = both;
      o_ok = both;
    }
    if (s_ok) {
      uint32_t si = idx.index_of.at(t.s);
      covered.insert(t.s);
      auto [it, fresh] = source_anchor.emplace(t.p, si);
      if (!fresh) uf.Union(si, it->second);
    }
    if (o_ok) {
      uint32_t oi = idx.index_of.at(t.o);
      covered.insert(t.o);
      auto [it, fresh] = target_anchor.emplace(t.p, oi);
      if (!fresh) uf.Union(oi, it->second);
    }
  }
  uint32_t ntau_raw = uf.size();
  return TypedPartition(g, [&](TermId n) -> uint32_t {
    if (covered.count(n)) return uf.Find(idx.index_of.at(n));
    return ntau_raw;
  });
}

ReferencePartition ReferenceBisimulationPartition(const Graph& g,
                                                  uint32_t depth,
                                                  bool use_types) {
  NodeIndex idx(g);
  const uint32_t n = static_cast<uint32_t>(idx.nodes.size());

  // Hash-free: every color is the exact value it stands for, numbered by a
  // std::map — the seed by class set (empty when untyped or types are
  // ignored), each round by (own color, sorted distinct neighborhood).
  std::vector<uint32_t> color(n);
  {
    const auto class_sets =
        use_types ? ClassSets(g)
                  : std::unordered_map<TermId, std::vector<TermId>>{};
    std::map<std::vector<TermId>, uint32_t> seed_color;
    for (uint32_t i = 0; i < n; ++i) {
      auto it = class_sets.find(idx.nodes[i]);
      std::vector<TermId> set;
      if (it != class_sets.end()) set = it->second;
      color[i] = seed_color
                     .emplace(std::move(set),
                              static_cast<uint32_t>(seed_color.size()))
                     .first->second;
    }
  }

  struct Adj {
    bool out;
    TermId p;
    uint32_t other;
  };
  std::vector<std::vector<Adj>> adj(n);
  for (const Triple& t : g.data()) {
    uint32_t si = idx.index_of.at(t.s);
    uint32_t oi = idx.index_of.at(t.o);
    adj[si].push_back({true, t.p, oi});
    adj[oi].push_back({false, t.p, si});
  }

  using Signature =
      std::pair<uint32_t, std::vector<std::tuple<int, TermId, uint32_t>>>;
  for (uint32_t round = 0; round < depth; ++round) {
    std::map<Signature, uint32_t> sig_color;
    std::vector<uint32_t> next(n);
    for (uint32_t i = 0; i < n; ++i) {
      Signature sig{color[i], {}};
      for (const Adj& a : adj[i]) {
        sig.second.emplace_back(a.out ? 1 : 0, a.p, color[a.other]);
      }
      std::sort(sig.second.begin(), sig.second.end());
      sig.second.erase(std::unique(sig.second.begin(), sig.second.end()),
                       sig.second.end());
      next[i] = sig_color
                    .emplace(std::move(sig),
                             static_cast<uint32_t>(sig_color.size()))
                    .first->second;
    }
    color = std::move(next);
  }

  std::unordered_map<TermId, uint32_t> raw;
  for (uint32_t i = 0; i < n; ++i) raw.emplace(idx.nodes[i], color[i]);
  return Finalize(g, raw);
}

ReferencePartition ReferenceTypedStrongPartition(const Graph& g,
                                                 TypedSummaryMode mode) {
  std::unordered_set<TermId> typed = TypedResources(g);
  RefScope scope = mode == TypedSummaryMode::kPerPropertyProjection
                       ? RefScope::kUntypedEndpoints
                       : RefScope::kUntypedDataGraph;
  RefCliques cliques = ComputeRefCliques(g, scope, &typed);
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> pair_class;
  return TypedPartition(g, [&](TermId n) -> uint32_t {
    std::pair<uint32_t, uint32_t> key{cliques.SourceCliqueOf(n),
                                      cliques.TargetCliqueOf(n)};
    auto [it, inserted] =
        pair_class.emplace(key, static_cast<uint32_t>(pair_class.size()));
    return it->second;
  });
}

std::string PartitionMismatch(const DenseGraph& dg, const NodePartition& got,
                              const ReferencePartition& want) {
  const uint32_t n = dg.num_nodes();
  if (got.class_of.size() != n || want.class_of.size() != n) {
    return "partition sizes " + std::to_string(got.class_of.size()) + " and " +
           std::to_string(want.class_of.size()) + " for " + std::to_string(n) +
           " nodes";
  }
  if (got.num_classes != want.num_classes) {
    return "num_classes " + std::to_string(got.num_classes) + " != " +
           std::to_string(want.num_classes);
  }
  for (uint32_t i = 0; i < n; ++i) {
    const TermId term = dg.term_of(i);
    auto it = want.class_of.find(term);
    if (it == want.class_of.end()) {
      return "node " + std::to_string(term) + " missing from the reference";
    }
    if (it->second != got.class_of[i]) {
      return "node " + std::to_string(term) + " in class " +
             std::to_string(got.class_of[i]) + ", reference " +
             std::to_string(it->second);
    }
  }
  return "";
}

}  // namespace rdfsum::summary
