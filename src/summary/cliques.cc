#include "summary/cliques.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "summary/union_find.h"

namespace rdfsum::summary {
namespace {

constexpr uint32_t kNone = DenseGraph::kNone;

/// Shared clique machinery over the dense substrate. Properties are
/// re-interned in first-in-scope-observation order ("obs positions") so the
/// public PropertyCliques keeps its historical property and clique
/// numbering; all per-node state is flat arrays indexed by dense node id.
struct CliqueBuilder {
  const DenseGraph& dg;
  // Observation-order property interning (shared by both sides).
  std::vector<uint32_t> obs_of_pid;   // dense pid -> obs position
  std::vector<DenseGraph::PropId> pid_of_obs;  // obs position -> dense pid
  // Per side: union-find over obs positions, scope flags, per-node first
  // observed property.
  UnionFind uf_src, uf_tgt;
  std::vector<uint8_t> src_in_scope, tgt_in_scope;
  std::vector<uint32_t> first_src, first_tgt;  // by node id, obs position

  explicit CliqueBuilder(const DenseGraph& dense_graph) : dg(dense_graph) {
    obs_of_pid.assign(dg.num_properties(), kNone);
    first_src.assign(dg.num_nodes(), kNone);
    first_tgt.assign(dg.num_nodes(), kNone);
  }

  uint32_t Intern(DenseGraph::PropId pid) {
    uint32_t& slot = obs_of_pid[pid];
    if (slot == kNone) {
      slot = static_cast<uint32_t>(pid_of_obs.size());
      pid_of_obs.push_back(pid);
      uf_src.Add();
      uf_tgt.Add();
      src_in_scope.push_back(0);
      tgt_in_scope.push_back(0);
    }
    return slot;
  }

  void Run(CliqueScope scope) {
    for (const DenseGraph::Edge& e : dg.data_edges()) {
      bool s_in = true;
      bool o_in = true;
      switch (scope) {
        case CliqueScope::kAll:
          break;
        case CliqueScope::kUntypedEndpoints:
          s_in = !dg.IsTyped(e.s);
          o_in = !dg.IsTyped(e.o);
          break;
        case CliqueScope::kUntypedDataGraph: {
          bool both = !dg.IsTyped(e.s) && !dg.IsTyped(e.o);
          s_in = both;
          o_in = both;
          break;
        }
      }
      if (s_in) {
        uint32_t pos = Intern(e.p);
        src_in_scope[pos] = 1;
        if (first_src[e.s] == kNone) {
          first_src[e.s] = pos;
        } else {
          uf_src.Union(pos, first_src[e.s]);
        }
      }
      if (o_in) {
        uint32_t pos = Intern(e.p);
        tgt_in_scope[pos] = 1;
        if (first_tgt[e.o] == kNone) {
          first_tgt[e.o] = pos;
        } else {
          uf_tgt.Union(pos, first_tgt[e.o]);
        }
      }
    }
  }

  /// Clique id per obs position, 1-based in position order; 0 = out of
  /// scope on this side.
  std::vector<uint32_t> FinalizeSide(UnionFind& uf,
                                     const std::vector<uint8_t>& in_scope,
                                     uint32_t* num_cliques) const {
    const uint32_t p = static_cast<uint32_t>(pid_of_obs.size());
    std::vector<uint32_t> clique_of_pos(p, 0);
    std::vector<uint32_t> root_to_clique(p, kNone);
    uint32_t next = 0;
    for (uint32_t i = 0; i < p; ++i) {
      if (!in_scope[i]) continue;
      uint32_t root = uf.Find(i);
      if (root_to_clique[root] == kNone) root_to_clique[root] = ++next;
      clique_of_pos[i] = root_to_clique[root];
    }
    *num_cliques = next;
    return clique_of_pos;
  }
};

}  // namespace

PropertyCliques ComputePropertyCliques(const DenseGraph& dg,
                                       CliqueScope scope) {
  CliqueBuilder b(dg);
  b.Run(scope);

  PropertyCliques out;
  const uint32_t p = static_cast<uint32_t>(b.pid_of_obs.size());
  out.properties.reserve(p);
  out.property_index.reserve(p);
  for (uint32_t i = 0; i < p; ++i) {
    TermId term = dg.property_term(b.pid_of_obs[i]);
    out.properties.push_back(term);
    out.property_index.emplace(term, i);
  }
  out.source_clique_of_property =
      b.FinalizeSide(b.uf_src, b.src_in_scope, &out.num_source_cliques);
  out.target_clique_of_property =
      b.FinalizeSide(b.uf_tgt, b.tgt_in_scope, &out.num_target_cliques);

  auto fill_members = [&](const std::vector<uint32_t>& clique_of_pos,
                          uint32_t num_cliques,
                          std::vector<std::vector<TermId>>* members) {
    members->assign(num_cliques, {});
    for (uint32_t i = 0; i < p; ++i) {
      uint32_t c = clique_of_pos[i];
      if (c != 0) (*members)[c - 1].push_back(out.properties[i]);
    }
    for (auto& m : *members) std::sort(m.begin(), m.end());
  };
  fill_members(out.source_clique_of_property, out.num_source_cliques,
               &out.source_clique_members);
  fill_members(out.target_clique_of_property, out.num_target_cliques,
               &out.target_clique_members);

  auto fill_nodes = [&](const std::vector<uint32_t>& first,
                        const std::vector<uint32_t>& clique_of_pos,
                        std::unordered_map<TermId, uint32_t>* clique_of_node) {
    size_t observed = 0;
    for (uint32_t f : first) observed += (f != kNone);
    clique_of_node->reserve(observed);
    for (uint32_t i = 0; i < dg.num_nodes(); ++i) {
      if (first[i] != kNone) {
        clique_of_node->emplace(dg.term_of(i), clique_of_pos[first[i]]);
      }
    }
  };
  fill_nodes(b.first_src, out.source_clique_of_property,
             &out.source_clique_of_node);
  fill_nodes(b.first_tgt, out.target_clique_of_property,
             &out.target_clique_of_node);
  return out;
}

DenseCliqueAssignment ComputeDenseCliqueAssignment(const DenseGraph& dg,
                                                   CliqueScope scope) {
  CliqueBuilder b(dg);
  b.Run(scope);

  DenseCliqueAssignment out;
  std::vector<uint32_t> src_clique =
      b.FinalizeSide(b.uf_src, b.src_in_scope, &out.num_source_cliques);
  std::vector<uint32_t> tgt_clique =
      b.FinalizeSide(b.uf_tgt, b.tgt_in_scope, &out.num_target_cliques);
  const uint32_t n = dg.num_nodes();
  out.source_clique_of_node.assign(n, 0);
  out.target_clique_of_node.assign(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    if (b.first_src[i] != kNone) {
      out.source_clique_of_node[i] = src_clique[b.first_src[i]];
    }
    if (b.first_tgt[i] != kNone) {
      out.target_clique_of_node[i] = tgt_clique[b.first_tgt[i]];
    }
  }
  return out;
}

int PropertyDistance(const DenseGraph& dg, TermId p1, TermId p2,
                     bool source) {
  if (p1 == p2) return 0;
  const uint32_t from = dg.property_of(p1);
  const uint32_t to = dg.property_of(p2);
  if (from == kNone || to == kNone) return -1;
  // Bipartite BFS: property -> resources carrying it -> their properties.
  // Each property hop corresponds to one witness resource; the paper's
  // distance is (number of witness resources on the shortest chain) - 1.
  std::vector<std::vector<uint32_t>> props_of_node(dg.num_nodes());
  std::vector<std::vector<uint32_t>> nodes_of_prop(dg.num_properties());
  for (const DenseGraph::Edge& e : dg.data_edges()) {
    const uint32_t node = source ? e.s : e.o;
    props_of_node[node].push_back(e.p);
    nodes_of_prop[e.p].push_back(node);
  }
  std::vector<int> dist(dg.num_properties(), -1);
  std::deque<uint32_t> frontier;
  dist[from] = 0;
  frontier.push_back(from);
  while (!frontier.empty()) {
    const uint32_t cur = frontier.front();
    frontier.pop_front();
    const int d = dist[cur];
    for (uint32_t node : nodes_of_prop[cur]) {
      for (uint32_t next : props_of_node[node]) {
        if (dist[next] < 0) {
          dist[next] = d + 1;
          if (next == to) return d;  // (d+1) hops -> distance (d+1)-1 = d
          frontier.push_back(next);
        }
      }
    }
  }
  return -1;
}

std::vector<TermId> SaturatedPropertySet(const std::vector<TermId>& props,
                                         const reasoner::SchemaIndex& schema) {
  std::unordered_set<TermId> set(props.begin(), props.end());
  for (TermId p : props) {
    for (TermId sup : schema.SuperProperties(p)) set.insert(sup);
  }
  std::vector<TermId> out(set.begin(), set.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace rdfsum::summary
