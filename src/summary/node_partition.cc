#include "summary/node_partition.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rdf/dense_graph.h"
#include "summary/cliques.h"
#include "summary/union_find.h"
#include "util/exec_context.h"

// All partition kinds run on the DenseGraph substrate:
// flat arrays indexed by dense node / property id instead of per-algorithm
// unordered_map scaffolding. The canonical class-id semantics are unchanged
// — dense node id order *is* the canonical first-encounter order — and every
// function must stay byte-identical to its tests/oracle/reference_partition.h
// oracle (enforced by tests/dense_graph_test.cc).

namespace rdfsum::summary {
namespace {

constexpr uint32_t kNone = DenseGraph::kNone;

/// Renumbers a raw class assignment (by dense node id, raw ids < `bound`)
/// in place into dense canonical ids: class ids are assigned in
/// first-encounter order over dense node ids, which is exactly the old
/// ForEachDataNodeInOrder walk.
NodePartition Finalize(std::vector<uint32_t> raw, uint32_t bound) {
  NodePartition out;
  std::vector<uint32_t> remap(bound, kNone);
  for (uint32_t& cls : raw) {
    uint32_t& canonical = remap[cls];
    if (canonical == kNone) canonical = out.num_classes++;
    cls = canonical;
  }
  out.class_of = std::move(raw);
  return out;
}

/// Typed-weak union-find over untyped data endpoints: every in-scope subject
/// (resp. object) of a property is merged with the property's first in-scope
/// subject (resp. object). With `require_both` an edge participates only if
/// both endpoints are untyped; `covered` is set for every endpoint that did.
void UnionPerProperty(const DenseGraph& dg, UnionFind& uf,
                      const std::vector<uint8_t>& untyped, bool require_both,
                      std::vector<uint8_t>& covered) {
  const uint32_t p = dg.num_properties();
  std::vector<uint32_t> src_anchor(p, kNone);
  std::vector<uint32_t> tgt_anchor(p, kNone);
  for (const DenseGraph::Edge& e : dg.data_edges()) {
    bool s_ok, o_ok;
    if (require_both) {
      bool both = untyped[e.s] && untyped[e.o];
      s_ok = both;
      o_ok = both;
    } else {
      s_ok = untyped[e.s] != 0;
      o_ok = untyped[e.o] != 0;
    }
    if (s_ok) {
      covered[e.s] = 1;
      if (src_anchor[e.p] == kNone) {
        src_anchor[e.p] = e.s;
      } else {
        uf.Union(e.s, src_anchor[e.p]);
      }
    }
    if (o_ok) {
      covered[e.o] = 1;
      if (tgt_anchor[e.p] == kNone) {
        tgt_anchor[e.p] = e.o;
      } else {
        uf.Union(e.o, tgt_anchor[e.p]);
      }
    }
  }
}

/// Untyped flags by dense node id (the complement of IsTyped).
std::vector<uint8_t> UntypedFlags(const DenseGraph& dg) {
  std::vector<uint8_t> untyped(dg.num_nodes());
  for (uint32_t i = 0; i < dg.num_nodes(); ++i) untyped[i] = !dg.IsTyped(i);
  return untyped;
}

/// Shared scaffolding for TW/TS: typed nodes are grouped by their dense
/// class-set id; untyped ones by `assign_untyped(node)`, whose ids live in a
/// namespace disjoint from the class-set ids and are bounded by
/// `untyped_bound`.
template <typename AssignUntyped>
NodePartition TypedPartition(const DenseGraph& dg, uint32_t untyped_bound,
                             AssignUntyped&& assign_untyped) {
  const uint32_t n = dg.num_nodes();
  const uint32_t base = dg.num_class_sets();
  std::vector<uint32_t> raw(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t set_id = dg.ClassSetId(i);
    raw[i] = set_id != kNone ? set_id : base + assign_untyped(i);
  }
  return Finalize(std::move(raw), base + untyped_bound);
}

}  // namespace

NodePartition ComputeWeakPartition(const DenseGraph& dg,
                                   util::ExecContext* exec) {
  const uint32_t n = dg.num_nodes();
  // One pass over the dense edge list: every subject joins its property's
  // source anchor and every object its target anchor (the substrate's
  // first-seen endpoints), which is Definition 7's "shares a property
  // occurrence" closure.
  UnionFind uf(n);
  Status st = util::CancellableChunks(
      exec, 0, dg.num_data_edges(), [&](uint64_t begin, uint64_t end) {
        for (const DenseGraph::Edge& e : dg.EdgeRange(begin, end)) {
          uf.Union(e.s, dg.SourceAnchor(e.p));
          uf.Union(e.o, dg.TargetAnchor(e.p));
        }
      });
  if (!st.ok()) return NodePartition{};

  // Raw class = union-find root; nodes with no data property collapse into
  // Nτ, one shared raw class n distinct from every root.
  std::vector<uint32_t> raw(n);
  for (uint32_t i = 0; i < n; ++i) raw[i] = dg.HasData(i) ? uf.Find(i) : n;
  return Finalize(std::move(raw), n + 1);
}

NodePartition ComputeStrongPartition(const DenseGraph& dg) {
  DenseCliqueAssignment cliques =
      ComputeDenseCliqueAssignment(dg, CliqueScope::kAll);
  // Raw class = dense id of the (source clique, target clique) pair; the
  // (0,0) pair covers typed-only resources, realizing Nτ.
  const uint32_t n = dg.num_nodes();
  std::unordered_map<uint64_t, uint32_t> pair_class;
  std::vector<uint32_t> raw(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t key = (static_cast<uint64_t>(cliques.source_clique_of_node[i])
                    << 32) |
                   cliques.target_clique_of_node[i];
    auto [it, inserted] =
        pair_class.emplace(key, static_cast<uint32_t>(pair_class.size()));
    raw[i] = it->second;
  }
  return Finalize(std::move(raw), static_cast<uint32_t>(pair_class.size()));
}

NodePartition ComputeTypePartition(const DenseGraph& dg) {
  // Typed resources by exact class set; every untyped data node a fresh
  // singleton (C(∅) is fresh per node).
  return TypedPartition(dg, dg.num_nodes(), [](uint32_t i) { return i; });
}

NodePartition ComputeTypedWeakPartition(const DenseGraph& dg,
                                        TypedSummaryMode mode) {
  const uint32_t n = dg.num_nodes();
  std::vector<uint8_t> untyped = UntypedFlags(dg);
  std::vector<uint8_t> covered(n, 0);
  UnionFind uf(n);
  UnionPerProperty(dg, uf, untyped,
                   mode != TypedSummaryMode::kPerPropertyProjection, covered);
  // Untyped nodes outside the projection (only possible in kUntypedDataGraph
  // mode) collapse into Nτ, raw id n.
  return TypedPartition(dg, n + 1, [&](uint32_t i) -> uint32_t {
    return covered[i] ? uf.Find(i) : n;
  });
}

NodePartition ComputeTypedStrongPartition(const DenseGraph& dg,
                                          TypedSummaryMode mode) {
  CliqueScope scope = mode == TypedSummaryMode::kPerPropertyProjection
                          ? CliqueScope::kUntypedEndpoints
                          : CliqueScope::kUntypedDataGraph;
  DenseCliqueAssignment cliques = ComputeDenseCliqueAssignment(dg, scope);
  std::unordered_map<uint64_t, uint32_t> pair_class;
  return TypedPartition(dg, dg.num_nodes() + 1, [&](uint32_t i) -> uint32_t {
    uint64_t key = (static_cast<uint64_t>(cliques.source_clique_of_node[i])
                    << 32) |
                   cliques.target_clique_of_node[i];
    auto [it, inserted] =
        pair_class.emplace(key, static_cast<uint32_t>(pair_class.size()));
    return it->second;
  });
}

NodePartition ComputeBisimulationPartition(const DenseGraph& dg,
                                           uint32_t depth, bool use_types,
                                           BisimulationDirection direction,
                                           util::ExecContext* exec) {
  const uint32_t n = dg.num_nodes();

  // Seed colors: class-set hash (or a shared constant). The hash formula
  // matches the reference implementation so seed grouping is identical.
  std::vector<uint64_t> color(n, 0x9E3779B97F4A7C15ULL);
  if (use_types) {
    for (uint32_t i = 0; i < n; ++i) {
      std::span<const TermId> classes = dg.ClassesOf(i);
      if (classes.empty()) continue;
      uint64_t h = 0x12345;
      for (TermId c : classes) {
        h ^= c + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
      }
      color[i] = h;
    }
  }

  // Refinement rounds over the CSR adjacency: each round reads the
  // previous colors and writes `next`, then the buffers swap. Signatures use
  // dense property ids — a bijective relabeling of the reference's TermIds,
  // so equivalence classes (and therefore the canonical partition) are
  // unchanged.
  const bool fwd = direction != BisimulationDirection::kBackward;
  const bool bwd = direction != BisimulationDirection::kForward;
  std::vector<uint64_t> next(n);
  std::vector<std::tuple<int, uint32_t, uint64_t>> sig;
  for (uint32_t round = 0; round < depth; ++round) {
    Status st = util::CancellableChunks(exec, 0, n, [&](uint64_t begin,
                                                        uint64_t end) {
      for (uint64_t node = begin; node < end; ++node) {
        const uint32_t i = static_cast<uint32_t>(node);
        sig.clear();
        if (bwd) {
          for (const DenseGraph::Neighbor& a : dg.InEdges(i)) {
            sig.emplace_back(0, a.p, color[a.node]);
          }
        }
        if (fwd) {
          for (const DenseGraph::Neighbor& a : dg.OutEdges(i)) {
            sig.emplace_back(1, a.p, color[a.node]);
          }
        }
        std::sort(sig.begin(), sig.end());
        sig.erase(std::unique(sig.begin(), sig.end()), sig.end());
        uint64_t h = color[i] * 0xBF58476D1CE4E5B9ULL + 0x94D049BB133111EBULL;
        for (const auto& [dir, p, c] : sig) {
          h ^= (static_cast<uint64_t>(dir) * 0x2545F4914F6CDD1DULL + p) +
               0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
          h ^= c + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
        }
        next[i] = h;
      }
    });
    if (!st.ok()) return NodePartition{};
    color.swap(next);
  }

  std::unordered_map<uint64_t, uint32_t> color_class;
  color_class.reserve(n);
  std::vector<uint32_t> raw(n);
  for (uint32_t i = 0; i < n; ++i) {
    auto [it, inserted] = color_class.emplace(
        color[i], static_cast<uint32_t>(color_class.size()));
    raw[i] = it->second;
  }
  return Finalize(std::move(raw), static_cast<uint32_t>(color_class.size()));
}

}  // namespace rdfsum::summary
