#include "summary/maintenance.h"

#include <algorithm>
#include <string_view>

namespace rdfsum::summary {

WeakSummaryMaintainer::WeakSummaryMaintainer(
    std::shared_ptr<Dictionary> dict, const IncrementalWeakOptions& options)
    : dict_(std::move(dict)), vocab_(*dict_), options_(options) {
  Cover(static_cast<TermId>(dict_->size()));
}

WeakSummaryMaintainer::WeakSummaryMaintainer(
    const Graph& initial, const IncrementalWeakOptions& options)
    : WeakSummaryMaintainer(initial.dict_ptr(), options) {
  initial.ForEachTriple([this](const Triple& t) { AddTriple(t); });
}

void WeakSummaryMaintainer::Cover(TermId id) {
  if (id < rd_.size()) return;
  const size_t n = std::max({size_t{id} + 1, 2 * rd_.size(), dict_->size()});
  rd_.resize(n, kNoNode);
  dp_[kSource].resize(n, kNoNode);
  dp_[kTarget].resize(n, kNoNode);
  free_edge_.resize(n, 0);
}

// Algorithm 2: GETSOURCE for side kSource, GETTARGET for kTarget. Inline
// and defined before its caller: it runs twice per data triple.
inline WeakSummaryMaintainer::NodeId WeakSummaryMaintainer::Resolve(
    Side side, TermId r, TermId p) {
  const NodeId via_res = rd_[r];
  const NodeId via_prop = dp_[side][p];
  if (via_res == via_prop && via_res != kNoNode) return via_res;
  // Typed-weak: a typed resource keeps its class-set node, never enters dp
  // and never merges (footnote 3).
  if (pinned(via_res)) return via_res;
  if (via_prop == kNoNode) {
    NodeId d = via_res;
    if (d == kNoNode) {
      d = NewNode();
      Represent(r, d);
    }
    dp_[side][p] = d;
    dps_[side][d].push_back(p);
    return d;
  }
  if (via_res == kNoNode) {
    Represent(r, via_prop);
    return via_prop;
  }
  return Merge(via_res, via_prop);
}

void WeakSummaryMaintainer::AddTriple(const Triple& t) {
  ++triples_seen_;
  if (vocab_.IsSchemaProperty(t.p)) {
    if (schema_seen_.insert(t).second) schema_.push_back(t);
    return;
  }
  Cover(std::max({t.s, t.p, t.o}));
  if (vocab_.IsType(t.p)) {
    const NodeId d = rd_[t.s];
    const TermId row[2] = {d != kNoNode ? d : t.s, t.o};
    (d != kNoNode ? node_classes_ : pool_).Insert(row);
    return;
  }
  // Algorithm 1, one step. GETTARGET may merge the node GETSOURCE returned;
  // the paper re-resolves both, but an unpinned end is recorded as dp, which
  // merges keep current, and pinned nodes never merge.
  const NodeId src = Resolve(kSource, t.s, t.p);
  const NodeId targ = Resolve(kTarget, t.o, t.p);
  if (!pinned(src) && !pinned(targ)) {
    if (free_edge_[t.p]) return;  // W keeps one edge per property
    free_edge_[t.p] = 1;
  }
  const TermId row[3] = {pinned(src) ? src : kNoNode, t.p,
                         pinned(targ) ? targ : kNoNode};
  edges_.Insert(row);
}

WeakSummaryMaintainer::NodeId WeakSummaryMaintainer::NewNode() {
  dr_.emplace_back();
  dps_[kSource].emplace_back();
  dps_[kTarget].emplace_back();
  merged_into_.push_back(kNoNode);
  return static_cast<NodeId>(dr_.size() - 1);
}

void WeakSummaryMaintainer::Represent(TermId r, NodeId d) {
  rd_[r] = d;
  dr_[d].push_back(r);
}

// Typed-weak: pins `r` to `d`, or to a fresh pinned node when `d` is
// kNoNode, and returns the node.
WeakSummaryMaintainer::NodeId WeakSummaryMaintainer::Pin(TermId r, NodeId d) {
  if (d == kNoNode) {
    d = NewNode();
    num_pinned_ = d + 1;
  }
  Represent(r, d);
  return d;
}

// MERGEDATANODES: the survivor absorbs the other node's resources and
// property attachments ("replaces the node with less edges"). A property is
// attached to one node per side, so the attachment lists stay disjoint.
WeakSummaryMaintainer::NodeId WeakSummaryMaintainer::Merge(NodeId a,
                                                           NodeId b) {
  auto edge_count = [this](NodeId n) {
    return dps_[kSource][n].size() + dps_[kTarget][n].size();
  };
  NodeId keep = a, drop = b;
  if (options_.merge_smaller_node && edge_count(a) < edge_count(b)) {
    std::swap(keep, drop);
  }
  auto absorb = [keep, drop](std::vector<std::vector<TermId>>& lists) {
    lists[keep].insert(lists[keep].end(), lists[drop].begin(),
                       lists[drop].end());
    std::vector<TermId>().swap(lists[drop]);
  };
  merged_into_[drop] = keep;
  for (TermId r : dr_[drop]) rd_[r] = keep;
  absorb(dr_);
  for (Side side : {kSource, kTarget}) {
    for (TermId p : dps_[side][drop]) dp_[side][p] = keep;
    absorb(dps_[side]);
  }
  return keep;
}

uint64_t WeakSummaryMaintainer::num_summary_nodes() const {
  uint64_t n = static_cast<uint64_t>(std::count_if(
      dr_.begin(), dr_.end(), [](const auto& rs) { return !rs.empty(); }));
  for (size_t i = 0; i < pool_.size(); ++i) {
    if (rd_[pool_.row(i)[0]] == kNoNode) return n + 1;
  }
  return n;
}

SummaryResult WeakSummaryMaintainer::Assemble(SummaryKind kind) const {
  SummaryResult out;
  out.kind = kind;
  out.graph = Graph(dict_);
  Dictionary& dict = out.graph.dict();
  const std::string_view tag =
      kind == SummaryKind::kWeak ? "node:w" : "node:tw";
  std::vector<TermId> node_uri(dr_.size(), kInvalidTermId);
  auto uri_of = [&](NodeId d) {
    if (node_uri[d] == kInvalidTermId) node_uri[d] = dict.MintNodeUri(tag);
    return node_uri[d];
  };
  for (size_t i = 0; i < edges_.size(); ++i) {
    const TermId* e = edges_.row(i);
    out.graph.Add(
        Triple{uri_of(e[0] == kNoNode ? dp_[kSource][e[1]] : e[0]), e[1],
               uri_of(e[2] == kNoNode ? dp_[kTarget][e[1]] : e[2])});
  }
  const TermId rdf_type = vocab_.rdf_type;
  for (size_t i = 0; i < node_classes_.size(); ++i) {
    NodeId d = node_classes_.row(i)[0];
    while (merged_into_[d] != kNoNode) d = merged_into_[d];
    out.graph.Add(Triple{uri_of(d), rdf_type, node_classes_.row(i)[1]});
  }
  // Algorithm 3: the typed-only pool materializes as a single Nτ node.
  TermId pool = kInvalidTermId;
  for (size_t i = 0; i < pool_.size(); ++i) {
    const TermId r = pool_.row(i)[0];
    TermId node;
    if (rd_[r] != kNoNode) {
      node = uri_of(rd_[r]);
    } else {
      if (pool == kInvalidTermId) pool = dict.MintNodeUri(tag);
      node = pool;
      out.node_map.emplace(r, pool);
    }
    out.graph.Add(Triple{node, rdf_type, pool_.row(i)[1]});
  }
  for (const Triple& t : schema_) out.graph.Add(t);
  size_t represented = out.node_map.size();
  for (const auto& rs : dr_) represented += rs.size();
  out.node_map.reserve(represented);
  for (TermId r = 0; r < rd_.size(); ++r) {
    if (rd_[r] != kNoNode) out.node_map.emplace(r, uri_of(rd_[r]));
  }
  out.stats = ComputeSummaryStats(out.graph, 0.0);
  return out;
}

}  // namespace rdfsum::summary
