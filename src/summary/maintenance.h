#ifndef RDFSUM_SUMMARY_MAINTENANCE_H_
#define RDFSUM_SUMMARY_MAINTENANCE_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "rdf/graph.h"
#include "summary/incremental_weak.h"
#include "summary/summary.h"
#include "util/row_set.h"

namespace rdfsum::summary {

/// Maintains the weak summary of a *growing* RDF graph under triple
/// insertions, without ever re-reading the base data — the incremental
/// direction the paper's conclusion opens (and the authors' follow-up work
/// pursued). Because the weak summary is a union-find quotient, insertions
/// only ever merge summary nodes, so a stream of AddTriple calls maintains
/// exactly the state of the §6.2 algorithms.
///
/// This class is the one port of Algorithms 1–3: IncrementalWeakSummarize
/// feeds it a whole graph, and IncrementalTypedWeakSummarize runs it with
/// typed resources pinned to their class-set nodes.
///
/// Semantics guarantee: after any prefix of insertions, Snapshot() is
/// isomorphic to Summarize(G_prefix, SummaryKind::kWeak) — insertion order
/// never matters. Deletions are not supported (they can split classes, which
/// a union-find cannot undo; the paper's system is also insert-only).
class WeakSummaryMaintainer {
 public:
  explicit WeakSummaryMaintainer(std::shared_ptr<Dictionary> dict,
                                 const IncrementalWeakOptions& options = {});

  /// Seeds the maintainer with an existing graph (equivalent to adding all
  /// of its triples).
  explicit WeakSummaryMaintainer(const Graph& initial,
                                 const IncrementalWeakOptions& options = {});

  /// Routes one encoded triple to the data/type/schema handling. Duplicate
  /// insertions are harmless (idempotent).
  void AddTriple(const Triple& t);

  /// Materializes the current summary (graph + node map; it counts no
  /// edges, so multiplicity stays empty). Cost is linear in
  /// the dictionary size and the number of distinct type triples seen, not
  /// in the number of data triples.
  SummaryResult Snapshot() const { return Assemble(SummaryKind::kWeak); }

  uint64_t num_triples_seen() const { return triples_seen_; }

  /// Current number of summary data nodes (including the pending typed-only
  /// pool, which materializes as one Nτ node). Linear in the number of
  /// nodes and pooled type triples.
  uint64_t num_summary_nodes() const;

 private:
  friend SummaryResult IncrementalTypedWeakSummarize(
      const Graph& g, const IncrementalWeakOptions& options);

  using NodeId = uint32_t;
  static constexpr NodeId kNoNode = 0xFFFFFFFFu;
  enum Side { kSource = 0, kTarget = 1 };

  void Cover(TermId id);
  NodeId NewNode();
  void Represent(TermId r, NodeId d);
  NodeId Pin(TermId r, NodeId d);
  bool pinned(NodeId d) const { return d < num_pinned_; }
  NodeId Resolve(Side side, TermId r, TermId p);
  NodeId Merge(NodeId a, NodeId b);
  SummaryResult Assemble(SummaryKind kind) const;

  std::shared_ptr<Dictionary> dict_;
  Vocabulary vocab_;
  IncrementalWeakOptions options_;
  uint64_t triples_seen_ = 0;
  /// Typed-weak class-set nodes are ids [0, num_pinned_): they are created
  /// before the first triple is added, and W has none.
  NodeId num_pinned_ = 0;

  // Indexed by TermId; dictionary ids are dense and append-only, so these
  // grow (Cover) as new ids arrive.
  std::vector<NodeId> rd_;         // resource -> summary node
  std::vector<NodeId> dp_[2];      // property -> its source / target node
  std::vector<uint8_t> free_edge_;  // property -> has an unpinned-ends edge
  // Indexed by NodeId.
  std::vector<std::vector<TermId>> dr_;      // node -> resources
  std::vector<std::vector<TermId>> dps_[2];  // node -> properties it ends
  std::vector<NodeId> merged_into_;          // kNoNode while the node lives
  /// Summary edges (src, p, targ). An unpinned end is stored as kNoNode and
  /// stands for dp_[side][p], which merges keep current.
  util::RowSet edges_{3};
  /// Type triples as (node, class) when the resource had a node, else as
  /// (resource, class): Algorithm 3's typed-only pool, whose resources
  /// leave it when a data triple gives them a node. Merges move neither.
  util::RowSet node_classes_{2};
  util::RowSet pool_{2};
  std::vector<Triple> schema_;
  std::unordered_set<Triple, TripleHash> schema_seen_;
};

}  // namespace rdfsum::summary

#endif  // RDFSUM_SUMMARY_MAINTENANCE_H_
