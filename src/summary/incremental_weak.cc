#include "summary/incremental_weak.h"

#include <vector>

#include "rdf/dense_graph.h"
#include "summary/maintenance.h"
#include "util/timer.h"

// Both entry points run on WeakSummaryMaintainer, the one port of the §6.2
// algorithms: W feeds it the graph, TW first pins every typed resource to
// its class-set node.

namespace rdfsum::summary {

SummaryResult IncrementalWeakSummarize(const Graph& g,
                                       const IncrementalWeakOptions& options) {
  Timer timer;
  // Graph order is data, then type, then schema triples: Algorithm 1, then 3.
  SummaryResult out = WeakSummaryMaintainer(g, options).Snapshot();
  out.stats.build_seconds = timer.ElapsedSeconds();
  return out;
}

SummaryResult IncrementalTypedWeakSummarize(
    const Graph& g, const IncrementalWeakOptions& options) {
  Timer timer;
  using NodeId = WeakSummaryMaintainer::NodeId;
  const DenseGraph dg(g);
  WeakSummaryMaintainer core(g.dict_ptr(), options);
  // Types first: one pinned node per distinct class set (the clsd map); the
  // substrate already de-duplicated the sets.
  std::vector<NodeId> node_of_set(dg.num_class_sets(),
                                  WeakSummaryMaintainer::kNoNode);
  for (uint32_t i = 0; i < dg.num_nodes(); ++i) {
    const uint32_t set_id = dg.ClassSetId(i);
    if (set_id == DenseGraph::kNone) continue;
    node_of_set[set_id] = core.Pin(dg.term_of(i), node_of_set[set_id]);
  }
  g.ForEachTriple([&core](const Triple& t) { core.AddTriple(t); });
  SummaryResult out = core.Assemble(SummaryKind::kTypedWeak);
  out.stats.build_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace rdfsum::summary
