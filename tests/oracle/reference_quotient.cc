#include "oracle/reference_quotient.h"

#include <string>
#include <vector>

#include "oracle/reference_partition.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace rdfsum::summary {

StatusOr<SummaryResult> ReferenceQuotient(const Graph& g,
                                          const ReferencePartition& part,
                                          SummaryKind kind,
                                          const SummaryOptions& options) {
  Timer timer;
  util::ExecContext* exec = options.exec;
  if (exec != nullptr) RDFSUM_RETURN_IF_ERROR(exec->Check());
  SummaryResult out;
  out.kind = kind;
  out.graph = Graph(g.dict_ptr());

  // One minted node per equivalence class, in class-id order.
  std::string tag = AsciiToLower(SummaryKindName(kind));
  std::vector<TermId> class_node(part.num_classes, kInvalidTermId);
  Dictionary& dict = out.graph.dict();
  for (uint32_t c = 0; c < part.num_classes; ++c) {
    class_node[c] = dict.MintNodeUri("node:" + tag);
  }

  // Sequential walk, polling governance every kCheckInterval triples and
  // resolving class ids with find() so a non-covering partition is a
  // returned error, not a crash.
  TermId mapped[2];
  uint64_t since_check = 0;
  auto map_node = [&](TermId n, TermId* slot) {
    auto it = part.class_of.find(n);
    if (it == part.class_of.end()) return false;
    *slot = class_node[it->second];
    return true;
  };
  auto poll = [&]() -> Status {
    if (exec != nullptr &&
        (++since_check & (util::ExecContext::kCheckInterval - 1)) == 0) {
      return exec->Check();
    }
    return Status::OK();
  };
  for (const Triple& t : g.data()) {
    RDFSUM_RETURN_IF_ERROR(poll());
    if (!map_node(t.s, &mapped[0]) || !map_node(t.o, &mapped[1])) {
      return Status::InvalidArgument(
          "partition does not cover every graph node");
    }
    out.graph.Add(Triple{mapped[0], t.p, mapped[1]});
  }
  const TermId rdf_type = g.vocab().rdf_type;
  for (const Triple& t : g.types()) {
    RDFSUM_RETURN_IF_ERROR(poll());
    if (!map_node(t.s, &mapped[0])) {
      return Status::InvalidArgument(
          "partition does not cover every graph node");
    }
    out.graph.Add(Triple{mapped[0], rdf_type, t.o});
  }
  for (const Triple& t : g.schema()) out.graph.Add(t);

  out.node_map.reserve(part.class_of.size());
  for (const auto& [n, c] : part.class_of) {
    out.node_map.emplace(n, class_node[c]);
  }

  // Edge counts: how many triples of G each data and type summary edge
  // stands for; schema edges get no entry.
  auto summary_node = [&](TermId n) {
    auto it = out.node_map.find(n);
    return it == out.node_map.end() ? n : it->second;
  };
  out.multiplicity.reserve(g.data().size() + g.types().size());
  for (const Triple& t : g.data()) {
    ++out.multiplicity[Triple{summary_node(t.s), t.p, summary_node(t.o)}];
  }
  for (const Triple& t : g.types()) {
    ++out.multiplicity[Triple{summary_node(t.s), rdf_type, t.o}];
  }
  out.stats = ComputeSummaryStats(out.graph, timer.ElapsedSeconds());
  out.stats.quotient_seconds = out.stats.build_seconds;
  return out;
}

StatusOr<SummaryResult> ReferenceSummarize(const Graph& g, SummaryKind kind,
                                           const SummaryOptions& options) {
  ReferencePartition part;
  switch (kind) {
    case SummaryKind::kWeak:
      part = ReferenceWeakPartition(g);
      break;
    case SummaryKind::kStrong:
      part = ReferenceStrongPartition(g);
      break;
    case SummaryKind::kTypedWeak:
      part = ReferenceTypedWeakPartition(g, options.typed_mode);
      break;
    case SummaryKind::kTypedStrong:
      part = ReferenceTypedStrongPartition(g, options.typed_mode);
      break;
    case SummaryKind::kTypeBased:
      part = ReferenceTypePartition(g);
      break;
    case SummaryKind::kBisimulation:
      part = ReferenceBisimulationPartition(g, options.bisimulation_depth,
                                            /*use_types=*/true);
      break;
  }
  return ReferenceQuotient(g, part, kind, options);
}

}  // namespace rdfsum::summary
