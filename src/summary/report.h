#ifndef RDFSUM_SUMMARY_REPORT_H_
#define RDFSUM_SUMMARY_REPORT_H_

#include <ostream>
#include <string>
#include <vector>

#include "rdf/graph.h"
#include "summary/summary.h"
#include "util/status.h"

namespace rdfsum::summary {

/// A human-readable description of one summary node, in the paper's
/// notation: data nodes become N^{target properties}_{source properties}
/// (Nτ when both sides are empty), typed groups become C({classes}).
struct NodeReport {
  TermId node = kInvalidTermId;
  std::string label;
  uint64_t member_count = 0;
  std::vector<std::string> source_properties;  // local names, sorted
  std::vector<std::string> target_properties;
  std::vector<std::string> types;
  /// The decoded members with the smallest term ids (at most 3, ascending).
  std::vector<std::string> sample_members;
};

/// Full per-node description of a summary, the textual counterpart of the
/// drawings on the paper's companion website.
struct SummaryReport {
  SummaryKind kind = SummaryKind::kWeak;
  std::vector<NodeReport> nodes;  // sorted by member_count, descending
  /// Size and per-phase wall-time accounting copied from the summary
  /// (partition_seconds / quotient_seconds show where a threaded build
  /// spent its time).
  SummaryStats stats;

  std::string ToString() const;
};

/// Builds the report. Member counts and samples come from node_map, so the
/// report depends only on the summary.
SummaryReport DescribeSummary(const SummaryResult& summary);

/// The paper-style label of a single summary node, e.g. "N^{author}_{reviewed}",
/// "C({Book})" or "Nτ".
std::string PaperStyleLabel(const Graph& summary_graph, TermId node);

/// Writes the summary as Graphviz DOT using paper-style node labels, so that
/// e.g. the weak summary of the paper's Figure 2 renders like its Figure 4.
void WriteSummaryDot(const SummaryResult& summary, std::ostream& os);
Status WriteSummaryDotFile(const SummaryResult& summary,
                           const std::string& path);

}  // namespace rdfsum::summary

#endif  // RDFSUM_SUMMARY_REPORT_H_
