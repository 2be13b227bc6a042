#include "summary/report.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "io/dot_writer.h"

namespace rdfsum::summary {
namespace {

struct NodeFacts {
  std::vector<std::string> sources;
  std::vector<std::string> targets;
  std::vector<std::string> types;
};

std::string Local(const Graph& g, TermId id) {
  const Term& t = g.dict().Decode(id);
  if (t.is_iri()) return io::IriLocalName(t.lexical);
  return t.ToNTriples();
}

/// Collects, per minted node of the summary graph, the adjacent property
/// and class names.
std::unordered_map<TermId, NodeFacts> CollectFacts(const Graph& h) {
  std::unordered_map<TermId, NodeFacts> facts;
  auto touch = [&](TermId n) -> NodeFacts& { return facts[n]; };
  for (const Triple& t : h.data()) {
    touch(t.s).sources.push_back(Local(h, t.p));
    touch(t.o).targets.push_back(Local(h, t.p));
  }
  for (const Triple& t : h.types()) {
    touch(t.s).types.push_back(Local(h, t.o));
  }
  for (auto& [node, f] : facts) {
    auto dedup = [](std::vector<std::string>& v) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    };
    dedup(f.sources);
    dedup(f.targets);
    dedup(f.types);
  }
  return facts;
}

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ",";
    out += parts[i];
  }
  return out;
}

std::string LabelFromFacts(const NodeFacts& f) {
  if (f.sources.empty() && f.targets.empty()) {
    if (!f.types.empty()) return "C({" + Join(f.types) + "})";
    return "Nτ";
  }
  // N^{target properties}_{source properties}; omit an empty side.
  std::string out = "N";
  if (!f.targets.empty()) out += "^{" + Join(f.targets) + "}";
  if (!f.sources.empty()) out += "_{" + Join(f.sources) + "}";
  return out;
}

}  // namespace

std::string PaperStyleLabel(const Graph& summary_graph, TermId node) {
  auto facts = CollectFacts(summary_graph);
  auto it = facts.find(node);
  if (it == facts.end()) return "Nτ";
  return LabelFromFacts(it->second);
}

SummaryReport DescribeSummary(const SummaryResult& summary) {
  const Graph& h = summary.graph;
  SummaryReport report;
  report.kind = summary.kind;
  report.stats = summary.stats;

  auto facts = CollectFacts(h);

  // Member counts and the three smallest member ids, from node_map.
  struct Members {
    uint64_t count = 0;
    std::vector<TermId> smallest;  // ascending, at most kSamples
  };
  constexpr size_t kSamples = 3;
  std::unordered_map<TermId, Members> members;
  for (const auto& [g_node, h_node] : summary.node_map) {
    Members& m = members[h_node];
    ++m.count;
    std::vector<TermId>& s = m.smallest;
    if (s.size() < kSamples || g_node < s.back()) {
      s.insert(std::upper_bound(s.begin(), s.end(), g_node), g_node);
      if (s.size() > kSamples) s.pop_back();
    }
  }

  for (const auto& [node, f] : facts) {
    if (!h.dict().IsMinted(node)) continue;  // skip class/schema nodes
    NodeReport nr;
    nr.node = node;
    nr.label = LabelFromFacts(f);
    nr.source_properties = f.sources;
    nr.target_properties = f.targets;
    nr.types = f.types;
    auto mit = members.find(node);
    if (mit != members.end()) {
      nr.member_count = mit->second.count;
      for (TermId m : mit->second.smallest) {
        nr.sample_members.push_back(h.dict().Decode(m).ToNTriples());
      }
    }
    report.nodes.push_back(std::move(nr));
  }
  std::sort(report.nodes.begin(), report.nodes.end(),
            [](const NodeReport& a, const NodeReport& b) {
              if (a.member_count != b.member_count) {
                return a.member_count > b.member_count;
              }
              return a.label < b.label;
            });
  return report;
}

std::string SummaryReport::ToString() const {
  std::ostringstream os;
  os << SummaryKindName(kind) << " summary: " << nodes.size()
     << " data nodes\n";
  if (stats.build_seconds > 0.0) {
    os << "  built in " << stats.build_seconds << "s (partition="
       << stats.partition_seconds << "s, quotient=" << stats.quotient_seconds
       << "s)\n";
  }
  for (const NodeReport& n : nodes) {
    os << "  " << n.label << "  represents " << n.member_count
       << " resource(s)";
    if (!n.types.empty()) os << "  types={" << Join(n.types) << "}";
    if (!n.sample_members.empty()) {
      os << "  e.g. " << n.sample_members.front();
    }
    os << "\n";
  }
  return os.str();
}

void WriteSummaryDot(const SummaryResult& summary, std::ostream& os) {
  const Graph& h = summary.graph;
  auto facts = CollectFacts(h);
  auto escape = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  };

  os << "digraph \"" << SummaryKindName(summary.kind) << "_summary\" {\n"
     << "  rankdir=LR;\n  node [shape=ellipse, fontsize=10];\n";
  std::unordered_set<TermId> class_nodes;
  for (const Triple& t : h.types()) class_nodes.insert(t.o);
  for (TermId c : class_nodes) {
    os << "  n" << c << " [label=\"" << escape(Local(h, c))
       << "\", shape=box, color=purple, fontcolor=purple];\n";
  }
  std::unordered_set<TermId> emitted;
  auto emit = [&](TermId n) {
    if (class_nodes.count(n) || !emitted.insert(n).second) return;
    auto it = facts.find(n);
    std::string label =
        it == facts.end() ? Local(h, n) : LabelFromFacts(it->second);
    os << "  n" << n << " [label=\"" << escape(label) << "\"];\n";
  };
  for (const Triple& t : h.data()) {
    emit(t.s);
    emit(t.o);
    os << "  n" << t.s << " -> n" << t.o << " [label=\""
       << escape(Local(h, t.p)) << "\"];\n";
  }
  for (const Triple& t : h.types()) {
    emit(t.s);
    os << "  n" << t.s << " -> n" << t.o
       << " [label=\"type\", style=dashed, color=purple];\n";
  }
  for (const Triple& t : h.schema()) {
    emit(t.s);
    emit(t.o);
    os << "  n" << t.s << " -> n" << t.o << " [label=\""
       << escape(Local(h, t.p)) << "\", style=dotted];\n";
  }
  os << "}\n";
}

Status WriteSummaryDotFile(const SummaryResult& summary,
                           const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  WriteSummaryDot(summary, out);
  out.flush();
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

}  // namespace rdfsum::summary
