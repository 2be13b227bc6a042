// Reconstructs the paper's running examples end to end:
//   - the Figure 2 sample graph and its Table 1 property cliques,
//   - the four summaries of Figures 4 / 6 / 7 / 9,
//   - the §2.1 book example: saturation and the hasAuthor query that is
//     empty without reasoning and non-empty with it.
//
//   ./examples/paper_example

#include <iostream>

#include "gen/paper_example.h"
#include "io/dot_writer.h"
#include "query/evaluator.h"
#include "query/sparql_parser.h"
#include "reasoner/saturation.h"
#include "summary/cliques.h"
#include "summary/summarizer.h"

using namespace rdfsum;

namespace {

void PrintCliqueTable(const gen::Figure2Example& ex) {
  summary::PropertyCliques cliques =
      summary::ComputePropertyCliques(DenseGraph(ex.graph));
  auto render = [&](const std::vector<std::vector<TermId>>& members,
                    uint32_t id) {
    if (id == 0) return std::string("{}");
    std::string out = "{";
    for (TermId p : members[id - 1]) {
      if (out.size() > 1) out += ",";
      out += io::IriLocalName(ex.graph.dict().Decode(p).lexical);
    }
    return out + "}";
  };
  struct Row {
    const char* name;
    TermId id;
  };
  std::cout << "Table 1 — source/target cliques:\n";
  for (Row row : std::initializer_list<Row>{{"r1", ex.r1},
                                            {"r2", ex.r2},
                                            {"r3", ex.r3},
                                            {"r4", ex.r4},
                                            {"r5", ex.r5},
                                            {"a1", ex.a1},
                                            {"a2", ex.a2},
                                            {"t1", ex.t1},
                                            {"e1", ex.e1},
                                            {"c1", ex.c1},
                                            {"r6", ex.r6}}) {
    std::cout << "  " << row.name << ": SC="
              << render(cliques.source_clique_members,
                        cliques.SourceCliqueOf(row.id))
              << " TC="
              << render(cliques.target_clique_members,
                        cliques.TargetCliqueOf(row.id))
              << "\n";
  }
}

void PrintSummary(const char* figure, const Graph& g,
                  summary::SummaryKind kind) {
  summary::SummaryResult r = summary::Summarize(g, kind);
  std::cout << "\n" << figure << " — " << summary::SummaryKindName(kind)
            << " summary: " << r.stats.num_data_nodes << " data nodes, "
            << r.graph.data().size() << " data edges, "
            << r.graph.types().size() << " type edges\n";
  io::DotOptions dot;
  dot.graph_name = figure;
  std::cout << io::DotWriter::ToString(r.graph, dot);
}

}  // namespace

int main() {
  gen::Figure2Example ex = gen::BuildFigure2();
  std::cout << "Figure 2 sample graph: " << ex.graph.NumTriples()
            << " triples\n\n";
  PrintCliqueTable(ex);

  PrintSummary("Figure 4", ex.graph, summary::SummaryKind::kWeak);
  PrintSummary("Figure 6", ex.graph, summary::SummaryKind::kTypeBased);
  PrintSummary("Figure 7", ex.graph, summary::SummaryKind::kTypedWeak);
  PrintSummary("Figure 9", ex.graph, summary::SummaryKind::kStrong);

  // --- §2.1: implicit triples and query answering.
  gen::BookExample book = gen::BuildBookExample();
  Graph saturated = reasoner::Saturate(book.graph);
  std::cout << "\nBook example: " << book.graph.NumTriples()
            << " explicit triples, " << saturated.NumTriples()
            << " after saturation\n";

  auto q = query::ParseSparql(
      "PREFIX b: <http://example.org/book/>\n"
      "SELECT ?name WHERE { ?x b:hasAuthor ?a . ?a b:hasName ?name . "
      "?x b:hasTitle \"Le Port des Brumes\" }");
  if (!q.ok()) {
    std::cerr << "query parse error: " << q.status().ToString() << "\n";
    return 1;
  }
  query::BgpEvaluator explicit_only(book.graph);
  query::BgpEvaluator with_reasoning(saturated);
  std::cout << "q(G):  " << (explicit_only.ExistsMatch(*q) ? "non-empty"
                                                           : "empty (!)")
            << "  — the complete answer needs implicit triples\n";
  auto cursor = with_reasoning.Open(*q);
  if (!cursor.ok()) {
    std::cerr << "query error: " << cursor.status().ToString() << "\n";
    return 1;
  }
  std::cout << "q(G∞): ";
  query::IdRow row;
  while ((*cursor)->Next(&row)) {
    std::cout << with_reasoning.Decode(row)[0].ToNTriples();
  }
  std::cout << "\n";
  return (*cursor)->status().ok() ? 0 : 1;
}
