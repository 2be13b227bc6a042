// Quickstart: build a small RDF graph programmatically, summarize it with
// all four summary kinds, and inspect the results.
//
//   ./examples/quickstart
//
// This walks through the core public API: Graph, Summarize, SummaryResult.

#include <iostream>

#include "io/dot_writer.h"
#include "io/ntriples_writer.h"
#include "rdf/graph.h"
#include "rdf/graph_stats.h"
#include "summary/summarizer.h"

using namespace rdfsum;

int main() {
  // 1. Build a graph: a tiny bibliography with books, authors and one
  // untyped resource.
  Graph g;
  Dictionary& d = g.dict();
  const Vocabulary& v = g.vocab();
  auto iri = [&](const std::string& local) {
    return d.EncodeIri("http://example.org/" + local);
  };

  TermId book_class = iri("Book");
  TermId author = iri("author"), title = iri("title"), knows = iri("knows");
  for (int i = 0; i < 3; ++i) {
    TermId book = iri("book" + std::to_string(i));
    TermId person = iri("person" + std::to_string(i));
    g.Add({book, v.rdf_type, book_class});
    g.Add({book, author, person});
    g.Add({book, title, d.EncodeLiteral("Title " + std::to_string(i))});
    g.Add({person, knows, iri("person" + std::to_string((i + 1) % 3))});
  }

  GraphStats stats = ComputeGraphStats(g);
  std::cout << "Input graph: " << stats.ToString() << "\n\n";

  // 2. Summarize with each kind and report the sizes.
  for (summary::SummaryKind kind : summary::kAllQuotientKinds) {
    summary::SummaryResult r = summary::Summarize(g, kind);
    std::cout << "Summary " << summary::SummaryKindName(kind) << ": "
              << r.stats.ToString() << "\n";
    // Every input data node maps to a summary node (the rd mapping).
    std::cout << "  books map to "
              << r.graph.dict()
                     .Decode(r.node_map.at(iri("book0")))
                     .ToNTriples()
              << "\n";
  }

  // 3. Summaries are RDF graphs: serialize one.
  summary::SummaryResult weak = summary::Summarize(g, summary::SummaryKind::kWeak);
  std::cout << "\nWeak summary as N-Triples:\n"
            << io::NTriplesWriter::ToString(weak.graph);
  std::cout << "\nGraphviz of the weak summary (pipe into `dot -Tpng`):\n"
            << io::DotWriter::ToString(weak.graph);
  return 0;
}
