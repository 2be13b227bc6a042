// Streaming summarization — the incremental side of the paper's future work:
// an RDF feed arrives triple by triple (here: a BSBM-like dataset replayed
// in arrival order) and the weak summary is maintained online; snapshots are
// taken periodically and compared against a from-scratch rebuild.
//
//   ./examples/streaming_summaries

#include <iostream>
#include <vector>

#include "gen/bsbm.h"
#include "summary/isomorphism.h"
#include "summary/maintenance.h"
#include "summary/summarizer.h"
#include "util/timer.h"

using namespace rdfsum;

int main() {
  gen::BsbmOptions opt;
  opt.num_products = 2000;
  Graph feed = gen::GenerateBsbm(opt);
  std::vector<Triple> triples;
  feed.ForEachTriple([&](const Triple& t) { triples.push_back(t); });
  std::cout << "replaying a feed of " << triples.size() << " triples\n\n";

  summary::WeakSummaryMaintainer maintainer(feed.dict_ptr());
  Graph seen(feed.dict_ptr());

  size_t checkpoint = triples.size() / 5;
  Timer total;
  for (size_t i = 0; i < triples.size(); ++i) {
    maintainer.AddTriple(triples[i]);
    seen.Add(triples[i]);
    if ((i + 1) % checkpoint == 0 || i + 1 == triples.size()) {
      summary::SummaryResult snapshot = maintainer.Snapshot();
      summary::SummaryResult rebuilt =
          summary::Summarize(seen, summary::SummaryKind::kWeak);
      bool same =
          summary::AreSummariesIsomorphic(snapshot.graph, rebuilt.graph);
      std::cout << "after " << (i + 1) << " triples: summary has "
                << snapshot.stats.num_data_nodes << " data nodes, "
                << snapshot.stats.num_all_edges << " edges; matches rebuild: "
                << (same ? "yes" : "NO (bug!)") << "\n";
    }
  }
  std::cout << "\nmaintained " << triples.size() << " insertions in "
            << total.ElapsedMillis() << " ms ("
            << total.ElapsedMicros() * 1000 /
                   static_cast<int64_t>(triples.size())
            << " ns/triple)\n";

  // For comparison: one-shot batch summarization of the final graph.
  Timer batch_timer;
  summary::SummaryResult batch =
      summary::Summarize(seen, summary::SummaryKind::kWeak);
  std::cout << "one-shot batch rebuild: " << batch_timer.ElapsedMillis()
            << " ms, " << batch.stats.num_data_nodes << " data nodes\n";
  return 0;
}
