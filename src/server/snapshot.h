#ifndef RDFSUM_SERVER_SNAPSHOT_H_
#define RDFSUM_SERVER_SNAPSHOT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "query/evaluator.h"
#include "rdf/graph.h"
#include "store/mmap_store.h"
#include "summary/cardinality.h"
#include "summary/summarizer.h"
#include "util/statusor.h"

namespace rdfsum::server {

/// One immutable epoch of the serving daemon: a validated mmap'd `.rsb`
/// image, a zero-copy BgpEvaluator over it, and a lazily-minted weak
/// summary with the cardinality estimator over it.
/// Snapshots are published behind shared_ptr (server/server.h): every
/// in-flight request holds a reference, so an epoch swap never invalidates
/// a running query — the old snapshot drains and frees when its last
/// reference drops (the drain invariant, src/server/README.md).
///
/// Thread safety. All query-path members are read-only after Open():
/// the evaluator plans and opens cursors from const state, and the
/// view-mode Dictionary's decode cache is internally locked. The summary
/// mint is the one lazy mutation, and it is isolated by construction: it
/// mints into a *private* graph whose *private* view dictionary reads the
/// same mapped (read-only) image bytes as the serving one but has its own
/// overlay and decode cache, so minting never writes memory a concurrent
/// reader probes. One std::once_flag makes the mint (weak summary plus
/// estimator) happen exactly once; concurrent first requests wait for it.
class Snapshot {
 public:
  /// Opens and validates `path` (store::MmapStore's corruption wall runs in
  /// full). `epoch` is the server-assigned generation number.
  static StatusOr<std::shared_ptr<Snapshot>> Open(const std::string& path,
                                                  uint64_t epoch);

  const std::string& path() const { return path_; }
  uint64_t epoch() const { return epoch_; }
  uint64_t num_triples() const { return num_triples_; }

  /// The zero-copy evaluator over the image: planning reads the frozen
  /// TableStats, cursors scan the mmap'd permutations.
  const query::BgpEvaluator& evaluator() const { return *evaluator_; }
  const Dictionary& dict() const { return store_->dict(); }
  const store::TripleTable& table() const { return store_->table(); }

  /// The weak summary of this snapshot's graph, minted on first request
  /// (per the once_flag contract above) and memoized for the snapshot's
  /// lifetime. Term ids of the image mean the same in the result as in the
  /// serving dictionary, but minted summary nodes live in a private overlay
  /// above them — use the result for pruning verdicts and estimation, not
  /// for decoding its node ids through dict().
  StatusOr<const summary::SummaryResult*> WeakSummary();

  /// Stefanoni-style cardinality estimator over the weak summary, for
  /// kSummary planning; built with the weak summary on first request.
  StatusOr<const summary::CardinalityEstimator*> Estimator();

  /// One STATS line once the mint attempt has completed (none before):
  /// kind name, wall seconds (private graph build + summarize), and whether
  /// it succeeded.
  struct MintReport {
    const char* kind;
    bool ok;
    double seconds;
  };
  std::vector<MintReport> MintReports() const;

 private:
  Snapshot() = default;

  /// Mints the weak summary and the estimator, exactly once.
  void Mint();

  std::string path_;
  uint64_t epoch_ = 0;
  uint64_t num_triples_ = 0;
  std::unique_ptr<store::MmapStore> store_;
  std::optional<query::BgpEvaluator> evaluator_;

  std::once_flag mint_once_;
  /// Private copy of the snapshot's triples over a private view dictionary
  /// (MmapStore::ToGraph); no other thread touches it, so summarization
  /// can mint freely.
  std::optional<Graph> graph_;
  std::optional<summary::SummaryResult> weak_;
  std::optional<summary::CardinalityEstimator> estimator_;
  Status mint_status_;
  double mint_seconds_ = 0.0;
  /// Release-published after the mint attempt finishes; MintReports
  /// acquires it before touching mint_status_/mint_seconds_.
  std::atomic<bool> mint_done_{false};
};

}  // namespace rdfsum::server

#endif  // RDFSUM_SERVER_SNAPSHOT_H_
