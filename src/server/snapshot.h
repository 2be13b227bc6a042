#ifndef RDFSUM_SERVER_SNAPSHOT_H_
#define RDFSUM_SERVER_SNAPSHOT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "query/evaluator.h"
#include "store/mmap_store.h"
#include "summary/cardinality.h"
#include "summary/summarizer.h"
#include "util/statusor.h"

namespace rdfsum::server {

/// One immutable epoch of the serving daemon: a validated mmap'd `.rsb`
/// image, a zero-copy BgpEvaluator over it, and the cardinality estimator
/// that owns the weak summary Open() minted.
/// Snapshots are published behind shared_ptr (server/server.h): every
/// in-flight request holds a reference, so an epoch swap never invalidates
/// a running query — the old snapshot drains and frees when its last
/// reference drops (the drain invariant, src/server/README.md).
///
/// Thread safety. Every member is read-only once Open() returns: the
/// evaluator plans and opens cursors from const state, the view-mode
/// Dictionary's decode cache is internally locked, and the summary and
/// estimator are finished before any other thread can see the snapshot.
/// The mint ran over MmapStore::View(), whose private view dictionary reads
/// the same mapped (read-only) image bytes as the serving one but has its
/// own overlay and decode cache, so it never wrote memory a reader probes.
class Snapshot {
 public:
  /// Opens and validates `path` (store::MmapStore's corruption wall runs in
  /// full), then mints the weak summary and its estimator from the image's
  /// stored components. A failed mint does not fail the open: the snapshot
  /// serves, and WeakSummary()/Estimator() return the mint's status.
  /// `epoch` is the server-assigned generation number.
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

  /// The weak summary of this snapshot's graph. Term ids of the image mean
  /// the same in the result as in the serving dictionary, but minted
  /// summary nodes live in a private overlay above them — use the result
  /// for pruning verdicts and estimation, not for decoding its node ids
  /// through dict().
  StatusOr<const summary::SummaryResult*> WeakSummary() const;

  /// Stefanoni-style cardinality estimator over the weak summary, for
  /// kSummary planning. It owns the summary WeakSummary() returns.
  StatusOr<const summary::CardinalityEstimator*> Estimator() const;

  /// The STATS line of the mint Open() ran: kind name, wall seconds (view +
  /// summarize), and whether it succeeded.
  struct MintReport {
    const char* kind;
    bool ok;
    double seconds;
  };
  std::vector<MintReport> MintReports() const;

 private:
  Snapshot() = default;

  std::string path_;
  uint64_t epoch_ = 0;
  uint64_t num_triples_ = 0;
  std::unique_ptr<store::MmapStore> store_;
  std::optional<query::BgpEvaluator> evaluator_;
  /// Owns the weak summary. It shares the view dictionary of the mint,
  /// which borrows store_'s bytes; declared after store_, so it is
  /// destroyed first.
  std::optional<summary::CardinalityEstimator> estimator_;
  Status mint_status_;
  double mint_seconds_ = 0.0;
};

}  // namespace rdfsum::server

#endif  // RDFSUM_SERVER_SNAPSHOT_H_
