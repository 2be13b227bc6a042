#include "server/snapshot.h"

#include <utility>

#include "util/timer.h"

namespace rdfsum::server {

StatusOr<std::shared_ptr<Snapshot>> Snapshot::Open(const std::string& path,
                                                   uint64_t epoch) {
  auto store = store::MmapStore::Open(path);
  if (!store.ok()) return store.status();
  std::shared_ptr<Snapshot> snap(new Snapshot());
  snap->path_ = path;
  snap->epoch_ = epoch;
  snap->store_ = std::move(store).value();
  snap->num_triples_ = snap->store_->table().size();
  snap->evaluator_.emplace(snap->store_->dict(), snap->store_->table());
  return snap;
}

void Snapshot::Mint() {
  std::call_once(mint_once_, [&] {
    Timer timer;
    graph_.emplace(store_->ToGraph());
    auto r = summary::TrySummarize(*graph_, summary::SummaryKind::kWeak);
    mint_seconds_ = timer.ElapsedSeconds();
    if (r.ok()) {
      weak_.emplace(std::move(r).value());
      // The estimator compiles patterns against the summary's dictionary
      // at estimate time; that dictionary is graph_'s private one, which no
      // thread mutates after the mint completes — concurrent Estimate()
      // calls are pure reads.
      estimator_.emplace(*graph_, *weak_);
    } else {
      mint_status_ = r.status();
      graph_.reset();
    }
    mint_done_.store(true, std::memory_order_release);
  });
}

StatusOr<const summary::SummaryResult*> Snapshot::WeakSummary() {
  Mint();
  if (!mint_status_.ok()) return mint_status_;
  return &*weak_;
}

StatusOr<const summary::CardinalityEstimator*> Snapshot::Estimator() {
  Mint();
  if (!mint_status_.ok()) return mint_status_;
  return &*estimator_;
}

std::vector<Snapshot::MintReport> Snapshot::MintReports() const {
  if (!mint_done_.load(std::memory_order_acquire)) return {};
  return {{summary::SummaryKindName(summary::SummaryKind::kWeak),
           mint_status_.ok(), mint_seconds_}};
}

}  // namespace rdfsum::server
