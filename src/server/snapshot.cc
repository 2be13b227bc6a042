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

  Timer timer;
  const GraphView view = snap->store_->View();
  auto weak = summary::TrySummarize(view, summary::SummaryKind::kWeak);
  snap->mint_seconds_ = timer.ElapsedSeconds();
  if (weak.ok()) {
    snap->estimator_.emplace(std::move(weak).value());
  } else {
    snap->mint_status_ = weak.status();
  }
  return snap;
}

StatusOr<const summary::SummaryResult*> Snapshot::WeakSummary() const {
  if (!mint_status_.ok()) return mint_status_;
  return &estimator_->summary();
}

StatusOr<const summary::CardinalityEstimator*> Snapshot::Estimator() const {
  if (!mint_status_.ok()) return mint_status_;
  return &*estimator_;
}

std::vector<Snapshot::MintReport> Snapshot::MintReports() const {
  return {{summary::SummaryKindName(summary::SummaryKind::kWeak),
           mint_status_.ok(), mint_seconds_}};
}

}  // namespace rdfsum::server
