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

StatusOr<const summary::SummaryResult*> Snapshot::Summary(
    summary::SummaryKind kind) {
  MintSlot& s = slot(kind);
  std::call_once(s.once, [&] {
    Timer timer;
    s.graph.emplace(store_->ToGraph());
    auto r = summary::TrySummarize(*s.graph, kind);
    if (r.ok()) {
      s.result.emplace(std::move(r).value());
    } else {
      s.status = r.status();
      s.graph.reset();
    }
    s.seconds = timer.ElapsedSeconds();
    s.done.store(true, std::memory_order_release);
  });
  if (!s.status.ok()) return s.status;
  return &*s.result;
}

StatusOr<const summary::CardinalityEstimator*> Snapshot::Estimator() {
  std::call_once(estimator_once_, [&] {
    auto sum = Summary(summary::SummaryKind::kWeak);
    if (!sum.ok()) {
      estimator_status_ = sum.status();
      return;
    }
    // The estimator compiles patterns against its summary's dictionary at
    // estimate time; that dictionary is the kWeak slot's private one, which
    // no thread mutates after the mint completes — concurrent Estimate()
    // calls are pure reads.
    estimator_.emplace(*slot(summary::SummaryKind::kWeak).graph, **sum);
  });
  if (!estimator_status_.ok()) return estimator_status_;
  return &*estimator_;
}

std::vector<Snapshot::MintReport> Snapshot::MintReports() const {
  std::vector<MintReport> out;
  for (size_t i = 0; i < 6; ++i) {
    const MintSlot& s = mints_[i];
    if (!s.done.load(std::memory_order_acquire)) continue;
    out.push_back({summary::SummaryKindName(static_cast<summary::SummaryKind>(i)),
                   s.status.ok(), s.seconds});
  }
  return out;
}

}  // namespace rdfsum::server
