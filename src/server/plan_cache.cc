#include "server/plan_cache.h"

namespace rdfsum::server {

std::string PlanCache::Key(const std::string& shape, query::PlannerMode mode,
                           uint64_t epoch) {
  std::string key = shape;
  key.push_back('|');
  key.append(query::PlannerModeName(mode));
  key.push_back('|');
  key.append(std::to_string(epoch));
  return key;
}

bool PlanCache::Lookup(const std::string& key, query::PlanSkeleton* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->second;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void PlanCache::Insert(const std::string& key, query::PlanSkeleton skeleton) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(skeleton);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(skeleton));
  index_[key] = lru_.begin();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace rdfsum::server
