#include "src/cache/distributed.h"

namespace vizq::cache {

DistributedCacheTier::DistributedCacheTier()
    : DistributedCacheTier(Options()) {}

std::optional<std::string> DistributedCacheTier::Get(const std::string& key) {
  std::string value;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++gets_;
    auto it = store_.find(key);
    if (it != store_.end()) {
      value = it->second;
      found = true;
      ++hits_;
    }
  }
  net_.Charge(found ? static_cast<int64_t>(value.size()) : 0);
  if (!found) return std::nullopt;
  return value;
}

void DistributedCacheTier::Put(const std::string& key, std::string value) {
  int64_t payload = static_cast<int64_t>(value.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++puts_;
    auto it = store_.find(key);
    if (it != store_.end()) {
      total_bytes_ -= static_cast<int64_t>(it->second.size());
      it->second = std::move(value);
      total_bytes_ += payload;
    } else {
      store_.emplace(key, std::move(value));
      total_bytes_ += payload;
    }
    // Crude capacity control: drop arbitrary entries when over budget
    // (Redis-style maxmemory eviction).
    while (total_bytes_ > options_.max_bytes && !store_.empty()) {
      auto victim = store_.begin();
      total_bytes_ -= static_cast<int64_t>(victim->second.size());
      store_.erase(victim);
    }
  }
  net_.Charge(payload);
}

void DistributedCacheTier::Erase(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = store_.find(key);
  if (it != store_.end()) {
    total_bytes_ -= static_cast<int64_t>(it->second.size());
    store_.erase(it);
  }
}

int64_t DistributedCacheTier::EraseNamespace(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t dropped = 0;
  // std::map is ordered, so the namespace is one contiguous key range.
  auto it = store_.lower_bound(prefix);
  while (it != store_.end() && it->first.compare(0, prefix.size(), prefix) == 0) {
    total_bytes_ -= static_cast<int64_t>(it->second.size());
    it = store_.erase(it);
    ++dropped;
  }
  return dropped;
}

void DistributedCacheTier::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  store_.clear();
  total_bytes_ = 0;
}

std::string SharedKey(const query::AbstractQuery& q) {
  return SharedKeyPrefix(q.view) + q.ToKeyString();
}

std::string SharedKeyPrefix(const std::string& view) {
  return view + '\x1f';
}

std::optional<ResultTable> NodeCacheLayer::Lookup(
    const query::AbstractQuery& q) {
  auto local_hit = local_.Lookup(q);
  if (local_hit.has_value()) return local_hit;
  if (shared_ == nullptr) return std::nullopt;
  auto remote = shared_->Get(SharedKey(q));
  if (!remote.has_value()) return std::nullopt;
  auto table = ResultTable::Deserialize(*remote);
  if (!table.ok()) return std::nullopt;
  *table = InRequestOrder(*std::move(table), q);  // the key sorts columns
  ++shared_hits_;
  // Warm the local tier; the remote entry is known-expensive enough to
  // have been cached once already.
  local_.Put(q, *table, /*eval_cost_ms=*/1.0);
  return *std::move(table);
}

void NodeCacheLayer::Put(const query::AbstractQuery& q, ResultTable result,
                         double eval_cost_ms) {
  if (shared_ != nullptr) {
    shared_->Put(SharedKey(q), result.Serialize());
  }
  local_.Put(q, std::move(result), eval_cost_ms);
}

}  // namespace vizq::cache
