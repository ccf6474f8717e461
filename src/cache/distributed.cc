#include "src/cache/distributed.h"

namespace vizq::cache {

DistributedCacheTier::DistributedCacheTier()
    : DistributedCacheTier(Options()) {}

std::optional<std::string> DistributedCacheTier::Get(const std::string& key) {
  const Clock::time_point now = Clock::now();
  gets_.fetch_add(1, std::memory_order_relaxed);
  std::string value;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = store_.find(key);
    if (it != store_.end() && it->second.visible_at <= now) {
      value = it->second.value;
      found = true;
    }
  }
  if (found) hits_.fetch_add(1, std::memory_order_relaxed);
  net_.Charge(found ? static_cast<int64_t>(value.size()) : 0);
  if (!found) return std::nullopt;
  return value;
}

void DistributedCacheTier::Put(const std::string& key, std::string value) {
  puts_.fetch_add(1, std::memory_order_relaxed);
  const double cost_ms = net_.Account(static_cast<int64_t>(value.size()));
  Clock::time_point visible_at = Clock::now();
  if (net_.options().simulate_latency) {
    visible_at += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(cost_ms));
  }
  const int64_t bytes = EntryBytes(key, value);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = store_.find(key);
  if (it != store_.end()) EraseLocked(it);
  if (bytes > options_.max_bytes) return;
  const uint64_t seq = next_seq_++;
  auto placed =
      store_.emplace(key, Entry{std::move(value), visible_at, seq}).first;
  by_age_.emplace(seq, placed);
  total_bytes_ += bytes;
  // The new entry fits alone, so this stops before reaching it.
  while (total_bytes_ > options_.max_bytes) {
    EraseLocked(by_age_.begin()->second);
  }
}

void DistributedCacheTier::EraseLocked(Store::iterator it) {
  total_bytes_ -= EntryBytes(it->first, it->second.value);
  by_age_.erase(it->second.seq);
  store_.erase(it);
}

void DistributedCacheTier::Erase(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = store_.find(key);
  if (it != store_.end()) EraseLocked(it);
}

int64_t DistributedCacheTier::EraseNamespace(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t dropped = 0;
  auto it = store_.lower_bound(prefix);
  while (it != store_.end() && it->first.compare(0, prefix.size(), prefix) == 0) {
    EraseLocked(it++);
    ++dropped;
  }
  return dropped;
}

void DistributedCacheTier::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  store_.clear();
  by_age_.clear();
  total_bytes_ = 0;
}

int64_t DistributedCacheTier::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_;
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
