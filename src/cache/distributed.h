// The distributed cache layer (§3.2): "Tableau Server does not persist the
// caches but it utilizes a distributed layer based on REDIS or Cassandra
// ... This allows sharing data across nodes in the cluster and keeping
// data warm regardless of which node handles particular requests. For
// efficiency, recent entries are also stored in memory on the nodes."
//
// DistributedCacheTier substitutes for Redis/Cassandra: a shared,
// thread-safe KV store whose operations pay a modeled network cost
// (rpc::NetworkCostModel — the same model the in-process RPC transport
// charges, so the two remote hops cannot drift apart). A Get waits for
// its reply, so its round trip is really slept. A Put is a pipelined
// write that awaits no reply: it returns at once, its cost is still
// charged to simulated_ms(), and the entry becomes visible to Get only
// once that cost has passed. The tier holds at most max_bytes (keys,
// values and a fixed per-entry overhead) and evicts the oldest-inserted
// entries first. NodeCacheLayer is one worker node's view: an in-memory
// IntelligentCache in front of the shared tier.
//
// Keys are namespaced per published source (SharedKey): a query's entry
// lives under "<view>\x1f<query key>", so a cluster rebalance can
// invalidate everything a moved source ever published with one
// EraseNamespace(SharedKeyPrefix(view)) — the no-stale-owner guarantee
// cluster_test checks.

#ifndef VIZQUERY_CACHE_DISTRIBUTED_H_
#define VIZQUERY_CACHE_DISTRIBUTED_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "src/cache/intelligent_cache.h"
#include "src/rpc/netmodel.h"

namespace vizq::cache {

class DistributedCacheTier {
 public:
  struct Options {
    // Latency/bandwidth knobs shared with the RPC layer (src/rpc/).
    rpc::NetworkCostOptions net;
    // Bound on the accounted bytes (EntryBytes summed over entries).
    int64_t max_bytes = 16LL << 20;
  };

  // Accounted per entry on top of its key and value bytes: the map node,
  // the insertion-order index node and the visibility stamp.
  static constexpr int64_t kEntryOverheadBytes = 96;
  static int64_t EntryBytes(const std::string& key, const std::string& value) {
    return static_cast<int64_t>(key.size() + value.size()) +
           kEntryOverheadBytes;
  }

  DistributedCacheTier();  // default Options
  explicit DistributedCacheTier(Options options)
      : options_(options), net_(options.net) {}

  // Waits for the modeled round trip. Misses on an entry whose Put has not
  // landed yet.
  std::optional<std::string> Get(const std::string& key);
  // Fire-and-forget: returns without sleeping. The entry is visible to Get
  // from now + CostMs(value bytes), or at once without simulate_latency.
  // Replaces any entry under `key`; evicts oldest-inserted entries while
  // the tier is over max_bytes (an entry larger than that is not kept).
  void Put(const std::string& key, std::string value);
  // Erase, EraseNamespace and Clear also drop entries not yet visible, so
  // an erased write never lands later.
  void Erase(const std::string& key);
  // Drops every entry whose key starts with `prefix` and returns how many
  // were dropped. Rebalance invalidation: erase a moved source's whole
  // namespace so no node can serve its pre-move entries.
  int64_t EraseNamespace(const std::string& prefix);
  void Clear();

  // Counters are atomics: benches read them while clients run.
  int64_t gets() const { return gets_.load(std::memory_order_relaxed); }
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t puts() const { return puts_.load(std::memory_order_relaxed); }
  // Accounted bytes held (never above max_bytes).
  int64_t bytes() const;
  // Total simulated network time spent against this tier.
  double simulated_ms() const { return net_.simulated_ms(); }

 private:
  using Clock = std::chrono::steady_clock;
  struct Entry {
    std::string value;
    Clock::time_point visible_at;
    uint64_t seq;  // insertion order: the eviction index key
  };
  using Store = std::map<std::string, Entry>;

  void EraseLocked(Store::iterator it);

  Options options_;
  rpc::NetworkCostModel net_;
  mutable std::mutex mu_;
  // Ordered by key, so a namespace is one contiguous key range.
  Store store_;
  // The same entries by insertion sequence, oldest first.
  std::map<uint64_t, Store::iterator> by_age_;
  uint64_t next_seq_ = 0;
  int64_t total_bytes_ = 0;
  std::atomic<int64_t> gets_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> puts_{0};
};

// The shared-tier key for one query's cached result: the owning view's
// namespace followed by the query's canonical key. \x1f (unit separator)
// cannot appear in a view name, so namespaces cannot collide by prefix.
std::string SharedKey(const query::AbstractQuery& q);
// Every key of `view` starts with this prefix (and no other view's does).
std::string SharedKeyPrefix(const std::string& view);

// One cluster node's cache stack: local in-memory intelligent cache backed
// by the shared tier. The shared tier stores exact-key entries (it is a
// plain KV store); subsumption matching happens against the local cache.
class NodeCacheLayer {
 public:
  NodeCacheLayer(std::string node_name,
                 std::shared_ptr<DistributedCacheTier> shared,
                 IntelligentCacheOptions local_options = {})
      : node_name_(std::move(node_name)),
        shared_(std::move(shared)),
        local_(local_options) {}

  // Local lookup (incl. subsumption), then shared-tier exact lookup. A
  // shared hit is pulled into the local cache ("recent entries are also
  // stored in memory on the nodes").
  std::optional<ResultTable> Lookup(const query::AbstractQuery& q);

  // Stores locally and publishes to the shared tier.
  void Put(const query::AbstractQuery& q, ResultTable result,
           double eval_cost_ms);

  IntelligentCache& local() { return local_; }
  int64_t shared_hits() const { return shared_hits_; }

 private:
  std::string node_name_;
  std::shared_ptr<DistributedCacheTier> shared_;
  IntelligentCache local_;
  int64_t shared_hits_ = 0;
};

}  // namespace vizq::cache

#endif  // VIZQUERY_CACHE_DISTRIBUTED_H_
