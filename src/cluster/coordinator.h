// ClusterCoordinator: scatter/gather execution across the sharded Data
// Server (DESIGN.md §15).
//
// The coordinator is the cluster-side BatchExecutor: the Frontend (and
// everything above it — admission, shed ladder, renderer) holds a
// BatchExecutor* and cannot tell whether batches run on the single-node
// QueryService or get scattered across N simulated DataServerNodes.
//
// Placement is consistent hashing with bounded loads over node ids
// (placement.h): each published view goes to the first node clockwise
// from its ring point that hosts fewer than ceil(views / live nodes)
// views. After Publish and after Rebalance ownership is one pure function
// of (members, seed, catalog); a failover moves only the dead node's
// views. ExecuteBatch
// groups the batch by view, scatters each group to its owner over the
// retrying channel (rpc/channel.h), and gathers positionally. Any group
// failure fails the whole batch with that group's *typed* error — a
// gather never returns silent partial results (the cluster fuzz lane's
// core invariant).
//
// Failure handling, two deliberately different paths:
//   * node DEATH (transport kAborted): the retry hook removes the node
//     from the ring and reassigns its sources to the surviving owners.
//     The shared cache tier is NOT invalidated — keeping a dead node's
//     published results warm for its successors is the point of the
//     §3.2 distributed layer, and the entries are still correct.
//   * administrative REBALANCE (Rebalance()/ReviveNode()): ownership
//     moves are accompanied by EraseNamespace(SharedKeyPrefix(view)) on
//     the moved views, the old owner stops serving them, and the new
//     owner starts fresh — the "rebalance leaves no stale owner
//     serving" property cluster_test checks.

#ifndef VIZQUERY_CLUSTER_COORDINATOR_H_
#define VIZQUERY_CLUSTER_COORDINATOR_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/cluster/node.h"
#include "src/cluster/placement.h"
#include "src/rpc/channel.h"

namespace vizq::cluster {

struct ClusterOptions {
  int num_nodes = 4;
  PlacementOptions placement;
  rpc::TransportOptions transport;
  rpc::RetryOptions retry;
  // Template for every node ("n0".."n{N-1}"); id and shared_tier are
  // filled in by the coordinator.
  NodeOptions node;
  cache::DistributedCacheTier::Options shared_tier;
  // On a transport kAborted, remove the node from the ring and reassign
  // its sources before the retry (false = retries just keep failing,
  // which is what the "bounded recovery" bench measures against).
  bool auto_rebalance_on_failure = true;
};

class ClusterCoordinator : public dashboard::BatchExecutor {
 public:
  explicit ClusterCoordinator(ClusterOptions options = {});

  // Publishes a source to the cluster and re-derives the bounded-load
  // placement of the whole catalog: the new view goes to its owner, and
  // any view the larger catalog re-homes moves as in Rebalance().
  // Idempotent per view name (re-publish re-registers).
  Status Publish(const SourceSpec& spec);

  // Scatter/gather over the owning nodes. Results are positional; on any
  // group failure the whole batch fails with that group's typed error.
  StatusOr<std::vector<ResultTable>> ExecuteBatch(
      const ExecContext& ctx, const std::vector<query::AbstractQuery>& batch,
      const dashboard::BatchOptions& options,
      dashboard::BatchReport* report) override;

  // Convenience for tests/benches.
  StatusOr<std::vector<ResultTable>> ExecuteBatch(
      const std::vector<query::AbstractQuery>& batch,
      const dashboard::BatchOptions& options = {},
      dashboard::BatchReport* report = nullptr) {
    return ExecuteBatch(ExecContext::Background(), batch, options, report);
  }

  // Failure injection: the node stops answering (in-flight calls lose
  // their responses). Detection is lazy — the next scatter that hits the
  // dead node triggers the failover via the retry hook.
  void KillNode(const std::string& node_id);
  // Brings the node back up, re-adds it to the ring, and runs an
  // administrative rebalance so it takes back its ring share.
  void ReviveNode(const std::string& node_id);
  // Re-derives every source's bounded-load owner from the current ring
  // and moves the diffs (old owner stops serving, moved namespaces invalidated in the
  // shared tier). Returns how many sources moved.
  int Rebalance();

  // Current owner of a view ("" when unknown) — placement introspection.
  std::string OwnerOf(const std::string& view) const;

  struct Stats {
    int64_t failovers = 0;        // nodes removed after transport kAborted
    int64_t rebalances = 0;       // administrative rebalance passes
    int64_t moved_sources = 0;    // ownership moves (both paths)
    int64_t scattered_groups = 0; // per-view groups sent over the wire
  };
  Stats stats() const;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  DataServerNode* node(const std::string& node_id);
  rpc::InProcessTransport& transport() { return transport_; }
  const std::shared_ptr<cache::DistributedCacheTier>& shared_tier() const {
    return shared_tier_;
  }
  int64_t retries() const { return retries_.load(std::memory_order_relaxed); }

 private:
  // One scattered per-view group's outcome.
  struct GroupResult {
    Status status;
    NodeBatchResult result;
    double remote_ms = 0;
  };

  GroupResult CallGroup(const ExecContext& ctx, const std::string& view,
                        const std::vector<query::AbstractQuery>& sub,
                        const WireBatchOptions& wire);

  // Retry hook: a transport kAborted marks the node dead and fails its
  // sources over to their bounded-load owners among the survivors (no
  // cache invalidation —
  // see the header comment). Other retriable failures change nothing.
  void HandleNodeFailure(const std::string& node_id, const Status& status);

  // Moves ownership of `view` to `new_owner` with full administrative
  // semantics (old owner drops it, shared namespace erased). Requires
  // mu_ held; returns whether a move happened.
  bool MoveSourceLocked(const std::string& view, const std::string& new_owner);
  // MoveSourceLocked for every view of `placement`; returns the moves.
  int MoveToPlacementLocked(const std::map<std::string, std::string>& placement);
  std::vector<std::string> CatalogViewsLocked() const;

  ClusterOptions options_;
  std::shared_ptr<cache::DistributedCacheTier> shared_tier_;
  rpc::InProcessTransport transport_;
  std::vector<std::unique_ptr<DataServerNode>> nodes_;
  std::map<std::string, DataServerNode*> nodes_by_id_;

  mutable std::mutex mu_;
  ConsistentHashRing ring_;
  std::map<std::string, SourceSpec> catalog_;   // by view name
  std::map<std::string, std::string> owner_;    // view -> node id
  Stats stats_;
  std::atomic<int64_t> retries_{0};
};

}  // namespace vizq::cluster

#endif  // VIZQUERY_CLUSTER_COORDINATOR_H_
