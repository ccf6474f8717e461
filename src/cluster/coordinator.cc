#include "src/cluster/coordinator.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/scheduler.h"
#include "src/obs/metrics.h"

namespace vizq::cluster {

ClusterCoordinator::ClusterCoordinator(ClusterOptions options)
    : options_(std::move(options)),
      shared_tier_(
          std::make_shared<cache::DistributedCacheTier>(options_.shared_tier)),
      transport_(options_.transport),
      ring_(options_.placement) {
  const int n = std::max(1, options_.num_nodes);
  nodes_.reserve(n);
  for (int i = 0; i < n; ++i) {
    NodeOptions node_opts = options_.node;
    node_opts.id = "n" + std::to_string(i);
    node_opts.shared_tier = shared_tier_;
    nodes_.push_back(std::make_unique<DataServerNode>(std::move(node_opts)));
    DataServerNode* node = nodes_.back().get();
    nodes_by_id_[node->id()] = node;
    transport_.RegisterEndpoint(node->id(), node);
    ring_.AddNode(node->id());
  }
}

Status ClusterCoordinator::Publish(const SourceSpec& spec) {
  if (spec.view.name.empty()) {
    return InvalidArgument("cluster publish: view has no name");
  }
  if (spec.backend == nullptr) {
    return InvalidArgument("cluster publish: null backend for view '" +
                           spec.view.name + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> views = CatalogViewsLocked();
  views.push_back(spec.view.name);
  const std::map<std::string, std::string> placement =
      PlaceBounded(ring_, std::move(views));
  if (placement.empty()) return Internal("cluster publish: empty ring");
  // A re-published view re-registers where it is hosted now; the move to
  // its bounded-load owner, if any, is an ordinary move below.
  auto current = owner_.find(spec.view.name);
  const std::string host = current == owner_.end()
                               ? placement.at(spec.view.name)
                               : current->second;
  VIZQ_RETURN_IF_ERROR(nodes_by_id_.at(host)->AddSource(spec));
  catalog_[spec.view.name] = spec;
  owner_[spec.view.name] = host;
  stats_.moved_sources += MoveToPlacementLocked(placement);
  return OkStatus();
}

std::vector<std::string> ClusterCoordinator::CatalogViewsLocked() const {
  std::vector<std::string> views;
  views.reserve(catalog_.size() + 1);
  for (const auto& [view, spec] : catalog_) views.push_back(view);
  return views;
}

std::string ClusterCoordinator::OwnerOf(const std::string& view) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = owner_.find(view);
  return it == owner_.end() ? std::string() : it->second;
}

ClusterCoordinator::Stats ClusterCoordinator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

DataServerNode* ClusterCoordinator::node(const std::string& node_id) {
  auto it = nodes_by_id_.find(node_id);
  return it == nodes_by_id_.end() ? nullptr : it->second;
}

ClusterCoordinator::GroupResult ClusterCoordinator::CallGroup(
    const ExecContext& ctx, const std::string& view,
    const std::vector<query::AbstractQuery>& sub,
    const WireBatchOptions& wire) {
  GroupResult out;
  rpc::RetryingChannel channel(&transport_, options_.retry);
  auto resolve = [this, &view]() {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = owner_.find(view);
    return it == owner_.end() ? std::string() : it->second;
  };
  rpc::RetryingChannel::FailureHook on_failure;
  if (options_.auto_rebalance_on_failure) {
    on_failure = [this](const std::string& node_id, const Status& status) {
      HandleNodeFailure(node_id, status);
    };
  }
  auto resp = channel.Call(ctx, "execute_batch",
                           EncodeBatchRequest(sub, wire), resolve, on_failure);
  retries_.fetch_add(channel.retries(), std::memory_order_relaxed);
  if (!resp.ok()) {
    out.status = resp.status();
    return out;
  }
  if (resp->code != StatusCode::kOk) {
    out.status = resp->ToStatus();
    return out;
  }
  auto decoded = DecodeBatchResponse(resp->payload);
  if (!decoded.ok()) {
    out.status = decoded.status();
    return out;
  }
  if (decoded->results.size() != sub.size()) {
    out.status = DataLoss("cluster gather: node answered " +
                          std::to_string(decoded->results.size()) +
                          " results for " + std::to_string(sub.size()) +
                          " queries on view '" + view + "'");
    return out;
  }
  out.result = std::move(*decoded);
  out.remote_ms = resp->remote_ms;
  return out;
}

StatusOr<std::vector<ResultTable>> ClusterCoordinator::ExecuteBatch(
    const ExecContext& ctx, const std::vector<query::AbstractQuery>& batch,
    const dashboard::BatchOptions& options, dashboard::BatchReport* report) {
  const auto start = std::chrono::steady_clock::now();
  if (batch.empty()) return std::vector<ResultTable>{};
  VIZQ_RETURN_IF_ERROR(ctx.CheckContinue("cluster batch"));

  // Group by view; reject unknown views before any wire traffic (the
  // same verbatim kNotFound a single-node service would answer).
  std::map<std::string, std::vector<size_t>> groups;
  for (size_t i = 0; i < batch.size(); ++i) {
    groups[batch[i].view].push_back(i);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [view, positions] : groups) {
      if (catalog_.find(view) == catalog_.end()) {
        return NotFound("no view registered as '" + view + "'");
      }
    }
  }

  WireBatchOptions wire;
  wire.cache_only = options.cache_only;
  wire.max_result_age_ms = options.max_result_age_ms;
  wire.cache_exact_only = options.cache_exact_only;
  wire.session_id = options.session_id;
  wire.priority = options.priority;

  // The scatter/gather round trips are the request's `rpc` root phase:
  // node-side contexts carry no timeline (ForRemoteCall), so node work
  // cannot double-count, and the transport charges the remote share back
  // as the additive `remote_exec` detail phase.
  PhaseScope rpc_phase(ctx.timeline(), Phase::kRpc);

  std::vector<std::string> views;
  std::vector<std::vector<query::AbstractQuery>> subs;
  views.reserve(groups.size());
  subs.reserve(groups.size());
  for (const auto& [view, positions] : groups) {
    views.push_back(view);
    std::vector<query::AbstractQuery> sub;
    sub.reserve(positions.size());
    for (size_t pos : positions) sub.push_back(batch[pos]);
    subs.push_back(std::move(sub));
  }

  // Each group's calls nest under a "scatter:<view>" span, all started
  // here in view order before any task runs, so the trace tree's shape
  // does not depend on which group the scheduler runs first.
  std::vector<Span*> spans;
  for (const std::string& view : views) {
    spans.push_back(ctx.StartSpan("scatter:" + view));
  }
  std::vector<GroupResult> outcomes(views.size());
  auto call = [&](size_t g) {
    ScopedSpan owned(spans[g]);
    outcomes[g] = CallGroup(ctx.WithSpan(spans[g]), views[g], subs[g], wire);
  };
  if (views.size() == 1) {
    call(0);
  } else {
    TaskGroup group(&Scheduler::Global(), options.priority, ctx,
                    options.max_parallel_queries, options.session_id);
    for (size_t g = 0; g < views.size(); ++g) {
      group.Spawn([&call, g] { call(g); }, "scatter@" + views[g]);
    }
    group.RunUntil();
  }

  // First failing group (deterministic view order) fails the whole batch
  // with its typed error — never silent partials.
  for (size_t g = 0; g < views.size(); ++g) {
    if (!outcomes[g].status.ok()) {
      ctx.Count("cluster.batch_failed");
      return outcomes[g].status;
    }
  }

  std::vector<ResultTable> results(batch.size());
  dashboard::BatchReport merged;
  merged.queries.resize(batch.size());
  size_t g = 0;
  double remote_ms = 0;
  for (const auto& [view, positions] : groups) {
    GroupResult& out = outcomes[g];
    for (size_t k = 0; k < positions.size(); ++k) {
      results[positions[k]] = std::move(out.result.results[k]);
      merged.queries[positions[k]] = out.result.queries[k];
    }
    merged.remote_queries += out.result.remote_queries;
    merged.fused_groups += out.result.fused_groups;
    merged.local_resolved += out.result.local_resolved;
    merged.cache_hits += out.result.cache_hits;
    remote_ms = std::max(remote_ms, out.remote_ms);
    ++g;
  }
  merged.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.scattered_groups += static_cast<int64_t>(views.size());
  }
  ctx.Count("cluster.batches");
  ctx.Count("cluster.scatter_groups", static_cast<int64_t>(views.size()));
  ctx.Observe("cluster.remote_ms", remote_ms);
  if (report != nullptr) *report = std::move(merged);
  return results;
}

void ClusterCoordinator::KillNode(const std::string& node_id) {
  transport_.SetEndpointUp(node_id, false);
}

void ClusterCoordinator::ReviveNode(const std::string& node_id) {
  if (nodes_by_id_.find(node_id) == nodes_by_id_.end()) return;
  transport_.SetEndpointUp(node_id, true);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring_.AddNode(node_id);
  }
  Rebalance();
}

void ClusterCoordinator::HandleNodeFailure(const std::string& node_id,
                                           const Status& status) {
  // Only a dead endpoint (transport kAborted) is evidence the *node* is
  // gone; a full inbox or a corrupt envelope is transient and placement
  // should not churn over it.
  if (status.code() != StatusCode::kAborted) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!ring_.HasNode(node_id)) return;  // another group already failed it over
  ring_.RemoveNode(node_id);
  if (ring_.num_nodes() == 0) {
    // Last node died: nothing to fail over to; leave ownership so a
    // revive can restore it.
    ring_.AddNode(node_id);
    return;
  }
  stats_.failovers++;
  // Reassign only the dead node's sources, each to its bounded-load owner
  // among the survivors; every other view stays where it is. The cap
  // grows with fewer members, so no survivor is over it already.
  // Deliberately NOT an administrative move: the shared tier keeps the
  // dead node's published entries — they are still correct, and serving
  // them warm from the successor is what the §3.2 layer is for.
  std::map<std::string, int> loads;
  for (const auto& [view, owner] : owner_) {
    if (owner != node_id) ++loads[owner];
  }
  const int cap =
      LoadCap(static_cast<int>(owner_.size()), ring_.num_nodes());
  for (auto& [view, owner] : owner_) {
    if (owner != node_id) continue;
    const std::string new_owner = BoundedOwner(ring_, view, loads, cap);
    Status added = nodes_by_id_.at(new_owner)->AddSource(catalog_.at(view));
    if (!added.ok()) continue;  // next scatter retries resolve again
    owner = new_owner;
    ++loads[new_owner];
    stats_.moved_sources++;
  }
  if (auto* sink = GetGlobalMetricsSink()) {
    sink->Add(obs::Labeled("cluster.failover", "node", node_id), 1);
  }
}

bool ClusterCoordinator::MoveSourceLocked(const std::string& view,
                                          const std::string& new_owner) {
  auto it = owner_.find(view);
  if (it == owner_.end() || it->second == new_owner) return false;
  // Administrative move: the old owner stops serving the view, its whole
  // shared-tier namespace is invalidated, then the new owner starts
  // fresh — no node can serve the view's pre-move entries.
  auto old_node = nodes_by_id_.find(it->second);
  if (old_node != nodes_by_id_.end()) old_node->second->RemoveSource(view);
  shared_tier_->EraseNamespace(cache::SharedKeyPrefix(view));
  Status added = nodes_by_id_.at(new_owner)->AddSource(catalog_.at(view));
  if (!added.ok()) return false;
  it->second = new_owner;
  return true;
}

int ClusterCoordinator::MoveToPlacementLocked(
    const std::map<std::string, std::string>& placement) {
  int moved = 0;
  for (const auto& [view, target] : placement) {
    if (MoveSourceLocked(view, target)) ++moved;
  }
  return moved;
}

int ClusterCoordinator::Rebalance() {
  std::lock_guard<std::mutex> lock(mu_);
  const int moved =
      MoveToPlacementLocked(PlaceBounded(ring_, CatalogViewsLocked()));
  stats_.rebalances++;
  stats_.moved_sources += moved;
  return moved;
}

}  // namespace vizq::cluster
