#include "src/workload/faa_generator.h"
#include "src/workload/flights_dashboards.h"

#include "perfbench/src/perfbench.h"

namespace perfbench {

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "explore") return Workload::kExplore;
  if (name == "public") return Workload::kPublic;
  if (name == "cluster") return Workload::kCluster;
  return std::nullopt;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kExplore: return "explore";
    case Workload::kPublic: return "public";
    case Workload::kCluster: return "cluster";
  }
  return "?";
}

namespace {

constexpr char kDataSource[] = "faa";

WorkloadShape ShapeOf(Workload w) {
  switch (w) {
    case Workload::kExplore:
      // A cache far smaller than the working set: most interactions run
      // in the TDE, and the cache's insert/evict path stays busy.
      return {1000000, 1, 64, 3, 256 << 10, false};
    case Workload::kPublic:
      // Opens only, over caches warmed in set-up (default size, the set
      // fits): the Tableau Public mix of §3.2.
      return {1000000, 1, 64, 4, 0, true};
    case Workload::kCluster:
      // Small per-view extracts so scatter/gather and RPC dominate.
      return {20000, 8, 64, 4, 0, false};
  }
  return {};
}

// Renders every workbook's open once (an open draws nothing at random).
Status WarmUp(Stack& stack) {
  for (size_t w = 0; w < stack.workbooks.size(); ++w) {
    workload::Session session(w + 1, &stack.workbooks[w], {}, /*seed=*/1);
    auto step = session.Next();
    if (!step.has_value()) continue;
    VIZQ_ASSIGN_OR_RETURN(std::vector<query::AbstractQuery> batch,
                          session.BuildBatch(*step));
    stack.Route(w, &batch);
    ExecContext ctx;
    VIZQ_RETURN_IF_ERROR(
        stack.frontend->Serve(session.id(), ctx, batch).status());
  }
  return OkStatus();
}

}  // namespace

void Stack::Route(size_t workbook,
                  std::vector<query::AbstractQuery>* batch) const {
  if (views.size() <= 1) return;
  for (size_t i = 0; i < batch->size(); ++i) {
    size_t v = (workbook + i % kMaxViewsPerBatch) % views.size();
    (*batch)[i].view = views[v];
  }
}

void Stack::SetTracer(const Tracer* tracer) {
  for (const auto& source : sources) source->set_tracer(tracer);
}

StatusOr<std::unique_ptr<Stack>> BuildStack(const StackOptions& options) {
  auto stack = std::make_unique<Stack>();
  stack->shape = ShapeOf(options.workload);
  if (options.rows > 0) stack->shape.rows = options.rows;
  if (options.workbooks > 0) stack->shape.workbooks = options.workbooks;
  const WorkloadShape& shape = stack->shape;

  // The extract is the generator's default data set (FaaOptions::seed),
  // the same on every run: the seed varies what users do, not the data
  // they look at, so run-to-run spread measures the system and not how
  // selective one random data set happens to make the same dashboards.
  workload::FaaOptions faa;
  faa.num_flights = shape.rows;
  VIZQ_ASSIGN_OR_RETURN(stack->db, workload::GenerateFaaDatabase(faa));

  dashboard::BatchExecutor* executor = nullptr;
  if (options.workload == Workload::kCluster) {
    cluster::ClusterOptions copts;
    copts.num_nodes = 4;
    copts.node.cpu_slots = 2;
    // Two known engine deadlocks, worked around here and documented in
    // README.md. Both are a circular wait between node cpu slots and
    // scheduler workers: every worker can be parked in
    // DataServerNode::AcquireSlot (scatter tasks), while a slot holder
    // waits for scheduler tasks nobody is left to run.
    //  * A node sub-batch with two or more remote groups waits for them
    //    on a condition variable (QueryService::ExecuteBatch), which never
    //    runs queued work inline. Sequential groups avoid the wait.
    //  * A one-view batch runs its node call on the serving thread, which
    //    parks in TaskGroup::Wait for the parallel hash-join build. Serial
    //    builds (the carriers dimension has 14 rows) avoid it; the
    //    20k-row scans are serial anyway (below the rows-per-fraction
    //    floor of the parallelizer).
    copts.node.batch.concurrent = false;
    tde::QueryOptions exec;
    exec.parallel.enable_parallel_build = false;
    stack->coordinator = std::make_unique<cluster::ClusterCoordinator>(copts);
    for (int i = 0; i < shape.sources; ++i) {
      std::string view = "v" + std::to_string(i);
      auto source = std::make_shared<TracedDataSource>(
          std::make_shared<federation::TdeDataSource>("tde-" + view,
                                                      stack->db, exec));
      cluster::SourceSpec spec;
      spec.view = workload::FlightsStarView();
      spec.view.name = view;
      spec.backend = source;
      VIZQ_RETURN_IF_ERROR(stack->coordinator->Publish(spec));
      stack->sources.push_back(std::move(source));
      stack->views.push_back(view);
    }
    stack->traced_coordinator =
        std::make_unique<TracedExecutor>(stack->coordinator.get());
    executor = stack->traced_coordinator.get();
  } else {
    auto source = std::make_shared<TracedDataSource>(
        std::make_shared<federation::TdeDataSource>(kDataSource, stack->db));
    cache::IntelligentCacheOptions iopts;
    if (shape.cache_max_bytes > 0) iopts.max_bytes = shape.cache_max_bytes;
    stack->caches = std::make_shared<dashboard::CacheStack>(iopts);
    stack->service =
        std::make_unique<dashboard::QueryService>(source, stack->caches);
    VIZQ_RETURN_IF_ERROR(
        stack->service->RegisterView(workload::FlightsStarView()));
    stack->sources.push_back(std::move(source));
    stack->views.push_back(workload::kFlightsView);
    executor = stack->service.get();
  }
  stack->frontend = std::make_unique<server::Frontend>(executor);
  stack->workbooks =
      workload::BuildWorkbookSet(kDataSource, shape.workbooks);
  VIZQ_RETURN_IF_ERROR(WarmUp(*stack));
  return stack;
}

}  // namespace perfbench
