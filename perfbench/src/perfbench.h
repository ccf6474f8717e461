// The repository benchmark: closed-loop FAA dashboard clients driving the
// real serving stack end to end (README.md in this directory has the
// workloads, their sizes and the layer -> end-to-end metric map).
//
//   Session::BuildBatch -> Frontend::Serve -> [ClusterCoordinator ->
//   DataServerNode] -> QueryService -> caches -> TdeDataSource / TDE
//
// Everything here lives outside src/: the spans of the traced run are
// recorded by decorators this directory owns (a BatchExecutor around the
// coordinator, a DataSource/Connection around each TdeDataSource), and the
// per-layer counters are read from the engine's existing public stats.

#ifndef PERFBENCH_SRC_PERFBENCH_H_
#define PERFBENCH_SRC_PERFBENCH_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cluster/coordinator.h"
#include "src/common/phase_timeline.h"
#include "src/dashboard/query_service.h"
#include "src/federation/data_source.h"
#include "src/server/frontend.h"
#include "src/workload/sessions.h"

namespace perfbench {

using namespace vizq;

enum class Workload : uint8_t { kExplore, kPublic, kCluster };
std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload w);

// ---------------------------------------------------------------------------
// Tracing (the --trace 1 run).

// The layer each benchmark span belongs to; the self-time table has one
// row per layer.
enum class Layer : uint8_t {
  kBench,        // one closed-loop iteration (root span): the client
                 // loop's own time outside the calls below
  kWorkload,     // Session::BuildBatch
  kServer,       // Frontend::Serve
  kCluster,      // ClusterCoordinator::ExecuteBatch
  kTde,          // Connection::Execute on a TdeDataSource
};
inline constexpr int kNumLayers = 5;
const char* LayerName(Layer l);

struct SpanRecord {
  Layer layer = Layer::kBench;
  int parent = -1;  // index into the request's spans; -1 for the root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// The spans of one interaction. The client thread opens and closes its
// own spans; TDE spans arrive from scheduler and node threads, which is
// why appends take the lock.
class RequestTrace {
 public:
  // Opens a span on the client thread, nested under the innermost open
  // span. Returns its index for End().
  int Begin(Layer layer);
  void End(int index);
  // Records a finished span from any thread, parented under the innermost
  // client span still open (the call that caused it waits for it).
  void AddForeign(Layer layer, int64_t start_ns, int64_t end_ns);

  std::vector<SpanRecord> TakeSpans();

 private:
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

// Maps a request's ExecContext (its shared Trace object, which every copy
// of the context and every node-side context of the same request points
// at) to the benchmark's RequestTrace.
class Tracer {
 public:
  void Register(const void* key, std::shared_ptr<RequestTrace> trace);
  void Unregister(const void* key);
  std::shared_ptr<RequestTrace> Find(const void* key) const;

  // The request the calling client thread is serving (null outside one).
  static RequestTrace*& Current();

 private:
  mutable std::mutex mu_;
  std::unordered_map<const void*, std::shared_ptr<RequestTrace>> live_;
};

// RAII span on the client thread's current request; inert without one.
class SpanScope {
 public:
  SpanScope(RequestTrace* trace, Layer layer)
      : trace_(trace), index_(trace ? trace->Begin(layer) : -1) {}
  ~SpanScope() {
    if (trace_ != nullptr) trace_->End(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  RequestTrace* trace_;
  int index_;
};

// Decorator around a DataSource: while a tracer is attached, every
// Connection::Execute is a `tde` span and its rows are counted; otherwise
// calls pass straight through. Also the fault hook of the correctness-gate
// test: when armed, the Nth result is corrupted on its way out.
class TracedDataSource
    : public federation::DataSource,
      public std::enable_shared_from_this<TracedDataSource> {
 public:
  explicit TracedDataSource(std::shared_ptr<federation::DataSource> inner)
      : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }
  const query::Capabilities& capabilities() const override {
    return inner_->capabilities();
  }
  const query::SqlDialect& dialect() const override {
    return inner_->dialect();
  }
  const tde::Database& catalog() const override { return inner_->catalog(); }
  StatusOr<std::unique_ptr<federation::Connection>> Connect() override;

  // Corrupts the `n`th executed result (1-based; 0 = never).
  void CorruptNthResult(int64_t n) { corrupt_nth_.store(n); }

  // Attaches (or, with null, detaches) the tracer of the traced run.
  void set_tracer(const Tracer* tracer) { tracer_.store(tracer); }

  // Executed queries and rows returned while a tracer was attached.
  int64_t traced_queries() const { return traced_queries_.load(); }
  int64_t traced_rows() const { return traced_rows_.load(); }

 private:
  std::shared_ptr<federation::DataSource> inner_;
  std::atomic<const Tracer*> tracer_{nullptr};
  std::atomic<int64_t> executed_{0};
  std::atomic<int64_t> corrupt_nth_{0};
  std::atomic<int64_t> traced_queries_{0};
  std::atomic<int64_t> traced_rows_{0};
  friend class TracedConnection;
};

// Decorator around the cluster coordinator: a `cluster` span per call.
class TracedExecutor : public dashboard::BatchExecutor {
 public:
  explicit TracedExecutor(dashboard::BatchExecutor* inner) : inner_(inner) {}
  StatusOr<std::vector<ResultTable>> ExecuteBatch(
      const ExecContext& ctx, const std::vector<query::AbstractQuery>& batch,
      const dashboard::BatchOptions& options,
      dashboard::BatchReport* report) override;

 private:
  dashboard::BatchExecutor* inner_;
};

// Exclusive per-layer attribution of a request's wall time: at each
// instant the deepest open spans own it, split evenly when siblings
// overlap (parallel TDE queries of one batch). For a span without
// overlapping children this is its duration minus its children's
// coverage; summed over layers it is exactly the root span's duration.
std::array<double, kNumLayers> SelfTimeNs(const std::vector<SpanRecord>& spans);

// A finished request: its id and its spans (the root first).
using RequestSpans = std::pair<uint64_t, std::vector<SpanRecord>>;

// Writes up to `max_requests` requests as a Chrome trace (ph "X" events).
bool WriteChromeTrace(const std::string& path,
                      const std::vector<RequestSpans>& requests,
                      size_t max_requests);

// ---------------------------------------------------------------------------
// Workload stacks.

struct StackOptions {
  Workload workload = Workload::kExplore;
  // Overrides for small test stacks (0 = the workload's size).
  int64_t rows = 0;
  int workbooks = 0;
};

// Sizes of each workload (README.md explains the choices).
struct WorkloadShape {
  int64_t rows;             // rows per TDE extract
  int sources;              // TdeDataSources (cluster: one per view)
  int workbooks;            // published workbooks sessions pick from
  int clients;              // closed-loop client threads
  int64_t cache_max_bytes;  // intelligent cache cap; 0 = engine default
  bool opens_only;          // public: every interaction is an open
};

// Everything one workload serves from. Owns the data, the backends, the
// cache stack or cluster, the frontend, and the per-source decorators.
struct Stack {
  WorkloadShape shape{};
  std::shared_ptr<tde::Database> db;
  std::vector<std::shared_ptr<TracedDataSource>> sources;
  // Single-node workloads.
  std::shared_ptr<dashboard::CacheStack> caches;
  std::unique_ptr<dashboard::QueryService> service;
  // Cluster workload.
  std::unique_ptr<cluster::ClusterCoordinator> coordinator;
  std::unique_ptr<TracedExecutor> traced_coordinator;
  std::unique_ptr<server::Frontend> frontend;
  std::vector<workload::Workbook> workbooks;
  std::vector<std::string> views;  // the views batches are routed to

  // Retargets a session batch onto this stack's views (cluster: spread
  // over up to kMaxViewsPerBatch views; single node: unchanged).
  void Route(size_t workbook, std::vector<query::AbstractQuery>* batch) const;
  void SetTracer(const Tracer* tracer);
};

inline constexpr int kMaxViewsPerBatch = 6;

// Builds the stack: extract generation and encoding, view registration or
// publishing, and cache warm-up (every workbook's open rendered once).
StatusOr<std::unique_ptr<Stack>> BuildStack(const StackOptions& options);

// ---------------------------------------------------------------------------
// Correctness gate.

// One served interaction kept for replay.
struct ServedBatch {
  workload::SessionAction action = workload::SessionAction::kOpen;
  std::vector<query::AbstractQuery> batch;
  std::vector<ResultTable> results;
  std::vector<dashboard::ServedFrom> served_from;
};

// Per-client sample: the first interaction of every (action, served-from)
// kind the client sees, plus a seeded reservoir of the rest.
class GateSampler {
 public:
  GateSampler(uint64_t seed, int reservoir) : rng_(seed), cap_(reservoir) {}
  void Offer(workload::SessionAction action,
             const std::vector<query::AbstractQuery>& batch,
             const std::vector<ResultTable>& results,
             const dashboard::BatchReport& report);
  std::vector<ServedBatch> Take();

 private:
  Rng rng_;
  int cap_;
  int64_t seen_ = 0;
  std::vector<bool> covered_ = std::vector<bool>(64, false);
  std::vector<ServedBatch> first_of_kind_;
  std::vector<ServedBatch> reservoir_;
};

struct GateResult {
  int64_t batches = 0;
  int64_t queries = 0;
  int64_t mismatched_batches = 0;
  std::vector<std::string> actions;      // kinds covered
  std::vector<std::string> served_from;  // kinds covered
  std::string first_mismatch;
};

// Replays every sampled batch on a cache-less single-node QueryService
// over the stack's data and diffs each result (tolerance-aware).
GateResult RunGate(const Stack& stack, const std::vector<ServedBatch>& sample);

// ---------------------------------------------------------------------------
// The closed loop and its results.

struct RunOptions {
  Workload workload = Workload::kExplore;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Set-ups per run: at least `setups`, and more (up to 15) until they
  // have taken `min_setup_s` together, so a cheap set-up's median rests on
  // enough samples.
  int setups = 3;
  double min_setup_s = 3.0;
  int clients = 0;  // 0 = the workload's count, capped at nproc
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  std::string trace_out;  // Chrome trace of the traced run ("" = none)
  int64_t corrupt_nth = 0;
  // Test-sized stacks.
  int64_t rows = 0;
  int workbooks = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = -1;  // sample count behind a percentile (-1 = n/a)
};

struct RunResult {
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;  // what the JSON result carries
  std::vector<Metric> info;     // printed only
  std::map<std::string, std::string> provenance;
  std::vector<std::string> self_time_table;  // printed lines
  GateResult gate;
};

StatusOr<RunResult> RunBenchmark(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PERFBENCH_H_
