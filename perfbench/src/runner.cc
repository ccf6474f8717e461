#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "src/common/rng.h"
#include "src/common/scheduler.h"

#include "perfbench/src/perfbench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

constexpr double kZipfSkew = 1.2;
// Workbook picks walk the Zipf CDF along a golden-ratio (Weyl) sequence
// from a seeded start instead of drawing independently: each run then
// sees the Zipf popularity almost exactly, so the mix of cheap (Fig. 2)
// and expensive (Fig. 1) dashboards does not swing from seed to seed.
constexpr double kGoldenStep = 0.6180339887498949;

// Every session is an open and four interactions. The library default
// leaves with probability 0.2 per step (4.5 steps on average, geometric
// spread); fixed lengths keep each run's share of interactions per
// workbook at the Zipf shares too, not just its share of sessions.
workload::SessionProfile BenchProfile() {
  workload::SessionProfile p;
  p.p_leave = 0;
  p.max_steps = 5;
  return p;
}
constexpr int kGateReservoir = 6;  // sampled batches per client, beyond
                                   // the first of each kind
constexpr double kSelfTimeTolerance = 0.01;
constexpr int kTraceSlices = 4;  // traced/untraced slice pairs per run

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Engine counters, read around each measured slice.
struct Counters {
  int64_t sched_submitted = 0;
  int64_t sched_shed = 0;
  int64_t cache_inserts = 0;
  int64_t cache_evictions = 0;
  int64_t shared_hits = 0;
  int64_t admitted = 0;
  int64_t degraded = 0;
  int64_t pool_opened = 0;
  int64_t pool_reused = 0;
  int64_t pool_waits = 0;
  int64_t rpc_calls = 0;
  int64_t rpc_bytes = 0;
  int64_t rpc_errors = 0;
  double rpc_modeled_ms = 0;
  int64_t scattered_groups = 0;
  int64_t retries = 0;
  std::vector<int64_t> node_batches;
  int64_t tde_queries = 0;
  int64_t tde_rows = 0;

  // *this += b - a, field by field.
  void AddDifference(const Counters& a, const Counters& b) {
    sched_submitted += b.sched_submitted - a.sched_submitted;
    sched_shed += b.sched_shed - a.sched_shed;
    cache_inserts += b.cache_inserts - a.cache_inserts;
    cache_evictions += b.cache_evictions - a.cache_evictions;
    shared_hits += b.shared_hits - a.shared_hits;
    admitted += b.admitted - a.admitted;
    degraded += b.degraded - a.degraded;
    pool_opened += b.pool_opened - a.pool_opened;
    pool_reused += b.pool_reused - a.pool_reused;
    pool_waits += b.pool_waits - a.pool_waits;
    rpc_calls += b.rpc_calls - a.rpc_calls;
    rpc_bytes += b.rpc_bytes - a.rpc_bytes;
    rpc_errors += b.rpc_errors - a.rpc_errors;
    rpc_modeled_ms += b.rpc_modeled_ms - a.rpc_modeled_ms;
    scattered_groups += b.scattered_groups - a.scattered_groups;
    retries += b.retries - a.retries;
    node_batches.resize(b.node_batches.size());
    for (size_t i = 0; i < b.node_batches.size(); ++i) {
      node_batches[i] += b.node_batches[i] - a.node_batches[i];
    }
    tde_queries += b.tde_queries - a.tde_queries;
    tde_rows += b.tde_rows - a.tde_rows;
  }
};

Counters ReadCounters(Stack& stack) {
  Counters c;
  Scheduler& sched = Scheduler::Global();
  c.sched_submitted = sched.submitted(TaskClass::kInteractive);
  for (int k = 0; k < kNumTaskClasses; ++k) {
    c.sched_shed += sched.shed(static_cast<TaskClass>(k));
  }
  if (stack.caches != nullptr) {
    cache::CacheStats stats = stack.caches->intelligent.stats();
    c.cache_inserts = stats.inserts;
    c.cache_evictions = stats.evictions;
  }
  if (stack.service != nullptr) {
    const federation::PoolStats& pool = stack.service->pool().stats();
    c.pool_opened = pool.opened;
    c.pool_reused = pool.reused;
    c.pool_waits = pool.waits;
  }
  server::AdmissionController::Stats admission =
      stack.frontend->admission().stats();
  c.admitted = admission.admitted;
  c.degraded = admission.degraded;
  if (stack.coordinator != nullptr) {
    cluster::ClusterCoordinator& coord = *stack.coordinator;
    c.shared_hits = coord.shared_tier()->hits();
    c.rpc_calls = coord.transport().calls();
    c.rpc_bytes = coord.transport().bytes_moved();
    c.rpc_errors = coord.transport().transport_errors();
    c.rpc_modeled_ms = coord.transport().net().simulated_ms();
    c.scattered_groups = coord.stats().scattered_groups;
    c.retries = coord.retries();
    for (int i = 0; i < coord.num_nodes(); ++i) {
      c.node_batches.push_back(
          coord.node("n" + std::to_string(i))->batches_served());
    }
  }
  for (const auto& source : stack.sources) {
    c.tde_queries += source->traced_queries();
    c.tde_rows += source->traced_rows();
  }
  return c;
}

// What the clients observed in one measured phase.
struct Accum {
  std::vector<double> latency_ms;  // every attempted Serve call
  std::vector<double> open_ms, interact_ms;
  std::vector<double> queue_interactive_ms;
  std::vector<double> build_batch_us;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::array<int64_t, 5> outcomes{};
  int64_t queries = 0, remote = 0, fused = 0, local = 0;
  std::array<int64_t, 8> served{};
  std::array<double, kNumPhases> phase_ms{};
  double unattributed_frac = 0;
  int64_t last_done_ns = 0;
  std::vector<RequestSpans> requests;

  void Merge(Accum&& o) {
    auto append = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(latency_ms, o.latency_ms);
    append(open_ms, o.open_ms);
    append(interact_ms, o.interact_ms);
    append(queue_interactive_ms, o.queue_interactive_ms);
    append(build_batch_us, o.build_batch_us);
    attempted += o.attempted;
    failed += o.failed;
    for (size_t i = 0; i < outcomes.size(); ++i) outcomes[i] += o.outcomes[i];
    queries += o.queries;
    remote += o.remote;
    fused += o.fused;
    local += o.local;
    for (size_t i = 0; i < served.size(); ++i) served[i] += o.served[i];
    for (int p = 0; p < kNumPhases; ++p) phase_ms[p] += o.phase_ms[p];
    unattributed_frac += o.unattributed_frac;
    for (RequestSpans& r : o.requests) requests.push_back(std::move(r));
  }
};

// The traced or the untraced share of a run, summed over its slices.
struct PhaseRun {
  Accum acc;
  double elapsed_s = 0;
  Counters delta;
  double throughput() const {
    return Ratio(static_cast<double>(acc.attempted - acc.failed), elapsed_s);
  }
};

// One closed-loop client: its navigation state survives across phases.
struct Client {
  Client(int index, uint64_t seed)
      : index(index),
        rng(HashCombine(seed, 0x9e37 + index)),
        sampler(HashCombine(seed, 0x5a17 + index), kGateReservoir) {
    pick = rng.NextDouble();
  }
  int index;
  Rng rng;
  double pick = 0;  // position in the Weyl sequence of workbook picks
  std::unique_ptr<workload::Session> session;
  size_t workbook = 0;
  uint64_t counter = 0;
  GateSampler sampler;
};

// Cumulative Zipf(kZipfSkew) popularity over `n` workbooks by rank.
std::vector<double> ZipfCdf(size_t n) {
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfSkew);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

size_t NextWorkbook(Client& client, const std::vector<double>& zipf_cdf) {
  client.pick = std::fmod(client.pick + kGoldenStep, 1.0);
  auto it = std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), client.pick);
  return std::min<size_t>(it - zipf_cdf.begin(), zipf_cdf.size() - 1);
}

void RunClient(Stack& stack, const std::vector<double>& zipf_cdf,
               uint64_t seed, Client& client, int64_t t_stop, Tracer* tracer,
               Accum& acc) {
  const bool opens_only = stack.shape.opens_only;
  while (NowNs() < t_stop) {
    uint64_t id =
        (static_cast<uint64_t>(client.index + 1) << 40) | ++client.counter;
    ExecContext ctx;
    std::shared_ptr<RequestTrace> trace;
    int root = -1;
    if (tracer != nullptr) {
      trace = std::make_shared<RequestTrace>();
      tracer->Register(ctx.trace(), trace);
      Tracer::Current() = trace.get();
      root = trace->Begin(Layer::kBench);
    }

    std::optional<workload::Session::Step> step;
    if (!opens_only && client.session != nullptr) step = client.session->Next();
    if (!step.has_value()) {
      client.workbook = NextWorkbook(client, zipf_cdf);
      client.session = std::make_unique<workload::Session>(
          id, &stack.workbooks[client.workbook], BenchProfile(), seed);
      step = client.session->Next();
    }
    StatusOr<std::vector<query::AbstractQuery>> batch =
        std::vector<query::AbstractQuery>{};
    {
      SpanScope span(trace.get(), Layer::kWorkload);
      int64_t t0 = NowNs();
      batch = client.session->BuildBatch(ctx, *step);
      acc.build_batch_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    ++acc.attempted;
    server::ServeReport report;
    if (batch.ok()) stack.Route(client.workbook, &*batch);
    int64_t t_issue = NowNs();
    StatusOr<std::vector<ResultTable>> results = batch.status();
    if (batch.ok()) {
      SpanScope span(trace.get(), Layer::kServer);
      results = stack.frontend->Serve(client.session->id(), ctx, *batch,
                                      &report);
    }
    int64_t t_done = NowNs();
    double ms = static_cast<double>(t_done - t_issue) / 1e6;
    acc.latency_ms.push_back(ms);
    (step->action == workload::SessionAction::kOpen ? acc.open_ms
                                                    : acc.interact_ms)
        .push_back(ms);
    if (!results.ok()) ++acc.failed;
    ++acc.outcomes[static_cast<int>(report.outcome)];
    if (batch.ok()) acc.queries += static_cast<int64_t>(batch->size());
    acc.remote += report.batch.remote_queries;
    acc.fused += report.batch.fused_groups;
    acc.local += report.batch.local_resolved;
    for (const dashboard::QueryReport& q : report.batch.queries) {
      ++acc.served[static_cast<int>(q.served_from)];
    }
    if (const PhaseTimeline* tl = ctx.timeline()) {
      double server_ms = 0;
      for (int p = 0; p < kNumPhases; ++p) {
        vizq::Phase phase = static_cast<vizq::Phase>(p);
        double v = tl->phase_ms(phase);
        acc.phase_ms[p] += v;
        if (IsRootPhase(phase) && phase != vizq::Phase::kClientQueue &&
            phase != vizq::Phase::kClientPrep) {
          server_ms += v;
        }
      }
      acc.queue_interactive_ms.push_back(
          tl->phase_ms(vizq::Phase::kQueueInteractive));
      if (report.wall_ms > 0) {
        acc.unattributed_frac +=
            std::max(0.0, report.wall_ms - server_ms) / report.wall_ms;
      }
    }
    if (results.ok()) {
      client.sampler.Offer(step->action, *batch, *results, report.batch);
    }
    if (tracer != nullptr) {
      trace->End(root);
      Tracer::Current() = nullptr;
      tracer->Unregister(ctx.trace());
      acc.requests.emplace_back(id, trace->TakeSpans());
    }
    acc.last_done_ns = NowNs();
  }
}

// Runs the clients for one slice of `seconds` and adds what they did to
// `*run`.
void RunSlice(Stack& stack, std::vector<Client>& clients, uint64_t seed,
              double seconds, Tracer* tracer, PhaseRun* run) {
  const std::vector<double> zipf_cdf = ZipfCdf(stack.workbooks.size());
  stack.SetTracer(tracer);
  Counters before = ReadCounters(stack);
  std::vector<Accum> accs(clients.size());
  int64_t t_start = NowNs();
  int64_t t_stop = t_start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      RunClient(stack, zipf_cdf, seed, clients[c], t_stop, tracer, accs[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  Counters after = ReadCounters(stack);
  stack.SetTracer(nullptr);
  int64_t t_end = t_stop;
  for (Accum& a : accs) {
    t_end = std::max(t_end, a.last_done_ns);
    run->acc.Merge(std::move(a));
  }
  run->elapsed_s += static_cast<double>(t_end - t_start) / 1e9;
  run->delta.AddDifference(before, after);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

StatusOr<RunResult> RunBenchmark(const RunOptions& options) {
  RunResult out;
  StackOptions sopts;
  sopts.workload = options.workload;
  sopts.rows = options.rows;
  sopts.workbooks = options.workbooks;

  // --- set-up, repeated; the last stack serves the timed phase ---
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  constexpr int kMaxSetups = 15;
  double setup_total_s = 0;
  for (int i = 0; i < kMaxSetups &&
                  (i < std::max(1, options.setups) ||
                   setup_total_s < options.min_setup_s);
       ++i) {
    stack.reset();
    int64_t t0 = NowNs();
    VIZQ_ASSIGN_OR_RETURN(stack, BuildStack(sopts));
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_total_s += setup_s.back();
  }
  for (const auto& source : stack->sources) {
    source->CorruptNthResult(options.corrupt_nth);
  }

  int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  int num_clients = options.clients > 0 ? options.clients : stack->shape.clients;
  num_clients = std::min(num_clients, nproc);
  std::vector<Client> clients;
  clients.reserve(num_clients);
  for (int c = 0; c < num_clients; ++c) clients.emplace_back(c, options.seed);

  // --- measured phases ---
  // With tracing, untraced and traced slices alternate, so both halves see
  // the same drift in the stack's state (caches filling up) and
  // obs.trace_overhead_frac compares like with like.
  Tracer tracer;
  PhaseRun plain, traced;
  if (!options.trace) {
    RunSlice(*stack, clients, options.seed, options.seconds, nullptr, &plain);
  } else {
    const double slice = options.seconds / (2 * kTraceSlices);
    for (int i = 0; i < kTraceSlices; ++i) {
      RunSlice(*stack, clients, options.seed, slice, nullptr, &plain);
      RunSlice(*stack, clients, options.seed, slice, &tracer, &traced);
    }
  }

  // The gate's oracle is the benchmark's, not the program's: peak memory
  // is read before it runs.
  const double peak_rss_mb = PeakRssMb();

  // --- correctness gate (untimed) ---
  std::vector<ServedBatch> sample;
  for (Client& c : clients) {
    for (ServedBatch& s : c.sampler.Take()) sample.push_back(std::move(s));
  }
  out.gate = RunGate(*stack, sample);

  const WorkloadShape& shape = stack->shape;
  out.attempted = plain.acc.attempted;
  out.failed = plain.acc.failed + out.gate.mismatched_batches;
  // Sheds and errors count as failed interactions; only wrong answers
  // (or nothing to check) make the run incorrect.
  out.correct = out.gate.mismatched_batches == 0 && out.gate.batches > 0;

  auto& P = out.provenance;
  P["workload"] = WorkloadName(options.workload);
  P["seed"] = std::to_string(options.seed);
  P["nproc"] = std::to_string(nproc);
  P["build_type"] = PERFBENCH_BUILD_TYPE;
  P["git_sha"] = options.git_sha;
  P["src_digest"] = options.src_digest;
  P["clients"] = std::to_string(num_clients);
  P["rows_per_extract"] = std::to_string(shape.rows);
  P["extracts"] = std::to_string(shape.sources);
  P["workbooks"] = std::to_string(shape.workbooks);
  P["intelligent_cache_max_bytes"] =
      shape.cache_max_bytes > 0 ? std::to_string(shape.cache_max_bytes)
                                : "default";
  P["seconds"] = std::to_string(options.seconds);
  P["setups"] = std::to_string(setup_s.size());
  P["trace"] = options.trace ? "1" : "0";
  P["loop"] = "closed, zero think time";

  // --- end-to-end metrics (the untraced phase) ---
  const Accum& u = plain.acc;
  std::vector<Metric> e2e = {
      {"throughput_per_s", plain.throughput(), "1/s", u.attempted},
      {"latency_p50_ms", Quantile(u.latency_ms, 0.50), "ms",
       static_cast<int64_t>(u.latency_ms.size())},
      {"latency_p95_ms", Quantile(u.latency_ms, 0.95), "ms",
       static_cast<int64_t>(u.latency_ms.size())},
      {"success_frac",
       1.0 - Ratio(static_cast<double>(out.failed),
                   static_cast<double>(out.attempted)),
       "frac", out.attempted},
      {"setup_s", Quantile(setup_s, 0.5), "s",
       static_cast<int64_t>(setup_s.size())},
      {"peak_rss_mb", peak_rss_mb, "MB", -1},
  };
  out.info.push_back({"failed_frac",
                      Ratio(static_cast<double>(out.failed),
                            static_cast<double>(out.attempted)),
                      "frac", out.attempted});
  out.info.push_back({"gate.batches", static_cast<double>(out.gate.batches),
                      "count", -1});
  out.info.push_back({"gate.queries", static_cast<double>(out.gate.queries),
                      "count", -1});
  if (!options.trace) {
    out.metrics = std::move(e2e);
    return out;
  }
  for (Metric& m : e2e) out.info.push_back(std::move(m));

  // --- per-layer metrics (the traced phase) ---
  const PhaseRun& t = traced;
  const Accum& a = t.acc;
  const Counters& d = t.delta;
  const double secs = t.elapsed_s;
  const double n = static_cast<double>(std::max<int64_t>(1, a.attempted));
  const double nq = static_cast<double>(std::max<int64_t>(1, a.queries));
  auto served = [&](dashboard::ServedFrom f) {
    return static_cast<double>(a.served[static_cast<int>(f)]);
  };
  auto phase_mean_ms = [&](vizq::Phase p) {
    return a.phase_ms[static_cast<int>(p)] / n;
  };

  std::vector<double> tde_ms;
  std::array<double, kNumLayers> self_ns{};
  double root_ns = 0;
  for (const RequestSpans& r : a.requests) {
    const std::vector<SpanRecord>& spans = r.second;
    if (spans.empty()) continue;
    for (const SpanRecord& s : spans) {
      if (s.layer == Layer::kTde) {
        tde_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
    std::array<double, kNumLayers> self = SelfTimeNs(spans);
    for (int l = 0; l < kNumLayers; ++l) self_ns[l] += self[l];
    root_ns += static_cast<double>(spans[0].end_ns - spans[0].start_ns);
  }
  const double nr = static_cast<double>(std::max<size_t>(1, a.requests.size()));
  double tde_busy_s = 0;
  for (double ms : tde_ms) tde_busy_s += ms / 1e3;
  int64_t tde_q = d.tde_queries;
  int64_t cache_bytes = stack->caches != nullptr
                            ? stack->caches->intelligent.total_bytes()
                            : 0;

  double node_max = 0, node_sum = 0;
  for (int64_t batches : d.node_batches) {
    node_max = std::max(node_max, static_cast<double>(batches));
    node_sum += static_cast<double>(batches);
  }
  double node_mean =
      d.node_batches.empty() ? 0 : node_sum / d.node_batches.size();
  int64_t calls = d.rpc_calls;
  int64_t admitted = d.admitted;
  int64_t degraded = d.degraded;
  int64_t pool_opened = d.pool_opened;
  int64_t pool_reused = d.pool_reused;
  double exact = served(dashboard::ServedFrom::kIntelligentCacheExact);
  double derived = served(dashboard::ServedFrom::kIntelligentCacheDerived);
  double stale = served(dashboard::ServedFrom::kIntelligentCacheStale);
  double literal = served(dashboard::ServedFrom::kLiteralCache);
  double remote = served(dashboard::ServedFrom::kRemote);
  auto outcome = [&](server::ServeOutcome o) {
    return static_cast<double>(a.outcomes[static_cast<int>(o)]) / n;
  };
  auto self_ms = [&](Layer l) {
    return self_ns[static_cast<int>(l)] / nr / 1e6;
  };
  const int64_t na = a.attempted;
  const int64_t ntde = static_cast<int64_t>(tde_ms.size());

  out.metrics = {
      // tde
      {"tde.query_ms_p50", Quantile(tde_ms, 0.50), "ms", ntde},
      {"tde.query_ms_p95", Quantile(tde_ms, 0.95), "ms", ntde},
      {"tde.busy_s", tde_busy_s, "s", ntde},
      {"tde.queries_per_s", Ratio(static_cast<double>(tde_q), secs), "1/s"},
      {"tde.rows_per_query",
       Ratio(static_cast<double>(d.tde_rows),
             static_cast<double>(tde_q)),
       "rows"},
      // common (scheduler)
      {"phase.queue_interactive_ms_p95", Quantile(a.queue_interactive_ms, 0.95),
       "ms", static_cast<int64_t>(a.queue_interactive_ms.size())},
      {"sched.interactive_submitted_per_s",
       Ratio(static_cast<double>(d.sched_submitted),
             secs),
       "1/s"},
      {"sched.shed", static_cast<double>(d.sched_shed),
       "count"},
      // dashboard, query
      {"dashboard.remote_queries_per_batch", a.remote / n, "count"},
      {"dashboard.fused_groups_per_batch", a.fused / n, "count"},
      {"dashboard.local_resolved_frac", a.local / nq, "frac"},
      {"phase.plan_ms", phase_mean_ms(vizq::Phase::kPlan), "ms"},
      {"phase.materialize_ms", phase_mean_ms(vizq::Phase::kMaterialize), "ms"},
      // cache
      {"cache.intelligent.exact_frac", exact / nq, "frac"},
      {"cache.intelligent.derived_frac", derived / nq, "frac"},
      {"cache.intelligent.miss_frac",
       std::max(0.0, 1.0 - (exact + derived + stale) / nq), "frac"},
      {"cache.intelligent.inserts_per_s",
       Ratio(static_cast<double>(d.cache_inserts), secs),
       "1/s"},
      {"cache.intelligent.evictions_per_s",
       Ratio(static_cast<double>(d.cache_evictions),
             secs),
       "1/s"},
      {"cache.intelligent.bytes", static_cast<double>(cache_bytes), "B"},
      {"cache.literal.hit_frac", Ratio(literal, literal + remote), "frac"},
      {"cache.shared.hits_per_s",
       Ratio(static_cast<double>(d.shared_hits), secs),
       "1/s"},
      {"phase.cache_lookup_us",
       phase_mean_ms(vizq::Phase::kCacheLookup) * 1e3, "us"},
      // server, obs
      {"server.serve_self_us", self_ms(Layer::kServer) * 1e3, "us"},
      {"server.outcome.stale_frac", outcome(server::ServeOutcome::kStale),
       "frac"},
      {"server.outcome.derived_frac",
       outcome(server::ServeOutcome::kDegradedDerived), "frac"},
      {"server.outcome.shed_frac", outcome(server::ServeOutcome::kShed),
       "frac"},
      {"server.admission.degraded_frac",
       Ratio(static_cast<double>(degraded),
             static_cast<double>(admitted + degraded)),
       "frac"},
      {"phase.admission_us", phase_mean_ms(vizq::Phase::kAdmission) * 1e3,
       "us"},
      {"phase.unattributed_frac", a.unattributed_frac / n, "frac"},
      {"obs.trace_overhead_frac",
       plain.throughput() > 0 ? 1.0 - t.throughput() / plain.throughput() : 0,
       "frac"},
      // cluster
      {"cluster.groups_per_batch",
       static_cast<double>(d.scattered_groups) / n,
       "count"},
      {"cluster.retries", static_cast<double>(d.retries),
       "count"},
      {"cluster.node_batches_skew", Ratio(node_max, node_mean), "ratio"},
      // rpc
      {"rpc.calls_per_s", Ratio(static_cast<double>(calls), secs), "1/s"},
      {"rpc.bytes_per_call",
       Ratio(static_cast<double>(d.rpc_bytes),
             static_cast<double>(calls)),
       "B"},
      {"rpc.modeled_wait_ms_per_call",
       Ratio(d.rpc_modeled_ms,
             static_cast<double>(calls)),
       "ms"},
      {"rpc.transport_errors",
       static_cast<double>(d.rpc_errors), "count"},
      {"phase.rpc_ms", phase_mean_ms(vizq::Phase::kRpc), "ms"},
      {"phase.remote_exec_ms", phase_mean_ms(vizq::Phase::kRemoteExec), "ms"},
      // federation
      {"federation.pool.opened", static_cast<double>(pool_opened), "count"},
      {"federation.pool.waits",
       static_cast<double>(d.pool_waits), "count"},
      {"federation.pool.reused_frac",
       Ratio(static_cast<double>(pool_reused),
             static_cast<double>(pool_opened + pool_reused)),
       "frac"},
      // workload
      {"workload.build_batch_us", Quantile(a.build_batch_us, 0.5), "us",
       static_cast<int64_t>(a.build_batch_us.size())},
      {"workload.open_p50_ms", Quantile(a.open_ms, 0.5), "ms",
       static_cast<int64_t>(a.open_ms.size())},
      {"workload.interact_p50_ms", Quantile(a.interact_ms, 0.5), "ms",
       static_cast<int64_t>(a.interact_ms.size())},
      {"workload.queries_per_interaction", a.queries / n, "count", na},
  };

  // --- self-time table: exclusive per-layer time per interaction ---
  double sum_ms = 0;
  for (int l = 0; l < kNumLayers; ++l) {
    Layer layer = static_cast<Layer>(l);
    double ms = self_ms(layer);
    sum_ms += ms;
    out.metrics.push_back(
        {std::string("selftime.") + LayerName(layer) + "_ms", ms, "ms"});
  }
  double wall_ms = root_ns / nr / 1e6;
  double residual = Ratio(std::fabs(sum_ms - wall_ms), wall_ms);
  out.metrics.push_back({"selftime.interaction_ms", wall_ms, "ms",
                         static_cast<int64_t>(a.requests.size())});
  out.metrics.push_back({"selftime.residual_frac", residual, "frac"});

  char line[160];
  out.self_time_table.push_back(
      "self time per interaction (traced run, " +
      std::to_string(a.requests.size()) + " interactions)");
  for (int l = 0; l < kNumLayers; ++l) {
    Layer layer = static_cast<Layer>(l);
    double ms = self_ms(layer);
    std::snprintf(line, sizeof(line), "  %-10s %12.4f ms  %6.2f%%",
                  LayerName(layer), ms, 100.0 * Ratio(ms, wall_ms));
    out.self_time_table.push_back(line);
  }
  std::snprintf(line, sizeof(line),
                "  %-10s %12.4f ms  (mean interaction wall %.4f ms; "
                "residual %.4f%%, tolerance %.1f%%: %s)",
                "sum", sum_ms, wall_ms, 100.0 * residual,
                100.0 * kSelfTimeTolerance,
                residual <= kSelfTimeTolerance ? "PASS" : "FAIL");
  out.self_time_table.push_back(line);

  if (!options.trace_out.empty()) {
    if (!WriteChromeTrace(options.trace_out, a.requests, 200)) {
      out.self_time_table.push_back("could not write " + options.trace_out);
    } else {
      out.self_time_table.push_back("spans of the first 200 interactions: " +
                                    options.trace_out);
    }
  }
  return out;
}

}  // namespace perfbench
