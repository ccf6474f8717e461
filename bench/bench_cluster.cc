// E21: sharded Data Server scaling and failover (DESIGN.md §15).
//
// A fixed pool of driver threads fires dashboard-style scatter batches
// (3 queries on 3 distinct views, randomized dep_hour/distance filters so
// the caches cannot absorb the work) at a ClusterCoordinator while the
// node count ramps N = 1 -> 2 -> 4 -> 8. Every published source is backed
// by its own simulated remote, so the backends never bottleneck; the
// per-node cpu-slot semaphore is the capacity under test, exactly as in a
// real Data Server fleet where each host runs a bounded worker pool.
// Reported per point: goodput (successful batches/s), typed-shed count
// (kResourceExhausted / kDeadlineExceeded / kAborted — the only failures
// the cluster is allowed to produce), untyped errors (must be zero), and
// p50/p95 batch latency.
//
// The failover run repeats the N=4 point with every batch touching a
// designated victim view; mid-run the victim's owner is killed. Recovery
// is the wall time from the kill to the first *successful* batch that
// includes the victim view — i.e. the lazy-detection + ring-reassign +
// retry path end to end, which the selftest bounds. The selftest also
// checks bounded-load placement: no node hosts more than ceil(8 / N)
// views at any ramp point.
//
//   bench_cluster --selftest          fast CI invariants
//   bench_cluster --emit-json=PATH    full ramp -> BENCH_cluster.json (E21)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/coordinator.h"
#include "src/common/rng.h"
#include "src/federation/simulated_source.h"

namespace {

using namespace vizq;

// Small table + large modeled dispatch: per-query cost is dominated by
// simulated backend sleeps, not real single-core CPU, so slot-limited
// throughput scales with the node count even on a 1-CPU host (the same
// trick the traffic bench uses — see bench_util.h's single-core note).
constexpr int64_t kRows = 1000;
constexpr int kSources = 8;        // published views "s0".."s7"
constexpr int kDrivers = 12;       // closed-loop driver threads
constexpr int kViewsPerBatch = 3;  // distinct views per scatter batch
constexpr double kDeadlineMs = 800.0;  // client patience per batch

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One simulated remote per source: modest per-query sleeps (dispatch +
// scan + transfer) dominate, so batch cost is I/O-shaped and the node
// slot held across it is what limits throughput — true on one core too.
std::shared_ptr<federation::SimulatedDataSource> MakeBackend(
    const std::string& name, const std::shared_ptr<tde::Database>& db) {
  federation::PerformanceModel m;
  m.connect_ms = 2.0;
  m.dispatch_ms = 8.0;
  m.rows_per_ms = 2000;  // ~0.5ms scan over the bench table
  m.cpu_slots = 4;
  m.max_parallel_per_query = 1;
  m.network_rtt_ms = 0.5;
  query::Capabilities caps = query::Capabilities::SingleThreadedSql();
  caps.max_connections = 16;
  caps.max_concurrent_queries = 8;
  return std::make_shared<federation::SimulatedDataSource>(
      name, db, m, caps, query::SqlDialect::MssqlLike());
}

std::string ViewName(int i) { return "s" + std::to_string(i); }

struct Cluster {
  std::unique_ptr<cluster::ClusterCoordinator> coord;
  std::vector<std::shared_ptr<federation::SimulatedDataSource>> backends;
};

Cluster MakeCluster(int num_nodes) {
  Cluster c;
  auto db = benchutil::FaaDb(kRows);
  cluster::ClusterOptions copts;
  copts.num_nodes = num_nodes;
  copts.node.cpu_slots = 2;  // the scaling lever: 2 batch slots per node
  c.coord = std::make_unique<cluster::ClusterCoordinator>(copts);
  for (int i = 0; i < kSources; ++i) {
    auto backend = MakeBackend("remote-" + ViewName(i), db);
    cluster::SourceSpec spec;
    spec.view.name = ViewName(i);
    spec.view.fact_table = "flights";
    spec.backend = backend;
    if (!c.coord->Publish(spec).ok()) std::abort();
    c.backends.push_back(std::move(backend));
  }
  return c;
}

// A cache-defeating aggregate: random IN-set on dep_hour and a random
// distance range give ~24 * 2^10 distinct keys per view.
query::AbstractQuery MakeQuery(const std::string& view, Rng& rng) {
  query::AbstractQuery q;
  q.data_source = "faa";
  q.view = view;
  q.dimensions = {"carrier"};
  q.measures.push_back({AggFunc::kSum, "arr_delay", "delay"});
  q.measures.push_back({AggFunc::kCountStar, "", "n"});
  int64_t h = rng.Range(0, 20);
  q.filters.predicates.push_back(query::ColumnPredicate::InSet(
      "dep_hour", {Value(h), Value(h + 1), Value(h + 2)}));
  q.filters.predicates.push_back(query::ColumnPredicate::Range(
      "distance", Value(rng.Range(0, 500)), Value(rng.Range(1500, 3000))));
  q.Canonicalize();
  return q;
}

bool IsTypedShed(StatusCode code) {
  return code == StatusCode::kResourceExhausted ||
         code == StatusCode::kDeadlineExceeded || code == StatusCode::kAborted;
}

struct PointResult {
  int nodes = 0;
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t shed = 0;    // typed cluster errors (allowed under overload)
  int64_t errors = 0;  // anything untyped (must be zero)
  double goodput_per_s = 0;  // successful batches / measured second
  double p50_ms = 0, p95_ms = 0;
  int64_t failovers = 0, retries = 0;
  double recovery_ms = -1;  // failover run only
  int max_hosted = 0;       // most views one node hosts (ramp points)
};

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(p * (v.size() - 1))];
}

// Closed-loop drivers against `c` for `duration_s`. When `victim` is
// non-empty every batch includes that view, `kill_at_frac` of the run
// kills its owner, and the time to the first subsequent success is
// reported as recovery_ms.
PointResult RunPoint(Cluster& c, int num_nodes, double duration_s,
                     uint64_t seed, const std::string& victim = "",
                     double kill_at_frac = 0.5) {
  PointResult out;
  out.nodes = num_nodes;

  std::atomic<int64_t> attempted{0}, ok{0}, shed{0}, errors{0};
  std::atomic<int64_t> kill_ns{0}, recover_ns{0};
  std::mutex lat_mu;
  std::vector<double> latencies_ms;

  int64_t t_start = NowNs();
  int64_t t_stop = t_start + static_cast<int64_t>(duration_s * 1e9);

  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      Rng rng(seed * 1000003 + d);
      while (NowNs() < t_stop) {
        std::vector<query::AbstractQuery> batch;
        int first = victim.empty()
                        ? static_cast<int>(rng.Below(kSources))
                        : -1;  // -1 = the victim view
        for (int k = 0; k < kViewsPerBatch; ++k) {
          std::string view =
              (k == 0 && first < 0)
                  ? victim
                  : ViewName((std::max(first, 0) + k) % kSources);
          batch.push_back(MakeQuery(view, rng));
        }
        ExecContext ctx = ExecContext::WithDeadlineMs(kDeadlineMs);
        int64_t t0 = NowNs();
        dashboard::BatchReport report;
        auto results = c.coord->ExecuteBatch(ctx, batch, {}, &report);
        int64_t t1 = NowNs();
        attempted.fetch_add(1, std::memory_order_relaxed);
        if (results.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
          {
            std::lock_guard<std::mutex> lock(lat_mu);
            latencies_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
          }
          // Recovery: first success that started after the kill and
          // includes the victim view.
          int64_t kns = kill_ns.load(std::memory_order_acquire);
          if (!victim.empty() && kns != 0 && t0 > kns) {
            int64_t expect = 0;
            recover_ns.compare_exchange_strong(expect, t1,
                                               std::memory_order_acq_rel);
          }
        } else if (IsTypedShed(results.status().code())) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
          std::fprintf(stderr, "untyped error: %s\n",
                       results.status().ToString().c_str());
        }
      }
    });
  }

  if (!victim.empty()) {
    int64_t t_kill = t_start + static_cast<int64_t>(
                                   duration_s * kill_at_frac * 1e9);
    int64_t now = NowNs();
    if (t_kill > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(t_kill - now));
    }
    std::string owner = c.coord->OwnerOf(victim);
    kill_ns.store(NowNs(), std::memory_order_release);
    c.coord->KillNode(owner);
    std::fprintf(stderr, "  killed %s (owner of %s)\n", owner.c_str(),
                 victim.c_str());
  }
  for (auto& t : drivers) t.join();

  out.attempted = attempted.load();
  out.ok = ok.load();
  out.shed = shed.load();
  out.errors = errors.load();
  out.goodput_per_s = static_cast<double>(out.ok) / duration_s;
  out.p50_ms = Percentile(latencies_ms, 0.50);
  out.p95_ms = Percentile(latencies_ms, 0.95);
  out.failovers = c.coord->stats().failovers;
  out.retries = c.coord->retries();
  if (!victim.empty() && recover_ns.load() != 0) {
    out.recovery_ms =
        static_cast<double>(recover_ns.load() - kill_ns.load()) / 1e6;
  }
  return out;
}

void PrintPoint(const char* tag, const PointResult& r) {
  std::fprintf(stderr,
               "%s N=%d: %lld batches, goodput %.1f/s, shed %lld, "
               "errors %lld, p50 %.1fms p95 %.1fms",
               tag, r.nodes, static_cast<long long>(r.ok), r.goodput_per_s,
               static_cast<long long>(r.shed),
               static_cast<long long>(r.errors), r.p50_ms, r.p95_ms);
  if (r.recovery_ms >= 0) {
    std::fprintf(stderr, ", failovers %lld, recovery %.1fms",
                 static_cast<long long>(r.failovers), r.recovery_ms);
  }
  std::fprintf(stderr, "\n");
}

// Warm each backend's connections so the ramp measures steady state, not
// the connect handshake.
void Warm(Cluster& c, uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < kSources; ++i) {
    std::vector<query::AbstractQuery> batch = {MakeQuery(ViewName(i), rng)};
    (void)c.coord->ExecuteBatch(batch);
  }
}

// Bounded-load placement caps every node at ceil(views / nodes).
int MaxHostedViews(Cluster& c, int num_nodes) {
  int most = 0;
  for (int i = 0; i < num_nodes; ++i) {
    auto* node = c.coord->node("n" + std::to_string(i));
    most = std::max(most, static_cast<int>(node->HostedViews().size()));
  }
  return most;
}

struct RampResult {
  std::vector<PointResult> points;
  PointResult failover;
};

RampResult RunRamp(double duration_s) {
  RampResult out;
  const int ramp[] = {1, 2, 4, 8};
  uint64_t seed = 2026;
  for (int n : ramp) {
    Cluster c = MakeCluster(n);
    Warm(c, seed);
    out.points.push_back(RunPoint(c, n, duration_s, seed++));
    out.points.back().max_hosted = MaxHostedViews(c, n);
    PrintPoint("ramp", out.points.back());
  }
  {
    Cluster c = MakeCluster(4);
    Warm(c, seed);
    out.failover =
        RunPoint(c, 4, 2.0 * duration_s, seed, /*victim=*/ViewName(0));
    PrintPoint("failover", out.failover);
  }
  return out;
}

int EmitJson(const std::string& path, const RampResult& r) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  double g1 = r.points.front().goodput_per_s;
  double g4 = 0;
  for (const auto& p : r.points) {
    if (p.nodes == 4) g4 = p.goodput_per_s;
  }
  f << "{\n  \"bench\": \"cluster\",\n"
    << "  \"workload\": \"" << kDrivers
    << " closed-loop drivers, 3-view scatter batches with randomized "
       "filters over "
    << kSources << " sources (one simulated remote each), deadline "
    << kDeadlineMs << "ms, 2 cpu slots per node\",\n  \"ramp\": [\n";
  for (size_t i = 0; i < r.points.size(); ++i) {
    const PointResult& p = r.points[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"nodes\": %d, \"batches_ok\": %lld, \"goodput_per_s\": "
        "%.1f, \"shed\": %lld, \"errors\": %lld, \"p50_ms\": %.1f, "
        "\"p95_ms\": %.1f, \"max_hosted_views\": %d}%s\n",
        p.nodes, static_cast<long long>(p.ok), p.goodput_per_s,
        static_cast<long long>(p.shed), static_cast<long long>(p.errors),
        p.p50_ms, p.p95_ms, p.max_hosted, i + 1 < r.points.size() ? "," : "");
    f << buf;
  }
  {
    const PointResult& p = r.failover;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "  ],\n  \"speedup_4x\": %.2f,\n"
        "  \"failover\": {\"nodes\": %d, \"batches_ok\": %lld, "
        "\"goodput_per_s\": %.1f, \"shed\": %lld, \"errors\": %lld, "
        "\"failovers\": %lld, \"retries\": %lld, \"recovery_ms\": %.1f}\n}\n",
        g1 > 0 ? g4 / g1 : 0, p.nodes, static_cast<long long>(p.ok),
        p.goodput_per_s, static_cast<long long>(p.shed),
        static_cast<long long>(p.errors), static_cast<long long>(p.failovers),
        static_cast<long long>(p.retries), p.recovery_ms);
    f << buf;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

#define CHECK_OR_FAIL(cond, msg)                          \
  do {                                                    \
    if (!(cond)) {                                        \
      std::fprintf(stderr, "SELFTEST FAIL: %s\n", (msg)); \
      return 1;                                           \
    }                                                     \
  } while (0)

// Fast CI invariants: goodput scales with the node count, failures are
// always typed, no node hosts more than ceil(views / nodes) views, and
// killing an owner mid-run recovers within a bound.
int Selftest() {
  RampResult r = RunRamp(/*duration_s=*/1.2);
  double g1 = 0, g4 = 0;
  for (const auto& p : r.points) {
    CHECK_OR_FAIL(p.errors == 0, "ramp produced an untyped error");
    CHECK_OR_FAIL(p.ok > 0, "ramp point served nothing");
    CHECK_OR_FAIL(p.max_hosted <= cluster::LoadCap(kSources, p.nodes),
                  "a node hosts more than ceil(views / nodes) views");
    if (p.nodes == 1) g1 = p.goodput_per_s;
    if (p.nodes == 4) g4 = p.goodput_per_s;
  }
  CHECK_OR_FAIL(g4 >= 1.25 * g1,
                "4-node goodput did not scale over single-node");
  CHECK_OR_FAIL(r.failover.errors == 0,
                "failover run produced an untyped error");
  CHECK_OR_FAIL(r.failover.failovers >= 1, "kill did not trigger a failover");
  CHECK_OR_FAIL(r.failover.recovery_ms >= 0,
                "no successful victim-view batch after the kill");
  CHECK_OR_FAIL(r.failover.recovery_ms < 2000.0,
                "failover recovery exceeded 2s");
  std::fprintf(stderr,
               "selftest ok: speedup_4x=%.2f recovery=%.1fms failovers=%lld\n",
               g4 / g1, r.failover.recovery_ms,
               static_cast<long long>(r.failover.failovers));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string emit_json;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--emit-json=", 12) == 0) {
      emit_json = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--selftest") == 0) {
      selftest = true;
    } else {
      std::fprintf(stderr, "usage: %s [--selftest] [--emit-json=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (selftest) return Selftest();
  RampResult r = RunRamp(/*duration_s=*/2.0);
  if (!emit_json.empty()) return EmitJson(emit_json, r);
  return 0;
}
