// Encoding-aware execution bench (DESIGN.md §11): the Scan→Filter→
// Aggregate hot path on compressed columns vs the decoded row path.
//
// Two workloads on a 2M-row FAA-shaped fact table sorted by a 10-value
// dictionary key (so the key is heavily run-length encoded, like
// `carrier` in the flights extract):
//
//   * group-by — the FAA smoke probe shape: COUNT(*) per dictionary key.
//     The dense path folds whole key runs (one multiply-add per run
//     segment) where the row path hashes every row. A SUM(v) variant over
//     a plain int column is reported alongside (per-row accumulation
//     remains, only the hash probe is saved).
//   * filter — a selective predicate over a second RLE column (~3% of
//     rows survive, whole runs at a time). The encoded filter evaluates
//     once per run and emits a selection vector; the row path evaluates
//     per row and materializes survivors.
//
// Both comparisons flip only enable_encoded_exec. Streaming aggregation
// is disabled on both sides (the sorted key would otherwise claim the
// group-by for a different — also fast — path; E16/engine tests cover
// it), and the RLE IndexTable rewrite is disabled for the filter workload
// (E7 measures that axis; here the scan shape must stay fixed).
//
// A third set runs the perfbench `explore` shapes on the 1M-row FAA
// extract under a quick filter keeping 13 of 14 carriers, with every
// optimizer default (rle_index=kAuto, streaming on), so range skipping,
// integer keys and the partial aggregate below the carriers join all
// interact as they do in the dashboard workload:
//   * origin_state — range skipping feeding a dictionary-key dense group-by;
//   * dep_hour     — an int64 key (dense over its stats range);
//   * airline_name — the dimension attribute behind the carriers join.
//
// A fourth set is the explore sessions' filter action: the five bottom
// Figure-1 zones (Airlines, DestAirports, CancellationsByWeekday,
// DelayByHour, TotalCount) under an OriginMap + DestMap selection,
// compiled from the dashboard as the service sends them. Each carries two
// token-bitmap conjuncts (origin_state, dest_state);
// CancellationsByWeekday adds the per-run conjunct on `cancelled`. One
// round runs the five zones serially.
//
// Beside wall times, --emit-json records EXPLAIN ANALYZE self time (a
// node's wall time minus its children's) of every dense Aggregate and
// encoded Select over the explore shapes and one filter-action round.
//
// --emit-json=PATH writes BENCH_columnar.json (with --git-sha=SHA for the
// record's commit) and enforces the acceptance bars: >=5x on the
// dictionary-key group-by, >=10x on the selective RLE-run filter, and
// EXPLAIN ANALYZE plans confirming the encoded operators actually ran,
// `dense` in every explore shape (exit 2 below bar, exit 1 on
// malfunction).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/query/compiler.h"
#include "src/tde/engine.h"
#include "src/tde/exec/analyze.h"
#include "src/tde/storage/database.h"
#include "src/tde/storage/table.h"
#include "src/workload/flights_dashboards.h"

#ifndef VIZQ_BUILD_TYPE
#define VIZQ_BUILD_TYPE "unknown"
#endif

namespace {

using namespace vizq;

constexpr int64_t kRows = 2000000;
constexpr int kKeyCardinality = 10;  // carrier-like
constexpr int kRunValues = 64;       // second RLE column's distinct values

std::shared_ptr<tde::Database> ColumnarDb() {
  static std::shared_ptr<tde::Database> db;
  if (db != nullptr) return db;
  Rng rng(2015);
  tde::TableBuilder builder("fact",
                            {tde::ColumnInfo{"k", DataType::String()},
                             tde::ColumnInfo{"r", DataType::Int64()},
                             tde::ColumnInfo{"v", DataType::Int64()}});
  // k: sorted 10-value dictionary key -> RLE over tokens (kAuto picks it).
  // r: globally increasing bucket -> RLE, runs of kRows/kRunValues.
  // v: plain random int measure.
  for (int64_t i = 0; i < kRows; ++i) {
    std::string k = "c" + std::to_string(i / (kRows / kKeyCardinality));
    int64_t r = i / (kRows / kRunValues);
    (void)builder.AddRow({Value(k), Value(r), Value(rng.Range(0, 1000))});
  }
  builder.DeclareSorted({0, 1});
  db = std::make_shared<tde::Database>("columnar");
  (void)db->AddTable(*builder.Finish());
  return db;
}

const char kGroupByCount[] =
    "(aggregate ((k k)) ((n count*)) (scan fact))";
const char kGroupBySum[] =
    "(aggregate ((k k)) ((n count*) (s sum v)) (scan fact))";
const char kSelectiveFilter[] =
    "(aggregate ((k k)) ((n count*)) (select (< r 2) (scan fact)))";

constexpr int64_t kExploreRows = 1000000;

struct ExploreShape {
  const char* name;
  std::string tql;
};

// The explore workload's zone queries under a carrier quick filter that
// keeps all carriers but the first.
const std::vector<ExploreShape>& ExploreShapes() {
  static const std::vector<ExploreShape>* shapes = [] {
    std::string in = "(in carrier";
    const std::vector<std::string>& codes = workload::FaaCarrierCodes();
    for (size_t c = 1; c < codes.size(); ++c) in += " \"" + codes[c] + "\"";
    in += ")";
    const std::string measures =
        " ((n count*) (s sum arr_delay) (c count arr_delay)) ";
    return new std::vector<ExploreShape>{
        {"origin_state",
         "(aggregate ((origin_state origin_state))" + measures + "(select " +
             in + " (scan flights)))"},
        {"dep_hour", "(aggregate ((dep_hour dep_hour))" + measures +
                         "(select " + in + " (scan flights)))"},
        {"airline_name",
         "(aggregate ((airline_name airline_name))" + measures + "(select " +
             in +
             " (join inner ((carrier code)) (scan flights) (scan carriers) "
             "referential)))"},
    };
  }();
  return *shapes;
}

struct ZonePlan {
  std::string zone;
  tde::LogicalOpPtr plan;
};

// The filter action's five zone queries, compiled for the TDE.
const std::vector<ZonePlan>& FilterActionPlans(const tde::Database& db) {
  static const std::vector<ZonePlan>* plans = [&db] {
    auto* out = new std::vector<ZonePlan>;
    dashboard::Dashboard fig1 = workload::BuildFigure1Dashboard("faa");
    dashboard::InteractionState state;
    state.Select("OriginMap", "origin_state", {Value("CA")});
    state.Select("DestMap", "dest_state", {Value("TX"), Value("NY")});
    query::QueryCompiler compiler(workload::FlightsStarView(),
                                  query::Capabilities::Tde(),
                                  query::SqlDialect::Ansi(), &db);
    for (const std::string& zone : fig1.ActionTargets("OriginMap")) {
      auto q = fig1.BuildZoneQuery(zone, state);
      auto compiled = q.ok() ? compiler.Compile(*q)
                             : StatusOr<query::CompiledQuery>(q.status());
      if (!compiled.ok()) {
        std::fprintf(stderr, "filter action %s: %s\n", zone.c_str(),
                     compiled.status().ToString().c_str());
        std::exit(1);
      }
      out->push_back({zone, compiled->plan});
    }
    return out;
  }();
  return *plans;
}

// Every optimizer default except the encoded-exec switch.
tde::QueryOptions ExploreOptions(bool encoded) {
  tde::QueryOptions o = tde::QueryOptions::Serial();
  o.collect_analysis = false;
  o.optimizer.enable_encoded_exec = encoded;
  return o;
}

tde::QueryOptions BenchOptions(bool encoded) {
  tde::QueryOptions o = tde::QueryOptions::Serial();
  o.collect_analysis = false;
  o.optimizer.enable_encoded_exec = encoded;
  o.optimizer.enable_streaming_agg = false;
  o.optimizer.rle_index = tde::OptimizerOptions::RleIndexMode::kOff;
  return o;
}

// Best-of-`reps` wall milliseconds (first run is a discarded warmup).
template <typename Query>
double TimeQuery(tde::TdeEngine& engine, const Query& query,
                 const tde::QueryOptions& options, int reps = 5) {
  double best = 1e300;
  for (int i = 0; i <= reps; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    auto result = engine.Execute(query, options);
    auto t1 = std::chrono::steady_clock::now();
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (i > 0) best = std::min(best, ms);
  }
  return best;
}

// EXPLAIN ANALYZE self time of the encoded operators of one query.
struct OperatorSelfMs {
  double dense_aggregate = 0;
  double encoded_select = 0;
  bool saw_dense = false;
};

template <typename Query>
OperatorSelfMs AnalyzeSelfMs(tde::TdeEngine& engine, const Query& query) {
  tde::QueryOptions o = ExploreOptions(/*encoded=*/true);
  o.collect_analysis = true;
  auto run = engine.Execute(query, o);
  if (!run.ok()) {
    std::fprintf(stderr, "analyze run failed: %s\n",
                 run.status().ToString().c_str());
    std::exit(1);
  }
  OperatorSelfMs out;
  run->analysis->ForEach([&out](const tde::PlanNodeStats& node) {
    double self = node.wall_ms();
    for (const tde::PlanNodeStats* c : node.children) self -= c->wall_ms();
    if (node.label.rfind("Aggregate", 0) == 0 &&
        node.label.find(" dense") != std::string::npos) {
      out.dense_aggregate += self;
      out.saw_dense = true;
    } else if (node.label.rfind("Select", 0) == 0 &&
               node.label.find("[encoded]") != std::string::npos) {
      out.encoded_select += self;
    }
  });
  return out;
}

// ---------------------------------------------------------------------------
// Harness benches (quick variants; the acceptance run is --emit-json).

void BM_GroupByDictKey(benchmark::State& state) {
  tde::TdeEngine engine(ColumnarDb());
  tde::QueryOptions options = BenchOptions(state.range(0) == 1);
  for (auto _ : state) {
    auto result = engine.Execute(kGroupByCount, options);
    if (!result.ok()) state.SkipWithError("query failed");
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel(state.range(0) == 1 ? "encoded" : "decoded");
}
BENCHMARK(BM_GroupByDictKey)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SelectiveRleFilter(benchmark::State& state) {
  tde::TdeEngine engine(ColumnarDb());
  tde::QueryOptions options = BenchOptions(state.range(0) == 1);
  for (auto _ : state) {
    auto result = engine.Execute(kSelectiveFilter, options);
    if (!result.ok()) state.SkipWithError("query failed");
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel(state.range(0) == 1 ? "encoded" : "decoded");
}
BENCHMARK(BM_SelectiveRleFilter)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// range(0): explore shape index; range(1): 1 = encoded.
void BM_ExploreShape(benchmark::State& state) {
  tde::TdeEngine engine(benchutil::FaaDb(kExploreRows));
  const ExploreShape& shape = ExploreShapes()[state.range(0)];
  tde::QueryOptions options = ExploreOptions(state.range(1) == 1);
  for (auto _ : state) {
    auto result = engine.Execute(shape.tql, options);
    if (!result.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * kExploreRows);
  state.SetLabel(std::string(shape.name) +
                 (state.range(1) == 1 ? " encoded" : " decoded"));
}
BENCHMARK(BM_ExploreShape)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// One filter-action round (five zones, serial); range(0): 1 = encoded.
void BM_FilterActionRound(benchmark::State& state) {
  std::shared_ptr<tde::Database> db = benchutil::FaaDb(kExploreRows);
  tde::TdeEngine engine(db);
  tde::QueryOptions options = ExploreOptions(state.range(0) == 1);
  for (auto _ : state) {
    for (const ZonePlan& z : FilterActionPlans(*db)) {
      auto result = engine.Execute(z.plan, options);
      if (!result.ok()) state.SkipWithError("query failed");
      benchmark::DoNotOptimize(result);
    }
  }
  state.SetLabel(state.range(0) == 1 ? "encoded" : "decoded");
}
BENCHMARK(BM_FilterActionRound)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --emit-json=PATH: the BENCH_columnar.json record (EXPERIMENTS.md E17).

int EmitJson(const std::string& path, const std::string& git_sha) {
  tde::TdeEngine engine(ColumnarDb());
  std::fprintf(stderr, "columnar: %lld rows, %d-value dict key, %d-run "
               "filter column\n",
               static_cast<long long>(kRows), kKeyCardinality, kRunValues);

  // Plan check: the encoded run must actually use the encoded operators.
  tde::QueryOptions analyzed = BenchOptions(/*encoded=*/true);
  analyzed.collect_analysis = true;
  auto plan_run = engine.Execute(kSelectiveFilter, analyzed);
  if (!plan_run.ok()) {
    std::fprintf(stderr, "plan run failed: %s\n",
                 plan_run.status().ToString().c_str());
    return 1;
  }
  std::string plan = plan_run->analysis->ToText();
  bool plan_ok = plan.find(" dense") != std::string::npos &&
                 plan.find(" encoded") != std::string::npos &&
                 plan.find("[encoded]") != std::string::npos &&
                 plan_run->stats->used_encoded_path &&
                 plan_run->stats->encoded_fallbacks == 0;
  std::fprintf(stderr, "encoded plan:\n%s", plan.c_str());
  if (!plan_ok) {
    std::fprintf(stderr, "encoded operators missing from the plan\n");
    return 1;
  }

  double gb_dec = TimeQuery(engine, kGroupByCount, BenchOptions(false));
  double gb_enc = TimeQuery(engine, kGroupByCount, BenchOptions(true));
  double gbs_dec = TimeQuery(engine, kGroupBySum, BenchOptions(false));
  double gbs_enc = TimeQuery(engine, kGroupBySum, BenchOptions(true));
  double fl_dec = TimeQuery(engine, kSelectiveFilter, BenchOptions(false));
  double fl_enc = TimeQuery(engine, kSelectiveFilter, BenchOptions(true));

  // Explore shapes: the plan with every default must aggregate dense.
  std::shared_ptr<tde::Database> faa_db = benchutil::FaaDb(kExploreRows);
  tde::TdeEngine faa(faa_db);
  struct ExploreTiming {
    double decoded_ms = 0;
    double encoded_ms = 0;
  };
  std::vector<ExploreTiming> explore;
  for (const ExploreShape& shape : ExploreShapes()) {
    tde::QueryOptions o = ExploreOptions(/*encoded=*/true);
    o.collect_analysis = true;
    auto run = faa.Execute(shape.tql, o);
    if (!run.ok() ||
        run->analysis->ToText().find(" dense") == std::string::npos) {
      std::fprintf(stderr, "explore %s: no dense aggregation:\n%s\n",
                   shape.name,
                   run.ok() ? run->analysis->ToText().c_str()
                            : run.status().ToString().c_str());
      return 1;
    }
    explore.push_back(
        {TimeQuery(faa, shape.tql, ExploreOptions(false)),
         TimeQuery(faa, shape.tql, ExploreOptions(true))});
  }

  // Filter action: every zone dense, one round = the five zones serially.
  ExploreTiming action;
  OperatorSelfMs explore_self;
  OperatorSelfMs action_self;
  for (const ExploreShape& shape : ExploreShapes()) {
    OperatorSelfMs self = AnalyzeSelfMs(faa, shape.tql);
    explore_self.dense_aggregate += self.dense_aggregate;
    explore_self.encoded_select += self.encoded_select;
  }
  for (const ZonePlan& z : FilterActionPlans(*faa_db)) {
    OperatorSelfMs self = AnalyzeSelfMs(faa, z.plan);
    if (!self.saw_dense) {
      std::fprintf(stderr, "filter action %s: no dense aggregation\n",
                   z.zone.c_str());
      return 1;
    }
    action_self.dense_aggregate += self.dense_aggregate;
    action_self.encoded_select += self.encoded_select;
    action.decoded_ms += TimeQuery(faa, z.plan, ExploreOptions(false));
    action.encoded_ms += TimeQuery(faa, z.plan, ExploreOptions(true));
  }
  std::fprintf(stderr,
               "  filter action round: decoded %.2f ms, encoded %.2f ms\n"
               "  self ms (explore shapes): dense aggregate %.3f, encoded "
               "select %.3f\n"
               "  self ms (filter action): dense aggregate %.3f, encoded "
               "select %.3f\n",
               action.decoded_ms, action.encoded_ms,
               explore_self.dense_aggregate, explore_self.encoded_select,
               action_self.dense_aggregate, action_self.encoded_select);

  double gb_x = gb_enc > 0 ? gb_dec / gb_enc : 0;
  double gbs_x = gbs_enc > 0 ? gbs_dec / gbs_enc : 0;
  double fl_x = fl_enc > 0 ? fl_dec / fl_enc : 0;
  std::fprintf(stderr,
               "  group-by count*: decoded %.2f ms, encoded %.2f ms (%.1fx)\n"
               "  group-by +sum:   decoded %.2f ms, encoded %.2f ms (%.1fx)\n"
               "  selective filter: decoded %.2f ms, encoded %.2f ms (%.1fx)\n",
               gb_dec, gb_enc, gb_x, gbs_dec, gbs_enc, gbs_x, fl_dec, fl_enc,
               fl_x);

  std::string explore_json;
  for (size_t i = 0; i < explore.size(); ++i) {
    const ExploreTiming& t = explore[i];
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "    \"explore_%s\": {\"decoded_ms\": %.3f, "
                  "\"encoded_ms\": %.3f, \"speedup_x\": %.2f},\n",
                  ExploreShapes()[i].name, t.decoded_ms, t.encoded_ms,
                  t.encoded_ms > 0 ? t.decoded_ms / t.encoded_ms : 0);
    std::fprintf(stderr, "  explore %-13s decoded %.2f ms, encoded %.2f ms\n",
                 ExploreShapes()[i].name, t.decoded_ms, t.encoded_ms);
    explore_json += entry;
  }

  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  char action_json[512];
  std::snprintf(
      action_json, sizeof(action_json),
      "    \"filter_action_round\": {\"decoded_ms\": %.3f, \"encoded_ms\": "
      "%.3f, \"speedup_x\": %.2f},\n"
      "    \"self_ms_explore_shapes\": {\"dense_aggregate\": %.3f, "
      "\"encoded_select\": %.3f},\n"
      "    \"self_ms_filter_action\": {\"dense_aggregate\": %.3f, "
      "\"encoded_select\": %.3f},\n",
      action.decoded_ms, action.encoded_ms,
      action.encoded_ms > 0 ? action.decoded_ms / action.encoded_ms : 0,
      explore_self.dense_aggregate, explore_self.encoded_select,
      action_self.dense_aggregate, action_self.encoded_select);
  explore_json += action_json;

  char buf[3072];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"bench\": \"columnar\",\n"
      "  \"host\": {\"nproc\": %u, \"build_type\": \"%s\"},\n"
      "  \"git_sha\": \"%s\",\n"
      "  \"workload\": \"%lld rows sorted by %d-value dict key; %d-run rle "
      "filter column; serial, streaming-agg and rle-index off. explore_*: "
      "%lld-row FAA extract, 13-of-14 carrier quick filter, serial, every "
      "optimizer default. filter_action_round: the five bottom Figure-1 "
      "zones under origin_state=CA + dest_state in (TX, NY), serial. "
      "self_ms_*: EXPLAIN ANALYZE self time of the dense Aggregate and "
      "encoded Select nodes, one run each\",\n"
      "  \"metrics\": {\n"
      "    \"groupby_count\": {\"decoded_ms\": %.3f, \"encoded_ms\": %.3f, "
      "\"speedup_x\": %.2f},\n"
      "    \"groupby_count_sum\": {\"decoded_ms\": %.3f, \"encoded_ms\": "
      "%.3f, \"speedup_x\": %.2f},\n"
      "    \"selective_filter\": {\"decoded_ms\": %.3f, \"encoded_ms\": "
      "%.3f, \"speedup_x\": %.2f},\n"
      "%s"
      "    \"plan_confirms_encoded\": true\n"
      "  }\n"
      "}\n",
      std::thread::hardware_concurrency(), VIZQ_BUILD_TYPE, git_sha.c_str(),
      static_cast<long long>(kRows), kKeyCardinality, kRunValues,
      static_cast<long long>(kExploreRows), gb_dec, gb_enc, gb_x, gbs_dec,
      gbs_enc, gbs_x, fl_dec, fl_enc, fl_x, explore_json.c_str());
  f << buf;
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  // Acceptance: >=5x on the dictionary-key group-by, >=10x on the
  // selective RLE-run filter.
  return (gb_x >= 5.0 && fl_x >= 10.0) ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--emit-json=", 12) == 0) {
      json_path = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--git-sha=", 10) == 0) {
      git_sha = argv[i] + 10;
    }
  }
  if (!json_path.empty()) return EmitJson(json_path, git_sha);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
