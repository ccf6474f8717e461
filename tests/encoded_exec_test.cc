// Tests for encoding-aware execution (DESIGN.md §11): run-encoded scan
// batches, per-token / per-run filter evaluation, dense token-indexed
// grouping, the plan-layer decision gates, and the storage helpers they
// are built on (EmitRuns clipping, range gathers and their kDelta cursor,
// CompareRows).
//
// The encoded path is always diffed against the row path (the correctness
// baseline) by re-running the same query with enable_encoded_exec off.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/common/rng.h"
#include "src/tde/engine.h"
#include "src/tde/exec/aggregate.h"
#include "src/tde/exec/scan.h"
#include "src/tde/plan/tql_parser.h"
#include "src/tde/storage/database.h"
#include "src/tde/storage/table.h"
#include "src/testing/join_fuzz.h"
#include "src/testing/table_diff.h"
#include "tests/test_util.h"

namespace vizq::tde {
namespace {

using vizq::testing::TablesEquivalent;

// A table exercising every encoding on the encoded hot path:
//   k   string dict, cardinality 7, *unsorted* (cycling) so streaming
//       aggregation never claims the group-by and dense grouping does
//   s   string dict, cardinality 4, nulls every 13th row
//   r   int64 forced kRle (runs of 100)
//   rf  float64 forced kRle (runs of 300)
//   v   int64 plain
//   f   float64 plain
//   dl  int64 forced kDelta, base beyond int32 (3e9), step 3
std::shared_ptr<Database> MakeEncodedDb(int64_t rows) {
  std::vector<ColumnInfo> schema = {
      {"k", DataType::String()},   {"s", DataType::String()},
      {"r", DataType::Int64()},    {"rf", DataType::Float64()},
      {"v", DataType::Int64()},    {"f", DataType::Float64()},
      {"dl", DataType::Int64()},
  };
  TableBuilder builder("enc", schema);
  builder.SetEncodingChoice(2, EncodingChoice::kForceRle);
  builder.SetEncodingChoice(3, EncodingChoice::kForceRle);
  builder.SetEncodingChoice(6, EncodingChoice::kForceDelta);
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    row.emplace_back("k" + std::to_string(i % 7));
    if (i % 13 == 0) {
      row.push_back(Value::Null());
    } else {
      row.emplace_back("s" + std::to_string(i % 4));
    }
    row.emplace_back((i / 100) % 5);
    row.emplace_back(static_cast<double>(i / 300) * 1.25);
    row.emplace_back(i % 11);
    row.emplace_back(static_cast<double>(i % 13) * 0.5);
    row.emplace_back(static_cast<int64_t>(3000000000LL + i * 3));
    (void)builder.AddRow(row);
  }
  auto db = std::make_shared<Database>("encdb");
  (void)db->AddTable(*builder.Finish());
  return db;
}

QueryOptions EncodedOn() { return QueryOptions::Serial(); }

QueryOptions EncodedOff() {
  QueryOptions o = QueryOptions::Serial();
  o.optimizer.enable_encoded_exec = false;
  return o;
}

// Runs `tql` with the encoded path on and off and requires equivalent
// tables; returns the encoded-path result for further stats assertions.
QueryResult DiffEncodedVsRow(TdeEngine& engine, const std::string& tql) {
  auto on = engine.Execute(tql, EncodedOn());
  auto off = engine.Execute(tql, EncodedOff());
  EXPECT_TRUE(on.ok()) << on.status() << " for " << tql;
  EXPECT_TRUE(off.ok()) << off.status() << " for " << tql;
  if (on.ok() && off.ok()) {
    EXPECT_TRUE(TablesEquivalent(off->table, on->table)) << tql;
    EXPECT_FALSE(off->stats->used_encoded_path);
  }
  return on.ok() ? std::move(*on) : QueryResult();
}

TEST(EncodedExecTest, DenseGroupByMatchesHashAcrossAggregates) {
  TdeEngine engine(MakeEncodedDb(3000));
  QueryResult on = DiffEncodedVsRow(
      engine,
      "(aggregate ((k k)) ((n count*) (sv sum v) (sr sum r) (ar avg r) "
      "(mf min f) (xf max f) (cd countd r) (af avg rf) (sdl sum dl)) "
      "(scan enc))");
  ASSERT_NE(on.stats, nullptr);
  EXPECT_TRUE(on.stats->used_encoded_path);
  EXPECT_EQ(on.stats->encoded_plans, 1);
  EXPECT_EQ(on.stats->encoded_fallbacks, 0);
  // The two forced-RLE columns stay undecoded through the scan.
  EXPECT_GT(on.stats->encoded_rows_undecoded, 0);
  ASSERT_NE(on.analysis, nullptr);
  std::string text = on.analysis->ToText();
  EXPECT_NE(text.find("dense"), std::string::npos) << text;
  EXPECT_NE(text.find("encoded"), std::string::npos) << text;
}

// Regression: found by the differential fuzzer (AVG(d2) over an RLE int
// column grouped by a dict key returned -nan). The run-encoded accessors
// bit-cast run values unconditionally: DoubleAt of an *int* RLE column
// reinterpreted the integer payload as double bits (int -3 has an all-ones
// exponent, i.e. NaN), and IntAt of a float RLE column returned the raw
// bit pattern. Both must dispatch on the column type; reverting the fix in
// ColumnVector::DoubleAt/IntAt makes these expectations fail.
TEST(EncodedExecTest, RunEncodedAccessorsDispatchOnColumnType) {
  std::vector<ColumnInfo> schema = {{"k", DataType::String()},
                                    {"r", DataType::Int64()},
                                    {"rf", DataType::Float64()}};
  TableBuilder builder("t", schema);
  builder.SetEncodingChoice(1, EncodingChoice::kForceRle);
  builder.SetEncodingChoice(2, EncodingChoice::kForceRle);
  for (int64_t i = 0; i < 64; ++i) {
    (void)builder.AddRow({Value(i % 2 == 0 ? "a" : "b"),
                          Value(static_cast<int64_t>(-3)), Value(-2.5)});
  }
  auto db = std::make_shared<Database>("regdb");
  (void)db->AddTable(*builder.Finish());
  TdeEngine engine(db);
  auto result = engine.Execute(
      "(aggregate ((k k)) ((ar avg r) (sr sum r) (af avg rf)) (scan t))",
      EncodedOn());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->stats->used_encoded_path);
  ASSERT_EQ(result->table.num_rows(), 2);
  for (int64_t row = 0; row < 2; ++row) {
    EXPECT_DOUBLE_EQ(result->table.at(row, 1).AsDouble(), -3.0);
    EXPECT_EQ(result->table.at(row, 2).int_value(), -3 * 32);
    EXPECT_DOUBLE_EQ(result->table.at(row, 3).AsDouble(), -2.5);
  }
}

TEST(EncodedExecTest, TokenBitmapFilterMatchesRowFilter) {
  TdeEngine engine(MakeEncodedDb(3000));
  QueryResult on = DiffEncodedVsRow(
      engine,
      "(aggregate ((k k)) ((n count*) (sv sum v)) "
      "(select (= s \"s1\") (scan enc)))");
  ASSERT_NE(on.analysis, nullptr);
  EXPECT_NE(on.analysis->ToText().find("[encoded]"), std::string::npos)
      << on.analysis->ToText();
}

TEST(EncodedExecTest, TokenBitmapFilterExcludesNulls) {
  TdeEngine engine(MakeEncodedDb(3000));
  // `s` is null every 13th row; `(<> s "s1")` must not admit nulls.
  DiffEncodedVsRow(engine,
                   "(aggregate ((k k)) ((n count*)) "
                   "(select (<> s \"s1\") (scan enc)))");
}

TEST(EncodedExecTest, PerRunFilterOnRleColumn) {
  TdeEngine engine(MakeEncodedDb(3000));
  // Selective: keeps 2 of 5 run values; whole runs pass or fail at once.
  // The RLE IndexTable rewrite would claim this predicate first (turning
  // the scan into kRleIndexScan, a different valid plan); disable it so
  // the per-run encoded filter is what executes.
  const std::string tql =
      "(aggregate ((k k)) ((n count*) (sf sum f)) "
      "(select (< r 2) (scan enc)))";
  QueryOptions on_opts = EncodedOn();
  on_opts.optimizer.rle_index = OptimizerOptions::RleIndexMode::kOff;
  QueryOptions off_opts = EncodedOff();
  off_opts.optimizer.rle_index = OptimizerOptions::RleIndexMode::kOff;
  auto on = engine.Execute(tql, on_opts);
  auto off = engine.Execute(tql, off_opts);
  ASSERT_TRUE(on.ok()) << on.status();
  ASSERT_TRUE(off.ok()) << off.status();
  EXPECT_TRUE(TablesEquivalent(off->table, on->table));
  EXPECT_EQ(on->stats->encoded_plans, 1);
  EXPECT_NE(on->analysis->ToText().find("[encoded]"), std::string::npos)
      << on->analysis->ToText();
}

TEST(EncodedExecTest, ConjunctionOfEncodedAndPerRowConjuncts) {
  TdeEngine engine(MakeEncodedDb(3000));
  DiffEncodedVsRow(engine,
                   "(aggregate ((k k)) ((n count*)) "
                   "(select (and (= s \"s2\") (and (< r 3) (> v 4))) "
                   "(scan enc)))");
}

TEST(EncodedExecTest, ComputedArgOverRleColumnFallsBack) {
  TdeEngine engine(MakeEncodedDb(3000));
  // (* r 2) touches the RLE column inside a computed expression: the plan
  // is a candidate but fails the flat-args gate and must fall back to the
  // row path — and still be correct.
  QueryResult on = DiffEncodedVsRow(
      engine, "(aggregate ((k k)) ((sr sum (* r 2))) (scan enc))");
  ASSERT_NE(on.stats, nullptr);
  EXPECT_EQ(on.stats->encoded_plans, 0);
  EXPECT_EQ(on.stats->encoded_fallbacks, 1);
  EXPECT_FALSE(on.stats->used_encoded_path);
}

TEST(EncodedExecTest, AllNullDictionaryColumnGroupsToOneNullRow) {
  std::vector<ColumnInfo> schema = {{"an", DataType::String()},
                                    {"v", DataType::Int64()}};
  TableBuilder builder("t", schema);
  builder.SetEncodingChoice(0, EncodingChoice::kForceDictionary);
  for (int64_t i = 0; i < 200; ++i) {
    (void)builder.AddRow({Value::Null(), Value(i)});
  }
  auto db = std::make_shared<Database>("nulldb");
  (void)db->AddTable(*builder.Finish());
  TdeEngine engine(db);
  auto on = engine.Execute(
      "(aggregate ((an an)) ((n count*) (sv sum v)) (scan t))", EncodedOn());
  ASSERT_TRUE(on.ok()) << on.status();
  ASSERT_EQ(on->table.num_rows(), 1);
  EXPECT_TRUE(on->table.at(0, 0).is_null());
  EXPECT_EQ(on->table.at(0, 1).int_value(), 200);
  EXPECT_EQ(on->table.at(0, 2).int_value(), 199 * 200 / 2);
}

TEST(EncodedExecTest, EmptyTableBuilds) {
  auto db = MakeEncodedDb(0);
  auto table = *db->GetTable("enc");
  EXPECT_EQ(table->num_rows(), 0);
}

TEST(EncodedExecTest, EmptyTableDensePath) {
  TdeEngine engine(MakeEncodedDb(0));
  auto on = engine.Execute("(aggregate ((k k)) ((n count*)) (scan enc))",
                           EncodedOn());
  ASSERT_TRUE(on.ok()) << on.status();
  EXPECT_EQ(on->table.num_rows(), 0);
}

TEST(EncodedExecTest, DeltaColumnBeyondInt32SumsExactly) {
  TdeEngine engine(MakeEncodedDb(3000));
  auto on = engine.Execute("(aggregate () ((s sum dl)) (scan enc))",
                           EncodedOn());
  ASSERT_TRUE(on.ok()) << on.status();
  // sum(3e9 + 3i) for i in [0,3000)
  int64_t expect = 3000000000LL * 3000 + 3 * (2999LL * 3000 / 2);
  EXPECT_EQ(on->table.at(0, 0).int_value(), expect);
}

// --- dense keys over small-range fixed-width columns ---

// Int keys cycle (unsorted, so streaming aggregation never claims them):
//   w   int64 in [-3, 3], NULL every 10th row: 7 digits, 8 cells
//   w2  int64 in [-3, 4]: 8 digits, 9 cells
//   b   bool, NULL every 7th row
//   dt  date in [19000, 19004]
//   v   int64 measure
std::shared_ptr<Database> MakeIntKeyDb(int64_t rows) {
  std::vector<ColumnInfo> schema = {
      {"w", DataType::Int64()}, {"w2", DataType::Int64()},
      {"b", DataType::Bool()},  {"dt", DataType::Date()},
      {"v", DataType::Int64()},
  };
  TableBuilder builder("ik", schema);
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    if (i % 10 == 9) {
      row.push_back(Value::Null());
    } else {
      row.emplace_back(i % 7 - 3);
    }
    row.emplace_back(i % 8 - 3);
    if (i % 7 == 6) {
      row.push_back(Value::Null());
    } else {
      row.emplace_back(i % 3 == 0);
    }
    row.emplace_back(static_cast<int64_t>(19000 + i % 5));
    row.emplace_back(i % 17);
    (void)builder.AddRow(row);
  }
  auto db = std::make_shared<Database>("ikdb");
  (void)db->AddTable(*builder.Finish());
  return db;
}

TEST(EncodedExecTest, IntKeysWithNegativeMinAndNullsGroupDense) {
  TdeEngine engine(MakeIntKeyDb(3000));
  for (const std::string tql :
       {"(aggregate ((w w)) ((n count*) (sv sum v) (av avg v)) (scan ik))",
        "(aggregate ((w w) (b b)) ((n count*) (mv max v)) (scan ik))",
        "(aggregate ((dt dt)) ((n count*)) (select (> v 3) (scan ik)))"}) {
    QueryResult on = DiffEncodedVsRow(engine, tql);
    ASSERT_NE(on.stats, nullptr);
    EXPECT_EQ(on.stats->encoded_plans, 1) << tql;
    EXPECT_NE(on.analysis->ToText().find("dense"), std::string::npos)
        << on.analysis->ToText();
  }
  // The NULL key is its own group: 7 values + NULL.
  auto on = engine.Execute("(aggregate ((w w)) ((n count*)) (scan ik))",
                           EncodedOn());
  ASSERT_TRUE(on.ok()) << on.status();
  EXPECT_EQ(on->table.num_rows(), 8);
}

TEST(EncodedExecTest, IntKeyRangeAtTheCapStaysDenseAndPastItFallsBack) {
  TdeEngine engine(MakeIntKeyDb(3000));
  QueryOptions capped = EncodedOn();
  capped.optimizer.encoded_group_cells_max = 8;
  QueryOptions off = EncodedOff();

  // w: 7 values + the NULL digit = 8 cells, exactly the cap.
  const std::string at_cap = "(aggregate ((w w)) ((n count*)) (scan ik))";
  auto dense = engine.Execute(at_cap, capped);
  auto dense_ref = engine.Execute(at_cap, off);
  ASSERT_TRUE(dense.ok() && dense_ref.ok());
  EXPECT_EQ(dense->stats->encoded_plans, 1);
  EXPECT_EQ(dense->stats->encoded_fallbacks, 0);
  EXPECT_TRUE(TablesEquivalent(dense_ref->table, dense->table));

  // w2: 8 values + NULL = 9 cells, one past the cap: hash path.
  const std::string past_cap = "(aggregate ((w2 w2)) ((n count*)) (scan ik))";
  auto hashed = engine.Execute(past_cap, capped);
  auto hashed_ref = engine.Execute(past_cap, off);
  ASSERT_TRUE(hashed.ok() && hashed_ref.ok());
  EXPECT_EQ(hashed->stats->encoded_plans, 0);
  EXPECT_EQ(hashed->stats->encoded_fallbacks, 1);
  EXPECT_TRUE(TablesEquivalent(hashed_ref->table, hashed->table));
}

// --- range skipping feeding the dense path ---

TEST(EncodedExecTest, RleIndexScanPacksRangesIntoFullEncodedBatches) {
  // r: forced RLE with one-row runs, so `(< r 2)` survives as ~2000
  // single-row ranges; the scan packs them into full batches.
  std::vector<ColumnInfo> schema = {{"k", DataType::String()},
                                    {"r", DataType::Int64()},
                                    {"rr", DataType::Int64()},
                                    {"v", DataType::Int64()}};
  TableBuilder builder("t", schema);
  builder.SetEncodingChoice(1, EncodingChoice::kForceRle);
  builder.SetEncodingChoice(2, EncodingChoice::kForceRle);
  const char* keys[] = {"k0", "k1", "k2", "k3", "k4", "k5", "k6"};
  for (int64_t i = 0; i < 3000; ++i) {
    (void)builder.AddRow(
        {Value(keys[i % 7]), Value(i % 3), Value(i / 50), Value(i % 11)});
  }
  auto db = std::make_shared<Database>("packdb");
  (void)db->AddTable(*builder.Finish());
  TdeEngine engine(db);
  const std::string tql =
      "(aggregate ((k k)) ((n count*) (sv sum v) (sr sum rr)) "
      "(select (< r 2) (scan t)))";
  QueryOptions on_opts = EncodedOn();
  on_opts.optimizer.rle_index = OptimizerOptions::RleIndexMode::kForce;
  QueryOptions off_opts = EncodedOff();
  off_opts.optimizer.rle_index = OptimizerOptions::RleIndexMode::kForce;
  auto on = engine.Execute(tql, on_opts);
  auto off = engine.Execute(tql, off_opts);
  ASSERT_TRUE(on.ok()) << on.status();
  ASSERT_TRUE(off.ok()) << off.status();
  EXPECT_TRUE(TablesEquivalent(off->table, on->table));
  EXPECT_TRUE(on->stats->used_rle_index);
  EXPECT_EQ(on->stats->encoded_plans, 1);
  // rr stays run-encoded through the range scan.
  EXPECT_GT(on->stats->encoded_rows_undecoded, 0);
  const std::string text = on->analysis->ToText();
  EXPECT_NE(text.find("RleIndexScan"), std::string::npos) << text;
  EXPECT_NE(text.find("dense"), std::string::npos) << text;
  const int64_t rows = on->stats->rows_scanned;
  EXPECT_EQ(rows, 2000);
  EXPECT_LE(on->stats->batches, (rows + kBatchRows - 1) / kBatchRows + 1);
}

// --- partial aggregation below the star join ---

// A fact table joined on d0 = k with NULL join keys on both sides, a
// duplicated dimension key, a dimension-only key, and NULL arguments.
vizq::testing::Dataset MakeJoinDataset() {
  vizq::testing::Dataset ds;
  ds.db = std::make_shared<Database>("joindb");
  ds.rows = 600;
  TableBuilder fact(ds.table, {{"d0", DataType::String()},
                               {"d1", DataType::Int64()},
                               {"m0", DataType::Int64()},
                               {"m1", DataType::Float64()}});
  const char* keys[] = {"a0", "a1", "a2", "a3", "a4", "a5"};
  for (int64_t i = 0; i < ds.rows; ++i) {
    Value key = i % 9 == 8 ? Value::Null() : Value(keys[i % 6]);
    Value m0 = i % 5 == 0 ? Value::Null() : Value(i % 13 - 6);
    (void)fact.AddRow({key, Value(i % 3), m0, Value((i % 10) * 0.25)});
  }
  (void)ds.db->AddTable(*fact.Finish());
  TableBuilder dim(ds.dim_table,
                   {{"k", DataType::String()}, {"p", DataType::Int64()}});
  for (int64_t i = 0; i < 5; ++i) {  // a5 has no dimension row
    (void)dim.AddRow({Value(keys[i]), Value(i * 10)});
  }
  (void)dim.AddRow({Value("a1"), Value(int64_t{99})});  // duplicate key
  (void)dim.AddRow({Value::Null(), Value(int64_t{7})});  // never matches
  (void)dim.AddRow({Value("zz"), Value(int64_t{5})});    // dimension only
  ds.dim_rows = 8;
  (void)ds.db->AddTable(*dim.Finish());
  return ds;
}

// True when the compiled plan aggregates below its join.
bool AggregatesBelowJoin(const LogicalOp& op) {
  if (op.kind == LogicalKind::kJoin) {
    const LogicalOp* left = op.children[0].get();
    while (left->kind == LogicalKind::kExchange) left = left->children[0].get();
    return left->kind == LogicalKind::kAggregate;
  }
  for (const LogicalOpPtr& c : op.children) {
    if (AggregatesBelowJoin(*c)) return true;
  }
  return false;
}

// Runs `jc` serially and forced-parallel, diffing both against the
// nested-loop reference oracle; returns whether the serial plan
// aggregated below the join.
bool RunJoinCaseAgainstOracle(const vizq::testing::Dataset& ds,
                              const vizq::testing::JoinFuzzCase& jc) {
  auto oracle = vizq::testing::OracleJoinExecute(ds, jc);
  EXPECT_TRUE(oracle.ok()) << oracle.status();
  if (!oracle.ok()) return false;
  LogicalOpPtr plan = vizq::testing::BuildJoinPlan(ds, jc);
  TdeEngine engine(ds.db);
  QueryOptions parallel;
  parallel.parallel.max_dop = 3;
  parallel.parallel.min_rows_per_fraction = 1;
  parallel.parallel.parallel_merge_min_rows = 1;
  for (const QueryOptions& options : {QueryOptions::Serial(), parallel}) {
    auto result = engine.Execute(plan, options);
    EXPECT_TRUE(result.ok()) << result.status() << " " << jc.Describe();
    if (!result.ok()) continue;
    vizq::testing::DiffResult d =
        vizq::testing::DiffTables(*oracle, result->table, {});
    EXPECT_TRUE(d.equivalent) << d.message << " " << jc.Describe() << "\n"
                              << result->plan_text;
  }
  auto compiled = engine.Compile(plan, QueryOptions::Serial());
  EXPECT_TRUE(compiled.ok()) << compiled.status();
  return compiled.ok() && AggregatesBelowJoin(**compiled);
}

vizq::testing::JoinFuzzCase JoinCase(tde::JoinType type,
                                     query::QueryBuilder qb) {
  vizq::testing::JoinFuzzCase jc;
  jc.join_type = type;
  jc.agg = qb.Build();
  return jc;
}

query::QueryBuilder JoinQuery(const vizq::testing::Dataset& ds) {
  return query::QueryBuilder(vizq::testing::kFuzzDataSource,
                             ds.table + "*" + ds.dim_table);
}

TEST(EncodedExecTest, PartialAggregateBelowJoinMatchesOracle) {
  const vizq::testing::Dataset ds = MakeJoinDataset();
  const JoinType inner = JoinType::kInner;
  std::vector<vizq::testing::JoinFuzzCase> pushed = {
      // The airline_name shape: grouped by the dimension payload.
      JoinCase(inner, JoinQuery(ds)
                          .Dim("p")
                          .CountAll()
                          .Agg(AggFunc::kCount, "m0")
                          .Agg(AggFunc::kSum, "m0")
                          .Agg(AggFunc::kMin, "m0")
                          .Agg(AggFunc::kMax, "m1")
                          .Agg(AggFunc::kAvg, "m0")),
      // Group keys from both sides, double SUM/AVG.
      JoinCase(inner, JoinQuery(ds)
                          .Dim("d1")
                          .Dim("p")
                          .Agg(AggFunc::kSum, "m1")
                          .Agg(AggFunc::kAvg, "m1")),
      // Grouped by the dimension's join key.
      JoinCase(inner, JoinQuery(ds).Dim("k").Agg(AggFunc::kMax, "m0")),
      // Scalar: one row even though the final sees only partials.
      JoinCase(inner, JoinQuery(ds).CountAll().Agg(AggFunc::kAvg, "m0")),
  };
  for (const auto& jc : pushed) {
    EXPECT_TRUE(RunJoinCaseAgainstOracle(ds, jc)) << jc.Describe();
  }
}

TEST(EncodedExecTest, UnsplittableJoinAggregatesKeepTheirPlan) {
  const vizq::testing::Dataset ds = MakeJoinDataset();
  std::vector<vizq::testing::JoinFuzzCase> kept = {
      // COUNT DISTINCT does not combine from partials.
      JoinCase(JoinType::kInner,
               JoinQuery(ds).Dim("p").Agg(AggFunc::kCountDistinct, "m0")),
      // The argument lives on the dimension side.
      JoinCase(JoinType::kInner,
               JoinQuery(ds).Dim("d1").Agg(AggFunc::kSum, "p")),
      // Left-outer: unmatched rows must still reach the aggregate.
      JoinCase(JoinType::kLeftOuter,
               JoinQuery(ds).Dim("p").CountAll().Agg(AggFunc::kSum, "m0")),
  };
  for (const auto& jc : kept) {
    EXPECT_FALSE(RunJoinCaseAgainstOracle(ds, jc)) << jc.Describe();
  }
}

// --- storage helpers ---

TEST(EncodedExecTest, EmitRunsClipsAndRebases) {
  auto db = MakeEncodedDb(3000);
  auto table = *db->GetTable("enc");
  const Column& r = *table->column(2);  // runs of 100, values (i/100)%5
  ASSERT_TRUE(r.is_rle());

  std::vector<RleRun> runs;
  // Range inside a single run.
  EXPECT_EQ(r.EmitRuns(120, 30, &runs), 1);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].value, 1);
  EXPECT_EQ(runs[0].start, 0);
  EXPECT_EQ(runs[0].count, 30);

  // Range crossing two boundaries: clipped head and tail, contiguous,
  // covering [0, count).
  runs.clear();
  EXPECT_EQ(r.EmitRuns(150, 250, &runs), 3);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].value, 1);
  EXPECT_EQ(runs[0].start, 0);
  EXPECT_EQ(runs[0].count, 50);
  EXPECT_EQ(runs[1].value, 2);
  EXPECT_EQ(runs[1].start, 50);
  EXPECT_EQ(runs[1].count, 100);
  EXPECT_EQ(runs[2].value, 3);
  EXPECT_EQ(runs[2].start, 150);
  EXPECT_EQ(runs[2].count, 100);

  // Empty range emits no runs.
  runs.clear();
  EXPECT_EQ(r.EmitRuns(150, 0, &runs), 0);
  EXPECT_TRUE(runs.empty());
}

TEST(EncodedExecTest, DeltaCursorGathersMatchDecodeIntsAcrossJumps) {
  auto db = MakeEncodedDb(3000);
  auto table = *db->GetTable("enc");
  const Column& dl = *table->column(6);
  ASSERT_EQ(dl.encoding(), Encoding::kDelta);

  Column::DecodeCursor cursor;
  std::vector<int64_t> got, want;
  // Contiguous gathers, a morsel-style jump forward, contiguous again, then
  // a jump back (the cursor restarts from row 0).
  const int64_t plan[][2] = {
      {0, 100}, {100, 200}, {1500, 100}, {1600, 50}, {40, 30}, {70, 10}};
  for (const auto& step : plan) {
    dl.GatherInts({RowRange{step[0], step[1]}}, &got, &cursor);
    dl.DecodeInts(step[0], step[1], &want, nullptr);
    EXPECT_EQ(got, want) << "at start " << step[0];
    EXPECT_EQ(cursor.next_row, step[0] + step[1]);
  }
}

TEST(EncodedExecTest, DeltaCursorContinuesAcrossBatchesOfOneLongRange) {
  // A sorted id column read through long surviving ranges, 1024 rows a
  // batch as RleIndexScan packs them: the cursor carries the prefix sum
  // from batch to batch, and every batch equals the single-range decode.
  ColumnBuilder builder(DataType::Int64());
  const int64_t n = 20000;
  for (int64_t i = 0; i < n; ++i) builder.AppendInt(1000 + 3 * i + i % 2);
  auto col = builder.Finish(EncodingChoice::kForceDelta);
  ASSERT_TRUE(col.ok()) << col.status();
  const Column& dl = **col;
  ASSERT_EQ(dl.encoding(), Encoding::kDelta);

  Column::DecodeCursor cursor;
  std::vector<int64_t> got, want;
  for (int64_t start = 17; start < n; start += 1024) {
    const int64_t count = std::min<int64_t>(1024, n - start);
    // Two pieces per batch, as a batch packs the tail of one range and
    // the head of the next.
    const int64_t half = count / 2;
    dl.GatherInts({RowRange{start, half}, RowRange{start + half, count - half}},
                  &got, &cursor);
    dl.DecodeInts(start, count, &want, nullptr);
    ASSERT_EQ(got, want) << "at start " << start;
    ASSERT_EQ(cursor.next_row, start + count);
    if (start + count < n) {
      ASSERT_EQ(cursor.acc, dl.GetValue(start + count).int_value());
    }
  }
  // The resume path really reads the cursor: one whose value is off by 5
  // shifts every gathered row by 5.
  Column::DecodeCursor skewed{4096, dl.GetValue(4096).int_value() + 5};
  dl.GatherInts({RowRange{5000, 100}}, &got, &skewed);
  dl.DecodeInts(5000, 100, &want, nullptr);
  for (size_t i = 0; i < want.size(); ++i) ASSERT_EQ(got[i], want[i] + 5);
}

TEST(EncodedExecTest, RangeGathersMatchPerRowValues) {
  // Every encoding, with NULLs, over random ascending ranges: one gather
  // yields each row's value as GetValue reads it.
  Rng rng(2015);
  const int64_t n = 5000;
  struct Case {
    EncodingChoice choice;
    DataType type;
  } cases[] = {{EncodingChoice::kForcePlain, DataType::Int64()},
               {EncodingChoice::kForceRle, DataType::Int64()},
               {EncodingChoice::kForceDelta, DataType::Int64()},
               {EncodingChoice::kForcePlain, DataType::Float64()},
               {EncodingChoice::kForceRle, DataType::Float64()},
               {EncodingChoice::kForceDictionary, DataType::String()}};
  for (const Case& c : cases) {
    ColumnBuilder builder(c.type);
    int64_t v = 3000000000LL;
    for (int64_t i = 0; i < n; ++i) {
      if (c.choice != EncodingChoice::kForceDelta && i % 97 < 5) {
        builder.AppendNull();
        continue;
      }
      if (i % 7 == 0) v += rng.Range(0, 3);  // runs of ~7 for RLE
      if (c.type.kind == TypeKind::kFloat64) {
        builder.AppendDouble(static_cast<double>(v) * 0.5);
      } else if (c.type.kind == TypeKind::kString) {
        builder.AppendString("s" + std::to_string(v % 11));
      } else {
        builder.AppendInt(v);
      }
    }
    auto col = builder.Finish(c.choice);
    ASSERT_TRUE(col.ok()) << col.status();
    const Column& column = **col;
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<RowRange> ranges;
      for (int64_t row = rng.Range(0, 50); row < n;) {
        const int64_t count = std::min<int64_t>(n - row, rng.Range(1, 60));
        ranges.push_back({row, count});
        row += count + rng.Range(0, trial % 2 == 0 ? 3 : 400);
      }
      // Oracle: each row's Value (GetValue walks runs and prefix sums on
      // its own), and for runs the single-range EmitRuns, rebased.
      std::vector<int64_t> ints;
      std::vector<double> doubles;
      std::vector<uint8_t> nulls, want_nulls;
      std::vector<RleRun> runs, want_runs;
      std::vector<Value> want_values;
      bool any_null = false;
      int64_t at = 0;
      for (const RowRange& r : ranges) {
        for (int64_t row = r.start; row < r.start + r.count; ++row) {
          want_values.push_back(column.GetValue(row));
          want_nulls.push_back(column.IsNull(row) ? 1 : 0);
          any_null = any_null || column.IsNull(row);
        }
        if (column.is_rle()) {
          size_t first = want_runs.size();
          column.EmitRuns(r.start, r.count, &want_runs);
          for (size_t k = first; k < want_runs.size(); ++k) {
            want_runs[k].start += at;
          }
        }
        at += r.count;
      }
      if (!any_null) want_nulls.clear();
      const char* enc = EncodingToString(column.encoding());
      column.GatherNulls(ranges, &nulls);
      EXPECT_EQ(nulls, want_nulls) << enc;
      if (c.type.kind == TypeKind::kFloat64) {
        column.GatherDoubles(ranges, &doubles);
        ASSERT_EQ(doubles.size(), want_values.size());
      } else {
        column.GatherInts(ranges, &ints);
        ASSERT_EQ(ints.size(), want_values.size());
      }
      for (size_t i = 0; i < want_values.size(); ++i) {
        const Value& want = want_values[i];
        if (want.is_null()) continue;
        if (c.type.kind == TypeKind::kFloat64) {
          EXPECT_EQ(doubles[i], want.double_value()) << enc << " row " << i;
        } else if (c.type.kind == TypeKind::kString) {
          EXPECT_EQ(column.dictionary()->value(ints[i]), want.string_value())
              << enc << " row " << i;
        } else {
          EXPECT_EQ(ints[i], want.int_value()) << enc << " row " << i;
        }
      }
      if (column.is_rle()) {
        column.GatherRuns(ranges, &runs);
        ASSERT_EQ(runs.size(), want_runs.size());
        for (size_t k = 0; k < runs.size(); ++k) {
          EXPECT_EQ(runs[k].value, want_runs[k].value);
          EXPECT_EQ(runs[k].start, want_runs[k].start);
          EXPECT_EQ(runs[k].count, want_runs[k].count);
        }
      }
    }
  }
}

TEST(EncodedExecTest, SortedPrefixSplitMatchesALinearBoundaryScan) {
  // Groups from 1 row to far longer than a fraction: the galloping
  // boundary search lands where a row-by-row scan would.
  Rng rng(7);
  std::vector<ColumnInfo> schema = {{"g", DataType::String()},
                                    {"h", DataType::Int64()}};
  TableBuilder builder("sorted", schema);
  int64_t g = 0;
  for (int64_t i = 0; i < 30000;) {
    const int64_t len = rng.Chance(0.1) ? rng.Range(1000, 12000)
                                        : rng.Range(1, 30);
    for (int64_t j = 0; j < len && i < 30000; ++j, ++i) {
      (void)builder.AddRow({Value("g" + std::to_string(100000 + g)),
                            Value(static_cast<int64_t>(j / 5))});
    }
    ++g;
  }
  builder.DeclareSorted({0, 1});
  auto table = *builder.Finish();
  const int64_t n = table->num_rows();
  for (int prefix : {1, 2}) {
    for (int dop : {2, 3, 4, 7, 16}) {
      auto equal = [&](int64_t a, int64_t b) {
        for (int k = 0; k < prefix; ++k) {
          if (table->column(k)->CompareRows(a, b) != 0) return false;
        }
        return true;
      };
      std::vector<int64_t> want{0};
      for (int i = 1; i < dop; ++i) {
        int64_t b = std::max(n * i / dop, want.back() + 1);
        while (b < n && equal(b - 1, b)) ++b;
        if (b < n && b > want.back()) want.push_back(b);
      }
      want.push_back(n);
      EXPECT_EQ(SplitRowsOnSortedPrefix(*table, prefix, dop), want)
          << "prefix " << prefix << " dop " << dop;
    }
  }
}

TEST(EncodedExecTest, CompareRowsAgreesWithValuesAcrossEncodings) {
  auto db = MakeEncodedDb(3000);
  auto table = *db->GetTable("enc");
  // k: dictionary. r: RLE. dl: delta. s: dictionary with nulls.
  for (int col : {0, 1, 2, 6}) {
    const Column& c = *table->column(col);
    const int64_t probes[][2] = {{0, 0},    {0, 1},    {1, 0},   {0, 7},
                                 {99, 100}, {100, 99}, {5, 250}, {13, 26}};
    for (const auto& p : probes) {
      Value a = c.GetValue(p[0]);
      Value b = c.GetValue(p[1]);
      int want = a.Compare(b);  // NULL sorts before everything
      want = want < 0 ? -1 : (want > 0 ? 1 : 0);
      int got = c.CompareRows(p[0], p[1]);
      EXPECT_EQ(got < 0 ? -1 : (got > 0 ? 1 : 0), want)
          << "col " << col << " rows " << p[0] << "," << p[1];
    }
  }
}

// --- dense aggregation kernels vs the hash path (seeded random batches) ---

// Emits a fixed list of batches, one per Next().
class BatchListOp : public Operator {
 public:
  BatchListOp(std::vector<Batch> batches, BatchSchema schema)
      : batches_(std::move(batches)), schema_(std::move(schema)) {}

  const BatchSchema& schema() const override { return schema_; }
  Status Open() override {
    next_ = 0;
    return OkStatus();
  }
  StatusOr<bool> Next(Batch* out) override {
    if (next_ >= batches_.size()) return false;
    *out = batches_[next_++];
    return true;
  }
  Status Close() override { return OkStatus(); }

 private:
  std::vector<Batch> batches_;
  BatchSchema schema_;
  size_t next_ = 0;
};

// Columns of the random batches: four key candidates (int with a negative
// min, date, bool, dict string) and two arguments (int, double).
struct KernelLayout {
  BatchSchema schema;
  std::vector<int64_t> mins;   // per key column
  std::vector<int64_t> cards;  // per key column
};

constexpr int kKeyColumns = 4;
constexpr int kIntArg = 4;
constexpr int kDoubleArg = 5;

KernelLayout MakeKernelLayout() {
  KernelLayout l;
  auto dict = std::make_shared<StringDictionary>(Collation::kBinary);
  for (const char* v : {"ua", "dl", "aa", "wn", "b6", "as"}) dict->Intern(v);
  l.schema.names = {"ik", "dk", "bk", "sk", "v", "f"};
  l.schema.prototypes = {
      ColumnVector(DataType::Int64()), ColumnVector(DataType::Date()),
      ColumnVector(DataType::Bool()),  ColumnVector(DataType::String()),
      ColumnVector(DataType::Int64()), ColumnVector(DataType::Float64())};
  l.schema.prototypes[3].dict = dict;
  l.mins = {-3, 16000, 0, 0};
  l.cards = {9, 30, 2, dict->size()};
  return l;
}

// A random vector of `n` rows for column `c`: nulls with probability
// `null_p`; run-encoded (random run lengths, runs never straddle a null
// boundary) when `runs`. NULL rows carry a garbage payload, which no
// kernel may read as a value.
ColumnVector RandomColumn(const KernelLayout& l, int c, int64_t n,
                          double null_p, bool runs, Rng& rng) {
  ColumnVector cv = ColumnVector::LayoutLike(l.schema.prototypes[c]);
  auto draw = [&]() -> int64_t {
    if (c < kKeyColumns) return l.mins[c] + rng.Range(0, l.cards[c] - 1);
    return rng.Range(-50, 50);
  };
  int64_t row = 0;
  while (row < n) {
    const int64_t len = runs ? std::min<int64_t>(n - row, rng.Range(1, 40)) : 1;
    const bool null = rng.Chance(null_p);
    const int64_t value = null ? rng.Range(-100000, 100000) : draw();
    if (runs) cv.runs.push_back(RleRun{value, row, len});
    for (int64_t i = 0; i < len; ++i) {
      if (null) {
        cv.AppendNull();
        if (c == kDoubleArg) {
          cv.doubles.back() = static_cast<double>(value) * 1e6;
        } else {
          cv.ints.back() = value;
        }
      } else if (c == kDoubleArg) {
        cv.AppendDouble(static_cast<double>(value) * 0.37);
      } else {
        cv.AppendInt(value);
      }
    }
    row += len;
  }
  if (runs) {
    if (c == kDoubleArg) {
      for (RleRun& r : cv.runs) {
        const double d = cv.doubles[r.start];
        std::memcpy(&r.value, &d, sizeof(d));
      }
    }
    cv.ints.clear();
    cv.doubles.clear();
    cv.run_encoded = true;
  }
  return cv;
}

enum class SelectionKind { kNone, kEmpty, kSparse, kDense, kFull };

Batch RandomKernelBatch(const KernelLayout& l, Rng& rng, SelectionKind sel,
                        bool allow_runs) {
  Batch b;
  b.num_rows = rng.Range(1, kBatchRows);
  const double null_p = rng.Chance(0.3) ? 0.0 : 0.2;
  for (int c = 0; c < static_cast<int>(l.schema.names.size()); ++c) {
    const bool runs = allow_runs && c != 3 && rng.Chance(0.5);
    b.columns.push_back(RandomColumn(l, c, b.num_rows, null_p, runs, rng));
  }
  if (sel != SelectionKind::kNone) {
    b.has_selection = true;
    const double keep = sel == SelectionKind::kEmpty    ? 0.0
                        : sel == SelectionKind::kSparse ? 0.05
                        : sel == SelectionKind::kDense  ? 0.8
                                                        : 1.0;
    for (int64_t r = 0; r < b.num_rows; ++r) {
      if (keep >= 1.0 || rng.Chance(keep)) {
        b.selection.push_back(static_cast<int32_t>(r));
      }
    }
  }
  return b;
}

// The live rows of `b` as a flat batch without a selection: what the hash
// path (which ignores selections) must see to agree.
Batch MaterializeLive(const Batch& b) {
  Batch out;
  for (const ColumnVector& col : b.columns) {
    ColumnVector flat = ColumnVector::LayoutLike(col);
    for (int64_t i = 0; i < b.live_rows(); ++i) {
      flat.AppendFrom(col, b.has_selection ? b.selection[i] : i);
    }
    out.columns.push_back(std::move(flat));
  }
  out.num_rows = b.live_rows();
  return out;
}

std::vector<AggSpec> KernelSpecs() {
  std::vector<AggSpec> specs;
  specs.push_back({AggFunc::kCountStar, nullptr, "n"});
  const struct {
    int col;
    DataType type;
    const char* name;
  } args[] = {{kIntArg, DataType::Int64(), "v"},
              {kDoubleArg, DataType::Float64(), "f"}};
  for (const auto& a : args) {
    for (AggFunc f : {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg,
                      AggFunc::kMin, AggFunc::kMax, AggFunc::kCountDistinct}) {
      specs.push_back({f, ColIdx(a.col, a.type),
                       std::string(a.name) + std::to_string(specs.size())});
    }
  }
  return specs;
}

// Runs `batches` through a dense aggregate grouped by `keys` and returns
// its result (or error).
StatusOr<ResultTable> RunDense(const KernelLayout& l,
                               const std::vector<int>& keys,
                               std::vector<Batch> batches) {
  std::vector<GroupExpr> groups;
  DenseAggConfig config;
  config.enabled = true;
  for (int k : keys) {
    groups.push_back({l.schema.names[k],
                      ColIdx(k, l.schema.prototypes[k].type)});
    config.key_columns.push_back(k);
    config.key_cards.push_back(l.cards[k]);
    config.key_mins.push_back(l.mins[k]);
    config.total_cells *= l.cards[k] + 1;
  }
  HashAggregateOperator agg(
      std::make_unique<BatchListOp>(std::move(batches), l.schema), groups,
      KernelSpecs(), AggPhase::kComplete);
  agg.EnableDenseGroups(config, nullptr);
  return CollectToResultTable(&agg);
}

StatusOr<ResultTable> RunHash(const KernelLayout& l,
                              const std::vector<int>& keys,
                              const std::vector<Batch>& batches) {
  std::vector<GroupExpr> groups;
  for (int k : keys) {
    groups.push_back({l.schema.names[k],
                      ColIdx(k, l.schema.prototypes[k].type)});
  }
  std::vector<Batch> flat;
  for (const Batch& b : batches) flat.push_back(MaterializeLive(b));
  HashAggregateOperator agg(
      std::make_unique<BatchListOp>(std::move(flat), l.schema), groups,
      KernelSpecs(), AggPhase::kComplete);
  return CollectToResultTable(&agg);
}

// Same rows in the same order (first-seen group order), values equal;
// doubles within `rel_tol` (0: bit-identical).
::testing::AssertionResult SameRowsInOrder(const ResultTable& expected,
                                           const ResultTable& actual,
                                           double rel_tol) {
  if (expected.num_rows() != actual.num_rows()) {
    return ::testing::AssertionFailure()
           << expected.num_rows() << " rows expected, got "
           << actual.num_rows();
  }
  for (int64_t i = 0; i < expected.num_rows(); ++i) {
    const auto& e = expected.row(i);
    const auto& a = actual.row(i);
    for (size_t c = 0; c < e.size(); ++c) {
      const bool close =
          rel_tol > 0 && e[c].is_double() && a[c].is_double() &&
          std::abs(e[c].double_value() - a[c].double_value()) <=
              rel_tol * std::max(1.0, std::abs(e[c].double_value()));
      if (!(e[c] == a[c]) && !close) {
        return ::testing::AssertionFailure()
               << "row " << i << " column " << c << ": expected "
               << e[c].ToString() << ", got " << a[c].ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(EncodedExecTest, DenseKernelsMatchHashPathOnRandomBatches) {
  const KernelLayout l = MakeKernelLayout();
  const SelectionKind kinds[] = {SelectionKind::kNone, SelectionKind::kEmpty,
                                 SelectionKind::kSparse, SelectionKind::kDense,
                                 SelectionKind::kFull};
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    // 1-3 distinct key columns.
    std::vector<int> keys = {0, 1, 2, 3};
    for (int i = 3; i > 0; --i) std::swap(keys[i], keys[rng.Below(i + 1)]);
    keys.resize(1 + rng.Below(3));
    // Flat batches exercise the group-id kernel, whose sums add the same
    // values in the same order as the hash path: bit-identical. From seed
    // 31 on, run-encoded keys and arguments exercise the merge walk, the
    // expansion of run-encoded arguments and (without a selection) segment
    // folding, whose `value * run_length` double sums round differently.
    const bool allow_runs = seed > 30;
    std::vector<Batch> batches;
    for (int b = 0; b < 4; ++b) {
      batches.push_back(
          RandomKernelBatch(l, rng, kinds[rng.Below(5)], allow_runs));
    }
    auto expected = RunHash(l, keys, batches);
    auto dense = RunDense(l, keys, batches);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_TRUE(dense.ok()) << dense.status() << " seed " << seed;
    EXPECT_TRUE(SameRowsInOrder(*expected, *dense, allow_runs ? 1e-9 : 0))
        << "seed " << seed;
  }
}

TEST(EncodedExecTest, DenseKernelsRejectAnOutOfRangeKeyDigit) {
  const KernelLayout l = MakeKernelLayout();
  for (bool runs : {false, true}) {
    for (bool selection : {false, true}) {
      for (int64_t bad : {l.mins[0] - 1, l.mins[0] + l.cards[0]}) {
        Rng rng(7);
        Batch b = RandomKernelBatch(l, rng, SelectionKind::kNone, false);
        ColumnVector key(DataType::Int64());
        for (int64_t r = 0; r < b.num_rows; ++r) {
          key.AppendInt(r == b.num_rows - 1 ? bad : l.mins[0]);
        }
        if (runs) {
          key.runs = {RleRun{l.mins[0], 0, b.num_rows - 1},
                      RleRun{bad, b.num_rows - 1, 1}};
          if (b.num_rows == 1) key.runs.erase(key.runs.begin());
          key.ints.clear();
          key.run_encoded = true;
        }
        b.columns[0] = std::move(key);
        if (selection) {
          b.has_selection = true;
          b.selection = {static_cast<int32_t>(b.num_rows - 1)};
        }
        auto dense = RunDense(l, {0}, {b});
        ASSERT_FALSE(dense.ok()) << "runs " << runs << " bad " << bad;
        EXPECT_EQ(dense.status().code(), StatusCode::kInternal)
            << dense.status();
      }
    }
  }
}

// --- encoded filter kernels vs the decoded FilterOperator ---

// Rows (as Values) that `filter` lets through, selection-aware.
std::vector<std::vector<Value>> FilteredRows(Operator* filter) {
  std::vector<std::vector<Value>> rows;
  EXPECT_TRUE(filter->Open().ok());
  Batch b;
  while (true) {
    auto more = filter->Next(&b);
    EXPECT_TRUE(more.ok()) << more.status();
    if (!more.ok() || !*more) break;
    for (int64_t i = 0; i < b.live_rows(); ++i) {
      rows.push_back(b.GetRow(b.has_selection ? b.selection[i] : i));
    }
  }
  EXPECT_TRUE(filter->Close().ok());
  return rows;
}

// Diffs the encoded filter (one conjunct, `kind`) against the decoded
// filter over the same batches; the decoded side sees flat copies.
void DiffFilterKernel(const BatchSchema& schema, const std::vector<Batch>& in,
                      const ExprPtr& unbound, EncodedConjunct::Kind kind,
                      int64_t value_min, int64_t value_card) {
  auto bound = BindExpr(unbound, schema);
  ASSERT_TRUE(bound.ok()) << bound.status();
  std::vector<Batch> flat;
  for (const Batch& b : in) flat.push_back(MaterializeLive(b));
  FilterOperator decoded(std::make_unique<BatchListOp>(flat, schema), *bound);
  FilterOperator encoded(std::make_unique<BatchListOp>(in, schema), *bound);
  EncodedConjunct c;
  c.expr = *bound;
  c.column_index = 0;
  c.kind = kind;
  c.value_min = value_min;
  c.value_card = value_card;
  encoded.EnableEncodedFilter({c}, nullptr);
  EXPECT_EQ(FilteredRows(&decoded), FilteredRows(&encoded))
      << (*bound)->ToString();
}

TEST(EncodedExecTest, TokenBitmapKernelHandlesNullTokens) {
  const KernelLayout l = MakeKernelLayout();
  BatchSchema schema;
  schema.names = {"sk"};
  schema.prototypes = {l.schema.prototypes[3]};
  for (bool runs : {false, true}) {
    std::vector<Batch> batches;
    Rng rng(runs ? 11 : 12);
    for (SelectionKind sel : {SelectionKind::kNone, SelectionKind::kSparse,
                              SelectionKind::kDense}) {
      Batch b = RandomKernelBatch(l, rng, sel, false);
      Batch one;
      one.num_rows = b.num_rows;
      one.columns.push_back(RandomColumn(l, 3, b.num_rows, 0.25, runs, rng));
      one.selection = b.selection;
      one.has_selection = b.has_selection;
      batches.push_back(std::move(one));
    }
    for (const ExprPtr& e :
         {IsNull(Col("sk")), In(Col("sk"), {Value("aa"), Value("b6")}),
          Not(In(Col("sk"), {Value("aa"), Value("b6")})),
          Not(IsNull(Col("sk")))}) {
      DiffFilterKernel(schema, batches, e,
                       EncodedConjunct::Kind::kTokenBitmap, 0, 0);
    }
  }
}

TEST(EncodedExecTest, PerRunVerdictTableMatchesDecodedFilter) {
  // A bool and a small-range int column, run-encoded with NULL runs; each
  // conjunct runs through the verdict table (value_card > 0), through
  // per-run evaluation (value_card == 0), and flat through the table.
  const struct {
    DataType type;
    int64_t min;
    int64_t card;
    std::vector<ExprPtr> preds;
  } columns[] = {
      {DataType::Bool(), 0, 2,
       {Eq(Col("c"), Lit(true)), IsNull(Col("c")), Not(Col("c"))}},
      {DataType::Int64(), -2, 7,
       {In(Col("c"), {Value(int64_t{-2}), Value(int64_t{3})}),
        Not(In(Col("c"), {Value(int64_t{0})})), Lt(Col("c"), Lit(int64_t{1})),
        IsNull(Col("c"))}},
  };
  for (const auto& col : columns) {
    BatchSchema schema;
    schema.names = {"c"};
    schema.prototypes = {ColumnVector(col.type)};
    KernelLayout l;
    l.schema = schema;
    l.mins = {col.min};
    l.cards = {col.card};
    for (bool runs : {true, false}) {
      Rng rng(col.card);
      std::vector<Batch> batches;
      for (SelectionKind sel : {SelectionKind::kNone, SelectionKind::kDense,
                                SelectionKind::kSparse}) {
        Batch b;
        b.num_rows = rng.Range(1, kBatchRows);
        b.columns.push_back(RandomColumn(l, 0, b.num_rows, 0.2, runs, rng));
        if (sel != SelectionKind::kNone) {
          b.has_selection = true;
          for (int64_t r = 0; r < b.num_rows; ++r) {
            if (rng.Chance(sel == SelectionKind::kDense ? 0.8 : 0.05)) {
              b.selection.push_back(static_cast<int32_t>(r));
            }
          }
        }
        batches.push_back(std::move(b));
      }
      for (const ExprPtr& e : col.preds) {
        DiffFilterKernel(schema, batches, e, EncodedConjunct::Kind::kPerRun,
                         col.min, col.card);
        if (runs) {
          DiffFilterKernel(schema, batches, e, EncodedConjunct::Kind::kPerRun,
                           0, 0);
        }
      }
    }
  }
}

TEST(EncodedExecTest, AnyNumberOfVerdictTableConjunctsMatchesDecodedFilter) {
  // One to four table conjuncts over small-range int columns that arrive
  // flat or run-encoded, with or without NULLs, under every incoming
  // selection kind: the fused selection kernel (up to two flat tables),
  // the mask fold of further flat tables, and per-run tables together
  // agree with the decoded filter.
  KernelLayout l;
  l.schema.names = {"a", "b", "c", "d"};
  for (int c = 0; c < 4; ++c) {
    l.schema.prototypes.push_back(ColumnVector(DataType::Int64()));
  }
  l.mins = {-2, 0, 5, -10};
  l.cards = {7, 2, 4, 12};
  const ExprPtr preds[] = {
      In(Col("a"), {Value(int64_t{-2}), Value(int64_t{0}), Value(int64_t{3})}),
      Not(IsNull(Col("b"))),
      Lt(Col("c"), Lit(int64_t{8})),
      Not(In(Col("d"), {Value(int64_t{-10}), Value(int64_t{1})}))};
  const SelectionKind kinds[] = {SelectionKind::kNone, SelectionKind::kEmpty,
                                 SelectionKind::kSparse, SelectionKind::kDense,
                                 SelectionKind::kFull};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const int conjuncts = 1 + static_cast<int>(rng.Below(4));
    std::vector<bool> runs(4);
    for (int c = 0; c < 4; ++c) runs[c] = rng.Chance(0.3);
    std::vector<Batch> batches;
    for (int k = 0; k < 3; ++k) {
      const SelectionKind sel = kinds[rng.Below(5)];
      Batch b;
      b.num_rows = rng.Range(1, kBatchRows);
      for (int c = 0; c < 4; ++c) {
        const double null_p = rng.Chance(0.5) ? 0.0 : 0.15;
        b.columns.push_back(
            RandomColumn(l, c, b.num_rows, null_p, runs[c], rng));
      }
      if (sel != SelectionKind::kNone) {
        b.has_selection = true;
        const double keep = sel == SelectionKind::kEmpty    ? 0.0
                            : sel == SelectionKind::kSparse ? 0.05
                            : sel == SelectionKind::kDense  ? 0.8
                                                            : 1.0;
        for (int64_t r = 0; r < b.num_rows; ++r) {
          if (keep >= 1.0 || rng.Chance(keep)) {
            b.selection.push_back(static_cast<int32_t>(r));
          }
        }
      }
      batches.push_back(std::move(b));
    }
    ExprPtr all;
    std::vector<EncodedConjunct> encoded;
    for (int c = 0; c < conjuncts; ++c) {
      auto bound = BindExpr(preds[c], l.schema);
      ASSERT_TRUE(bound.ok()) << bound.status();
      all = all == nullptr ? preds[c] : And(all, preds[c]);
      EncodedConjunct ec;
      ec.expr = *bound;
      ec.column_index = c;
      ec.kind = EncodedConjunct::Kind::kPerRun;
      ec.value_min = l.mins[c];
      ec.value_card = l.cards[c];
      encoded.push_back(std::move(ec));
    }
    auto bound_all = BindExpr(all, l.schema);
    ASSERT_TRUE(bound_all.ok()) << bound_all.status();
    std::vector<Batch> flat;
    for (const Batch& b : batches) flat.push_back(MaterializeLive(b));
    FilterOperator decoded(std::make_unique<BatchListOp>(flat, l.schema),
                           *bound_all);
    FilterOperator fast(std::make_unique<BatchListOp>(batches, l.schema),
                        *bound_all);
    fast.EnableEncodedFilter(std::move(encoded), nullptr);
    EXPECT_EQ(FilteredRows(&decoded), FilteredRows(&fast))
        << "seed " << seed << ", " << conjuncts << " conjuncts";
  }
}

TEST(EncodedExecTest, SmallRangeRleFilterColumnsGetAVerdictTable) {
  // `r` is a forced-RLE int column with stats [0, 4]: the planner hands
  // its per-run conjunct a verdict table; results match the row path.
  TdeEngine engine(MakeEncodedDb(3000));
  const std::string tql =
      "(aggregate ((k k)) ((n count*) (sv sum v)) "
      "(select (and (in r 1 3) (= s \"s2\")) (scan enc)))";
  QueryOptions on_opts = EncodedOn();
  on_opts.optimizer.rle_index = OptimizerOptions::RleIndexMode::kOff;
  auto plan = engine.Compile(*ParseTql(tql), on_opts);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const LogicalOp* select = (*plan)->children[0].get();
  ASSERT_EQ(select->kind, LogicalKind::kSelect) << (*plan)->ToString();
  ASSERT_TRUE(select->encoded_filter);
  int tables = 0;
  for (const EncodedConjunct& c : select->encoded_conjuncts) {
    if (c.kind != EncodedConjunct::Kind::kPerRun) continue;
    EXPECT_EQ(c.value_min, 0);
    EXPECT_EQ(c.value_card, 5);
    ++tables;
  }
  EXPECT_EQ(tables, 1);
  QueryOptions off_opts = EncodedOff();
  off_opts.optimizer.rle_index = OptimizerOptions::RleIndexMode::kOff;
  auto on = engine.Execute(tql, on_opts);
  auto off = engine.Execute(tql, off_opts);
  ASSERT_TRUE(on.ok() && off.ok());
  EXPECT_TRUE(TablesEquivalent(off->table, on->table));
}

TEST(EncodedExecTest, SortedPrefixSplitBreaksOnKeyChanges) {
  // Sorted dict + delta prefix: range partitioning must not split a group
  // of equal keys (the comparator is the encoding-aware CompareRows).
  std::vector<ColumnInfo> schema = {{"g", DataType::String()},
                                    {"t", DataType::Int64()}};
  TableBuilder builder("sorted", schema);
  builder.SetEncodingChoice(1, EncodingChoice::kForceDelta);
  for (int64_t i = 0; i < 4000; ++i) {
    (void)builder.AddRow({Value("g" + std::to_string(i / 700)),
                          Value(static_cast<int64_t>(3000000000LL + i))});
  }
  builder.DeclareSorted({0});
  auto table = *builder.Finish();
  std::vector<int64_t> offsets = SplitRowsOnSortedPrefix(*table, 1, 4);
  ASSERT_GE(offsets.size(), 2u);
  EXPECT_EQ(offsets.front(), 0);
  EXPECT_EQ(offsets.back(), 4000);
  for (size_t i = 1; i + 1 < offsets.size(); ++i) {
    int64_t off = offsets[i];
    EXPECT_NE(table->column(0)->CompareRows(off - 1, off), 0)
        << "boundary " << off << " splits equal keys";
  }
}

}  // namespace
}  // namespace vizq::tde
