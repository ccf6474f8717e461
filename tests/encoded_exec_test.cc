// Tests for encoding-aware execution (DESIGN.md §11): run-encoded scan
// batches, per-token / per-run filter evaluation, dense token-indexed
// grouping, the plan-layer decision gates, and the storage helpers they
// are built on (EmitRuns clipping, DecodeIntsResumable, CompareRows).
//
// The encoded path is always diffed against the row path (the correctness
// baseline) by re-running the same query with enable_encoded_exec off.

#include <gtest/gtest.h>

#include "src/tde/engine.h"
#include "src/tde/exec/scan.h"
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

TEST(EncodedExecTest, DecodeIntsResumableMatchesDecodeIntsAcrossJumps) {
  auto db = MakeEncodedDb(3000);
  auto table = *db->GetTable("enc");
  const Column& dl = *table->column(6);
  ASSERT_EQ(dl.encoding(), Encoding::kDelta);

  Column::DecodeCursor cursor;
  std::vector<int64_t> got, want;
  std::vector<uint8_t> got_nulls, want_nulls;
  // Contiguous decode, then a morsel-style jump, then contiguous again.
  const int64_t plan[][2] = {{0, 100}, {100, 200}, {1500, 100}, {1600, 50}};
  for (const auto& step : plan) {
    dl.DecodeIntsResumable(&cursor, step[0], step[1], &got, &got_nulls);
    dl.DecodeInts(step[0], step[1], &want, &want_nulls);
    EXPECT_EQ(got, want) << "at start " << step[0];
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
