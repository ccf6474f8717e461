// Tests of the intelligent cache's view-matching and post-processing, the
// literal cache, eviction, persistence, and the distributed tier.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <thread>

#include "src/cache/distributed.h"
#include "src/cache/intelligent_cache.h"
#include "src/cache/literal_cache.h"
#include "src/cache/persistence.h"
#include "src/common/rng.h"
#include "src/dashboard/query_service.h"
#include "src/federation/data_source.h"
#include "tests/test_util.h"

namespace vizq::cache {
namespace {

using dashboard::BatchOptions;
using dashboard::CacheStack;
using dashboard::QueryService;
using query::AbstractQuery;
using query::QueryBuilder;

// Ground truth executor: runs a query with no caching whatsoever.
class CacheTestEnv {
 public:
  CacheTestEnv()
      : source_(std::make_shared<federation::TdeDataSource>(
            "tde", vizq::testing::MakeTestDatabase(8192))),
        truth_service_(source_, nullptr) {
    (void)truth_service_.RegisterTableView("sales");
  }

  ResultTable Truth(const AbstractQuery& q) {
    BatchOptions opts;
    opts.use_intelligent_cache = false;
    opts.use_literal_cache = false;
    opts.fuse_queries = false;
    opts.analyze_batch = false;
    opts.adjust.decompose_avg = false;
    auto result = truth_service_.ExecuteQuery(q, opts);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? *result : ResultTable();
  }

  std::shared_ptr<federation::DataSource> source_;
  QueryService truth_service_;
};

AbstractQuery BaseQuery() {
  return QueryBuilder("tde", "sales")
      .Dim("region")
      .Dim("product")
      .Agg(AggFunc::kSum, "units", "total")
      .Agg(AggFunc::kCount, "units", "n")
      .Agg(AggFunc::kMin, "units", "lo")
      .Agg(AggFunc::kMax, "units", "hi")
      .Build();
}

TEST(IntelligentCacheTest, ExactHit) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery q = BaseQuery();
  ResultTable truth = env.Truth(q);
  cache.Put(q, truth, 10.0);
  auto hit = cache.Lookup(q);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(ResultTable::SameUnordered(*hit, truth));
  EXPECT_EQ(cache.stats().exact_hits, 1);
}

// Regression (fuzzer seed 31, iteration 191): cache keys sort dimensions
// and measures, so `COUNT(*), MAX(day)` and `MAX(day), COUNT(*)` over the
// same group-by (with `day` both a dimension and an aggregate argument)
// share one key. An exact hit — in the probe, through MatchQueries, or
// from the shared tier — must answer in the request's column order.
TEST(IntelligentCacheTest, ExactHitAnswersInRequestColumnOrder) {
  CacheTestEnv env;
  AbstractQuery stored = QueryBuilder("tde", "sales")
                             .Dim("product")
                             .Dim("day")
                             .Agg(AggFunc::kCountStar, "")
                             .Agg(AggFunc::kMax, "day")
                             .Build();
  AbstractQuery requested = QueryBuilder("tde", "sales")
                                .Dim("product")
                                .Dim("day")
                                .Agg(AggFunc::kMax, "day")
                                .Agg(AggFunc::kCountStar, "")
                                .Build();
  ASSERT_EQ(stored.ToKeyString(), requested.ToKeyString());
  ResultTable truth = env.Truth(requested);
  const std::vector<std::string> want = requested.OutputNames();
  auto expect_request_order = [&](const ResultTable& got, const char* path) {
    ASSERT_EQ(got.num_columns(), static_cast<int>(want.size())) << path;
    for (size_t c = 0; c < want.size(); ++c) {
      EXPECT_EQ(got.columns()[c].name, want[c]) << path << " column " << c;
    }
    EXPECT_TRUE(ResultTable::SameUnordered(got, truth)) << path;
  };

  IntelligentCache cache;
  cache.Put(stored, env.Truth(stored), 10.0);
  auto hit = cache.LookupHit(requested, ExecContext::Background());
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->exact);
  expect_request_order(*hit->table, "exact probe");

  auto plan = MatchQueries(stored, env.Truth(stored).columns(), requested);
  ASSERT_TRUE(plan.has_value());
  auto applied = ApplyMatchPlan(env.Truth(stored), *plan, requested);
  ASSERT_TRUE(applied.ok()) << applied.status();
  expect_request_order(*applied, "match plan");

  DistributedCacheTier::Options tier_options;
  tier_options.net.simulate_latency = false;
  auto tier = std::make_shared<DistributedCacheTier>(tier_options);
  NodeCacheLayer writer("a", tier);
  NodeCacheLayer reader("b", tier);
  writer.Put(stored, env.Truth(stored), 10.0);
  auto remote = reader.Lookup(requested);
  ASSERT_TRUE(remote.has_value());
  expect_request_order(*remote, "shared tier");
}

TEST(IntelligentCacheTest, RollupMatchesDirectExecution) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery stored = BaseQuery();
  cache.Put(stored, env.Truth(stored), 10.0);

  // Coarser granularity: roll product out.
  AbstractQuery rolled = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Agg(AggFunc::kSum, "units", "total")
                             .Agg(AggFunc::kCount, "units", "n")
                             .Agg(AggFunc::kMin, "units", "lo")
                             .Agg(AggFunc::kMax, "units", "hi")
                             .Build();
  auto hit = cache.Lookup(rolled);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(ResultTable::SameUnordered(*hit, env.Truth(rolled)))
      << hit->ToCsv() << "\nvs\n" << env.Truth(rolled).ToCsv();
  EXPECT_EQ(cache.stats().derived_hits, 1);
}

TEST(IntelligentCacheTest, ResidualFilterOnDimension) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery stored = BaseQuery();
  cache.Put(stored, env.Truth(stored), 10.0);

  AbstractQuery filtered = QueryBuilder("tde", "sales")
                               .Dim("region")
                               .Dim("product")
                               .Agg(AggFunc::kSum, "units", "total")
                               .Agg(AggFunc::kCount, "units", "n")
                               .Agg(AggFunc::kMin, "units", "lo")
                               .Agg(AggFunc::kMax, "units", "hi")
                               .FilterIn("region", {Value("East"), Value("West")})
                               .Build();
  auto hit = cache.Lookup(filtered);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(ResultTable::SameUnordered(*hit, env.Truth(filtered)));
}

TEST(IntelligentCacheTest, RollupPlusFilterPlusTopN) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery stored = BaseQuery();
  cache.Put(stored, env.Truth(stored), 10.0);

  AbstractQuery request = QueryBuilder("tde", "sales")
                              .Dim("product")
                              .Agg(AggFunc::kSum, "units", "total")
                              .FilterIn("region", {Value("South")})
                              .OrderBy("total", /*ascending=*/false)
                              .Limit(3)
                              .Build();
  auto hit = cache.Lookup(request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->num_rows(), 3);
  EXPECT_TRUE(ResultTable::SameUnordered(*hit, env.Truth(request)))
      << hit->ToCsv() << "\nvs\n" << env.Truth(request).ToCsv();
}

TEST(IntelligentCacheTest, AvgDerivedFromSumAndCount) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery stored = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Dim("product")
                             .Agg(AggFunc::kSum, "price", "")
                             .Agg(AggFunc::kCount, "price", "")
                             .Build();
  cache.Put(stored, env.Truth(stored), 10.0);

  AbstractQuery request = QueryBuilder("tde", "sales")
                              .Dim("region")
                              .Agg(AggFunc::kAvg, "price", "mean")
                              .Build();
  auto hit = cache.Lookup(request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TABLES_EQUIVALENT(env.Truth(request), *hit);
}

TEST(IntelligentCacheTest, CountDistinctFromDimension) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery stored = BaseQuery();  // has product as a dimension
  cache.Put(stored, env.Truth(stored), 10.0);

  AbstractQuery request = QueryBuilder("tde", "sales")
                              .Dim("region")
                              .Agg(AggFunc::kCountDistinct, "product", "nd")
                              .Build();
  auto hit = cache.Lookup(request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(ResultTable::SameUnordered(*hit, env.Truth(request)));
}

TEST(IntelligentCacheTest, MismatchesMiss) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery stored = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Agg(AggFunc::kSum, "units", "total")
                             .FilterIn("region", {Value("East")})
                             .Build();
  cache.Put(stored, env.Truth(stored), 10.0);

  // Weaker filter than stored: stored lacks the rows.
  AbstractQuery weaker = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Agg(AggFunc::kSum, "units", "total")
                             .Build();
  EXPECT_FALSE(cache.Lookup(weaker).has_value());

  // Finer granularity than stored.
  AbstractQuery finer = QueryBuilder("tde", "sales")
                            .Dim("region")
                            .Dim("product")
                            .Agg(AggFunc::kSum, "units", "total")
                            .FilterIn("region", {Value("East")})
                            .Build();
  EXPECT_FALSE(cache.Lookup(finer).has_value());

  // Measure not derivable (needs raw data).
  AbstractQuery needs_raw = QueryBuilder("tde", "sales")
                                .Dim("region")
                                .Agg(AggFunc::kCountDistinct, "units", "nd")
                                .FilterIn("region", {Value("East")})
                                .Build();
  EXPECT_FALSE(cache.Lookup(needs_raw).has_value());

  // Different view entirely.
  AbstractQuery other_view = QueryBuilder("tde", "products")
                                 .Dim("category")
                                 .CountAll("n")
                                 .Build();
  EXPECT_FALSE(cache.Lookup(other_view).has_value());
}

TEST(IntelligentCacheTest, StoredTopNOnlyServesExactRequests) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery stored = QueryBuilder("tde", "sales")
                             .Dim("product")
                             .Agg(AggFunc::kSum, "units", "total")
                             .OrderBy("total", false)
                             .Limit(3)
                             .Build();
  cache.Put(stored, env.Truth(stored), 10.0);

  EXPECT_TRUE(cache.Lookup(stored).has_value());

  AbstractQuery rolled = QueryBuilder("tde", "sales")
                             .Agg(AggFunc::kSum, "units", "total")
                             .Build();
  EXPECT_FALSE(cache.Lookup(rolled).has_value());
}

TEST(IntelligentCacheTest, ResidualFilterOnNonDimensionMisses) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery stored = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Agg(AggFunc::kSum, "units", "total")
                             .Build();
  cache.Put(stored, env.Truth(stored), 10.0);

  // Filter on product, which is not in the stored granularity.
  AbstractQuery request = QueryBuilder("tde", "sales")
                              .Dim("region")
                              .Agg(AggFunc::kSum, "units", "total")
                              .FilterIn("product", {Value("apple")})
                              .Build();
  EXPECT_FALSE(cache.Lookup(request).has_value());
}

TEST(IntelligentCacheTest, AdjustForReuseDecomposesAvg) {
  AbstractQuery q = QueryBuilder("tde", "sales")
                        .Dim("region")
                        .Agg(AggFunc::kAvg, "price", "mean")
                        .Build();
  AbstractQuery adjusted = AdjustForReuse(q, AdjustOptions{});
  bool has_avg = false, has_sum = false, has_cnt = false;
  for (const query::Measure& m : adjusted.measures) {
    has_avg |= m.func == AggFunc::kAvg;
    has_sum |= m.func == AggFunc::kSum && m.column == "price";
    has_cnt |= m.func == AggFunc::kCount && m.column == "price";
  }
  EXPECT_FALSE(has_avg);
  EXPECT_TRUE(has_sum);
  EXPECT_TRUE(has_cnt);
  // And the adjusted result answers the original.
  auto plan = MatchQueries(adjusted, {}, q);
  EXPECT_TRUE(plan.has_value());
}

TEST(IntelligentCacheTest, AdjustAddFilterDimensionsEnablesReuse) {
  AbstractQuery q = QueryBuilder("tde", "sales")
                        .Dim("region")
                        .Agg(AggFunc::kSum, "units", "total")
                        .FilterIn("product", {Value("apple"), Value("fig")})
                        .Build();
  AdjustOptions opts;
  opts.add_filter_dimensions = true;
  AbstractQuery adjusted = AdjustForReuse(q, opts);
  // product became a dimension, so a later deselection is post-processable.
  AbstractQuery narrower = QueryBuilder("tde", "sales")
                               .Dim("region")
                               .Agg(AggFunc::kSum, "units", "total")
                               .FilterIn("product", {Value("apple")})
                               .Build();
  EXPECT_TRUE(MatchQueries(adjusted, {}, q).has_value());
  EXPECT_TRUE(MatchQueries(adjusted, {}, narrower).has_value());
}

TEST(IntelligentCacheTest, EvictionRespectsCapacityAndInvalidations) {
  CacheTestEnv env;
  IntelligentCacheOptions options;
  options.max_bytes = 1;  // force immediate eviction
  IntelligentCache tiny(options);
  AbstractQuery q = BaseQuery();
  tiny.Put(q, env.Truth(q), 10.0);
  EXPECT_EQ(tiny.num_entries(), 0);
  EXPECT_EQ(tiny.stats().evictions, 1);

  IntelligentCache normal;
  normal.Put(q, env.Truth(q), 10.0);
  EXPECT_EQ(normal.num_entries(), 1);
  normal.InvalidateDataSource("tde");
  EXPECT_EQ(normal.num_entries(), 0);
  EXPECT_FALSE(normal.Lookup(q).has_value());
}

TEST(IntelligentCacheTest, MinEvalCostGatesAdmission) {
  CacheTestEnv env;
  IntelligentCacheOptions options;
  options.min_eval_cost_ms = 5.0;
  IntelligentCache cache(options);
  AbstractQuery q = BaseQuery();
  cache.Put(q, env.Truth(q), 1.0);  // too cheap to bother caching
  EXPECT_EQ(cache.num_entries(), 0);
  cache.Put(q, env.Truth(q), 50.0);
  EXPECT_EQ(cache.num_entries(), 1);
}

TEST(LiteralCacheTest, HitsOnExactTextOnly) {
  LiteralCache cache;
  ResultTable t(std::vector<ResultColumn>{{"x", DataType::Int64()}});
  t.AddRow({Value(int64_t{1})});
  cache.Put("SELECT 1", t, 5.0, "src");
  EXPECT_TRUE(cache.Lookup("SELECT 1").has_value());
  EXPECT_FALSE(cache.Lookup("SELECT  1").has_value());
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  cache.InvalidateDataSource("src");
  EXPECT_FALSE(cache.Lookup("SELECT 1").has_value());
}

TEST(PersistenceTest, RoundTripsBothCaches) {
  CacheTestEnv env;
  IntelligentCache intelligent;
  LiteralCache literal;
  AbstractQuery q = BaseQuery();
  intelligent.Put(q, env.Truth(q), 12.0);
  ResultTable t(std::vector<ResultColumn>{{"x", DataType::Int64()}});
  t.AddRow({Value(int64_t{42})});
  literal.Put("SELECT 42", t, 3.0, "tde");

  std::string bytes = SerializeCaches(intelligent, literal);

  IntelligentCache restored_i;
  LiteralCache restored_l;
  ASSERT_TRUE(DeserializeCaches(bytes, &restored_i, &restored_l).ok());
  EXPECT_TRUE(restored_i.Lookup(q).has_value());
  EXPECT_TRUE(restored_l.Lookup("SELECT 42").has_value());

  // Corrupt image fails cleanly.
  std::string corrupt = bytes.substr(0, bytes.size() / 2);
  IntelligentCache scratch_i;
  LiteralCache scratch_l;
  EXPECT_FALSE(DeserializeCaches(corrupt, &scratch_i, &scratch_l).ok());
}

TEST(PersistenceTest, StatsSurviveRoundTrip) {
  CacheTestEnv env;
  IntelligentCache intelligent;
  LiteralCache literal;

  // Drive a mixed history: one exact hit, one derived (roll-up) hit, and
  // misses with two distinct typed reasons.
  AbstractQuery stored = BaseQuery();
  intelligent.Put(stored, env.Truth(stored), 12.0);
  EXPECT_TRUE(intelligent.Lookup(stored).has_value());  // exact
  AbstractQuery rolled = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Agg(AggFunc::kSum, "units", "total")
                             .Build();
  EXPECT_TRUE(intelligent.Lookup(rolled).has_value());  // derived
  AbstractQuery other_view = QueryBuilder("tde", "returns")
                                 .Dim("region")
                                 .CountAll("n")
                                 .Build();
  EXPECT_FALSE(intelligent.Lookup(other_view).has_value());  // no_candidate
  AbstractQuery extra_dim = QueryBuilder("tde", "sales")
                                .Dim("region")
                                .Dim("product")
                                .Dim("day")
                                .Agg(AggFunc::kSum, "units", "total")
                                .Build();
  EXPECT_FALSE(intelligent.Lookup(extra_dim).has_value());  // dim_not_stored

  ResultTable t(std::vector<ResultColumn>{{"x", DataType::Int64()}});
  t.AddRow({Value(int64_t{42})});
  literal.Put("SELECT 42", t, 3.0, "tde");
  EXPECT_TRUE(literal.Lookup("SELECT 42").has_value());
  EXPECT_FALSE(literal.Lookup("SELECT 43").has_value());
  literal.InvalidateDataSource("tde");

  CacheStats before = intelligent.stats();
  ASSERT_EQ(before.exact_hits, 1);
  ASSERT_EQ(before.derived_hits, 1);
  ASSERT_EQ(before.misses, 2);
  ASSERT_EQ(
      before.miss_reasons[static_cast<int>(MissReason::kNoCandidate)], 1);
  ASSERT_EQ(
      before.miss_reasons[static_cast<int>(MissReason::kDimensionNotStored)],
      1);

  std::string bytes = SerializeCaches(intelligent, literal);
  IntelligentCache restored_i;
  LiteralCache restored_l;
  ASSERT_TRUE(DeserializeCaches(bytes, &restored_i, &restored_l).ok());

  // Every counter — including the per-reason breakdown — survives, and
  // the sum(miss_reasons) == misses invariant still holds after restore.
  CacheStats after = restored_i.stats();
  EXPECT_EQ(after.exact_hits, before.exact_hits);
  EXPECT_EQ(after.derived_hits, before.derived_hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.inserts, before.inserts);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(after.invalidations, before.invalidations);
  int64_t reason_sum = 0;
  for (int i = 0; i < kNumMissReasons; ++i) {
    EXPECT_EQ(after.miss_reasons[i], before.miss_reasons[i])
        << MissReasonToString(static_cast<MissReason>(i));
    reason_sum += after.miss_reasons[i];
  }
  EXPECT_EQ(reason_sum, after.misses);
  EXPECT_EQ(restored_l.hits(), literal.hits());
  EXPECT_EQ(restored_l.misses(), literal.misses());
  EXPECT_EQ(restored_l.invalidations(), literal.invalidations());
}

TEST(DistributedTest, SecondNodeStaysWarm) {
  CacheTestEnv env;
  DistributedCacheTier::Options tier_options;
  tier_options.net.simulate_latency = false;
  auto tier = std::make_shared<DistributedCacheTier>(tier_options);
  NodeCacheLayer node_a("a", tier);
  NodeCacheLayer node_b("b", tier);

  AbstractQuery q = BaseQuery();
  ResultTable truth = env.Truth(q);
  node_a.Put(q, truth, 20.0);

  // Node B never saw the query but gets it from the shared tier.
  auto hit = node_b.Lookup(q);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(ResultTable::SameUnordered(*hit, truth));
  EXPECT_EQ(node_b.shared_hits(), 1);

  // Second lookup on B is local.
  ASSERT_TRUE(node_b.Lookup(q).has_value());
  EXPECT_EQ(node_b.shared_hits(), 1);
  EXPECT_GE(tier->hits(), 1);
}

// Put is a pipelined write: it returns without waiting for its modeled
// cost, charges that cost anyway, and stays invisible until it passes. The
// per-KB term makes the write cost ~17 minutes while a Get miss costs 1 ms.
TEST(DistributedTest, PutReturnsAtOnceAndStaysInvisibleUntilItsCostPasses) {
  DistributedCacheTier::Options options;
  options.net.rtt_ms = 1.0;
  options.net.per_kb_ms = 1e6;
  DistributedCacheTier tier(options);
  const std::string value(1024, 'x');
  const double cost_ms = rpc::NetworkCostModel(options.net).CostMs(1024);

  const auto start = std::chrono::steady_clock::now();
  tier.Put("v\x1fq", value);
  const double put_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  EXPECT_LT(put_ms, cost_ms / 10);
  EXPECT_GE(tier.simulated_ms(), cost_ms * 0.999);
  EXPECT_FALSE(tier.Get("v\x1fq").has_value());
  EXPECT_EQ(tier.puts(), 1);
  EXPECT_EQ(tier.gets(), 1);
  EXPECT_EQ(tier.hits(), 0);
}

TEST(DistributedTest, PutLandsOnceItsCostHasPassed) {
  DistributedCacheTier::Options options;
  options.net.rtt_ms = 1.0;
  DistributedCacheTier tier(options);
  tier.Put("v\x1fq", "payload");
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::optional<std::string> got;
  while (!got.has_value() && std::chrono::steady_clock::now() < give_up) {
    got = tier.Get("v\x1fq");
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "payload");
  EXPECT_EQ(tier.hits(), 1);
}

// An erased namespace takes its not-yet-landed writes with it: nothing
// appears once their modeled cost has passed.
TEST(DistributedTest, EraseNamespaceDropsAPendingPutForGood) {
  DistributedCacheTier::Options options;
  options.net.rtt_ms = 20.0;
  DistributedCacheTier tier(options);
  tier.Put(SharedKeyPrefix("v") + "q", "payload");
  tier.Put(SharedKeyPrefix("w") + "q", "other");
  EXPECT_EQ(tier.EraseNamespace(SharedKeyPrefix("v")), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(tier.Get(SharedKeyPrefix("v") + "q").has_value());
  EXPECT_TRUE(tier.Get(SharedKeyPrefix("w") + "q").has_value());
  EXPECT_EQ(tier.bytes(), DistributedCacheTier::EntryBytes(
                              SharedKeyPrefix("w") + "q", "other"));
}

// The tier never holds more than max_bytes of keys, values and per-entry
// overhead, and evicts the oldest-inserted entry first (not the
// lexicographically first key, which would always drain one namespace).
TEST(DistributedTest, MemoryBoundEvictsInInsertionOrder) {
  const std::string value(100, 'v');
  DistributedCacheTier::Options options;
  options.net.simulate_latency = false;
  options.max_bytes = 3 * DistributedCacheTier::EntryBytes("k", value);
  DistributedCacheTier tier(options);
  for (const char* key : {"c", "a", "d", "b"}) {
    tier.Put(key, value);
    EXPECT_LE(tier.bytes(), options.max_bytes);
  }
  EXPECT_FALSE(tier.Get("c").has_value());
  EXPECT_TRUE(tier.Get("a").has_value());
  // Re-putting a key re-inserts it: "d" is now the oldest.
  tier.Put("a", value);
  tier.Put("e", value);
  EXPECT_FALSE(tier.Get("d").has_value());
  for (const char* key : {"b", "a", "e"}) {
    EXPECT_TRUE(tier.Get(key).has_value()) << key;
  }
  // An entry that cannot fit is not kept and evicts nothing.
  tier.Put("huge", std::string(static_cast<size_t>(options.max_bytes), 'h'));
  EXPECT_FALSE(tier.Get("huge").has_value());
  EXPECT_EQ(tier.bytes(), options.max_bytes);

  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    tier.Put("k" + std::to_string(rng.Below(20)),
             std::string(static_cast<size_t>(rng.Below(250)), 'x'));
    ASSERT_LE(tier.bytes(), options.max_bytes) << "put " << i;
  }
  tier.Clear();
  EXPECT_EQ(tier.bytes(), 0);
}

// --- Null-semantics differential tests (engine vs cache-derived) ---
// The TDE engine skips NULLs in COUNTD and rejects NULL rows in IN-set
// filters; cache post-processing must agree or derived hits silently
// diverge from remote execution.

class NullSemanticsEnv {
 public:
  NullSemanticsEnv()
      : source_(std::make_shared<federation::TdeDataSource>(
            "nulltde", vizq::testing::MakeNullableTestDatabase(512))),
        truth_service_(source_, nullptr) {
    (void)truth_service_.RegisterTableView("orders");
  }

  ResultTable Truth(const AbstractQuery& q) {
    BatchOptions opts;
    opts.use_intelligent_cache = false;
    opts.use_literal_cache = false;
    opts.fuse_queries = false;
    opts.analyze_batch = false;
    opts.adjust.decompose_avg = false;
    auto result = truth_service_.ExecuteQuery(q, opts);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? *result : ResultTable();
  }

  std::shared_ptr<federation::DataSource> source_;
  QueryService truth_service_;
};

TEST(NullSemanticsTest, DerivedCountDistinctSkipsNullDimensionValues) {
  NullSemanticsEnv env;
  AbstractQuery stored = QueryBuilder("nulltde", "orders")
                             .Dim("region")
                             .Dim("product")
                             .Agg(AggFunc::kSum, "units", "total")
                             .Build();
  ResultTable stored_truth = env.Truth(stored);
  // The fixture must actually exercise the null path: at least one group
  // with a NULL product per the generator's 20% null rate.
  bool has_null_dim = false;
  for (int64_t r = 0; r < stored_truth.num_rows(); ++r) {
    if (stored_truth.at(r, 1).is_null()) has_null_dim = true;
  }
  ASSERT_TRUE(has_null_dim) << "fixture lost its null dimension values";

  IntelligentCache cache;
  cache.Put(stored, stored_truth, 10.0);
  AbstractQuery request = QueryBuilder("nulltde", "orders")
                              .Dim("region")
                              .Agg(AggFunc::kCountDistinct, "product", "nd")
                              .Build();
  auto hit = cache.Lookup(request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cache.stats().derived_hits, 1);
  // A COUNTD that counted the null group would be +1 on every row with a
  // null-bearing region; the engine's answer is the spec.
  EXPECT_TRUE(ResultTable::SameUnordered(*hit, env.Truth(request)))
      << hit->ToCsv() << "\nvs engine:\n" << env.Truth(request).ToCsv();
}

TEST(NullSemanticsTest, DerivedInSetFilterRejectsNullRows) {
  NullSemanticsEnv env;
  AbstractQuery stored = QueryBuilder("nulltde", "orders")
                             .Dim("region")
                             .Dim("product")
                             .Agg(AggFunc::kSum, "units", "total")
                             .Agg(AggFunc::kCount, "units", "n")
                             .Build();
  IntelligentCache cache;
  cache.Put(stored, env.Truth(stored), 10.0);

  // A predicate set containing a NULL literal must not admit NULL rows:
  // SQL IN uses =, and NULL = NULL is not true. The engine enforces this;
  // the residual post-filter has to match it.
  AbstractQuery request =
      QueryBuilder("nulltde", "orders")
          .Dim("region")
          .Agg(AggFunc::kSum, "units", "total")
          .Agg(AggFunc::kCount, "units", "n")
          .FilterIn("product", {Value("apple"), Value("banana"), Value::Null()})
          .Build();
  auto hit = cache.Lookup(request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cache.stats().derived_hits, 1);
  EXPECT_TRUE(ResultTable::SameUnordered(*hit, env.Truth(request)))
      << hit->ToCsv() << "\nvs engine:\n" << env.Truth(request).ToCsv();
}

// --- Stats lifecycle (Clear / InvalidateDataSource observability) ---

TEST(IntelligentCacheTest, ClearResetsStatsAndInvalidationsAreCounted) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery q = BaseQuery();
  cache.Put(q, env.Truth(q), 10.0);
  (void)cache.Lookup(q);                             // exact hit
  (void)cache.Lookup(QueryBuilder("tde", "other").Dim("x").Build());  // miss
  EXPECT_EQ(cache.stats().exact_hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().inserts, 1);

  cache.InvalidateDataSource("tde");
  EXPECT_EQ(cache.stats().invalidations, 1);
  EXPECT_EQ(cache.total_bytes(), 0);

  cache.Put(q, env.Truth(q), 10.0);
  cache.Clear();
  // Post-clear the cache reports as-new: hit-rate accounting restarts.
  CacheStats s = cache.stats();
  EXPECT_EQ(s.exact_hits, 0);
  EXPECT_EQ(s.derived_hits, 0);
  EXPECT_EQ(s.misses, 0);
  EXPECT_EQ(s.inserts, 0);
  EXPECT_EQ(s.invalidations, 0);
  EXPECT_EQ(s.hits(), 0);
  EXPECT_EQ(cache.num_entries(), 0);
  EXPECT_EQ(cache.total_bytes(), 0);
  // And counting resumes from zero.
  cache.Put(q, env.Truth(q), 10.0);
  (void)cache.Lookup(q);
  EXPECT_EQ(cache.stats().exact_hits, 1);
}

TEST(LiteralCacheTest, ClearResetsCountersAndInvalidationsAreCounted) {
  LiteralCache cache;
  ResultTable t(std::vector<ResultColumn>{{"x", DataType::Int64()}});
  t.AddRow({Value(int64_t{1})});
  cache.Put("SELECT 1", t, 5.0, "src");
  cache.Put("SELECT 2", t, 5.0, "src");
  cache.Put("SELECT 3", t, 5.0, "other");
  (void)cache.Lookup("SELECT 1");
  (void)cache.Lookup("SELECT nope");
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);

  cache.InvalidateDataSource("src");
  EXPECT_EQ(cache.invalidations(), 2);
  EXPECT_EQ(cache.num_entries(), 1);

  cache.Clear();
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_EQ(cache.invalidations(), 0);
  EXPECT_EQ(cache.num_entries(), 0);
  EXPECT_EQ(cache.total_bytes(), 0);
}

// --- Sharded-layout behavior ---

TEST(IntelligentCacheTest, LookupHitSharesSnapshotsWithoutCopying) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery q = BaseQuery();
  cache.Put(q, env.Truth(q), 10.0);

  auto first = cache.LookupHit(q);
  auto second = cache.LookupHit(q);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(first->exact);
  EXPECT_TRUE(second->exact);
  // Exact hits share one immutable snapshot: a refcount bump, not a copy.
  EXPECT_EQ(first->table.get(), second->table.get());

  AbstractQuery rolled = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Agg(AggFunc::kSum, "units", "total")
                             .Build();
  auto derived = cache.LookupHit(rolled);
  ASSERT_TRUE(derived.has_value());
  EXPECT_FALSE(derived->exact);
  EXPECT_TRUE(ResultTable::SameUnordered(*derived->table, env.Truth(rolled)));
}

TEST(IntelligentCacheTest, SnapshotRestoreRoundTripsAcrossShardLayouts) {
  CacheTestEnv env;
  IntelligentCacheOptions wide;
  wide.num_shards = 32;
  IntelligentCache cache(wide);
  // Entries across several (data_source, view) buckets → several shards.
  std::vector<AbstractQuery> queries;
  for (int v = 0; v < 6; ++v) {
    AbstractQuery q = BaseQuery();
    q.view = "sales_v" + std::to_string(v);
    q.Canonicalize();
    queries.push_back(q);
    cache.Put(q, env.Truth(BaseQuery()), 10.0 + v);
  }
  EXPECT_EQ(cache.num_entries(), 6);
  EXPECT_EQ(cache.num_shards(), 32);
  int64_t occupied = 0;
  for (int64_t n : cache.ShardOccupancy()) occupied += n;
  EXPECT_EQ(occupied, 6);

  auto snapshot = cache.TakeSnapshot();
  ASSERT_EQ(snapshot.size(), 6u);

  // Restore into a cache with a different stripe width: the layout is an
  // implementation detail, the entries must all come back.
  IntelligentCacheOptions narrow;
  narrow.num_shards = 2;
  IntelligentCache restored(narrow);
  restored.Restore(std::move(snapshot));
  EXPECT_EQ(restored.num_entries(), 6);
  EXPECT_EQ(restored.total_bytes(), cache.total_bytes());
  for (const AbstractQuery& q : queries) {
    auto hit = restored.LookupHit(q);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->exact);
  }
}

TEST(LiteralCacheTest, SnapshotRestoreRoundTripsAcrossShardLayouts) {
  LiteralCacheOptions wide;
  wide.num_shards = 32;
  LiteralCache cache(wide);
  ResultTable t(std::vector<ResultColumn>{{"x", DataType::Int64()}});
  t.AddRow({Value(int64_t{7})});
  for (int i = 0; i < 10; ++i) {
    cache.Put("SELECT " + std::to_string(i), t, 5.0, "src");
  }
  auto snapshot = cache.TakeSnapshot();
  ASSERT_EQ(snapshot.size(), 10u);

  LiteralCacheOptions narrow;
  narrow.num_shards = 1;
  LiteralCache restored(narrow);
  restored.Restore(std::move(snapshot));
  EXPECT_EQ(restored.num_entries(), 10);
  EXPECT_EQ(restored.total_bytes(), cache.total_bytes());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(restored.Lookup("SELECT " + std::to_string(i)).has_value());
  }
}

// Parameterized sweep: every (stored granularity, requested granularity,
// filter) combination answered from cache must equal direct execution.
struct SweepCase {
  std::vector<std::string> stored_dims;
  std::vector<std::string> requested_dims;
  bool filter_region;
};

class CacheEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(CacheEquivalenceSweep, DerivedResultsMatchTruth) {
  static CacheTestEnv* env = new CacheTestEnv();
  const std::vector<std::vector<std::string>> granularities = {
      {"region", "product"}, {"region"}, {"product"}, {}};
  int param = GetParam();
  const auto& stored_dims = granularities[param % 4];
  const auto& requested_dims = granularities[(param / 4) % 4];
  bool filter_region = (param / 16) % 2 == 1;

  // Requested must be derivable: requested dims subset of stored dims and
  // (when filtering on region) region in stored dims.
  auto contains = [](const std::vector<std::string>& v, const std::string& s) {
    return std::find(v.begin(), v.end(), s) != v.end();
  };
  bool derivable = true;
  for (const std::string& d : requested_dims) {
    if (!contains(stored_dims, d)) derivable = false;
  }
  if (filter_region && !contains(stored_dims, "region")) derivable = false;

  QueryBuilder stored_builder("tde", "sales");
  for (const std::string& d : stored_dims) stored_builder.Dim(d);
  stored_builder.Agg(AggFunc::kSum, "units", "total")
      .Agg(AggFunc::kCount, "units", "n");
  AbstractQuery stored = stored_builder.Build();

  QueryBuilder req_builder("tde", "sales");
  for (const std::string& d : requested_dims) req_builder.Dim(d);
  req_builder.Agg(AggFunc::kSum, "units", "total")
      .Agg(AggFunc::kAvg, "units", "mean");
  if (filter_region) {
    req_builder.FilterIn("region", {Value("East"), Value("North")});
  }
  AbstractQuery requested = req_builder.Build();

  IntelligentCache cache;
  cache.Put(stored, env->Truth(stored), 10.0);
  auto hit = cache.Lookup(requested);
  if (!derivable) {
    EXPECT_FALSE(hit.has_value());
    return;
  }
  ASSERT_TRUE(hit.has_value());
  EXPECT_TABLES_EQUIVALENT(env->Truth(requested), *hit);
}

INSTANTIATE_TEST_SUITE_P(GranularityByFilter, CacheEquivalenceSweep,
                         ::testing::Range(0, 32));

// Minimized from fuzz_differential (derived_hit lane): a scalar request
// whose residual filter removes every stored group must still produce the
// engine's single scalar row — counts 0, extremes/sums NULL — not an
// empty table.
TEST(IntelligentCacheTest, ScalarRollupOverEmptiedGroupsKeepsOneRow) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery stored = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Agg(AggFunc::kMax, "product")
                             .Agg(AggFunc::kCount, "units")
                             .Build();
  cache.Put(stored, env.Truth(stored), 10.0);

  AbstractQuery request = QueryBuilder("tde", "sales")
                              .Agg(AggFunc::kMax, "product")
                              .Agg(AggFunc::kCount, "units")
                              .FilterIn("region", {Value("Atlantis")})
                              .Build();
  auto hit = cache.Lookup(request);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->num_rows(), 1);
  EXPECT_TRUE(hit->at(0, 0).is_null());
  EXPECT_EQ(hit->at(0, 1).int_value(), 0);
  EXPECT_TABLES_EQUIVALENT(env.Truth(request), *hit);
}

// Minimized from fuzz_differential: SQL NULL and the literal string
// "NULL" are distinct group keys; the roll-up used to merge them because
// its group key rendered both as the same text.
TEST(IntelligentCacheTest, RollupKeepsNullAndLiteralNullStringApart) {
  using namespace vizq::tde;
  TableBuilder builder("t", {{"g", DataType::String()},
                             {"h", DataType::String()},
                             {"v", DataType::Int64()}});
  (void)builder.AddRow({Value("a"), Value::Null(), Value(int64_t{1})});
  (void)builder.AddRow({Value("a"), Value("NULL"), Value(int64_t{10})});
  (void)builder.AddRow({Value("b"), Value::Null(), Value(int64_t{2})});
  (void)builder.AddRow({Value("b"), Value("NULL"), Value(int64_t{20})});
  auto db = std::make_shared<Database>("nullstr");
  (void)db->AddTable(*builder.Finish());
  auto source = std::make_shared<federation::TdeDataSource>(
      "tde", db, QueryOptions::Serial());
  QueryService service(source, nullptr);
  ASSERT_TRUE(service.RegisterTableView("t").ok());
  BatchOptions opts;
  opts.use_intelligent_cache = false;
  opts.use_literal_cache = false;
  opts.fuse_queries = false;
  opts.analyze_batch = false;
  opts.adjust.decompose_avg = false;

  AbstractQuery stored = QueryBuilder("tde", "t")
                             .Dim("g")
                             .Dim("h")
                             .Agg(AggFunc::kSum, "v", "s")
                             .Build();
  AbstractQuery request =
      QueryBuilder("tde", "t").Dim("h").Agg(AggFunc::kSum, "v", "s").Build();
  auto stored_result = service.ExecuteQuery(stored, opts);
  ASSERT_TRUE(stored_result.ok()) << stored_result.status();

  IntelligentCache cache;
  cache.Put(stored, *stored_result, 10.0);
  auto hit = cache.Lookup(request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->num_rows(), 2);  // one NULL group, one "NULL" group
  auto truth = service.ExecuteQuery(request, opts);
  ASSERT_TRUE(truth.ok()) << truth.status();
  EXPECT_TABLES_EQUIVALENT(*truth, *hit);
}

// Minimized from fuzz_differential (batch_fused lane): widening a query
// with its filter columns must keep COUNTD derivable — the COUNTD column
// has to ride along as a dimension, because distinct counts cannot be
// re-aggregated through the roll-up.
TEST(AdjustForReuseTest, CountDistinctSurvivesFilterDimensionWidening) {
  CacheTestEnv env;
  AbstractQuery q = QueryBuilder("tde", "sales")
                        .Agg(AggFunc::kCountDistinct, "product", "nd")
                        .FilterIn("region", {Value("East"), Value("West")})
                        .Build();
  AdjustOptions options;
  options.add_filter_dimensions = true;
  AbstractQuery adjusted = AdjustForReuse(q, options);

  ResultTable wide = env.Truth(adjusted);
  auto plan = MatchQueries(adjusted, wide.columns(), q);
  ASSERT_TRUE(plan.has_value())
      << "widened query cannot serve the original: " << adjusted.ToKeyString();
  auto derived = ApplyMatchPlan(wide, *plan, q);
  ASSERT_TRUE(derived.ok()) << derived.status();
  EXPECT_TABLES_EQUIVALENT(env.Truth(q), *derived);
}


// A stand-in result with `q`'s output layout: one string column per
// dimension and one int column per measure, `rows` rows whose measure
// values start at `tag`. The matching and post-processing code only needs
// the layout to be right, not the numbers to come from an engine.
ResultTable LayoutTable(const AbstractQuery& q, int rows, int64_t tag) {
  std::vector<ResultColumn> columns;
  for (const std::string& d : q.dimensions) {
    columns.push_back({d, DataType::String()});
  }
  for (const query::Measure& m : q.measures) {
    columns.push_back({m.EffectiveAlias(), DataType::Int64()});
  }
  ResultTable t(std::move(columns));
  for (int r = 0; r < rows; ++r) {
    ResultTable::Row row;
    for (size_t i = 0; i < q.dimensions.size(); ++i) {
      row.push_back(Value(std::string(1, static_cast<char>('a' + (r + i) % 3))));
    }
    for (size_t i = 0; i < q.measures.size(); ++i) {
      row.push_back(Value(tag + r + static_cast<int64_t>(i)));
    }
    t.AddRow(std::move(row));
  }
  return t;
}

// Each decoy fails the subsumption proof at one stage. Alone in the
// bucket it must miss with exactly that stage's MissReason (the one
// MatchQueries gives), all together with the furthest stage, and the true
// match stored after all of them must still be found: the column
// signature prefilter may skip the proof but never changes its outcome.
TEST(IntelligentCacheTest, SignaturePrefilterKeepsEveryMissReason) {
  AbstractQuery request = QueryBuilder("tde", "sales")
                              .Dim("region")
                              .Agg(AggFunc::kSum, "units", "total")
                              .FilterIn("region", {Value("East")})
                              .FilterIn("product", {Value("apple")})
                              .Build();
  struct Decoy {
    AbstractQuery stored;
    MissReason reason;
  };
  const std::vector<Decoy> decoys = {
      {QueryBuilder("tde", "sales")
           .Dim("region")
           .Dim("product")
           .Agg(AggFunc::kSum, "units", "total")
           .OrderBy("total")
           .Limit(3)
           .Build(),
       MissReason::kStoredTopN},
      {QueryBuilder("tde", "sales")
           .Dim("product")
           .Agg(AggFunc::kSum, "units", "total")
           .Build(),
       MissReason::kDimensionNotStored},
      // Fails on dimensions although its filter column is unconstrained
      // by the request: the dimension check comes first in the proof.
      {QueryBuilder("tde", "sales")
           .Dim("product")
           .Agg(AggFunc::kSum, "units", "total")
           .FilterRange("units", Value(int64_t{0}), Value(int64_t{50}))
           .Build(),
       MissReason::kDimensionNotStored},
      // A stored filter column the request does not constrain.
      {QueryBuilder("tde", "sales")
           .Dim("region")
           .Dim("product")
           .Agg(AggFunc::kSum, "units", "total")
           .FilterRange("units", Value(int64_t{0}), Value(int64_t{50}))
           .Build(),
       MissReason::kFiltersNotImplied},
      // Same filter columns, values the request does not imply.
      {QueryBuilder("tde", "sales")
           .Dim("region")
           .Dim("product")
           .Agg(AggFunc::kSum, "units", "total")
           .FilterIn("region", {Value("West")})
           .Build(),
       MissReason::kFiltersNotImplied},
      {QueryBuilder("tde", "sales")
           .Dim("region")
           .Agg(AggFunc::kSum, "units", "total")
           .Build(),
       MissReason::kResidualNotGrouped},
      {QueryBuilder("tde", "sales")
           .Dim("region")
           .Dim("product")
           .Agg(AggFunc::kCount, "units", "n")
           .Build(),
       MissReason::kMeasureNotDerivable},
  };
  AbstractQuery match = QueryBuilder("tde", "sales")
                            .Dim("region")
                            .Dim("product")
                            .Agg(AggFunc::kSum, "units", "total")
                            .Build();

  std::array<int64_t, kNumMissReasons> tally{};
  auto add_stats = [&tally](const IntelligentCache& cache) {
    CacheStats stats = cache.stats();
    int64_t sum = 0;
    for (int i = 0; i < kNumMissReasons; ++i) {
      tally[i] += stats.miss_reasons[i];
      sum += stats.miss_reasons[i];
    }
    EXPECT_EQ(sum, stats.misses);
  };

  {
    IntelligentCache empty;
    EXPECT_FALSE(empty.LookupHit(request).has_value());
    add_stats(empty);
  }
  for (const Decoy& d : decoys) {
    SCOPED_TRACE(d.stored.ToKeyString());
    ResultTable table = LayoutTable(d.stored, 2, 1);
    MissReason proof_reason = MissReason::kNone;
    EXPECT_FALSE(
        MatchQueries(d.stored, table.columns(), request, &proof_reason));
    EXPECT_EQ(proof_reason, d.reason);
    IntelligentCache cache;
    cache.Put(d.stored, table, 10.0);
    EXPECT_FALSE(cache.LookupHit(request).has_value());
    EXPECT_EQ(cache.stats().miss_reasons[static_cast<int>(d.reason)], 1);
    add_stats(cache);
  }
  {
    IntelligentCache cache;
    for (const Decoy& d : decoys) {
      cache.Put(d.stored, LayoutTable(d.stored, 2, 1), 10.0);
    }
    EXPECT_FALSE(cache.LookupHit(request).has_value());  // measure stage
    ResultTable match_table = LayoutTable(match, 3, 7);
    cache.Put(match, match_table, 10.0);
    auto hit = cache.LookupHit(request);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(hit->exact);
    auto plan = MatchQueries(match, match_table.columns(), request);
    ASSERT_TRUE(plan.has_value());
    auto expected = ApplyMatchPlan(match_table, *plan, request);
    ASSERT_TRUE(expected.ok()) << expected.status();
    EXPECT_EQ(*hit->table, *expected);
    add_stats(cache);
  }
  {
    // Past the freshness TTL the proof's success does not count.
    IntelligentCacheOptions options;
    options.fresh_ttl_ms = 0.001;
    IntelligentCache cache(options);
    for (const Decoy& d : decoys) {
      cache.Put(d.stored, LayoutTable(d.stored, 2, 1), 10.0);
    }
    cache.Put(match, LayoutTable(match, 3, 7), 10.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_FALSE(cache.LookupHit(request).has_value());
    add_stats(cache);
  }

  std::array<int64_t, kNumMissReasons> expected{};
  expected[static_cast<int>(MissReason::kNoCandidate)] = 1;
  expected[static_cast<int>(MissReason::kStoredTopN)] = 1;
  expected[static_cast<int>(MissReason::kDimensionNotStored)] = 2;
  expected[static_cast<int>(MissReason::kFiltersNotImplied)] = 2;
  expected[static_cast<int>(MissReason::kResidualNotGrouped)] = 1;
  expected[static_cast<int>(MissReason::kMeasureNotDerivable)] = 2;
  expected[static_cast<int>(MissReason::kEntryStale)] = 1;
  EXPECT_EQ(tally, expected);
}

// Seeded sweep over one (source, view) bucket: LookupHit must agree with a
// brute-force MatchQueries loop over every stored descriptor on hit or
// miss, on the miss reason, and on which entry serves the hit, under both
// strategies. Dimension and filter columns come from 80 names, more than
// the signature's 64 bits, so some names share a bit and only the full
// proof can tell them apart.
class PrefilterSweep : public ::testing::TestWithParam<int> {};

TEST_P(PrefilterSweep, LookupAgreesWithBruteForceMatch) {
  const uint64_t seed = static_cast<uint64_t>(GetParam() / 2) + 1;
  const MatchStrategy strategy = GetParam() % 2 == 0
                                     ? MatchStrategy::kFirstMatch
                                     : MatchStrategy::kLeastPostProcessing;
  Rng rng(seed);
  constexpr int kColumns = 80;
  auto column = [&rng] {
    std::string name = "c";
    name += std::to_string(rng.Below(kColumns));
    return name;
  };
  auto value_set = [&rng] {
    std::vector<Value> values;
    for (const char* v : {"a", "b", "c"}) {
      if (rng.Chance(0.6)) values.push_back(Value(v));
    }
    if (values.empty()) values.push_back(Value("a"));
    return values;
  };
  auto add_measure = [&rng, &column](QueryBuilder& b) {
    switch (rng.Below(6)) {
      case 0: b.Agg(AggFunc::kSum, "m0"); break;
      case 1: b.Agg(AggFunc::kCount, "m0"); break;
      case 2: b.Agg(AggFunc::kMin, "m1"); break;
      case 3: b.Agg(AggFunc::kMax, "m1"); break;
      case 4: b.CountAll(); break;
      default: b.Agg(AggFunc::kCountDistinct, column()); break;
    }
  };
  // Mostly one view, so nearly every entry shares the request's bucket.
  auto random_query = [&] {
    QueryBuilder b("src", rng.Chance(0.9) ? "v" : "w");
    for (int i = 0, n = static_cast<int>(rng.Below(4)); i < n; ++i) {
      b.Dim(column());
    }
    for (int i = 0, n = 1 + static_cast<int>(rng.Below(3)); i < n; ++i) {
      add_measure(b);
    }
    for (int i = 0, n = static_cast<int>(rng.Below(3)); i < n; ++i) {
      b.FilterIn(column(), value_set());
    }
    AbstractQuery q = b.Build();
    if (rng.Chance(0.1)) {
      q.order_by.push_back({q.measures[0].EffectiveAlias(), false});
      q.limit = 2;
    }
    return q;
  };
  // A request near `s`: a subset of its dimensions and measures, its
  // filters narrowed, sometimes a residual filter or a stray column.
  auto near_query = [&](const AbstractQuery& s) {
    QueryBuilder b(s.data_source, s.view);
    for (const std::string& d : s.dimensions) {
      if (rng.Chance(0.7)) b.Dim(d);
    }
    if (rng.Chance(0.15)) b.Dim(column());
    for (const query::Measure& m : s.measures) {
      if (rng.Chance(0.7)) b.Agg(m.func, m.column);
    }
    if (rng.Chance(0.2)) add_measure(b);
    for (const query::ColumnPredicate& p : s.filters.predicates) {
      if (rng.Chance(0.1)) continue;  // drop: weaker than stored
      if (p.kind == query::ColumnPredicate::Kind::kInSet && rng.Chance(0.5)) {
        b.FilterIn(p.column, {p.values[rng.Below(p.values.size())]});
      } else {
        b.FilterIn(p.column, p.values);
      }
    }
    if (rng.Chance(0.3) && !s.dimensions.empty()) {
      b.FilterIn(s.dimensions[rng.Below(s.dimensions.size())], value_set());
    }
    if (rng.Chance(0.1)) b.FilterIn(column(), value_set());
    AbstractQuery q = b.Build();
    if (q.measures.empty()) q.measures.push_back({AggFunc::kCountStar, "", ""});
    return q;
  };

  IntelligentCacheOptions options;
  options.strategy = strategy;
  IntelligentCache cache(options);
  struct Stored {
    AbstractQuery q;
    ResultTable table;
  };
  std::vector<Stored> stored;  // insertion order, keys unique
  for (int i = 0; i < 40; ++i) {
    AbstractQuery q = random_query();
    bool duplicate = false;
    for (const Stored& s : stored) {
      if (s.q.ToKeyString() == q.ToKeyString()) duplicate = true;
    }
    if (duplicate) continue;
    ResultTable table =
        LayoutTable(q, 1 + static_cast<int>(rng.Below(4)), 10 * i);
    cache.Put(q, table, 10.0);
    stored.push_back({std::move(q), std::move(table)});
  }

  int hits = 0, misses = 0;
  for (int i = 0; i < 150; ++i) {
    AbstractQuery q = rng.Chance(0.7)
                          ? near_query(stored[rng.Below(stored.size())].q)
                          : random_query();
    SCOPED_TRACE(q.ToKeyString());
    // Brute force: every stored descriptor of the bucket, in order.
    const Stored* exact = nullptr;
    const Stored* winner = nullptr;
    MatchPlan winner_plan;
    MissReason reason = MissReason::kNoCandidate;
    for (const Stored& s : stored) {
      if (s.q.data_source != q.data_source || s.q.view != q.view) continue;
      MissReason r = MissReason::kNone;
      auto plan = MatchQueries(s.q, s.table.columns(), q, &r);
      if (!plan.has_value()) {
        reason = std::max(reason, r);
        continue;
      }
      if (plan->exact) {
        exact = &s;
        continue;
      }
      plan->post_cost = (plan->post_cost + 1) * s.table.num_rows();
      if (winner == nullptr ||
          (strategy == MatchStrategy::kLeastPostProcessing &&
           plan->post_cost < winner_plan.post_cost)) {
        winner = &s;
        winner_plan = *plan;
      }
    }

    CacheStats before = cache.stats();
    auto hit = cache.LookupHit(q);
    CacheStats after = cache.stats();
    if (exact != nullptr) {
      ASSERT_TRUE(hit.has_value());
      EXPECT_TRUE(hit->exact);
      EXPECT_EQ(*hit->table, exact->table);
      ++hits;
    } else if (winner != nullptr) {
      ASSERT_TRUE(hit.has_value());
      EXPECT_FALSE(hit->exact);
      auto expected = ApplyMatchPlan(winner->table, winner_plan, q);
      ASSERT_TRUE(expected.ok()) << expected.status();
      EXPECT_EQ(*hit->table, *expected);
      ++hits;
    } else {
      EXPECT_FALSE(hit.has_value());
      for (int r = 0; r < kNumMissReasons; ++r) {
        EXPECT_EQ(after.miss_reasons[r] - before.miss_reasons[r],
                  r == static_cast<int>(reason) ? 1 : 0)
            << "reason " << MissReasonToString(static_cast<MissReason>(r));
      }
      ++misses;
    }
  }
  // Both outcomes are exercised on every seed.
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
}

INSTANTIATE_TEST_SUITE_P(SeedsByStrategy, PrefilterSweep,
                         ::testing::Range(0, 16));

}  // namespace
}  // namespace vizq::cache
