// Robustness tests: deterministic fuzzing of the text entry points (TQL
// parser, CSV parser) and of every binary decoder (result tables, extract
// files, cache images, queries, cluster batch payloads, RPC envelopes) —
// no crashes, typed kDataLoss on corrupt bytes — golden bytes pinning the
// encoded formats, plus concurrency hammering of the shared caches and the
// connection pool.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>

#include "src/cache/intelligent_cache.h"
#include "src/cache/literal_cache.h"
#include "src/cache/persistence.h"
#include "src/cluster/node.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/extract/csv_parser.h"
#include "src/extract/type_inference.h"
#include "src/federation/connection_pool.h"
#include "src/rpc/envelope.h"
#include "src/tde/plan/tql_parser.h"
#include "src/tde/storage/file_format.h"
#include "tests/test_util.h"

namespace vizq {
namespace {

std::string RandomText(Rng& rng, int max_len, const std::string& alphabet) {
  int len = static_cast<int>(rng.Below(max_len + 1));
  std::string out;
  out.reserve(len);
  for (int i = 0; i < len; ++i) {
    out += alphabet[rng.Below(alphabet.size())];
  }
  return out;
}

class FuzzSeedTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeedTest, TqlParserNeverCrashes) {
  Rng rng(GetParam() * 131 + 7);
  const std::string alphabet = "()abcdef sel scan proj 0123456789\"<>=+-*";
  for (int i = 0; i < 200; ++i) {
    std::string input = RandomText(rng, 120, alphabet);
    auto plan = tde::ParseTql(input);  // any Status is fine; no crash
    if (plan.ok()) {
      // Whatever parsed must at least print.
      EXPECT_FALSE((*plan)->ToString().empty());
    }
  }
}

TEST_P(FuzzSeedTest, TqlNearMissesFailCleanly) {
  // Mutations of a valid query: drop/duplicate random characters.
  const std::string valid =
      "(topn 5 ((total desc)) (aggregate ((region region)) "
      "((total sum units)) (select (> units 3) (scan sales))))";
  Rng rng(GetParam());
  auto db = vizq::testing::MakeTestDatabase(256);
  for (int i = 0; i < 100; ++i) {
    std::string mutated = valid;
    int edits = 1 + static_cast<int>(rng.Below(3));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.Below(mutated.size());
      if (rng.Chance(0.5)) {
        mutated.erase(pos, 1);
      } else {
        mutated.insert(pos, 1, mutated[pos]);
      }
    }
    auto plan = tde::ParseTql(mutated);
    if (!plan.ok()) continue;
    // If it parses it might still fail to bind; both must be clean.
    tde::TdeEngine engine(db);
    auto result = engine.Execute(*plan, tde::QueryOptions::Serial());
    (void)result;
  }
}

TEST_P(FuzzSeedTest, CsvParserNeverCrashes) {
  Rng rng(GetParam() * 977 + 3);
  const std::string alphabet = "ab,\"\n\r 1.x";
  for (int i = 0; i < 300; ++i) {
    std::string input = RandomText(rng, 200, alphabet);
    auto records = extract::ParseCsv(input);
    if (records.ok() && !records->empty()) {
      extract::InferredSchema schema = extract::InferSchema(*records);
      EXPECT_EQ(schema.columns.size(), (*records)[0].size());
    }
  }
}

// Small valid inputs for the corruption sweep and the golden bytes: the
// table has one column per TypeKind and a NULL, the extract one column
// per encoding, the query every predicate kind.
ResultTable SampleTable() {
  ResultTable rt(std::vector<ResultColumn>{
      {"b", DataType::Bool()},
      {"i", DataType::Int64()},
      {"f", DataType::Float64()},
      {"s", DataType::String(Collation::kCaseInsensitive)},
      {"d", DataType::Date()}});
  rt.AddRow({Value(true), Value(int64_t{-2}), Value(1.5), Value("Ab"),
             Value(int64_t{19000})});
  rt.AddRow({Value(false), Value::Null(), Value(-0.25), Value(""),
             Value(int64_t{19001})});
  return rt;
}

tde::Database SampleDatabase() {
  tde::Database db("g");
  tde::TableBuilder builder(
      "t", {{"s", DataType::String(Collation::kCaseInsensitive)},
            {"i", DataType::Int64()},
            {"d", DataType::Date()},
            {"f", DataType::Float64()}});
  builder.SetEncodingChoice(0, tde::EncodingChoice::kForceDictionary);
  builder.SetEncodingChoice(1, tde::EncodingChoice::kForceRle);
  builder.SetEncodingChoice(2, tde::EncodingChoice::kForceDelta);
  builder.SetEncodingChoice(3, tde::EncodingChoice::kForcePlain);
  builder.DeclareSorted({1});
  EXPECT_TRUE(builder.AddRow({Value("x"), Value(int64_t{7}),
                              Value(int64_t{100}), Value(0.5)})
                  .ok());
  EXPECT_TRUE(builder.AddRow({Value("Y"), Value(int64_t{7}),
                              Value(int64_t{103}), Value::Null()})
                  .ok());
  auto table = builder.Finish();
  EXPECT_TRUE(table.ok()) << table.status();
  if (table.ok()) EXPECT_TRUE(db.AddTable(*table).ok());
  return db;
}

query::AbstractQuery SampleQuery() {
  return query::QueryBuilder("src", "view")
      .Dim("s")
      .Agg(AggFunc::kSum, "i", "total")
      .CountAll("n")
      .FilterIn("s", {Value("Ab"), Value::Null()})
      .FilterRange("f", Value(0.0), std::nullopt)
      .OrderBy("total")
      .Limit(10)
      .Build();
}

// Decoders return a Status (via StatusOr::status() where they produce a
// value); an OK parse of corrupted bytes is allowed, anything else must
// be the typed kDataLoss.
using Decoder = std::function<Status(const std::string&)>;

std::map<std::string, Decoder> AllDecoders() {
  return {
      {"ResultTable",
       [](const std::string& b) {
         return ResultTable::Deserialize(b).status();
       }},
      {"Database",
       [](const std::string& b) {
         return tde::DatabaseSerializer::Unpack(b).status();
       }},
      {"Caches",
       [](const std::string& b) {
         cache::IntelligentCache ic;
         cache::LiteralCache lc;
         return cache::DeserializeCaches(b, &ic, &lc);
       }},
      {"AbstractQuery",
       [](const std::string& b) {
         return query::AbstractQuery::Deserialize(b).status();
       }},
      {"BatchRequest",
       [](const std::string& b) {
         return cluster::DecodeBatchRequest(b).status();
       }},
      {"BatchResponse",
       [](const std::string& b) {
         return cluster::DecodeBatchResponse(b).status();
       }},
      {"RpcRequest",
       [](const std::string& b) {
         return rpc::RpcRequest::Deserialize(b).status();
       }},
      {"RpcResponse",
       [](const std::string& b) {
         return rpc::RpcResponse::Deserialize(b).status();
       }},
  };
}

std::map<std::string, std::string> ValidEncodings() {
  ResultTable table = SampleTable();
  query::AbstractQuery q = SampleQuery();
  cache::IntelligentCache ic;
  cache::LiteralCache lc;
  ic.Put(q, table, 5.0);
  lc.Put("q", table, 5.0);
  EXPECT_EQ(ic.TakeSnapshot().size(), 1u);
  cluster::WireBatchOptions options;
  options.cache_only = true;
  options.session_id = 42;
  options.priority = TaskClass::kBatch;
  cluster::NodeBatchResult result;
  result.results = {table, ResultTable()};
  result.queries = {dashboard::QueryReport{}, dashboard::QueryReport{}};
  result.queries[1].served_from = dashboard::ServedFrom::kLocalFromBatch;
  result.fused_groups = 1;
  rpc::RpcRequest req;
  req.request_id = 7;
  req.method = "execute_batch";
  req.target = "n1";
  req.budget_ms = 250;
  req.payload = cluster::EncodeBatchRequest({q, q}, options);
  rpc::RpcResponse resp;
  resp.request_id = 7;
  resp.code = StatusCode::kNotFound;
  resp.message = "no such view";
  resp.payload = cluster::EncodeBatchResponse(result);
  return {
      {"ResultTable", table.Serialize()},
      {"Database", tde::DatabaseSerializer::Pack(SampleDatabase())},
      {"Caches", cache::SerializeCaches(ic, lc)},
      {"AbstractQuery", q.Serialize()},
      {"BatchRequest", req.payload},
      {"BatchResponse", resp.payload},
      {"RpcRequest", req.Serialize()},
      {"RpcResponse", resp.Serialize()},
  };
}

TEST_P(FuzzSeedTest, DeserializersRejectGarbage) {
  Rng rng(GetParam() * 31 + 1);
  const std::map<std::string, Decoder> decoders = AllDecoders();
  auto expect_data_loss_or_ok = [](const std::string& what, const Status& s) {
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kDataLoss) << what << ": " << s;
    }
  };
  for (int i = 0; i < 50; ++i) {
    std::string junk = RandomText(rng, 400, std::string("\x00\x01VZRTQCH", 8));
    for (const auto& [name, decode] : decoders) {
      expect_data_loss_or_ok(name + " junk", decode(junk));
    }
  }
  // Every truncation of a valid encoding is kDataLoss (each format ends in
  // fixed fields and checks for trailing bytes), and single-bit flips
  // parse or fail typed — never a crash or an allocation the input cannot
  // back.
  for (const auto& [name, bytes] : ValidEncodings()) {
    const Decoder& decode = decoders.at(name);
    ASSERT_TRUE(decode(bytes).ok()) << name;
    for (size_t len = 0; len < bytes.size(); ++len) {
      Status s = decode(bytes.substr(0, len));
      EXPECT_EQ(s.code(), StatusCode::kDataLoss) << name << " cut at " << len;
    }
    for (int i = 0; i < 64; ++i) {
      std::string flipped = bytes;
      flipped[rng.Below(flipped.size())] ^=
          static_cast<char>(1 << rng.Below(8));
      expect_data_loss_or_ok(name + " bit flip", decode(flipped));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest, ::testing::Range(1, 9));

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

// Encoded artifacts outlive the process (cache snapshots, .tde files), so
// their bytes must not drift. The literals were captured from the encoder
// as first shipped; a change here is a format break, not a test update.
TEST(FormatStabilityTest, GoldenBytes) {
  EXPECT_EQ(Hex(SampleTable().Serialize()),
      "54525a5605000000010000006200000100000069010001000000660200010000"
      "00730301010000006404000200000000000000010102feffffffffffffff0300"
      "0000000000f83f0402000000416202384a000000000000010000030000000000"
      "00d0bf040000000002394a000000000000");

  EXPECT_EQ(Hex(tde::DatabaseSerializer::Pack(SampleDatabase())),
      "4544515601000000010000006701000000070000004578747261637401000000"
      "0100000074020000000000000004000000010000007303010102000000000000"
      "0000000002000000000000000000000000000000000000000000000002000000"
      "0000000000000000000000000100000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000001010200"
      "0000000000000100000078010000005901000000690100020200000000000000"
      "0102070000000000000002070000000000000001000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000100000000000000070000000000000000000000000000000200000000"
      "0000000000000000000000000000000000000000010000006404000302000000"
      "0000000001026400000000000000026700000000000000020000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000006400000000000000010000000000000003"
      "0000000001000000660200000200000000000000010300000000000000000300"
      "0000000000e03f00000000000000000100000000000000020000000000000000"
      "0100000000000000000200000000000000000000000000e03f00000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "00000100000001000000");
}

// Enum bytes past an enum's last enumerator come only from corrupt or
// hostile input; decoders reject them instead of casting them through.
TEST(DecoderTest, OutOfRangeEnumBytesAreDataLoss) {
  auto expect_data_loss = [](const Status& s) {
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s;
  };
  for (DataType type :
       {DataType{static_cast<TypeKind>(9), Collation::kBinary},
        DataType{TypeKind::kString, static_cast<Collation>(2)}}) {
    ResultTable t(std::vector<ResultColumn>{{"x", type}});
    expect_data_loss(ResultTable::Deserialize(t.Serialize()).status());
  }

  query::AbstractQuery bad_func = SampleQuery();
  bad_func.measures[0].func = static_cast<AggFunc>(200);
  expect_data_loss(
      query::AbstractQuery::Deserialize(bad_func.Serialize()).status());
  query::AbstractQuery bad_kind = SampleQuery();
  bad_kind.filters.predicates[0].kind =
      static_cast<query::ColumnPredicate::Kind>(2);
  expect_data_loss(
      query::AbstractQuery::Deserialize(bad_kind.Serialize()).status());

  cluster::WireBatchOptions options;
  options.priority = static_cast<TaskClass>(3);
  expect_data_loss(
      cluster::DecodeBatchRequest(cluster::EncodeBatchRequest({}, options))
          .status());
  cluster::NodeBatchResult result;
  result.results = {ResultTable()};
  result.queries = {dashboard::QueryReport{}};
  result.queries[0].served_from = static_cast<dashboard::ServedFrom>(7);
  expect_data_loss(
      cluster::DecodeBatchResponse(cluster::EncodeBatchResponse(result))
          .status());

  // The first column's kind, collation and encoding bytes in the sample
  // extract image (offsets follow the golden bytes above).
  const std::string image = tde::DatabaseSerializer::Pack(SampleDatabase());
  for (size_t offset : {54, 55, 56}) {
    std::string bad = image;
    bad[offset] = static_cast<char>(0xee);
    expect_data_loss(tde::DatabaseSerializer::Unpack(bad).status());
  }
}

// An extract image whose bytes all decode but whose column stats lie
// about the payload: the date column "d" holds 100 and 103 while its
// stats claim max 101. The dense aggregate indexes arrays by
// value - stats.min, so such an image is rejected as kDataLoss rather
// than loaded.
TEST(DecoderTest, StatsThatLieAboutThePayloadAreDataLoss) {
  const std::string image = tde::DatabaseSerializer::Pack(SampleDatabase());
  ASSERT_TRUE(tde::DatabaseSerializer::Unpack(image).ok());
  // Value tag 2 (int) followed by 103 little-endian: the stats' max.
  const std::string max103("\x02\x67\0\0\0\0\0\0\0", 9);
  const size_t at = image.find(max103);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(image.find(max103, at + 1), std::string::npos);
  std::string lying = image;
  lying[at + 1] = 101;
  Status s = tde::DatabaseSerializer::Unpack(lying).status();
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s;
}

TEST(ConcurrencyTest, CacheSurvivesParallelMixedUse) {
  cache::IntelligentCacheOptions options;
  options.max_bytes = 64 * 1024;  // force continuous eviction
  cache::IntelligentCache cache(options);
  ResultTable t(std::vector<ResultColumn>{{"region", DataType::String()},
                                          {"n", DataType::Int64()}});
  t.AddRow({Value("East"), Value(int64_t{5})});

  std::atomic<int64_t> hits{0};
  {
    ThreadPool pool(8);
    for (int worker = 0; worker < 8; ++worker) {
      pool.Submit([&, worker] {
        Rng rng(worker);
        for (int i = 0; i < 300; ++i) {
          query::AbstractQuery q =
              query::QueryBuilder("s", "v")
                  .Dim("region")
                  .CountAll("n")
                  .FilterIn("region",
                            {Value(std::to_string(rng.Below(40)))})
                  .Build();
          if (rng.Chance(0.5)) {
            cache.Put(q, t, 5.0);
          } else if (cache.Lookup(q).has_value()) {
            hits.fetch_add(1);
          }
          if (i % 100 == 0) cache.InvalidateDataSource("s");
        }
      });
    }
    pool.Wait();
  }
  // No crashes/deadlocks; counters consistent.
  EXPECT_GE(cache.stats().inserts, 1);
  EXPECT_EQ(cache.stats().hits(), hits.load() + 0);
}

TEST(ConcurrencyTest, PoolHammeredFromManyThreads) {
  auto source = std::make_shared<federation::TdeDataSource>(
      "tde", vizq::testing::MakeTestDatabase(512));
  federation::ConnectionPool pool(source, 3);
  std::atomic<int> completed{0};
  {
    ThreadPool workers(8);
    for (int i = 0; i < 64; ++i) {
      workers.Submit([&] {
        auto conn = pool.Acquire();
        ASSERT_TRUE(conn.ok());
        completed.fetch_add(1);
      });
    }
    workers.Wait();
  }
  EXPECT_EQ(completed.load(), 64);
  EXPECT_LE(pool.size(), 3);
  EXPECT_EQ(pool.idle(), pool.size());
}

}  // namespace
}  // namespace vizq
