// Tests for the object store, the S3-Select-style formats (CSV parsing
// and its checksum, chunk pruning), and the RPC service. Selects
// themselves run on the storage node (ocs_test).
#include <gtest/gtest.h>

#include "common/checksum.h"
#include "format/parquet_lite.h"
#include "objectstore/object_store.h"
#include "objectstore/select.h"
#include "objectstore/service.h"

namespace pocs::objectstore {
namespace {

using columnar::CompareOp;
using columnar::Datum;
using columnar::MakeBatch;
using columnar::MakeColumn;
using columnar::MakeSchema;
using columnar::TypeKind;

TEST(ObjectStoreTest, BucketLifecycle) {
  ObjectStore store;
  EXPECT_TRUE(store.CreateBucket("data").ok());
  EXPECT_TRUE(store.HasBucket("data"));
  EXPECT_EQ(store.CreateBucket("data").code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(store.DeleteBucket("data").ok());
  EXPECT_FALSE(store.HasBucket("data"));
  EXPECT_EQ(store.DeleteBucket("data").code(), StatusCode::kNotFound);
}

TEST(ObjectStoreTest, PutGetDelete) {
  ObjectStore store;
  ASSERT_TRUE(store.CreateBucket("b").ok());
  ASSERT_TRUE(store.Put("b", "k", Bytes{1, 2, 3}).ok());
  auto data = store.Get("b", "k");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(**data, (Bytes{1, 2, 3}));
  EXPECT_EQ(*store.Size("b", "k"), 3u);
  EXPECT_TRUE(store.Delete("b", "k").ok());
  EXPECT_EQ(store.Get("b", "k").status().code(), StatusCode::kNotFound);
}

TEST(ObjectStoreTest, NonEmptyBucketNotDeletable) {
  ObjectStore store;
  ASSERT_TRUE(store.CreateBucket("b").ok());
  ASSERT_TRUE(store.Put("b", "k", Bytes{1}).ok());
  EXPECT_FALSE(store.DeleteBucket("b").ok());
}

TEST(ObjectStoreTest, RangeReads) {
  ObjectStore store;
  ASSERT_TRUE(store.CreateBucket("b").ok());
  ASSERT_TRUE(store.Put("b", "k", Bytes{0, 1, 2, 3, 4, 5}).ok());
  EXPECT_EQ(*store.GetRange("b", "k", 2, 3), (Bytes{2, 3, 4}));
  EXPECT_EQ(*store.GetRange("b", "k", 0, 0), Bytes{});
  EXPECT_FALSE(store.GetRange("b", "k", 4, 3).ok());
  EXPECT_FALSE(store.GetRange("b", "k", 7, 0).ok());
}

TEST(ObjectStoreTest, ListWithPrefix) {
  ObjectStore store;
  ASSERT_TRUE(store.CreateBucket("b").ok());
  ASSERT_TRUE(store.Put("b", "laghos/part-0", Bytes{1}).ok());
  ASSERT_TRUE(store.Put("b", "laghos/part-1", Bytes{1}).ok());
  ASSERT_TRUE(store.Put("b", "tpch/lineitem-0", Bytes{1}).ok());
  auto keys = store.List("b", "laghos/");
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(*keys, (std::vector<std::string>{"laghos/part-0", "laghos/part-1"}));
  EXPECT_EQ(store.List("b")->size(), 3u);
  EXPECT_EQ(store.ObjectCount(), 3u);
}

// Writes a parquet-lite object with columns (x float64, grp string, n int64)
// and 2 row groups of 100 rows each: x = row * 0.1, grp cycles a..d.
void PutTestObject(ObjectStore* store) {
  ASSERT_TRUE(store->CreateBucket("data").ok());
  auto schema = MakeSchema({{"x", TypeKind::kFloat64},
                            {"grp", TypeKind::kString},
                            {"n", TypeKind::kInt64}});
  format::WriterOptions options;
  options.rows_per_group = 100;
  format::FileWriter writer(schema, options);
  auto x = MakeColumn(TypeKind::kFloat64);
  auto grp = MakeColumn(TypeKind::kString);
  auto n = MakeColumn(TypeKind::kInt64);
  for (int i = 0; i < 200; ++i) {
    x->AppendFloat64(i * 0.1);
    grp->AppendString(std::string(1, static_cast<char>('a' + i % 4)));
    n->AppendInt64(i);
  }
  ASSERT_TRUE(writer.WriteBatch(*MakeBatch(schema, {x, grp, n})).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(store->Put("data", "obj", *file).ok());
}

// The reader shares the store's bytes instead of copying them, and keeps
// reading the version it opened after a Put replaces the object.
TEST(ObjectStoreTest, ReaderSharesAndPinsTheVersionItOpened) {
  ObjectStore store;
  PutTestObject(&store);
  auto data = store.Get("data", "obj");
  ASSERT_TRUE(data.ok());
  auto reader = format::FileReader::Open(*data);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_TRUE(store.Put("data", "obj", Bytes{1, 2, 3}).ok());
  EXPECT_EQ(data->use_count(), 2);  // this test's handle and the reader's
  auto table = (*reader)->ReadAll();
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_rows(), 200u);
}

// ---- Select formats -----------------------------------------------------

TEST(SelectTest, CsvParserRejectsGarbage) {
  auto schema = MakeSchema({{"x", TypeKind::kFloat64}});
  EXPECT_FALSE(ParseSelectCsv("x\nnot_a_number\n", schema).ok());
  EXPECT_FALSE(ParseSelectCsv("", schema).ok());
  // Wrong column count in header.
  EXPECT_FALSE(ParseSelectCsv("a,b\n1,2\n", schema).ok());
}

// A payload's checksum guards every byte of its text: any flipped byte,
// a truncation, or a payload too short to hold a checksum is Corruption.
TEST(SelectTest, CsvChecksumMismatchIsCorruption) {
  const std::string text = "x\n1.5\n\n2.5\n";
  BufferWriter w;
  w.WriteBytes(text.data(), text.size());
  w.WriteLE<uint64_t>(Checksum64(ByteSpan(
      reinterpret_cast<const uint8_t*>(text.data()), text.size())));
  const Bytes payload = w.data();
  auto ok = SelectCsvText(ByteSpan(payload.data(), payload.size()));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(*ok, text);
  Bytes mutant = payload;
  for (size_t pos = 0; pos < payload.size(); ++pos) {
    mutant[pos] ^= 0x01;
    EXPECT_EQ(SelectCsvText(ByteSpan(mutant.data(), mutant.size()))
                  .status()
                  .code(),
              StatusCode::kCorruption)
        << "byte " << pos;
    mutant[pos] = payload[pos];
  }
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_EQ(SelectCsvText(ByteSpan(payload.data(), len)).status().code(),
              StatusCode::kCorruption)
        << "prefix " << len;
  }
}

TEST(ChunkMayMatchTest, PruningLogic) {
  format::ColumnStats stats;
  stats.min = Datum::Float64(10.0);
  stats.max = Datum::Float64(20.0);
  EXPECT_TRUE(ChunkMayMatch(stats, {"c", CompareOp::kGe, Datum::Float64(15.0)}));
  EXPECT_FALSE(ChunkMayMatch(stats, {"c", CompareOp::kGt, Datum::Float64(20.0)}));
  EXPECT_TRUE(ChunkMayMatch(stats, {"c", CompareOp::kGe, Datum::Float64(20.0)}));
  EXPECT_FALSE(ChunkMayMatch(stats, {"c", CompareOp::kLt, Datum::Float64(10.0)}));
  EXPECT_TRUE(ChunkMayMatch(stats, {"c", CompareOp::kEq, Datum::Float64(10.0)}));
  EXPECT_FALSE(ChunkMayMatch(stats, {"c", CompareOp::kEq, Datum::Float64(9.0)}));
  EXPECT_TRUE(ChunkMayMatch(stats, {"c", CompareOp::kNe, Datum::Float64(15.0)}));
  // Degenerate chunk (min == max == literal) is prunable for !=.
  format::ColumnStats constant;
  constant.min = Datum::Int64(5);
  constant.max = Datum::Int64(5);
  EXPECT_FALSE(ChunkMayMatch(constant, {"c", CompareOp::kNe, Datum::Int64(5)}));
  // All-null chunk never matches a comparison.
  format::ColumnStats nulls;
  EXPECT_FALSE(ChunkMayMatch(nulls, {"c", CompareOp::kEq, Datum::Int64(1)}));
}

// ---- RPC service ---------------------------------------------------------

struct ServiceFixture : ::testing::Test {
  void SetUp() override {
    net = std::make_shared<netsim::Network>(netsim::LinkConfig{1e9, 1e-4});
    auto compute = net->AddNode("compute");
    auto storage = net->AddNode("storage");
    store = std::make_shared<ObjectStore>();
    server = std::make_shared<rpc::Server>(storage, "objectstore");
    RegisterStorageService(store, server.get());
    client = std::make_unique<StorageClient>(rpc::Channel(net, compute, server));
  }
  std::shared_ptr<netsim::Network> net;
  std::shared_ptr<ObjectStore> store;
  std::shared_ptr<rpc::Server> server;
  std::unique_ptr<StorageClient> client;
};

TEST_F(ServiceFixture, PutGetThroughRpc) {
  Bytes payload = {9, 8, 7};
  ASSERT_TRUE(client->Put("b", "k", ByteSpan(payload.data(), payload.size())).ok());
  auto data = client->Get("b", "k");
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(*data, payload);
  EXPECT_GT(net->Total().bytes, 6u);  // request + response framing
}

TEST_F(ServiceFixture, ListAndSizeThroughRpc) {
  ASSERT_TRUE(client->Put("b", "a1", ByteSpan()).ok());
  ASSERT_TRUE(client->Put("b", "a2", ByteSpan()).ok());
  auto keys = client->List("b", "a");
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 2u);
  EXPECT_EQ(*client->Size("b", "a1"), 0u);
}

TEST_F(ServiceFixture, GetMissingObjectErrors) {
  EXPECT_FALSE(client->Get("nope", "k").ok());
}

}  // namespace
}  // namespace pocs::objectstore
