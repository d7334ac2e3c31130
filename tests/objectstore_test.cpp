// Tests for the object store, the S3-Select-style formats (CSV parsing
// and its checksum, chunk pruning), and the RPC service. Selects
// themselves run on the storage node (ocs_test).
#include <gtest/gtest.h>

#include <limits>
#include <utility>

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
  auto object = store.GetVersioned("b", "k");
  ASSERT_TRUE(object.ok());
  EXPECT_EQ(*object->data, (Bytes{1, 2, 3}));
  EXPECT_EQ(store.Stat("b", "k")->size, 3u);
  EXPECT_EQ(store.Stat("b", "k")->version, object->version);
  EXPECT_TRUE(store.Delete("b", "k").ok());
  EXPECT_EQ(store.GetVersioned("b", "k").status().code(),
            StatusCode::kNotFound);
}

TEST(ObjectStoreTest, NonEmptyBucketNotDeletable) {
  ObjectStore store;
  ASSERT_TRUE(store.CreateBucket("b").ok());
  ASSERT_TRUE(store.Put("b", "k", Bytes{1}).ok());
  EXPECT_FALSE(store.DeleteBucket("b").ok());
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
  auto object = store.GetVersioned("data", "obj");
  ASSERT_TRUE(object.ok());
  auto reader = format::FileReader::Open(object->data);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_TRUE(store.Put("data", "obj", Bytes{1, 2, 3}).ok());
  EXPECT_EQ(object->data.use_count(), 2);  // this test's and the reader's
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
  // A boolean is true or false, nothing else.
  auto flags = MakeSchema({{"b", TypeKind::kBool}});
  EXPECT_TRUE(ParseSelectCsv("b\ntrue\nfalse\n", flags).ok());
  for (const char* cell : {"yes", "1", "TRUE", "\"\""}) {
    EXPECT_EQ(ParseSelectCsv("b\n" + std::string(cell) + "\n", flags)
                  .status()
                  .code(),
              StatusCode::kCorruption)
        << cell;
  }
  // An unclosed quote, text after a closing quote, a missing or an extra
  // cell.
  auto pair = MakeSchema({{"s", TypeKind::kString}, {"n", TypeKind::kInt64}});
  for (const char* text :
       {"s,n\n\"ab,1\n", "s,n\n\"ab\"c,1\n", "s,n\nab\n", "s,n\nab,1,2\n"}) {
    EXPECT_EQ(ParseSelectCsv(text, pair).status().code(),
              StatusCode::kCorruption)
        << text;
  }
}

// Every string comes back as written — one holding a delimiter or a
// quote, and the empty string, which stays apart from NULL.
TEST(SelectTest, CsvRoundtripPreservesEveryString) {
  auto schema = MakeSchema({{"s", TypeKind::kString}, {"t", TypeKind::kString}});
  const std::vector<std::string> values = {"x,y", "say \"hi\"", "a\nb",
                                           "c\rd", "", "plain"};
  auto s = MakeColumn(TypeKind::kString);
  auto t = MakeColumn(TypeKind::kString);
  for (const std::string& v : values) {
    s->AppendString(v);
    t->AppendString("z");
  }
  s->AppendNull();
  t->AppendString("");
  columnar::Table table(schema, {MakeBatch(schema, {s, t})});
  BufferWriter out;
  WriteSelectCsv(table, &out);
  auto text = SelectCsvText(out.span());
  ASSERT_TRUE(text.ok()) << text.status();
  auto parsed = ParseSelectCsv(*text, schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ((*parsed)->num_rows(), values.size() + 1);
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_FALSE((*parsed)->column(0)->IsNull(i)) << i;
    EXPECT_EQ((*parsed)->column(0)->GetString(i), values[i]) << i;
    EXPECT_EQ((*parsed)->column(1)->GetString(i), "z") << i;
  }
  EXPECT_TRUE((*parsed)->column(0)->IsNull(values.size()));
  ASSERT_FALSE((*parsed)->column(1)->IsNull(values.size()));
  EXPECT_EQ((*parsed)->column(1)->GetString(values.size()), "");
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
  auto read = client->Get("b", "k");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->data, payload);
  EXPECT_EQ(read->object_size, 3u);
  EXPECT_EQ(read->version, store->Stat("b", "k")->version);
  EXPECT_GT(net->Total().bytes, 6u);  // request + response framing
}

TEST_F(ServiceFixture, ListAndSizeThroughRpc) {
  ASSERT_TRUE(client->Put("b", "a1", ByteSpan()).ok());
  ASSERT_TRUE(client->Put("b", "a2", ByteSpan()).ok());
  auto keys = client->List("b", "a");
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 2u);
  EXPECT_EQ(client->Get("b", "a1")->object_size, 0u);
}

// A ranged Get returns the bytes of the range, with the size and version
// of the whole object; a range that runs past the object's end returns
// the bytes up to the end, as S3's Range does, also where offset + length
// wraps around 2^64. An offset past the end is OutOfRange.
TEST_F(ServiceFixture, RangeGetReadsWithinTheObjectOnly) {
  const Bytes payload = {0, 1, 2, 3, 4, 5, 6, 7};
  ASSERT_TRUE(client->Put("b", "k", ByteSpan(payload.data(), payload.size())).ok());
  const uint64_t version = store->Stat("b", "k")->version;
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  struct InRange {
    uint64_t offset, length;
    Bytes want;
  };
  for (const InRange& c :
       {InRange{2, 3, {2, 3, 4}}, InRange{0, 0, {}}, InRange{8, 0, {}},
        InRange{0, 8, payload}, InRange{6, 3, {6, 7}},
        InRange{1, kMax, {1, 2, 3, 4, 5, 6, 7}}}) {
    auto read = client->Get("b", "k", c.offset, c.length);
    ASSERT_TRUE(read.ok()) << c.offset << "+" << c.length << ": "
                           << read.status();
    EXPECT_EQ(read->data, c.want);
    EXPECT_EQ(read->object_size, payload.size());
    EXPECT_EQ(read->version, version);
  }
  const std::vector<std::pair<uint64_t, uint64_t>> beyond = {{9, 0},
                                                             {kMax, 2}};
  for (const auto& [offset, length] : beyond) {
    EXPECT_EQ(client->Get("b", "k", offset, length).status().code(),
              StatusCode::kOutOfRange)
        << offset << "+" << length;
  }
}

// The client checks a response's byte count against the range it asked
// for and the size the response reports.
TEST_F(ServiceFixture, GetResponseOfTheWrongLengthIsCorruption) {
  const Bytes payload = {0, 1, 2, 3, 4, 5, 6, 7};
  ASSERT_TRUE(client->Put("b", "k", ByteSpan(payload.data(), payload.size())).ok());
  // A server that answers every Get with the whole object.
  auto whole = std::make_shared<rpc::Server>(server->node(), "whole");
  RegisterStorageService(store, whole.get());
  whole->RegisterMethod("Get", [this](ByteSpan req) -> Result<Bytes> {
    BufferReader in(req);
    POCS_ASSIGN_OR_RETURN(std::string bucket, in.ReadString());
    POCS_ASSIGN_OR_RETURN(std::string key, in.ReadString());
    BufferWriter whole_object;
    whole_object.WriteString(bucket);
    whole_object.WriteString(key);
    return server->Dispatch("Get", whole_object.span());
  });
  StorageClient lying(rpc::Channel(net, net->AddNode("reader"), whole));
  ASSERT_TRUE(lying.Get("b", "k").ok());
  EXPECT_EQ(lying.Get("b", "k", 2, 3).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(lying.Get("b", "k", 0, 0).status().code(), StatusCode::kCorruption);
}

TEST_F(ServiceFixture, GetMissingObjectErrors) {
  EXPECT_FALSE(client->Get("nope", "k").ok());
}

}  // namespace
}  // namespace pocs::objectstore
