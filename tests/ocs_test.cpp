// Tests for OCS: storage-node plan execution over Parquet-lite objects
// (with pruning and CPU-slowdown accounting), S3 Select on the same
// executor (operator scope, CSV results), the frontend's routing,
// end-to-end client → frontend → storage round trips with byte
// accounting, and the read-ahead's frames against the sequential scan's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "columnar/ipc.h"
#include "common/counters.h"
#include "common/thread_annotations.h"
#include "format/parquet_lite.h"
#include "metastore/metastore.h"
#include "objectstore/select.h"
#include "ocs/client.h"
#include "ocs/cluster.h"
#include "ocs/storage_node.h"
#include "substrait/serialize.h"
#include "workloads/deepwater.h"
#include "workloads/laghos.h"
#include "workloads/testbed.h"
#include "workloads/tpch.h"

namespace pocs::ocs {
namespace {

using columnar::Datum;
using columnar::MakeBatch;
using columnar::MakeColumn;
using columnar::MakeSchema;
using columnar::TypeKind;
using substrait::AggFunc;
using substrait::Expression;
using substrait::Plan;
using substrait::Rel;
using substrait::RelKind;
using substrait::ScalarFunc;

columnar::SchemaPtr SimSchema() {
  return MakeSchema({{"vertex_id", TypeKind::kInt64},
                     {"x", TypeKind::kFloat64},
                     {"e", TypeKind::kFloat64}});
}

// 1000 rows in 10 row groups: vertex_id = i, x = i * 0.01, e = 1000 - i.
Bytes SimFile() {
  format::WriterOptions options;
  options.rows_per_group = 100;
  format::FileWriter writer(SimSchema(), options);
  auto id = MakeColumn(TypeKind::kInt64);
  auto x = MakeColumn(TypeKind::kFloat64);
  auto e = MakeColumn(TypeKind::kFloat64);
  for (int i = 0; i < 1000; ++i) {
    id->AppendInt64(i);
    x->AppendFloat64(i * 0.01);
    e->AppendFloat64(1000.0 - i);
  }
  auto batch = MakeBatch(SimSchema(), {id, x, e});
  EXPECT_TRUE(writer.WriteBatch(*batch).ok());
  auto file = writer.Finish();
  EXPECT_TRUE(file.ok());
  return *file;
}

std::unique_ptr<Rel> ReadSim() {
  auto read = std::make_unique<Rel>();
  read->kind = RelKind::kRead;
  read->bucket = "sim";
  read->object = "f0";
  read->base_schema = SimSchema();
  return read;
}

Expression XBetween(double lo, double hi) {
  auto ge = Expression::Call(
      ScalarFunc::kGe,
      {Expression::FieldRef(1, TypeKind::kFloat64),
       Expression::Literal(Datum::Float64(lo))},
      TypeKind::kBool);
  auto le = Expression::Call(
      ScalarFunc::kLe,
      {Expression::FieldRef(1, TypeKind::kFloat64),
       Expression::Literal(Datum::Float64(hi))},
      TypeKind::kBool);
  return Expression::Call(ScalarFunc::kAnd, {ge, le}, TypeKind::kBool);
}

StorageNode MakeNode(double slowdown = 1.0) {
  auto store = std::make_shared<objectstore::ObjectStore>();
  EXPECT_TRUE(store->CreateBucket("sim").ok());
  EXPECT_TRUE(store->Put("sim", "f0", SimFile()).ok());
  return StorageNode(store, StorageNodeConfig{slowdown});
}

TEST(StorageNodeTest, FilterPlanWithPruning) {
  StorageNode node = MakeNode();
  Plan plan;
  auto filter = std::make_unique<Rel>();
  filter->kind = RelKind::kFilter;
  filter->input = ReadSim();
  filter->predicate = XBetween(2.0, 3.0);  // rows 200..300
  plan.root = std::move(filter);

  auto result = node.ExecutePlan(plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.rows_output, 101u);
  // Only groups 2 and 3 overlap [2.0, 3.0]; 8 of 10 groups pruned.
  EXPECT_EQ(result->stats.row_groups_total, 10u);
  EXPECT_EQ(result->stats.row_groups_skipped, 8u);
  EXPECT_EQ(result->stats.rows_scanned, 200u);
  EXPECT_GT(result->stats.storage_compute_seconds, 0.0);

  auto table = OcsClient::DecodeTable(*result);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 101u);
}

TEST(StorageNodeTest, FullPushdownChainMatchesPaperShape) {
  // Filter -> Aggregate(min id, avg e by nothing...) use group by constant:
  // group by vertex_id % 10 via project first.
  StorageNode node = MakeNode();
  Plan plan;
  auto filter = std::make_unique<Rel>();
  filter->kind = RelKind::kFilter;
  filter->input = ReadSim();
  filter->predicate = XBetween(0.8, 3.2);

  auto project = std::make_unique<Rel>();
  project->kind = RelKind::kProject;
  project->input = std::move(filter);
  project->expressions = {
      Expression::Call(ScalarFunc::kModulo,
                       {Expression::FieldRef(0, TypeKind::kInt64),
                        Expression::Literal(Datum::Int64(7))},
                       TypeKind::kInt64),
      Expression::FieldRef(2, TypeKind::kFloat64)};
  project->output_names = {"g", "e"};

  auto agg = std::make_unique<Rel>();
  agg->kind = RelKind::kAggregate;
  agg->input = std::move(project);
  agg->group_keys = {0};
  agg->aggregates = {
      {AggFunc::kAvg, Expression::FieldRef(1, TypeKind::kFloat64), "avg_e"},
      {AggFunc::kCountStar, {}, "cnt"}};

  auto sort = std::make_unique<Rel>();
  sort->kind = RelKind::kSort;
  sort->input = std::move(agg);
  sort->sort_fields = {{1, true, true}};
  auto fetch = std::make_unique<Rel>();
  fetch->kind = RelKind::kFetch;
  fetch->input = std::move(sort);
  fetch->count = 3;
  plan.root = std::move(fetch);

  auto result = node.ExecutePlan(plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.rows_output, 3u);
  auto table = OcsClient::DecodeTable(*result);
  ASSERT_TRUE(table.ok());
  auto combined = (*table)->Combine();
  ASSERT_EQ(combined->num_rows(), 3u);
  // Sorted ascending by avg_e.
  EXPECT_LE(combined->column(1)->GetFloat64(0),
            combined->column(1)->GetFloat64(1));
}

TEST(StorageNodeTest, CpuSlowdownScalesComputeTime) {
  StorageNode fast = MakeNode(1.0);
  StorageNode slow = MakeNode(10.0);
  // The reported compute time is wall-clock scaled by cpu_slowdown, so a
  // single sample is at the mercy of scheduler jitter (especially under
  // sanitizers with parallel test load). Take the minimum of several runs
  // of each before comparing.
  auto min_seconds = [](StorageNode& node) {
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 5; ++i) {
      Plan plan;
      plan.root = ReadSim();
      auto result = node.ExecutePlan(plan);
      EXPECT_TRUE(result.ok()) << result.status();
      if (result.ok()) {
        best = std::min(best, result->stats.storage_compute_seconds);
      }
    }
    return best;
  };
  double fast_s = min_seconds(fast);
  double slow_s = min_seconds(slow);
  // Same work, 10x reported time (wall jitter tolerated with wide margin).
  EXPECT_GT(slow_s, fast_s * 2);
}

TEST(StorageNodeTest, MissingObjectErrors) {
  StorageNode node = MakeNode();
  Plan plan;
  plan.root = ReadSim();
  plan.root->object = "missing";
  EXPECT_FALSE(node.ExecutePlan(plan).ok());
}

TEST(StorageNodeTest, SchemaMismatchRejected) {
  StorageNode node = MakeNode();
  Plan plan;
  plan.root = ReadSim();
  plan.root->base_schema = MakeSchema({{"wrong", TypeKind::kInt64}});
  EXPECT_FALSE(node.ExecutePlan(plan).ok());
}

// ---- S3 Select ------------------------------------------------------------

// The Select test object data/obj: columns (x float64, grp string,
// n int64) in 2 row groups of 100 rows each: x = row * 0.1, grp cycles
// a..d, n = row.
columnar::SchemaPtr SelectSchema() {
  return MakeSchema({{"x", TypeKind::kFloat64},
                     {"grp", TypeKind::kString},
                     {"n", TypeKind::kInt64}});
}

void PutSelectObject(objectstore::ObjectStore* store) {
  ASSERT_TRUE(store->CreateBucket("data").ok());
  format::WriterOptions options;
  options.rows_per_group = 100;
  format::FileWriter writer(SelectSchema(), options);
  auto x = MakeColumn(TypeKind::kFloat64);
  auto grp = MakeColumn(TypeKind::kString);
  auto n = MakeColumn(TypeKind::kInt64);
  for (int i = 0; i < 200; ++i) {
    x->AppendFloat64(i * 0.1);
    grp->AppendString(std::string(1, static_cast<char>('a' + i % 4)));
    n->AppendInt64(i);
  }
  ASSERT_TRUE(writer.WriteBatch(*MakeBatch(SelectSchema(), {x, grp, n})).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(store->Put("data", "obj", *file).ok());
}

// `column <func> literal` over SelectSchema().
Expression SelectCmp(ScalarFunc func, const std::string& column,
                     Datum literal) {
  const int index = SelectSchema()->FieldIndex(column);
  return Expression::Call(
      func,
      {Expression::FieldRef(index, SelectSchema()->field(index).type),
       Expression::Literal(std::move(literal))},
      TypeKind::kBool);
}

// Read data/obj → [Filter] → Project of `columns`, by name.
Plan SelectPlan(const std::vector<std::string>& columns,
                std::optional<Expression> predicate = std::nullopt) {
  auto rel = std::make_unique<Rel>();
  rel->kind = RelKind::kRead;
  rel->bucket = "data";
  rel->object = "obj";
  rel->base_schema = SelectSchema();
  if (predicate) {
    auto filter = std::make_unique<Rel>();
    filter->kind = RelKind::kFilter;
    filter->predicate = std::move(*predicate);
    filter->input = std::move(rel);
    rel = std::move(filter);
  }
  auto project = std::make_unique<Rel>();
  project->kind = RelKind::kProject;
  for (const std::string& column : columns) {
    const int index = SelectSchema()->FieldIndex(column);
    project->expressions.push_back(
        Expression::FieldRef(index, SelectSchema()->field(index).type));
    project->output_names.push_back(column);
  }
  project->input = std::move(rel);
  Plan plan;
  plan.root = std::move(project);
  return plan;
}

struct SelectOutput {
  OcsExecStats stats;
  std::string csv;  // the payload's text, its checksum verified
};

// A Select response frame, unwrapped as the Hive connector does.
Result<SelectOutput> UnwrapSelect(Bytes frame) {
  POCS_ASSIGN_OR_RETURN(OcsResult result,
                        DecodeOcsResult(Buffer::Adopt(std::move(frame))));
  POCS_ASSIGN_OR_RETURN(std::string_view csv,
                        objectstore::SelectCsvText(result.arrow_ipc.span()));
  return SelectOutput{result.stats, std::string(csv)};
}

Result<SelectOutput> RunSelect(const StorageNode& node, const Plan& plan) {
  POCS_ASSIGN_OR_RETURN(Bytes frame, node.Select(plan));
  return UnwrapSelect(std::move(frame));
}

StorageNode MakeSelectNode() {
  auto store = std::make_shared<objectstore::ObjectStore>();
  PutSelectObject(store.get());
  return StorageNode(store, StorageNodeConfig{});
}

TEST(SelectTest, FilterAndProject) {
  StorageNode node = MakeSelectNode();
  auto out = RunSelect(node, SelectPlan({"n", "grp"},
                                        SelectCmp(ScalarFunc::kLt, "x",
                                                  Datum::Float64(0.35))));
  ASSERT_TRUE(out.ok()) << out.status();
  // Rows 0..3 match (x = 0.0, 0.1, 0.2, 0.3).
  EXPECT_EQ(out->stats.rows_output, 4u);
  EXPECT_EQ(out->csv, "n,grp\n0,a\n1,b\n2,c\n3,d\n");
  // Second row group (x >= 10.0) must be pruned by statistics.
  EXPECT_EQ(out->stats.row_groups_total, 2u);
  EXPECT_EQ(out->stats.row_groups_skipped, 1u);
  EXPECT_EQ(out->stats.rows_scanned, 100u);
  EXPECT_GT(out->stats.object_bytes_read, 0u);
  EXPECT_GT(out->stats.media_read_seconds, 0.0);
}

TEST(SelectTest, NoPredicatesReturnsEverything) {
  StorageNode node = MakeSelectNode();
  auto out = RunSelect(node, SelectPlan({"n"}));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->stats.rows_output, 200u);
  EXPECT_EQ(std::count(out->csv.begin(), out->csv.end(), '\n'), 201);
}

TEST(SelectTest, ConjunctivePredicates) {
  StorageNode node = MakeSelectNode();
  auto predicate = Expression::Call(
      ScalarFunc::kAnd,
      {SelectCmp(ScalarFunc::kGe, "x", Datum::Float64(0.95)),
       SelectCmp(ScalarFunc::kEq, "grp", Datum::String("b"))},
      TypeKind::kBool);
  auto out = RunSelect(node, SelectPlan({"n"}, std::move(predicate)));
  ASSERT_TRUE(out.ok()) << out.status();
  // x >= 0.95 → rows 10..199; grp == "b" → n % 4 == 1 → 13, 17, ..., 197.
  EXPECT_EQ(out->stats.rows_output, 47u);
}

TEST(SelectTest, UnknownColumnRejected) {
  StorageNode node = MakeSelectNode();
  // A column the object lacks: the plan's schema is not the object's.
  Plan plan = SelectPlan({"n"});
  auto schema = MakeSchema({{"x", TypeKind::kFloat64},
                            {"grp", TypeKind::kString},
                            {"nope", TypeKind::kInt64}});
  plan.root->input->base_schema = schema;
  EXPECT_EQ(node.Select(plan).status().code(), StatusCode::kInvalidArgument);
  // A column past the scan's last.
  plan = SelectPlan({"n"});
  plan.root->expressions[0] = Expression::FieldRef(3, TypeKind::kInt64);
  EXPECT_EQ(node.Select(plan).status().code(), StatusCode::kInvalidArgument);
}

TEST(SelectTest, CsvRoundtripPreservesDoubles) {
  StorageNode node = MakeSelectNode();
  auto out = RunSelect(node, SelectPlan({"x", "n"}));
  ASSERT_TRUE(out.ok()) << out.status();
  auto schema = MakeSchema({{"x", TypeKind::kFloat64}, {"n", TypeKind::kInt64}});
  auto batch = objectstore::ParseSelectCsv(out->csv, schema);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ((*batch)->num_rows(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_DOUBLE_EQ((*batch)->column(0)->GetFloat64(i), i * 0.1);
    EXPECT_EQ((*batch)->column(1)->GetInt64(i), i);
  }
}

TEST(SelectTest, NullCellsRoundtrip) {
  auto store = std::make_shared<objectstore::ObjectStore>();
  ASSERT_TRUE(store->CreateBucket("b").ok());
  auto schema = MakeSchema({{"v", TypeKind::kFloat64}});
  format::FileWriter writer(schema, {});
  auto v = MakeColumn(TypeKind::kFloat64);
  v->AppendFloat64(1.5);
  v->AppendNull();
  v->AppendFloat64(2.5);
  ASSERT_TRUE(writer.WriteBatch(*MakeBatch(schema, {v})).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(store->Put("b", "k", *file).ok());
  StorageNode node(store, StorageNodeConfig{});
  Plan plan;  // a bare Read: every column
  plan.root = std::make_unique<Rel>();
  plan.root->bucket = "b";
  plan.root->object = "k";
  plan.root->base_schema = schema;
  auto out = RunSelect(node, plan);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->csv, "v\n1.5\n\n2.5\n");
  auto batch = objectstore::ParseSelectCsv(out->csv, schema);
  ASSERT_TRUE(batch.ok());
  EXPECT_FALSE((*batch)->column(0)->IsNull(0));
  EXPECT_TRUE((*batch)->column(0)->IsNull(1));
  EXPECT_DOUBLE_EQ((*batch)->column(0)->GetFloat64(2), 2.5);
}

// A storage node's service on its own server: Select over the simulated
// network from a compute node.
struct ServiceFixture : ::testing::Test {
  void SetUp() override {
    net = std::make_shared<netsim::Network>(netsim::LinkConfig{1e9, 1e-4});
    auto compute = net->AddNode("compute");
    auto storage = net->AddNode("storage");
    store = std::make_shared<objectstore::ObjectStore>();
    node = std::make_unique<StorageNode>(store, StorageNodeConfig{});
    server = std::make_shared<rpc::Server>(storage, "storage");
    node->RegisterService(server.get());
    client = std::make_unique<OcsClient>(rpc::Channel(net, compute, server));
  }
  std::shared_ptr<netsim::Network> net;
  std::shared_ptr<objectstore::ObjectStore> store;
  std::unique_ptr<StorageNode> node;
  std::shared_ptr<rpc::Server> server;
  std::unique_ptr<OcsClient> client;
};

TEST_F(ServiceFixture, SelectThroughRpcChargesOnlyResults) {
  PutSelectObject(store.get());
  net->ResetCounters();

  objectstore::TransferInfo info;
  auto result = client->Select(
      SelectPlan({"n"}, SelectCmp(ScalarFunc::kLt, "x", Datum::Float64(0.15))),
      &info);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.rows_output, 2u);
  auto csv = objectstore::SelectCsvText(result->arrow_ipc.span());
  ASSERT_TRUE(csv.ok()) << csv.status();
  EXPECT_EQ(*csv, "n\n0\n1\n");
  // Only the tiny CSV crossed the network, not the object.
  uint64_t object_size = store->Stat("data", "obj")->size;
  EXPECT_LT(net->Total().bytes, object_size / 10);
  EXPECT_GT(info.bytes_received, 0u);
  EXPECT_GT(info.transfer_seconds, 0.0);
}

// Every storage counter set to a distinct value through the list: count
// i is 2^(5i) + i (varints of 1 to 9 bytes), seconds j is 0.125(j+1) + j.
OcsResult DistinctResult() {
  OcsResult result;
  uint64_t count = 0;
  double second = 0;
  ForEachCounter(result.stats, [&](std::string_view, auto& value) {
    if constexpr (kIsCount<decltype(value)>) {
      value = (uint64_t{1} << (5 * count)) + count;
      ++count;
    } else {
      value = 0.125 * (second + 1) + second;
      ++second;
    }
  });
  result.stats.object_version = 0x1234;
  result.arrow_ipc = Buffer::Adopt(Bytes{0xA, 0xB, 0xC});
  return result;
}

// The storage counters of `stats`, in list order: (counts, seconds).
std::pair<std::vector<uint64_t>, std::vector<double>> Values(
    const OcsExecStats& stats) {
  std::pair<std::vector<uint64_t>, std::vector<double>> values;
  ForEachCounter(stats, [&](std::string_view, const auto& value) {
    if constexpr (kIsCount<decltype(value)>) {
      values.first.push_back(value);
    } else {
      values.second.push_back(value);
    }
  });
  return values;
}

Bytes Encode(const OcsResult& result) {
  OcsResultWriter w(result.stats, result.arrow_ipc.size());
  w.payload()->WriteBytes(result.arrow_ipc.span());
  return std::move(w).Finish(result.stats);
}

Result<OcsResult> Decode(const Bytes& frame) {
  BufferReader r(frame.data(), frame.size());
  return DecodeOcsResult(&r);
}

// The frame layout is pinned byte for byte: the counts as varints in
// POCS_STORAGE_COUNTERS order, the object version, the seconds as
// little-endian doubles, the payload length as a u64, zero padding to a
// multiple of 8, the header checksum, then the IPC payload. Compute and
// storage nodes must agree on these bytes, so a change here (a new storage
// counter included) has to be deliberate.
TEST(OcsResultWireTest, EncodeDecode) {
  const OcsResult result = DistinctResult();
  const std::string golden(
      "\x01\x21\x82\x08\x83\x80\x02\x84\x80\x40\x85\x80\x80\x10\x86\x80\x80"
      "\x80\x04\x87\x80\x80\x80\x80\x01\x88\x80\x80\x80\x80\x20\x89\x80\x80"
      "\x80\x80\x80\x08\x8a\x80\x80\x80\x80\x80\x80\x02\x8b\x80\x80\x80\x80"
      "\x80\x80\x40\x8c\x80\x80\x80\x80\x80\x80\x80\x10\xb4\x24\x00\x00\x00"
      "\x00\x00\x00\xc0\x3f\x00\x00\x00\x00\x00\x00\xf4\x3f\x00\x00\x00\x00"
      "\x00\x00\x03\x40\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x5d\x60\xf1\xd2\x27\x3d\x19\x3f\x0a\x0b\x0c",
      115);
  const Bytes frame = Encode(result);
  EXPECT_EQ(std::string(frame.begin(), frame.end()), golden);

  auto rt = Decode(frame);
  ASSERT_TRUE(rt.ok()) << rt.status();
  EXPECT_EQ(Values(rt->stats), Values(result.stats));
  EXPECT_EQ(rt->stats.object_version, 0x1234u);
  EXPECT_EQ(rt->arrow_ipc, result.arrow_ipc);
}

TEST(OcsResultWireTest, EveryStrictPrefixFailsToDecode) {
  const Bytes frame = Encode(DistinctResult());
  for (size_t n = 0; n < frame.size(); ++n) {
    const Bytes prefix(frame.begin(), frame.begin() + n);
    auto decoded = Decode(prefix);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << n << " bytes decoded";
  }
}

TEST(OcsResultWireTest, TrailingBytesAreCorruption) {
  Bytes frame = Encode(DistinctResult());
  frame.push_back(0);
  auto decoded = Decode(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

// Storage-reported seconds feed the slow-node check and the modelled
// query time; NaN compares false against any deadline, so a NaN,
// infinite or negative figure must be rejected at the wire.
TEST(OcsResultWireTest, NonFiniteOrNegativeSecondsAreCorruption) {
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -100.0, -0.5};
  const OcsExecStats names;
  std::vector<std::string> checked;
  ForEachCounter(names, [&](std::string_view name, const auto& value) {
    if constexpr (!kIsCount<decltype(value)>) checked.emplace_back(name);
  });
  EXPECT_EQ(checked, (std::vector<std::string>{"storage_compute_seconds",
                                               "media_read_seconds",
                                               "exec_delay_seconds"}));
  for (const std::string& field : checked) {
    for (double bad : bad_values) {
      OcsResult result = DistinctResult();
      ForEachCounter(result.stats, [&](std::string_view name, auto& value) {
        if constexpr (!kIsCount<decltype(value)>) {
          if (name == field) value = bad;
        }
      });
      auto decoded = Decode(Encode(result));
      ASSERT_FALSE(decoded.ok()) << field << " = " << bad;
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
          << field << " = " << bad;
    }
  }
}

// Decoding a real response copies no column bytes: the payload and every
// buffer of every decoded column lie inside the response frame, each
// 8-aligned.
TEST(OcsResultWireTest, DecodedColumnsAreSlicesOfTheResponseFrame) {
  StorageNode node = MakeNode();
  Plan plan;
  auto filter = std::make_unique<Rel>();
  filter->kind = RelKind::kFilter;
  filter->input = ReadSim();
  filter->predicate = XBetween(2.0, 3.0);
  plan.root = std::move(filter);
  auto frame = node.Execute(plan);
  ASSERT_TRUE(frame.ok()) << frame.status();
  const Buffer response = Buffer::Adopt(std::move(*frame));
  auto result = DecodeOcsResult(response);
  ASSERT_TRUE(result.ok()) << result.status();
  auto inside = [&response](const Buffer& b) {
    return b.data() >= response.data() &&
           b.data() + b.size() <= response.data() + response.size() &&
           reinterpret_cast<uintptr_t>(b.data()) % 8 == 0;
  };
  EXPECT_TRUE(inside(result->arrow_ipc));
  auto table = OcsClient::DecodeTable(*result);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ((*table)->num_rows(), 101u);
  for (const auto& batch : (*table)->batches()) {
    for (const auto& col : batch->columns()) {
      for (const Buffer* b : {&col->validity_buffer(), &col->values_buffer(),
                              &col->chars_buffer()}) {
        if (!b->empty()) {
          EXPECT_TRUE(inside(*b));
        }
      }
      EXPECT_EQ(col->values_buffer().owner(), response.owner());
    }
  }
}

// A copied OcsResult shares ownership of its frame, so it still decodes
// after the original and every other holder of the frame are gone.
TEST(OcsResultWireTest, CopiedResultOutlivesItsFrame) {
  StorageNode node = MakeNode();
  Plan plan;
  plan.root = ReadSim();
  OcsResult copy;
  {
    auto result = node.ExecutePlan(plan);
    ASSERT_TRUE(result.ok()) << result.status();
    copy = *result;
  }
  auto table = OcsClient::DecodeTable(copy);
  ASSERT_TRUE(table.ok()) << table.status();
  auto combined = (*table)->Combine();
  ASSERT_EQ(combined->num_rows(), 1000u);
  EXPECT_EQ(combined->column(0)->GetInt64(999), 999);
  EXPECT_DOUBLE_EQ(combined->column(2)->GetFloat64(0), 1000.0);
}

// ---- cluster --------------------------------------------------------------

struct ClusterFixture : ::testing::Test {
  void SetUp() override {
    net = std::make_shared<netsim::Network>(netsim::LinkConfig{1.25e9, 1e-4});
    ClusterConfig config;
    config.num_storage_nodes = 3;
    config.storage.cpu_slowdown = 1.0;
    cluster = std::make_unique<OcsCluster>(net, config);
    compute = net->AddNode("compute");
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(
          cluster->PutObject("sim", "f" + std::to_string(i), SimFile()).ok());
    }
    client = std::make_unique<OcsClient>(
        rpc::Channel(net, compute, cluster->frontend_server()));
  }
  std::shared_ptr<netsim::Network> net;
  std::unique_ptr<OcsCluster> cluster;
  netsim::NodeId compute;
  std::unique_ptr<OcsClient> client;
};

TEST_F(ClusterFixture, ObjectsSpreadAcrossNodes) {
  size_t nodes_with_data = 0;
  for (size_t i = 0; i < cluster->num_storage_nodes(); ++i) {
    if (cluster->storage_node(i).store()->ObjectCount() > 0) {
      ++nodes_with_data;
    }
  }
  EXPECT_EQ(nodes_with_data, 3u);  // round-robin over 3 nodes, 6 objects
  EXPECT_GT(cluster->TotalStoredBytes(), 0u);
}

TEST_F(ClusterFixture, ExecutePlanRoutesThroughFrontend) {
  for (int i = 0; i < 6; ++i) {
    Plan plan;
    auto filter = std::make_unique<Rel>();
    filter->kind = RelKind::kFilter;
    filter->input = ReadSim();
    filter->input->object = "f" + std::to_string(i);
    filter->predicate = XBetween(0.5, 0.6);
    plan.root = std::move(filter);
    objectstore::TransferInfo info;
    auto result = client->ExecutePlan(plan, &info);
    ASSERT_TRUE(result.ok()) << "object f" << i << ": " << result.status();
    EXPECT_EQ(result->stats.rows_output, 11u);
    EXPECT_GT(info.bytes_received, 0u);
  }
  // Traffic exists on compute↔frontend and frontend↔storage links.
  auto total = net->Total();
  EXPECT_GT(total.bytes, 0u);
  auto compute_frontend = net->FlowBetween(compute, cluster->frontend_node());
  EXPECT_GT(compute_frontend.bytes, 0u);
  // Frontend→storage forwarding doubles internal traffic.
  EXPECT_GT(total.bytes, compute_frontend.bytes);
}

// The probe behind the wire check: a node whose injected delay is NaN or
// negative used to slip past the connector's slow-node deadline. The
// client now refuses the response instead of trusting it.
TEST_F(ClusterFixture, GarbageStorageSecondsAreRejectedByTheClient) {
  for (double delay : {std::numeric_limits<double>::quiet_NaN(), -100.0}) {
    for (size_t i = 0; i < cluster->num_storage_nodes(); ++i) {
      cluster->mutable_storage_node(i).faults().exec_delay_seconds = delay;
    }
    Plan plan;
    plan.root = ReadSim();
    plan.root->object = "f0";
    auto result = client->ExecutePlan(plan);
    ASSERT_FALSE(result.ok()) << "delay " << delay;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }
}

TEST_F(ClusterFixture, AggregationPushdownMovesAlmostNothing) {
  net->ResetCounters();
  Plan plan;
  auto filter = std::make_unique<Rel>();
  filter->kind = RelKind::kFilter;
  filter->input = ReadSim();
  filter->input->object = "f0";
  filter->predicate = XBetween(0.0, 9.99);
  auto agg = std::make_unique<Rel>();
  agg->kind = RelKind::kAggregate;
  agg->input = std::move(filter);
  agg->aggregates = {
      {AggFunc::kAvg, Expression::FieldRef(2, TypeKind::kFloat64), "avg_e"},
      {AggFunc::kCountStar, {}, "cnt"}};
  plan.root = std::move(agg);

  auto result = client->ExecutePlan(plan);
  ASSERT_TRUE(result.ok()) << result.status();
  auto table = OcsClient::DecodeTable(*result);
  ASSERT_TRUE(table.ok());
  auto combined = (*table)->Combine();
  ASSERT_EQ(combined->num_rows(), 1u);
  EXPECT_EQ(combined->column(1)->GetInt64(0), 1000);
  // The aggregate result crossing the wire is tiny vs the object.
  EXPECT_LT(net->Total().bytes,
            cluster->storage_node(0).store()->Stat("sim", "f0")->size / 4);
}

// 1000 rows in 10 row groups: id = i, x = i * 0.01, y = 1.5 i (NULL when
// i % 5 == 0) and a string of i % 23 letters (NULL when i % 7 == 0).
Bytes MixedFile() {
  format::WriterOptions options;
  options.rows_per_group = 100;
  const auto schema = MakeSchema({{"id", TypeKind::kInt64},
                                  {"x", TypeKind::kFloat64},
                                  {"y", TypeKind::kFloat64},
                                  {"s", TypeKind::kString}});
  format::FileWriter writer(schema, options);
  auto id = MakeColumn(TypeKind::kInt64);
  auto x = MakeColumn(TypeKind::kFloat64);
  auto y = MakeColumn(TypeKind::kFloat64);
  auto str = MakeColumn(TypeKind::kString);
  for (int i = 0; i < 1000; ++i) {
    id->AppendInt64(i);
    x->AppendFloat64(i * 0.01);
    if (i % 5 == 0) {
      y->AppendNull();
    } else {
      y->AppendFloat64(i * 1.5);
    }
    if (i % 7 == 0) {
      str->AppendNull();
    } else {
      str->AppendString(std::string(i % 23, static_cast<char>('a' + i % 26)));
    }
  }
  EXPECT_TRUE(writer.WriteBatch(*MakeBatch(schema, {id, x, y, str})).ok());
  auto file = writer.Finish();
  EXPECT_TRUE(file.ok());
  return *file;
}

// A filter-only plan's frame carries its survivors as the gather kernel
// compacts them: for a filter that keeps no rows, rows in runs of four
// around NULLs, and every row, the stream equals the one the engine's
// executor gives over the same rows, and the frame keeps the size it had
// under the run-wise gather the kernel replaced.
TEST_F(ClusterFixture, FilterOnlyFramesKeepTheirBytes) {
  const Bytes file = MixedFile();
  ASSERT_TRUE(cluster->PutObject("sim", "mixed", file).ok());
  auto reader = format::FileReader::Open(file);
  ASSERT_TRUE(reader.ok());
  auto whole = (*reader)->ReadAll();
  ASSERT_TRUE(whole.ok());
  auto y_below = [](double v) {
    return Expression::Call(ScalarFunc::kLt,
                            {Expression::FieldRef(2, TypeKind::kFloat64),
                             Expression::Literal(Datum::Float64(v))},
                            TypeKind::kBool);
  };
  struct Case {
    const char* name;
    Expression predicate;
    uint64_t rows;
    uint64_t bytes_from_storage;
  };
  // The byte counts are those the node shipped under the run-wise gather.
  const Case cases[] = {
      {"none", XBetween(50.0, 60.0), 0, 88},
      {"runs", Expression::Call(ScalarFunc::kAnd,
                                {XBetween(2.0, 5.0), y_below(600.0)},
                                TypeKind::kBool),
       160, 6320},
      {"all", XBetween(-1.0, 100.0), 1000, 39976},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Plan plan;
    auto filter = std::make_unique<Rel>();
    filter->kind = RelKind::kFilter;
    filter->input = ReadSim();
    filter->input->object = "mixed";
    filter->input->base_schema = (*reader)->schema();
    filter->predicate = c.predicate;
    plan.root = std::move(filter);
    objectstore::TransferInfo info;
    auto result = client->ExecutePlan(plan, &info);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->stats.rows_output, c.rows);
    exec::ScanFactory source = [&](const Rel&)
        -> Result<std::unique_ptr<exec::BatchSource>> {
      return std::unique_ptr<exec::BatchSource>(
          std::make_unique<exec::TableSource>(*whole));
    };
    auto reference = exec::ExecuteRel(*plan.root, source);
    ASSERT_TRUE(reference.ok()) << reference.status();
    const Bytes want = columnar::ipc::SerializeTable(**reference);
    EXPECT_TRUE(std::ranges::equal(result->arrow_ipc.span(), want));
    EXPECT_EQ(info.bytes_received, c.bytes_from_storage);
  }
}

TEST_F(ClusterFixture, FrontendProxiesObjectStoreMethods) {
  objectstore::StorageClient store_client(
      rpc::Channel(net, compute, cluster->frontend_server()));
  auto read = store_client.Get("sim", "f2");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_GT(read->object_size, 0u);
  EXPECT_EQ(read->data.size(), read->object_size);
  auto keys = store_client.List("sim", "f");
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 6u);  // merged across storage nodes
  // Select through the frontend (filter-only path on the same data).
  Plan plan;
  auto filter = std::make_unique<Rel>();
  filter->kind = RelKind::kFilter;
  filter->input = ReadSim();
  filter->input->object = "f1";
  filter->predicate = Expression::Call(
      ScalarFunc::kLt,
      {Expression::FieldRef(1, TypeKind::kFloat64),
       Expression::Literal(Datum::Float64(0.05))},
      TypeKind::kBool);
  auto project = std::make_unique<Rel>();
  project->kind = RelKind::kProject;
  project->expressions = {Expression::FieldRef(0, TypeKind::kInt64)};
  project->output_names = {"vertex_id"};
  project->input = std::move(filter);
  plan.root = std::move(project);
  auto result = client->Select(plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.rows_output, 5u);
  auto csv = objectstore::SelectCsvText(result->arrow_ipc.span());
  ASSERT_TRUE(csv.ok()) << csv.status();
  EXPECT_EQ(*csv, "vertex_id\n0\n1\n2\n3\n4\n");
}

// S3 Select runs filter and projection only (§2.2). Every plan outside
// Read → [Filter of column comparisons] → [Project of columns], sent to
// the frontend's "Select" as bytes, is InvalidArgument; the same plans
// run as ExecutePlan.
TEST_F(ClusterFixture, SelectRejectsPlansBeyondFilterAndProject) {
  const rpc::Channel channel(net, compute, cluster->frontend_server());
  auto call = [&](const char* method, const Plan& plan) {
    const Bytes request = substrait::SerializePlan(plan);
    return channel.Call(method, ByteSpan(request.data(), request.size()))
        .status();
  };
  auto over = [](std::unique_ptr<Rel> input, RelKind kind) {
    auto rel = std::make_unique<Rel>();
    rel->kind = kind;
    rel->input = std::move(input);
    return rel;
  };
  auto x_below = [](double v) {
    return Expression::Call(ScalarFunc::kLt,
                            {Expression::FieldRef(1, TypeKind::kFloat64),
                             Expression::Literal(Datum::Float64(v))},
                            TypeKind::kBool);
  };
  std::vector<std::pair<std::string, Plan>> plans;
  auto add = [&plans](std::string name, std::unique_ptr<Rel> root) {
    Plan plan;
    plan.root = std::move(root);
    plans.emplace_back(std::move(name), std::move(plan));
  };
  {
    auto agg = over(ReadSim(), RelKind::kAggregate);
    agg->aggregates = {{AggFunc::kCountStar, {}, "cnt"}};
    add("aggregate", std::move(agg));
  }
  {
    auto sort = over(ReadSim(), RelKind::kSort);
    sort->sort_fields = {{0, true, true}};
    add("sort", std::move(sort));
  }
  {
    auto fetch = over(ReadSim(), RelKind::kFetch);
    fetch->count = 5;
    add("fetch", std::move(fetch));
  }
  {
    auto project = over(ReadSim(), RelKind::kProject);
    project->expressions = {Expression::Call(
        ScalarFunc::kMultiply,
        {Expression::FieldRef(1, TypeKind::kFloat64),
         Expression::Literal(Datum::Float64(2))},
        TypeKind::kFloat64)};
    project->output_names = {"x2"};
    add("computed projection", std::move(project));
  }
  {
    auto filter = over(ReadSim(), RelKind::kFilter);
    filter->predicate = Expression::Call(
        ScalarFunc::kOr, {x_below(0.5), x_below(0.7)}, TypeKind::kBool);
    add("disjunction", std::move(filter));
  }
  {
    auto filter = over(ReadSim(), RelKind::kFilter);
    filter->predicate = Expression::Call(
        ScalarFunc::kLt,
        {Expression::FieldRef(1, TypeKind::kFloat64),
         Expression::FieldRef(2, TypeKind::kFloat64)},
        TypeKind::kBool);
    add("column against column", std::move(filter));
  }
  {
    auto project = over(ReadSim(), RelKind::kProject);
    project->expressions = {Expression::FieldRef(1, TypeKind::kFloat64)};
    project->output_names = {"x"};
    auto filter = over(std::move(project), RelKind::kFilter);
    filter->predicate = Expression::Call(
        ScalarFunc::kLt,
        {Expression::FieldRef(0, TypeKind::kFloat64),
         Expression::Literal(Datum::Float64(0.5))},
        TypeKind::kBool);
    add("filter above projection", std::move(filter));
  }
  {
    auto read = ReadSim();
    read->row_group_hint = {0};
    read->hint_version = 1;
    add("row-group hint", std::move(read));
  }
  {
    auto read = ReadSim();
    read->bloom_words = {~uint64_t{0}};
    read->bloom_hashes = 1;
    read->bloom_column = 0;
    read->bloom_version = 1;
    add("bloom", std::move(read));
  }
  for (const auto& [name, plan] : plans) {
    SCOPED_TRACE(name);
    EXPECT_EQ(call("Select", plan).code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(call("ExecutePlan", plan).ok());
  }
  // The scope's own shape passes.
  Plan select;
  select.root = over(over(ReadSim(), RelKind::kFilter), RelKind::kProject);
  select.root->input->predicate = x_below(0.5);
  select.root->expressions = {Expression::FieldRef(0, TypeKind::kInt64)};
  select.root->output_names = {"vertex_id"};
  EXPECT_TRUE(call("Select", select).ok());
}

TEST_F(ClusterFixture, UnknownObjectNotFound) {
  Plan plan;
  plan.root = ReadSim();
  plan.root->object = "missing";
  EXPECT_FALSE(client->ExecutePlan(plan).ok());
}

// ---- read-ahead -------------------------------------------------------------

// The storage plans of the paper's queries, the dictionary filter and the
// bloom join, as the OCS connector sends them: a one-node testbed over
// objects of four row groups runs each query once while its frontend's
// "ExecutePlan" records every plan. `store` is the node's object store.
struct CapturedPlans {
  std::shared_ptr<objectstore::ObjectStore> store;
  std::vector<Plan> plans;
};

Result<CapturedPlans> CaptureWorkloadPlans(compress::CodecType codec) {
  auto bed = std::make_unique<workloads::Testbed>();
  workloads::LaghosConfig laghos;
  laghos.num_files = 1;
  laghos.rows_per_file = 4096;
  laghos.rows_per_group = 1024;
  laghos.codec = codec;
  workloads::DeepWaterConfig deepwater;
  deepwater.num_files = 1;
  deepwater.rows_per_file = 4096;
  deepwater.rows_per_group = 1024;
  deepwater.codec = codec;
  workloads::TpchConfig lineitem;
  lineitem.num_files = 1;
  lineitem.rows_per_file = 4096;
  lineitem.rows_per_group = 1024;
  lineitem.codec = codec;
  workloads::SupplierConfig supplier;
  supplier.rows_per_group = 256;
  supplier.codec = codec;
  POCS_ASSIGN_OR_RETURN(auto laghos_data, workloads::GenerateLaghos(laghos));
  POCS_RETURN_NOT_OK(bed->Ingest(std::move(laghos_data)));
  POCS_ASSIGN_OR_RETURN(auto deepwater_data,
                        workloads::GenerateDeepWater(deepwater));
  POCS_RETURN_NOT_OK(bed->Ingest(std::move(deepwater_data)));
  POCS_ASSIGN_OR_RETURN(auto lineitem_data,
                        workloads::GenerateLineitem(lineitem));
  POCS_RETURN_NOT_OK(bed->Ingest(std::move(lineitem_data)));
  POCS_ASSIGN_OR_RETURN(auto supplier_data,
                        workloads::GenerateSupplier(supplier));
  POCS_RETURN_NOT_OK(bed->Ingest(std::move(supplier_data)));

  const StorageNode& node = bed->cluster().storage_node(0);
  Mutex mu;
  std::vector<Bytes> requests;
  bed->cluster().frontend_server()->RegisterMethod(
      "ExecutePlan", [&](ByteSpan request) -> Result<Bytes> {
        {
          MutexLock lock(mu);
          requests.emplace_back(request.begin(), request.end());
        }
        POCS_ASSIGN_OR_RETURN(Plan plan, substrait::DeserializePlan(request));
        return node.Execute(plan);
      });
  for (const std::string& sql :
       {workloads::LaghosQuery(), workloads::DeepWaterQuery(),
        workloads::TpchQ1(), workloads::TpchQ6(),
        workloads::TpchDictFilterQuery(), workloads::TpchJoinQuery()}) {
    POCS_RETURN_NOT_OK(bed->Run(sql, "ocs").status());
  }
  CapturedPlans captured{node.store(), {}};
  MutexLock lock(mu);
  for (const Bytes& request : requests) {
    POCS_ASSIGN_OR_RETURN(Plan plan, substrait::DeserializePlan(request));
    captured.plans.push_back(std::move(plan));
  }
  return captured;
}

const Rel& ReadOf(const Plan& plan) {
  const Rel* read = plan.root.get();
  while (read->input) read = read->input.get();
  return *read;
}

// The frame the node would send for `table` and the counts in `counts`,
// with the seconds of the node's own frame `timed` (those are measured).
Result<Bytes> FrameWithSecondsOf(const Bytes& timed, OcsExecStats counts,
                                 const columnar::Table& table) {
  POCS_ASSIGN_OR_RETURN(OcsResult decoded, Decode(timed));
  counts.storage_compute_seconds = decoded.stats.storage_compute_seconds;
  counts.media_read_seconds = decoded.stats.media_read_seconds;
  counts.exec_delay_seconds = decoded.stats.exec_delay_seconds;
  OcsResultWriter writer(counts, columnar::ipc::MaxStreamBytes(table));
  columnar::ipc::WriteTable(table, writer.payload());
  return std::move(writer).Finish(counts);
}

// A node that decodes ahead on its pool answers every workload plan with
// the frame, counters included, of the sequential scan with no pool over
// a cache of the same budget — cache off, at 1 MiB and at 64 MiB, each
// run cold and then warm — for both LZ codecs.
TEST(ReadAheadTest, FramesMatchTheSequentialScan) {
  for (compress::CodecType codec :
       {compress::CodecType::kZsLite, compress::CodecType::kDeflateLite}) {
    SCOPED_TRACE(compress::CodecName(codec));
    auto captured = CaptureWorkloadPlans(codec);
    ASSERT_TRUE(captured.ok()) << captured.status();
    ASSERT_GE(captured->plans.size(), 6u);
    EXPECT_TRUE(std::any_of(
        captured->plans.begin(), captured->plans.end(),
        [](const Plan& plan) { return !ReadOf(plan).bloom_words.empty(); }))
        << "the join pushed no bloom";

    for (uint64_t budget : {uint64_t{0}, uint64_t{1} << 20, uint64_t{64} << 20}) {
      SCOPED_TRACE("cache bytes " + std::to_string(budget));
      StorageNodeConfig config;
      config.cpu_slowdown = 1.0;
      config.rowgroup_cache_bytes = budget;
      StorageNode node(captured->store, config);
      ASSERT_GE(node.decode_pool()->num_threads(), 1u);
      // The sequential scan's cache: the node's budget and shard count.
      std::unique_ptr<RowGroupCache> cache;
      if (budget > 0) {
        cache = std::make_unique<RowGroupCache>(
            LruCacheConfig{.byte_budget = budget, .shards = 8});
      }
      uint64_t warm_hits = 0;
      for (const char* pass : {"cold", "warm"}) {
        SCOPED_TRACE(pass);
        for (size_t i = 0; i < captured->plans.size(); ++i) {
          SCOPED_TRACE("plan " + std::to_string(i));
          const Plan& plan = captured->plans[i];
          auto frame = node.Execute(plan);
          ASSERT_TRUE(frame.ok()) << frame.status();

          const Rel& read = ReadOf(plan);
          auto object = captured->store->GetVersioned(read.bucket, read.object);
          ASSERT_TRUE(object.ok()) << object.status();
          OcsExecStats counts;
          auto table = ExecuteOnObject(plan, *object, cache.get(), &counts);
          ASSERT_TRUE(table.ok()) << table.status();
          auto expected = FrameWithSecondsOf(*frame, counts, **table);
          ASSERT_TRUE(expected.ok()) << expected.status();
          EXPECT_EQ(*frame, *expected);
          if (std::string_view(pass) == "warm") warm_hits += counts.cache_hits;
        }
      }
      if (budget > 0) {
        EXPECT_GT(warm_hits, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace pocs::ocs
