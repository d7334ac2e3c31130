// Tests for OCS: storage-node plan execution over Parquet-lite objects
// (with pruning and CPU-slowdown accounting), the frontend's routing, and
// end-to-end client → frontend → storage round trips with byte accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "format/parquet_lite.h"
#include "metastore/metastore.h"
#include "ocs/client.h"
#include "ocs/cluster.h"
#include "ocs/storage_node.h"

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
  EXPECT_LT(net->Total().bytes, uint64_t{*cluster->storage_node(0).store()
                                               ->Size("sim", "f0")} /
                                    4);
}

TEST_F(ClusterFixture, FrontendProxiesObjectStoreMethods) {
  objectstore::StorageClient store_client(
      rpc::Channel(net, compute, cluster->frontend_server()));
  auto size = store_client.Size("sim", "f2");
  ASSERT_TRUE(size.ok()) << size.status();
  EXPECT_GT(*size, 0u);
  auto keys = store_client.List("sim", "f");
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 6u);  // merged across storage nodes
  // Select through the frontend (filter-only path on the same data).
  objectstore::SelectRequest request;
  request.bucket = "sim";
  request.key = "f1";
  request.columns = {"vertex_id"};
  request.predicates = {
      {"x", columnar::CompareOp::kLt, Datum::Float64(0.05)}};
  auto response = store_client.Select(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->stats.rows_returned, 5u);
}

TEST_F(ClusterFixture, UnknownObjectNotFound) {
  Plan plan;
  plan.root = ReadSim();
  plan.root->object = "missing";
  EXPECT_FALSE(client->ExecutePlan(plan).ok());
}

}  // namespace
}  // namespace pocs::ocs
