// The Parquet-lite integrity gate: seeded one-byte corruptions of real
// workload objects must each be caught as Corruption, by
// FileReader::Open (footer, stats, chunk table) or by ReadAll (chunk
// bytes). No mutant may open and read — not with a different table, not
// with altered statistics, not even with the original answer.
//
// Shapes: Laghos (all float64/int64) and lineitem (dictionary strings,
// dates), each uncompressed and zs-lite, 8,192 rows in four row groups.
//
// The same holds for a storage node's ExecutePlan and Select responses:
// every one-byte mutant of a real one fails as Corruption when its
// counters and its table or CSV rows are decoded. And for the planner's
// DescribeObject responses: every mutant of the footer tail fails, and a
// mutant of the version/size trailer fails or yields the true footer.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>

#include "columnar/ipc.h"
#include "format/parquet_lite.h"
#include "objectstore/select.h"
#include "ocs/client.h"
#include "ocs/storage_node.h"
#include "workloads/laghos.h"
#include "workloads/tpch.h"

namespace pocs {
namespace {

constexpr size_t kRows = 8192;
constexpr size_t kRowsPerGroup = 2048;
constexpr int kRandomMutants = 600;

Result<Bytes> MakeFile(const std::string& dataset,
                       compress::CodecType codec) {
  workloads::GeneratedDataset data;
  if (dataset == "laghos") {
    workloads::LaghosConfig config;
    config.num_files = 1;
    config.rows_per_file = kRows;
    config.rows_per_group = kRowsPerGroup;
    config.codec = codec;
    POCS_ASSIGN_OR_RETURN(data, workloads::GenerateLaghos(config));
  } else {
    workloads::TpchConfig config;
    config.num_files = 1;
    config.rows_per_file = kRows;
    config.rows_per_group = kRowsPerGroup;
    config.codec = codec;
    POCS_ASSIGN_OR_RETURN(data, workloads::GenerateLineitem(config));
  }
  return std::move(data.files[0].second);
}

// Opens the file and reads every column of every row group.
Status OpenAndRead(const Bytes& file) {
  POCS_ASSIGN_OR_RETURN(auto reader, format::FileReader::Open(file));
  return reader->ReadAll().status();
}

struct Shape {
  const char* dataset;
  compress::CodecType codec;
};

void PrintTo(const Shape& shape, std::ostream* os) {
  *os << shape.dataset << "/" << compress::CodecName(shape.codec);
}

class IntegrityTest : public ::testing::TestWithParam<Shape> {};

TEST_P(IntegrityTest, EveryRandomOneByteMutantIsCorruption) {
  const Shape shape = GetParam();
  Result<Bytes> made = MakeFile(shape.dataset, shape.codec);
  ASSERT_TRUE(made.ok()) << made.status();
  const Bytes& file = *made;
  ASSERT_TRUE(OpenAndRead(file).ok());
  std::mt19937_64 rng(20261017);
  Bytes mutant = file;
  int escaped = 0;
  for (int m = 0; m < kRandomMutants; ++m) {
    const size_t pos = rng() % file.size();
    const uint8_t mask = static_cast<uint8_t>(1 + rng() % 255);
    mutant[pos] ^= mask;
    const Status status = OpenAndRead(mutant);
    mutant[pos] = file[pos];
    if (status.code() != StatusCode::kCorruption) {
      ++escaped;
      ADD_FAILURE() << shape.dataset << " byte " << pos << " of "
                    << file.size() << " ^ " << int{mask} << ": "
                    << status.ToString();
    }
  }
  EXPECT_EQ(escaped, 0);
}

INSTANTIATE_TEST_SUITE_P(
    FileShapes, IntegrityTest,
    ::testing::Values(Shape{"laghos", compress::CodecType::kNone},
                      Shape{"laghos", compress::CodecType::kZsLite},
                      Shape{"lineitem", compress::CodecType::kNone},
                      Shape{"lineitem", compress::CodecType::kZsLite}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return std::string(info.param.dataset) + "_" +
             (info.param.codec == compress::CodecType::kNone ? "plain"
                                                             : "zslite");
    });

// Every byte from the footer's first to the file's last (the footer with
// its stats and chunk table, the footer checksum, footer_len and the
// tail magic), each with two masks.
TEST(IntegrityFooterTest, EveryFooterByteMutantIsCorruption) {
  Result<Bytes> made = MakeFile("lineitem", compress::CodecType::kNone);
  ASSERT_TRUE(made.ok()) << made.status();
  const Bytes& file = *made;
  uint32_t footer_len;
  std::memcpy(&footer_len, file.data() + file.size() - 8, 4);
  ASSERT_LT(uint64_t{footer_len} + 8, file.size());
  Bytes mutant = file;
  int escaped = 0;
  for (size_t pos = file.size() - 8 - footer_len; pos < file.size(); ++pos) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0xa5}}) {
      mutant[pos] ^= mask;
      const Status status = OpenAndRead(mutant);
      mutant[pos] = file[pos];
      if (status.code() != StatusCode::kCorruption) {
        ++escaped;
        ADD_FAILURE() << "footer byte " << pos << " ^ " << int{mask} << ": "
                      << status.ToString();
      }
    }
  }
  EXPECT_EQ(escaped, 0);
}

// A real response to a selective scan of lineitem (int64, int32,
// float64, date and string columns) as the storage node frames it:
// ExecutePlan's, whose payload is an IPC stream, or Select's, whose
// payload is CSV text and its checksum.
Result<Bytes> MakeResponse(bool select) {
  POCS_ASSIGN_OR_RETURN(Bytes file,
                        MakeFile("lineitem", compress::CodecType::kNone));
  auto store = std::make_shared<objectstore::ObjectStore>();
  POCS_RETURN_NOT_OK(store->CreateBucket("b"));
  POCS_RETURN_NOT_OK(store->Put("b", "lineitem", std::move(file)));
  ocs::StorageNode node(store, ocs::StorageNodeConfig{});
  auto read = std::make_unique<substrait::Rel>();
  read->kind = substrait::RelKind::kRead;
  read->bucket = "b";
  read->object = "lineitem";
  read->base_schema = workloads::LineitemSchema();
  auto filter = std::make_unique<substrait::Rel>();
  filter->kind = substrait::RelKind::kFilter;
  filter->input = std::move(read);
  filter->predicate = substrait::Expression::Call(
      substrait::ScalarFunc::kLt,
      {substrait::Expression::FieldRef(4, columnar::TypeKind::kFloat64),
       substrait::Expression::Literal(columnar::Datum::Float64(2))},
      columnar::TypeKind::kBool);
  substrait::Plan plan;
  plan.root = std::move(filter);
  return select ? node.Select(plan) : node.Execute(plan);
}

// Decodes a response as the connectors do: the frame, then its table
// (OCS) or its CSV (Hive).
Status DecodeResponse(const Bytes& response, bool select) {
  POCS_ASSIGN_OR_RETURN(ocs::OcsResult result,
                        ocs::DecodeOcsResult(Buffer::Copy(response)));
  if (!select) return ocs::OcsClient::DecodeTable(result).status();
  POCS_ASSIGN_OR_RETURN(std::string_view csv,
                        objectstore::SelectCsvText(result.arrow_ipc.span()));
  return objectstore::ParseSelectCsv(csv, workloads::LineitemSchema())
      .status();
}

// Every byte of each response, header and payload, each with two masks.
TEST(IntegrityResponseTest, EveryResponseByteMutantIsCorruption) {
  for (const bool select : {false, true}) {
    SCOPED_TRACE(select ? "Select" : "ExecutePlan");
    Result<Bytes> made = MakeResponse(select);
    ASSERT_TRUE(made.ok()) << made.status();
    const Bytes& response = *made;
    ASSERT_TRUE(DecodeResponse(response, select).ok());
    ASSERT_GT(response.size(), 1000u);
    Bytes mutant = response;
    int escaped = 0;
    for (size_t pos = 0; pos < response.size(); ++pos) {
      for (uint8_t mask : {uint8_t{0x01}, uint8_t{0xa5}}) {
        mutant[pos] ^= mask;
        const Status status = DecodeResponse(mutant, select);
        mutant[pos] = response[pos];
        if (status.code() != StatusCode::kCorruption) {
          ++escaped;
          ADD_FAILURE() << "response byte " << pos << " of "
                        << response.size() << " ^ " << int{mask} << ": "
                        << status.ToString();
        }
      }
    }
    EXPECT_EQ(escaped, 0);
  }
}

// Every field of `meta`, in one byte string: two footers parse to the
// same metadata exactly when these are equal.
Bytes MetaBytes(const format::FileMeta& meta) {
  BufferWriter out;
  columnar::ipc::WriteSchema(*meta.schema, &out);
  out.WriteU8(static_cast<uint8_t>(meta.codec));
  out.WriteVarint(meta.num_rows);
  for (const format::RowGroupMeta& group : meta.row_groups) {
    out.WriteVarint(group.num_rows);
    for (const format::ChunkMeta& chunk : group.chunks) {
      out.WriteVarint(chunk.offset);
      out.WriteVarint(chunk.length);
      out.WriteLE<uint64_t>(chunk.checksum);
      chunk.stats.Serialize(&out);
    }
  }
  for (const format::ColumnStats& stats : meta.column_stats) {
    stats.Serialize(&out);
  }
  return std::move(out).Take();
}

// Every byte of a Laghos object's DescribeObject response, each with two
// masks, decoded as the planner decodes it: by PlanningClient through a
// server that answers with the mutant.
TEST(IntegrityDescribeTest, EveryFooterTailMutantIsCorruption) {
  Result<Bytes> made = MakeFile("laghos", compress::CodecType::kNone);
  ASSERT_TRUE(made.ok()) << made.status();
  Result<format::FileMeta> truth = format::ReadFooter(*made);
  ASSERT_TRUE(truth.ok()) << truth.status();
  const Bytes want = MetaBytes(*truth);

  auto net = std::make_shared<netsim::Network>();
  auto storage = std::make_shared<rpc::Server>(net->AddNode("storage"),
                                               "storage");
  auto store = std::make_shared<objectstore::ObjectStore>();
  ASSERT_TRUE(store->CreateBucket("b").ok());
  ASSERT_TRUE(store->Put("b", "laghos", std::move(*made)).ok());
  objectstore::RegisterStorageService(store, storage.get());
  BufferWriter request;
  request.WriteString("b");
  request.WriteString("laghos");
  Result<Bytes> answered = storage->Dispatch("DescribeObject", request.span());
  ASSERT_TRUE(answered.ok()) << answered.status();
  const Bytes& response = *answered;

  Bytes mutant = response;
  auto lying = std::make_shared<rpc::Server>(net->AddNode("lying"), "lying");
  lying->RegisterMethod("DescribeObject",
                        [&mutant](ByteSpan) -> Result<Bytes> { return mutant; });
  const ocs::PlanningClient planner(
      rpc::Channel(net, net->AddNode("planner"), lying));
  Result<ocs::ObjectFooter> footer = planner.DescribeObject("b", "laghos");
  ASSERT_TRUE(footer.ok()) << footer.status();
  ASSERT_EQ(MetaBytes(footer->meta), want);
  ASSERT_GT(response.size(), 1000u);

  const size_t trailer = response.size() - 2 * sizeof(uint64_t);
  int escaped = 0;
  for (size_t pos = 0; pos < response.size(); ++pos) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0xa5}}) {
      mutant[pos] ^= mask;
      footer = planner.DescribeObject("b", "laghos");
      mutant[pos] = response[pos];
      const bool caught = footer.status().code() == StatusCode::kCorruption;
      const bool harmless = pos >= trailer && footer.ok() &&
                            MetaBytes(footer->meta) == want;
      if (!caught && !harmless) {
        ++escaped;
        ADD_FAILURE() << "response byte " << pos << " of " << response.size()
                      << " ^ " << int{mask} << ": " << footer.status();
      }
    }
  }
  EXPECT_EQ(escaped, 0);
}

}  // namespace
}  // namespace pocs
