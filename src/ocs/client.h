// Compute-side clients for OCS. OcsClient serializes IR plans, calls the
// frontend's ExecutePlan (or Select) over the simulated network, and
// decodes the result frames; when neither can run, it fetches the object
// and runs the plan compute-side. PlanningClient is split planning's
// view of the same frontend: metadata calls only.
#pragma once

#include "columnar/ipc.h"
#include "format/parquet_lite.h"
#include "objectstore/service.h"
#include "ocs/storage_node.h"
#include "rpc/rpc.h"
#include "substrait/serialize.h"

namespace pocs::ocs {

class OcsClient {
 public:
  explicit OcsClient(rpc::Channel channel) : channel_(std::move(channel)) {}

  // Ship the plan, execute in storage, return stats + the decoded table.
  // On failure, `info` still reports the modelled cost of the lost
  // attempts (retries and backoff), so callers can charge the rejection.
  Result<OcsResult> ExecutePlan(const substrait::Plan& plan,
                                objectstore::TransferInfo* info = nullptr,
                                const rpc::CallOptions& options = {}) const {
    return CallPlan("ExecutePlan", plan, info, options);
  }

  // S3 Select: the same call for a Read → [Filter] → [Project] plan; the
  // result's payload is CSV (objectstore::SelectCsvText).
  Result<OcsResult> Select(const substrait::Plan& plan,
                           objectstore::TransferInfo* info = nullptr,
                           const rpc::CallOptions& options = {}) const {
    return CallPlan("Select", plan, info, options);
  }

  // The engine-side degradation path (DESIGN.md §9.3), shared by both
  // connectors: reads the object of the plan's Read through the
  // frontend's plain Get, which survives an exec-engine crash, and runs
  // the plan over its bytes with ExecuteOnObject, the storage node's scan
  // without its row-group cache, so the rows and row counters are the
  // ones the storage node would have returned.
  //
  // `chunk_bytes` sizes the ranges the object is read in; 0 reads it in
  // one Get. The first response, the whole object or its first range,
  // fixes the object's version and size; a later range of another
  // version restarts the read from offset 0, and after
  // options.max_attempts reads that each saw the object change the result
  // is Unavailable. Adds every Get's traffic, the media read of the bytes
  // received and the scan's counters to `stats`, and the scan's time to
  // its decode_seconds. Sets `*version` (if not null) to the version the
  // rows were computed from.
  Result<std::shared_ptr<columnar::Table>> FetchAndScan(
      const substrait::Plan& plan, uint64_t chunk_bytes,
      const rpc::CallOptions& options, SplitCounters* stats,
      uint64_t* version = nullptr) const;

  // The underlying channel to the frontend — the Hive connector's raw
  // GETs and the split-result cache's Stat build a StorageClient on it,
  // and the OCS connector its PlanningClient.
  const rpc::Channel& channel() const { return channel_; }

  // Decode the Arrow payload of a result into columns that are slices of
  // it.
  static Result<std::shared_ptr<columnar::Table>> DecodeTable(
      const OcsResult& result) {
    return columnar::ipc::DeserializeTable(result.arrow_ipc);
  }

 private:
  Result<OcsResult> CallPlan(const char* method, const substrait::Plan& plan,
                             objectstore::TransferInfo* info,
                             const rpc::CallOptions& options) const {
    Bytes request = substrait::SerializePlan(plan);
    rpc::CallResult call;
    Status status = channel_.CallInto(
        method, ByteSpan(request.data(), request.size()), options, &call);
    if (info) info->Add(call);
    POCS_RETURN_NOT_OK(status);
    // The response becomes the shared owner of the payload and, once
    // decoded, of every result column: no result byte is copied.
    return DecodeOcsResult(Buffer::Adopt(std::move(call.response)));
  }

  rpc::Channel channel_;
};

// An object's parsed footer and the version it was read from: what
// DescribeObject returns and the planner's metadata cache keeps.
struct ObjectFooter {
  uint64_t version = 0;
  format::FileMeta meta;
};

// The client split planning runs on (DESIGN.md §13). It exposes only the
// frontend's metadata calls and holds its channel privately, so planning
// code cannot Get, Select, ExecutePlan or FetchAndScan: such a call does
// not compile. tests/pruning_test.cpp static_asserts this.
class PlanningClient {
 public:
  explicit PlanningClient(rpc::Channel channel)
      : channel_(std::move(channel)) {}

  // HEAD: the object's size and version, no data bytes.
  Result<objectstore::ObjectStat> Stat(
      const std::string& bucket, const std::string& key,
      objectstore::TransferInfo* info = nullptr,
      const rpc::CallOptions& options = {}) const {
    return objectstore::StorageClient(channel_).Stat(bucket, key, info,
                                                     options);
  }

  // The object's footer, min/max/NDV statistics at file and row-group
  // granularity included: the footer tail the frontend returns, parsed
  // by format::ReadFooterTail, so its checksum is verified here.
  Result<ObjectFooter> DescribeObject(
      const std::string& bucket, const std::string& key,
      objectstore::TransferInfo* info = nullptr,
      const rpc::CallOptions& options = {}) const;

  // Placement probe: which storage node (index) serves bucket/key, plus
  // the cluster's node count. Feeds Split::node_hint for the load-aware
  // dispatcher.
  struct Placement {
    size_t node = 0;
    size_t num_nodes = 0;
  };
  Result<Placement> LocateObject(const std::string& bucket,
                                 const std::string& key,
                                 objectstore::TransferInfo* info = nullptr,
                                 const rpc::CallOptions& options = {}) const;

 private:
  // One call of `method` with a bucket/key request.
  Result<Bytes> Call(const char* method, const std::string& bucket,
                     const std::string& key, objectstore::TransferInfo* info,
                     const rpc::CallOptions& options) const;

  rpc::Channel channel_;
};

}  // namespace pocs::ocs
