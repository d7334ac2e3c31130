// Compute-side client for OCS: serializes IR plans, calls the frontend's
// ExecutePlan over the simulated network, and decodes Arrow results.
#pragma once

#include "columnar/ipc.h"
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
    Bytes request = substrait::SerializePlan(plan);
    rpc::CallResult call;
    Status status = channel_.CallInto(
        "ExecutePlan", ByteSpan(request.data(), request.size()), options,
        &call);
    if (info) {
      info->bytes_sent += call.request_bytes;
      info->bytes_received += call.response_bytes;
      info->retries += call.retries;
      info->transfer_seconds += call.transfer_seconds;
    }
    POCS_RETURN_NOT_OK(status);
    // The response becomes the shared owner of the payload and, once
    // decoded, of every result column: no result byte is copied.
    return DecodeOcsResult(Buffer::Adopt(std::move(call.response)));
  }

  // Placement probe: which storage node (index) serves bucket/key, plus
  // the cluster's node count. Metadata-only; feeds Split::node_hint for
  // the load-aware dispatcher.
  struct Placement {
    size_t node = 0;
    size_t num_nodes = 0;
  };
  Result<Placement> LocateObject(const std::string& bucket,
                                 const std::string& key,
                                 objectstore::TransferInfo* info = nullptr,
                                 const rpc::CallOptions& options = {}) const {
    BufferWriter req;
    req.WriteString(bucket);
    req.WriteString(key);
    Bytes request = std::move(req).Take();
    rpc::CallResult call;
    Status status = channel_.CallInto(
        "Locate", ByteSpan(request.data(), request.size()), options, &call);
    if (info) {
      info->bytes_sent += call.request_bytes;
      info->bytes_received += call.response_bytes;
      info->retries += call.retries;
      info->transfer_seconds += call.transfer_seconds;
    }
    POCS_RETURN_NOT_OK(status);
    BufferReader in(call.response.data(), call.response.size());
    Placement placement;
    POCS_ASSIGN_OR_RETURN(uint64_t node, in.ReadVarint());
    POCS_ASSIGN_OR_RETURN(uint64_t num_nodes, in.ReadVarint());
    placement.node = static_cast<size_t>(node);
    placement.num_nodes = static_cast<size_t>(num_nodes);
    return placement;
  }

  // The underlying channel to the frontend — the connector's engine-side
  // fallback builds a StorageClient on it to fetch raw objects.
  const rpc::Channel& channel() const { return channel_; }

  // Decode the Arrow payload of a result into columns that are slices of
  // it.
  static Result<std::shared_ptr<columnar::Table>> DecodeTable(
      const OcsResult& result) {
    return columnar::ipc::DeserializeTable(result.arrow_ipc);
  }

 private:
  rpc::Channel channel_;
};

}  // namespace pocs::ocs
