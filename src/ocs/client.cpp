#include "ocs/client.h"

#include <algorithm>

#include "common/stopwatch.h"

namespace pocs::ocs {

Result<std::shared_ptr<columnar::Table>> OcsClient::FetchAndScan(
    const substrait::Plan& plan, uint64_t chunk_bytes,
    const rpc::CallOptions& options, SplitCounters* stats,
    uint64_t* version) const {
  const substrait::Rel* read = plan.root.get();
  while (read->input) read = read->input.get();
  if (read->kind != substrait::RelKind::kRead) {
    return Status::InvalidArgument("ocs: plan must scan a named object");
  }
  const objectstore::StorageClient store(channel_);
  uint64_t fetched = 0;  // object bytes that crossed the network
  // One Get of the whole object, or of a range {offset, length}, charged
  // to the split; a call that retried re-sent all of it.
  auto get = [&](auto... range) -> Result<objectstore::ObjectRead> {
    objectstore::TransferInfo info;
    auto got = store.Get(read->bucket, read->object, range..., &info, options);
    info.AddTo(stats);
    if (info.retries > 0) stats->bytes_refetched_on_retry += info.bytes_received;
    if (got.ok()) fetched += got->data.size();
    return got;
  };

  Bytes object;
  uint64_t object_version = 0;
  for (uint32_t reads = 1;; ++reads) {
    POCS_ASSIGN_OR_RETURN(
        objectstore::ObjectRead first,
        chunk_bytes == 0 ? get() : get(uint64_t{0}, chunk_bytes));
    object = std::move(first.data);
    object.reserve(first.object_size);
    object_version = first.version;
    bool changed = false;
    for (uint64_t offset = object.size(); offset < first.object_size;
         offset += chunk_bytes) {
      auto range =
          get(offset, std::min(chunk_bytes, first.object_size - offset));
      // Every offset lies within the first response's object size, so
      // one past the object's end means a Put shrank it: a new version.
      changed = range.status().code() == StatusCode::kOutOfRange;
      if (changed) break;
      POCS_RETURN_NOT_OK(range.status());
      changed = range->version != object_version;
      if (changed) break;
      object.insert(object.end(), range->data.begin(), range->data.end());
    }
    if (!changed) break;
    if (reads >= options.max_attempts) {
      return Status::Unavailable("ocs: " + read->bucket + "/" + read->object +
                                 " changed during each of " +
                                 std::to_string(reads) + " reads");
    }
  }
  stats->media_read_seconds +=
      static_cast<double>(fetched) / kMediaReadBandwidth;

  // Fallback execution is compute-side work, like decode.
  Stopwatch exec_timer;
  OcsExecStats scan;
  POCS_ASSIGN_OR_RETURN(
      auto table,
      ExecuteOnObject(plan,
                      {std::make_shared<const Bytes>(std::move(object)),
                       object_version},
                      /*cache=*/nullptr, &scan));
  scan.object_bytes_read = 0;  // the Gets above charged the media read
  *stats += scan;
  stats->decode_seconds += exec_timer.ElapsedSeconds();
  if (version) *version = object_version;
  return table;
}

Result<Bytes> PlanningClient::Call(const char* method,
                                   const std::string& bucket,
                                   const std::string& key,
                                   objectstore::TransferInfo* info,
                                   const rpc::CallOptions& options) const {
  BufferWriter req;
  req.WriteString(bucket);
  req.WriteString(key);
  rpc::CallResult call;
  Status status = channel_.CallInto(method, req.span(), options, &call);
  if (info) info->Add(call);
  POCS_RETURN_NOT_OK(status);
  return std::move(call.response);
}

Result<ObjectFooter> PlanningClient::DescribeObject(
    const std::string& bucket, const std::string& key,
    objectstore::TransferInfo* info, const rpc::CallOptions& options) const {
  POCS_ASSIGN_OR_RETURN(Bytes response,
                        Call("DescribeObject", bucket, key, info, options));
  POCS_ASSIGN_OR_RETURN(objectstore::ObjectRead tail,
                        objectstore::TakeObjectRead(std::move(response)));
  POCS_ASSIGN_OR_RETURN(format::FileMeta meta,
                        format::ReadFooterTail(tail.data, tail.object_size));
  return ObjectFooter{tail.version, std::move(meta)};
}

Result<PlanningClient::Placement> PlanningClient::LocateObject(
    const std::string& bucket, const std::string& key,
    objectstore::TransferInfo* info, const rpc::CallOptions& options) const {
  POCS_ASSIGN_OR_RETURN(Bytes response,
                        Call("Locate", bucket, key, info, options));
  BufferReader in(response.data(), response.size());
  POCS_ASSIGN_OR_RETURN(uint64_t node, in.ReadVarint());
  POCS_ASSIGN_OR_RETURN(uint64_t num_nodes, in.ReadVarint());
  return Placement{static_cast<size_t>(node), static_cast<size_t>(num_nodes)};
}

}  // namespace pocs::ocs
