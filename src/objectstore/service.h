// RPC binding for the object store: server-side method registration and a
// typed client. This is how compute-side connectors talk to remote
// storage — every byte of every response is charged to the simulated
// network by the underlying rpc::Channel.
#pragma once

#include <memory>
#include <optional>
#include <utility>

#include "common/counters.h"
#include "objectstore/object_store.h"
#include "rpc/rpc.h"

namespace pocs::objectstore {

// Registers Get/Stat/DescribeObject/List/Put methods on `server`, backed
// by `store` (which must outlive the server).
//
// The Get wire, one S3-style GET answered from one GetVersioned:
//   request  := bucket:string key:string [offset:varint length:varint]
//   response := bytes version:u64 object_size:u64
// A request without the range reads the whole object. A range that runs
// past the object's end reads up to the end, as S3's Range does; an
// offset past the end is OutOfRange. The version and size trail the
// bytes, so the client drops them in place and keeps the bytes without
// copying them.
//
// DescribeObject answers the same request without the range with the
// object's footer tail (format::FooterTail: footer, footer checksum,
// footer_len and tail magic) under the same trailer. The planner parses
// it with the file reader's own footer parser, which verifies the
// checksum (DESIGN.md §13).
void RegisterStorageService(const std::shared_ptr<ObjectStore>& store,
                            rpc::Server* server);

// What one Get returns: the bytes read, and the size and version of the
// object they were read from (S3's Content-Range total and ETag).
struct ObjectRead {
  Bytes data;
  uint64_t object_size = 0;
  uint64_t version = 0;
};

// Splits the version and size trailer off a Get or DescribeObject
// response; the bytes before it become `data`, without a copy.
Result<ObjectRead> TakeObjectRead(Bytes response);

// Typed client over an rpc::Channel. Each call reports the bytes moved
// and modelled transfer time via the returned TransferInfo.
struct TransferInfo {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t retries = 0;  // rpc attempts beyond the first
  double transfer_seconds = 0;

  // Adds one call's traffic, lost attempts included.
  void Add(const rpc::CallResult& call) {
    bytes_sent += call.request_bytes;
    bytes_received += call.response_bytes;
    retries += call.retries;
    transfer_seconds += call.transfer_seconds;
  }

  // Charges this call's traffic to a split's counters.
  void AddTo(SplitCounters* split) const {
    split->bytes_from_storage += bytes_received;
    split->bytes_to_storage += bytes_sent;
    split->retries += retries;
    split->transfer_seconds += transfer_seconds;
  }
};

class StorageClient {
 public:
  explicit StorageClient(rpc::Channel channel) : channel_(std::move(channel)) {}

  // Data-path methods take per-call rpc options (retry budget, deadline);
  // the defaults preserve single-attempt behaviour. On failure, `info`
  // still accumulates the modelled cost of the lost attempts.
  //
  // Get reads the whole object, or up to `length` bytes from `offset`,
  // with the size and version of the object they came from. A response
  // whose byte count is not the requested range clamped at the reported
  // size is Corruption.
  Result<ObjectRead> Get(const std::string& bucket, const std::string& key,
                         TransferInfo* info = nullptr,
                         const rpc::CallOptions& options = {}) const {
    return CallGet(bucket, key, std::nullopt, info, options);
  }
  Result<ObjectRead> Get(const std::string& bucket, const std::string& key,
                         uint64_t offset, uint64_t length,
                         TransferInfo* info = nullptr,
                         const rpc::CallOptions& options = {}) const {
    return CallGet(bucket, key, std::pair{offset, length}, info, options);
  }
  // Metadata-only freshness probe (HEAD): size + version, no data bytes.
  // Cache validation rides on this, so it takes the data-path call
  // options and charges its (tiny) transfer like any other call.
  Result<ObjectStat> Stat(const std::string& bucket, const std::string& key,
                          TransferInfo* info = nullptr,
                          const rpc::CallOptions& options = {}) const;
  Result<std::vector<std::string>> List(const std::string& bucket,
                                        const std::string& prefix = "") const;
  Status Put(const std::string& bucket, const std::string& key,
             ByteSpan data) const;

 private:
  // `range` is {offset, length}, or none for the whole object.
  Result<ObjectRead> CallGet(
      const std::string& bucket, const std::string& key,
      std::optional<std::pair<uint64_t, uint64_t>> range, TransferInfo* info,
      const rpc::CallOptions& options) const;

  rpc::Channel channel_;
};

}  // namespace pocs::objectstore
