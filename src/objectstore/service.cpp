#include "objectstore/service.h"

#include <algorithm>
#include <cstring>

#include "format/parquet_lite.h"

namespace pocs::objectstore {

namespace {

// The trailer of a Get or DescribeObject response: the object's version
// and size, u64 each.
constexpr size_t kTrailerBytes = 2 * sizeof(uint64_t);

// `bytes` of `object` followed by the trailer. The copy is the response
// crossing the "network".
Bytes Respond(ByteSpan bytes, const VersionedObject& object) {
  BufferWriter out(bytes.size() + kTrailerBytes);
  out.WriteBytes(bytes);
  out.WriteLE<uint64_t>(object.version);
  out.WriteLE<uint64_t>(object.data->size());
  return std::move(out).Take();
}

}  // namespace

void RegisterStorageService(const std::shared_ptr<ObjectStore>& store,
                            rpc::Server* server) {
  server->RegisterMethod("Get", [store](ByteSpan req) -> Result<Bytes> {
    BufferReader in(req);
    POCS_ASSIGN_OR_RETURN(std::string bucket, in.ReadString());
    POCS_ASSIGN_OR_RETURN(std::string key, in.ReadString());
    POCS_ASSIGN_OR_RETURN(VersionedObject object,
                          store->GetVersioned(bucket, key));
    const uint64_t size = object.data->size();
    uint64_t offset = 0;
    uint64_t length = size;
    if (!in.exhausted()) {
      POCS_ASSIGN_OR_RETURN(offset, in.ReadVarint());
      POCS_ASSIGN_OR_RETURN(length, in.ReadVarint());
      if (offset > size) {
        return Status::OutOfRange("offset " + std::to_string(offset) +
                                  " beyond object of " +
                                  std::to_string(size) + " bytes");
      }
      // offset + length can wrap; size - offset cannot.
      length = std::min(length, size - offset);
    }
    return Respond(ByteSpan(*object.data).subspan(offset, length), object);
  });

  server->RegisterMethod("Stat", [store](ByteSpan req) -> Result<Bytes> {
    BufferReader in(req);
    POCS_ASSIGN_OR_RETURN(std::string bucket, in.ReadString());
    POCS_ASSIGN_OR_RETURN(std::string key, in.ReadString());
    POCS_ASSIGN_OR_RETURN(ObjectStat stat, store->Stat(bucket, key));
    BufferWriter out;
    out.WriteVarint(stat.size);
    out.WriteVarint(stat.version);
    return std::move(out).Take();
  });

  server->RegisterMethod("DescribeObject",
                         [store](ByteSpan req) -> Result<Bytes> {
    BufferReader in(req);
    POCS_ASSIGN_OR_RETURN(std::string bucket, in.ReadString());
    POCS_ASSIGN_OR_RETURN(std::string key, in.ReadString());
    POCS_ASSIGN_OR_RETURN(VersionedObject object,
                          store->GetVersioned(bucket, key));
    POCS_ASSIGN_OR_RETURN(ByteSpan tail, format::FooterTail(*object.data));
    return Respond(tail, object);
  });

  server->RegisterMethod("List", [store](ByteSpan req) -> Result<Bytes> {
    BufferReader in(req);
    POCS_ASSIGN_OR_RETURN(std::string bucket, in.ReadString());
    POCS_ASSIGN_OR_RETURN(std::string prefix, in.ReadString());
    POCS_ASSIGN_OR_RETURN(auto keys, store->List(bucket, prefix));
    BufferWriter out;
    out.WriteVarint(keys.size());
    for (const std::string& k : keys) out.WriteString(k);
    return std::move(out).Take();
  });

  server->RegisterMethod("Put", [store](ByteSpan req) -> Result<Bytes> {
    BufferReader in(req);
    POCS_ASSIGN_OR_RETURN(std::string bucket, in.ReadString());
    POCS_ASSIGN_OR_RETURN(std::string key, in.ReadString());
    POCS_ASSIGN_OR_RETURN(uint64_t n, in.ReadVarint());
    POCS_ASSIGN_OR_RETURN(ByteSpan data, in.ReadSpan(n));
    if (!store->HasBucket(bucket)) {
      // Auto-create: mirrors permissive dev-mode object stores.
      POCS_RETURN_NOT_OK(store->CreateBucket(bucket));
    }
    POCS_RETURN_NOT_OK(store->Put(bucket, key, Bytes(data.begin(), data.end())));
    return Bytes{};
  });
}

Result<ObjectRead> TakeObjectRead(Bytes response) {
  if (response.size() < kTrailerBytes) {
    return Status::Corruption("object read: response shorter than its trailer");
  }
  ObjectRead read;
  const uint8_t* trailer = response.data() + response.size() - kTrailerBytes;
  std::memcpy(&read.version, trailer, sizeof(uint64_t));
  std::memcpy(&read.object_size, trailer + sizeof(uint64_t), sizeof(uint64_t));
  response.resize(response.size() - kTrailerBytes);
  read.data = std::move(response);
  return read;
}

Result<ObjectRead> StorageClient::CallGet(
    const std::string& bucket, const std::string& key,
    std::optional<std::pair<uint64_t, uint64_t>> range, TransferInfo* info,
    const rpc::CallOptions& options) const {
  BufferWriter req;
  req.WriteString(bucket);
  req.WriteString(key);
  if (range) {
    req.WriteVarint(range->first);
    req.WriteVarint(range->second);
  }
  rpc::CallResult call;
  Status status = channel_.CallInto("Get", req.span(), options, &call);
  if (info) info->Add(call);  // lost attempts still cost modelled time
  POCS_RETURN_NOT_OK(status);
  POCS_ASSIGN_OR_RETURN(ObjectRead read,
                        TakeObjectRead(std::move(call.response)));
  const auto [offset, length] = range.value_or(std::pair<uint64_t, uint64_t>{0, read.object_size});
  if (offset > read.object_size ||
      read.data.size() != std::min(length, read.object_size - offset)) {
    return Status::Corruption(
        "get: " + std::to_string(read.data.size()) + " bytes for range [" +
        std::to_string(offset) + ", +" + std::to_string(length) +
        ") of an object of " + std::to_string(read.object_size));
  }
  return read;
}

Result<ObjectStat> StorageClient::Stat(const std::string& bucket,
                                       const std::string& key,
                                       TransferInfo* info,
                                       const rpc::CallOptions& options) const {
  BufferWriter req;
  req.WriteString(bucket);
  req.WriteString(key);
  rpc::CallResult call;
  Status status = channel_.CallInto("Stat", req.span(), options, &call);
  if (info) info->Add(call);
  POCS_RETURN_NOT_OK(status);
  BufferReader in(call.response.data(), call.response.size());
  ObjectStat stat;
  POCS_ASSIGN_OR_RETURN(stat.size, in.ReadVarint());
  POCS_ASSIGN_OR_RETURN(stat.version, in.ReadVarint());
  return stat;
}

Result<std::vector<std::string>> StorageClient::List(
    const std::string& bucket, const std::string& prefix) const {
  BufferWriter req;
  req.WriteString(bucket);
  req.WriteString(prefix);
  POCS_ASSIGN_OR_RETURN(rpc::CallResult call, channel_.Call("List", req.span()));
  BufferReader in(call.response.data(), call.response.size());
  POCS_ASSIGN_OR_RETURN(uint64_t n, in.ReadVarint());
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < n; ++i) {
    POCS_ASSIGN_OR_RETURN(std::string k, in.ReadString());
    keys.push_back(std::move(k));
  }
  return keys;
}

Status StorageClient::Put(const std::string& bucket, const std::string& key,
                          ByteSpan data) const {
  BufferWriter req;
  req.WriteString(bucket);
  req.WriteString(key);
  req.WriteVarint(data.size());
  req.WriteBytes(data);
  POCS_ASSIGN_OR_RETURN(rpc::CallResult call, channel_.Call("Put", req.span()));
  (void)call;
  return Status::OK();
}

}  // namespace pocs::objectstore
