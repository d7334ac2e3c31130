#include "objectstore/service.h"

namespace pocs::objectstore {

void RegisterStorageService(const std::shared_ptr<ObjectStore>& store,
                            rpc::Server* server) {
  server->RegisterMethod("Get", [store](ByteSpan req) -> Result<Bytes> {
    BufferReader in(req);
    POCS_ASSIGN_OR_RETURN(std::string bucket, in.ReadString());
    POCS_ASSIGN_OR_RETURN(std::string key, in.ReadString());
    POCS_ASSIGN_OR_RETURN(ObjectData data, store->Get(bucket, key));
    return *data;  // copy: the response crosses the "network"
  });

  server->RegisterMethod("GetRange", [store](ByteSpan req) -> Result<Bytes> {
    BufferReader in(req);
    POCS_ASSIGN_OR_RETURN(std::string bucket, in.ReadString());
    POCS_ASSIGN_OR_RETURN(std::string key, in.ReadString());
    POCS_ASSIGN_OR_RETURN(uint64_t offset, in.ReadVarint());
    POCS_ASSIGN_OR_RETURN(uint64_t length, in.ReadVarint());
    return store->GetRange(bucket, key, offset, length);
  });

  server->RegisterMethod("Size", [store](ByteSpan req) -> Result<Bytes> {
    BufferReader in(req);
    POCS_ASSIGN_OR_RETURN(std::string bucket, in.ReadString());
    POCS_ASSIGN_OR_RETURN(std::string key, in.ReadString());
    POCS_ASSIGN_OR_RETURN(uint64_t size, store->Size(bucket, key));
    BufferWriter out;
    out.WriteVarint(size);
    return std::move(out).Take();
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
    POCS_ASSIGN_OR_RETURN(ObjectDescriptor desc,
                          BuildObjectDescriptor(*store, bucket, key));
    BufferWriter out;
    EncodeObjectDescriptor(desc, &out);
    return std::move(out).Take();
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

Result<Bytes> StorageClient::Get(const std::string& bucket,
                                 const std::string& key, TransferInfo* info,
                                 const rpc::CallOptions& options) const {
  BufferWriter req;
  req.WriteString(bucket);
  req.WriteString(key);
  rpc::CallResult call;
  Status status = channel_.CallInto("Get", req.span(), options, &call);
  if (info) info->Add(call);  // lost attempts still cost modelled time
  POCS_RETURN_NOT_OK(status);
  return std::move(call.response);
}

Result<Bytes> StorageClient::GetRange(const std::string& bucket,
                                      const std::string& key, uint64_t offset,
                                      uint64_t length, TransferInfo* info,
                                      const rpc::CallOptions& options) const {
  BufferWriter req;
  req.WriteString(bucket);
  req.WriteString(key);
  req.WriteVarint(offset);
  req.WriteVarint(length);
  rpc::CallResult call;
  Status status = channel_.CallInto("GetRange", req.span(), options, &call);
  if (info) info->Add(call);
  POCS_RETURN_NOT_OK(status);
  return std::move(call.response);
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

Result<ObjectDescriptor> StorageClient::DescribeObject(
    const std::string& bucket, const std::string& key, TransferInfo* info,
    const rpc::CallOptions& options) const {
  BufferWriter req;
  req.WriteString(bucket);
  req.WriteString(key);
  rpc::CallResult call;
  Status status = channel_.CallInto("DescribeObject", req.span(), options,
                                    &call);
  if (info) info->Add(call);
  POCS_RETURN_NOT_OK(status);
  BufferReader in(call.response.data(), call.response.size());
  return DecodeObjectDescriptor(&in);
}

Result<uint64_t> StorageClient::Size(const std::string& bucket,
                                     const std::string& key) const {
  BufferWriter req;
  req.WriteString(bucket);
  req.WriteString(key);
  POCS_ASSIGN_OR_RETURN(rpc::CallResult call, channel_.Call("Size", req.span()));
  BufferReader in(call.response.data(), call.response.size());
  return in.ReadVarint();
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
