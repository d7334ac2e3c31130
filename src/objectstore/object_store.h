// In-memory bucket/object store — the S3/MinIO stand-in. Flat
// bucket/key namespace, immutable objects (PUT replaces). Data lives on
// the storage node that owns the store; remote access, whole-object and
// range GETs among it, goes through the RPC service in service.h.
//
// Every successful Put stamps the object with a store-wide monotonic
// version number — the etag equivalent that the decoded row-group and
// split-result caches key on. An overwrite gets a fresh version, so
// cache entries keyed on the old one can never be served again
// (DESIGN.md §10).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace pocs::objectstore {

using ObjectData = std::shared_ptr<const Bytes>;

// An object's bytes together with the version its Put assigned.
struct VersionedObject {
  ObjectData data;
  uint64_t version = 0;
};

// Metadata-only view (the HEAD-request equivalent): lets cache validation
// check freshness without moving object bytes.
struct ObjectStat {
  uint64_t size = 0;
  uint64_t version = 0;
};

class ObjectStore {
 public:
  Status CreateBucket(const std::string& bucket);
  Status DeleteBucket(const std::string& bucket);  // must be empty
  bool HasBucket(const std::string& bucket) const;

  Status Put(const std::string& bucket, const std::string& key, Bytes data);
  Status Delete(const std::string& bucket, const std::string& key);

  Result<VersionedObject> GetVersioned(const std::string& bucket,
                                       const std::string& key) const;
  Result<ObjectStat> Stat(const std::string& bucket,
                          const std::string& key) const;

  // Keys in `bucket` starting with `prefix`, sorted.
  Result<std::vector<std::string>> List(const std::string& bucket,
                                        const std::string& prefix = "") const;

  uint64_t TotalBytes() const;
  size_t ObjectCount() const;

 private:
  struct Stored {
    ObjectData data;
    uint64_t version = 0;
  };

  Result<Stored> Find(const std::string& bucket, const std::string& key) const;

  mutable Mutex mu_;
  std::map<std::string, std::map<std::string, Stored>> buckets_
      POCS_GUARDED_BY(mu_);
  // Bumped by every successful Put.
  uint64_t next_version_ POCS_GUARDED_BY(mu_) = 0;
};

}  // namespace pocs::objectstore
