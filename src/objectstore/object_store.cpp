#include "objectstore/object_store.h"

namespace pocs::objectstore {

Status ObjectStore::CreateBucket(const std::string& bucket) {
  MutexLock lock(mu_);
  if (buckets_.contains(bucket)) {
    return Status::AlreadyExists("bucket " + bucket);
  }
  buckets_[bucket];
  return Status::OK();
}

Status ObjectStore::DeleteBucket(const std::string& bucket) {
  MutexLock lock(mu_);
  auto it = buckets_.find(bucket);
  if (it == buckets_.end()) return Status::NotFound("bucket " + bucket);
  if (!it->second.empty()) {
    return Status::InvalidArgument("bucket " + bucket + " not empty");
  }
  buckets_.erase(it);
  return Status::OK();
}

bool ObjectStore::HasBucket(const std::string& bucket) const {
  MutexLock lock(mu_);
  return buckets_.contains(bucket);
}

Status ObjectStore::Put(const std::string& bucket, const std::string& key,
                        Bytes data) {
  MutexLock lock(mu_);
  auto it = buckets_.find(bucket);
  if (it == buckets_.end()) return Status::NotFound("bucket " + bucket);
  // Overwrites get a fresh version: stale cache entries keyed on the old
  // one become unreachable (served never, evicted eventually).
  it->second[key] =
      Stored{std::make_shared<const Bytes>(std::move(data)), ++next_version_};
  return Status::OK();
}

Status ObjectStore::Delete(const std::string& bucket, const std::string& key) {
  MutexLock lock(mu_);
  auto it = buckets_.find(bucket);
  if (it == buckets_.end()) return Status::NotFound("bucket " + bucket);
  if (it->second.erase(key) == 0) {
    return Status::NotFound("object " + bucket + "/" + key);
  }
  return Status::OK();
}

Result<ObjectStore::Stored> ObjectStore::Find(const std::string& bucket,
                                              const std::string& key) const {
  MutexLock lock(mu_);
  auto bit = buckets_.find(bucket);
  if (bit == buckets_.end()) return Status::NotFound("bucket " + bucket);
  auto oit = bit->second.find(key);
  if (oit == bit->second.end()) {
    return Status::NotFound("object " + bucket + "/" + key);
  }
  return oit->second;
}

Result<VersionedObject> ObjectStore::GetVersioned(const std::string& bucket,
                                                  const std::string& key) const {
  POCS_ASSIGN_OR_RETURN(Stored stored, Find(bucket, key));
  return VersionedObject{std::move(stored.data), stored.version};
}

Result<ObjectStat> ObjectStore::Stat(const std::string& bucket,
                                     const std::string& key) const {
  POCS_ASSIGN_OR_RETURN(Stored stored, Find(bucket, key));
  return ObjectStat{stored.data->size(), stored.version};
}

Result<std::vector<std::string>> ObjectStore::List(
    const std::string& bucket, const std::string& prefix) const {
  MutexLock lock(mu_);
  auto bit = buckets_.find(bucket);
  if (bit == buckets_.end()) return Status::NotFound("bucket " + bucket);
  std::vector<std::string> keys;
  for (const auto& [key, stored] : bit->second) {
    if (key.starts_with(prefix)) keys.push_back(key);
  }
  return keys;
}

uint64_t ObjectStore::TotalBytes() const {
  MutexLock lock(mu_);
  uint64_t total = 0;
  for (const auto& [bucket, objects] : buckets_) {
    for (const auto& [key, stored] : objects) total += stored.data->size();
  }
  return total;
}

size_t ObjectStore::ObjectCount() const {
  MutexLock lock(mu_);
  size_t n = 0;
  for (const auto& [bucket, objects] : buckets_) n += objects.size();
  return n;
}

}  // namespace pocs::objectstore
