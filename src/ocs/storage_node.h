// An OCS storage node: an object store plus the embedded SQL engine that
// executes IR plans directly over locally stored Parquet-lite objects and
// returns results in the Arrow-like IPC format (§2.3/§3.4 of the paper).
//
// The node's weaker CPU (Table 1: 16 cores @ 2.0 GHz vs the compute
// node's 64 @ 2.9) is modelled by scaling the measured work of a request
// by `cpu_slowdown`; the scaled figure is reported to callers, who fold
// it into query timing. The work is summed over threads, not read off the
// wall clock: the time model divides it by the node's 16-way parallelism
// (DESIGN.md §4). Byte movement is never scaled — it is exact.
//
// Decoded row-group cache (DESIGN.md §10): each node keeps a sharded,
// byte-budgeted LRU of decoded column chunks keyed by (object, object
// version, row group, column). Concurrent splits and repeated queries
// over the same objects skip media reads, decompression, and page
// decoding; a PUT overwrite bumps the object version so stale entries
// can never be served.
//
// Read-ahead (DESIGN.md §10.6): each node also keeps a pool of decode
// threads, one fewer than the machine's cores (1 to 15). A scan of a
// compressed object queues the chunks of the next row groups it will
// read, and the pool verifies, decompresses and decodes them while the
// scan's own thread works through the current group. The scan takes each
// chunk from its slot in the order it always did, so every cache lookup
// and insert, every counter and every answer is the sequential scan's;
// it decodes a chunk itself when no pool thread has started it yet.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "columnar/column.h"
#include "common/counters.h"
#include "common/hash.h"
#include "common/lru_cache.h"
#include "common/thread_pool.h"
#include "exec/plan_executor.h"
#include "format/parquet_lite.h"
#include "objectstore/object_store.h"
#include "objectstore/select.h"
#include "rpc/rpc.h"
#include "substrait/serialize.h"

namespace pocs::ocs {

// Effective storage-media read bandwidth, bytes/s (Table 1: data on SATA
// SSD). Object bytes a storage node touches are charged bytes/bandwidth
// of modelled media time — this is what makes compression pay off in
// Fig. 6 even for storage-side execution — and so are the whole objects
// the connectors' raw GETs read. The 80 MB/s figure is derived from the
// paper's own Fig. 6 arithmetic: Zstd saved filter-only ~198 s on
// ~15.7 GB of avoided reads ≈ 80 MB/s effective.
inline constexpr double kMediaReadBandwidth = 80e6;

struct StorageNodeConfig {
  // Measured in-storage compute seconds are multiplied by this factor.
  // Default approximates the paper's per-node throughput gap:
  // (64 cores x 2.9 GHz) / (16 cores x 2.0 GHz) ≈ 5.8, discounted for
  // imperfect compute-side scaling to 2.5.
  double cpu_slowdown = 2.5;
  // Byte budget for the node's decoded row-group cache (0 disables).
  // Cached chunks are charged at decoded size; hits skip both the media
  // read and the decode.
  uint64_t rowgroup_cache_bytes = 64ull << 20;
};

// Injectable failure modes for one storage node. Crashing targets only
// the node's one executor: ExecutePlan and Select reject with
// kUnavailable while the plain object-store methods (Get, Stat,
// DescribeObject) stay up — mirroring the paper's framing (and
// PushdownDB's) of in-storage execution as an optional accelerator the
// engine must survive without. `exec_delay` models a slow node by
// inflating the reported storage compute time; the OCS connector's
// storage deadline turns that into an offload rejection.
struct StorageNodeFaults {
  std::atomic<bool> exec_crashed{false};
  std::atomic<double> exec_delay_seconds{0};
};

// One storage plan's counters (common/counters.h), plus the version of
// the object it scanned — the connector's split-result cache keys on it.
struct OcsExecStats : StorageCounters {
  uint64_t object_version = 0;
};

struct OcsResult {
  // The payload: a slice of the response frame it arrived in, which it
  // keeps alive. For ExecutePlan the result table's columnar::ipc stream;
  // for Select its CSV text and checksum (objectstore::SelectCsvText).
  Buffer arrow_ipc;
  OcsExecStats stats;
};

// Key of one decoded column chunk in a node's row-group cache.
struct RowGroupCacheKey {
  std::string object;   // "bucket/key"
  uint64_t version = 0;
  uint64_t group = 0;
  int32_t column = 0;
  bool operator==(const RowGroupCacheKey&) const = default;
};

struct RowGroupCacheKeyHash {
  size_t operator()(const RowGroupCacheKey& k) const {
    uint64_t h = HashString(k.object);
    h = HashCombine(h, k.version);
    h = HashCombine(h, k.group);
    h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(k.column)));
    return static_cast<size_t>(h);
  }
};

using RowGroupCache =
    ShardedLruCache<RowGroupCacheKey, columnar::Column, RowGroupCacheKeyHash>;

// A scan's read-ahead: the pool that decodes its chunks ahead of it, and
// what that cost. The scan's work is its own thread's elapsed time, less
// `waited_seconds`, plus `pool_seconds`.
struct ReadAhead {
  ThreadPool* pool = nullptr;
  double pool_seconds = 0;    // the pool's decode tasks for this scan
  double waited_seconds = 0;  // the scan's thread waiting on those tasks
};

class StorageNode {
 public:
  StorageNode(std::shared_ptr<objectstore::ObjectStore> store,
              StorageNodeConfig config);

  const std::shared_ptr<objectstore::ObjectStore>& store() const {
    return store_;
  }

  // Execute an IR plan whose Read targets an object on this node.
  Result<OcsResult> ExecutePlan(const substrait::Plan& plan) const;
  // The same, as the response frame the "ExecutePlan" method returns.
  Result<Bytes> Execute(const substrait::Plan& plan) const {
    return Run(plan, /*select=*/false);
  }
  // S3 Select (§2.2): the response frame of a Read → [Filter] → [Project]
  // plan, run by the same executor without the row-group cache, with a
  // CSV payload (objectstore::WriteSelectCsv). Any other plan is
  // InvalidArgument: an Aggregate, Sort or Fetch; a Project expression
  // that is not a field ref; a Filter that CollectPruningTerms does not
  // state whole; a Read with a row-group hint or a bloom.
  Result<Bytes> Select(const substrait::Plan& plan) const {
    return Run(plan, /*select=*/true);
  }

  // Register "ExecutePlan", "Select" and the plain object-store methods on
  // an RPC server living on this node.
  void RegisterService(rpc::Server* server) const;

  // Mutable fault switches; flipped by chaos tests at runtime.
  StorageNodeFaults& faults() const { return faults_; }

  // The node's decoded row-group cache (nullptr when disabled).
  const std::shared_ptr<RowGroupCache>& rowgroup_cache() const {
    return rowgroup_cache_;
  }

  // The node's decode threads, which its scans read ahead on.
  ThreadPool* decode_pool() const { return decode_pool_.get(); }

 private:
  Result<Bytes> Run(const substrait::Plan& plan, bool select) const;

  std::shared_ptr<objectstore::ObjectStore> store_;
  StorageNodeConfig config_;
  mutable StorageNodeFaults faults_;
  // Internally synchronized; shared across concurrent ExecutePlan calls.
  std::shared_ptr<RowGroupCache> rowgroup_cache_;
  std::unique_ptr<ThreadPool> decode_pool_;
};

// The OcsResult wire: the frame an ExecutePlan or Select response carries
// (shared with the frontend, which forwards responses verbatim).
//   frame    := header pad checksum:u64 payload
//   header   := count:varint* object_version:varint seconds:f64*
//               payload_bytes:u64
//   pad      := zero bytes up to the next multiple of 8
//   checksum := Checksum64 (common/checksum.h) of header and pad
//   payload  := payload_bytes long, ending the frame: the result's
//               columnar::ipc stream (ExecutePlan), or its CSV text
//               followed by the text's Checksum64 as a u64 (Select)
// The counters travel in their POCS_STORAGE_COUNTERS order, untagged.
// The payload starts 8-aligned, so a frame decodes to columns that are
// slices of it, and either payload carries its own checksum.
//
// OcsResultWriter builds a frame in one buffer: the constructor writes
// the header with the seconds and payload length left blank, the caller
// appends the payload stream to payload(), and Finish fills in the
// blanks and the checksum. The seconds are read only in Finish, so they
// may time the payload's serialization.
class OcsResultWriter {
 public:
  // Takes the counts and object version of `stats`; `payload_reserve`
  // bounds the payload, so the frame is allocated once.
  OcsResultWriter(const OcsExecStats& stats, size_t payload_reserve);
  BufferWriter* payload() { return &out_; }
  // Takes the seconds of `stats` and returns the frame.
  Bytes Finish(const OcsExecStats& stats) &&;

 private:
  BufferWriter out_;
  size_t seconds_at_ = 0;
  size_t checksum_at_ = 0;
  size_t payload_at_ = 0;
};

// Decoding checks the header checksum once, then rejects seconds that are
// negative or not finite, and a payload length other than the bytes that
// follow, as Corruption. The Buffer overload leaves arrow_ipc a slice of
// `frame`; the reader overload copies the rest of `in` once into a buffer
// of its own and consumes it.
Result<OcsResult> DecodeOcsResult(const Buffer& frame);
Result<OcsResult> DecodeOcsResult(BufferReader* in);

// Run a plan over one object's bytes with the storage node's scan: the
// plan's Read leaf as a Parquet-lite source with stats pruning by the
// filter directly above it, the code-domain filter, late materialization
// and the pushed join-key bloom, under exec::ExecuteRel. The row-group
// hint and the bloom apply only when their version pin equals
// `object.version`, the version the bytes were read with. `cache` may be
// null. Adds the plan's counts — rows, row groups, object_bytes_read,
// cache outcomes, pruned rows — to `stats` and sets its object_version;
// the seconds are the caller's. The storage node's ExecutePlan and Select
// run it, and so does OcsClient::FetchAndScan, both connectors'
// engine-side fallback, so a fallback returns the rows and row counters
// the storage node would have (DESIGN.md §9.3).
//
// With a `read_ahead` pool, a compressed object's chunks are decoded
// ahead on it (the header comment), and the pool's and the waits' seconds
// are added to `read_ahead`; the result, the counts and the cache
// outcomes are those of the scan without one, which the fallback runs.
Result<std::shared_ptr<columnar::Table>> ExecuteOnObject(
    const substrait::Plan& plan, const objectstore::VersionedObject& object,
    RowGroupCache* cache, OcsExecStats* stats,
    ReadAhead* read_ahead = nullptr);

// Collect conjunctive `field <cmp> literal` terms from a predicate, for
// statistics-based pruning against `scan_schema`. Returns true when every
// conjunct became a term, i.e. the terms state the whole predicate (the
// S3 Select API's test for an expressible filter). A conjunct that is not
// a term makes it return false, but the other conjuncts' terms are still
// collected, so pruning on them stays conservative and keeps working.
// Shared with the coordinator-side split pruner so plan-time and
// storage-time pruning evaluate the exact same terms (DESIGN.md §13).
bool CollectPruningTerms(const substrait::Expression& expr,
                         const columnar::Schema& scan_schema,
                         std::vector<objectstore::SelectPredicate>* out);

// Whether row group `group`'s chunk statistics in `meta` admit every
// pruning term (ChunkMayMatch; a term on a column the file lacks admits).
// The one row-group test of both prunings: the storage scan skips a
// group it rejects, and the split planner prunes an object none of whose
// groups it admits and hints the groups it does (DESIGN.md §13), so a
// hint never drops a group the scan would keep.
bool RowGroupMayMatch(const format::FileMeta& meta, size_t group,
                      const std::vector<objectstore::SelectPredicate>& terms);

}  // namespace pocs::ocs
