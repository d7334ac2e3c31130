#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <random>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "format/encoding.h"
#include "workloads/concurrent.h"
#include "workloads/deepwater.h"
#include "workloads/laghos.h"
#include "workloads/tpch.h"

namespace perfbench {

using namespace pocs;

namespace {

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    // Full pushdown on zs-lite data whose touched columns are several
    // times the row-group cache: every query reads, decompresses and
    // decodes from media and ships back only small partial results.
    WorkloadSpec cold;
    cold.name = "pushdown_cold";
    cold.rows_per_file = 1 << 14;
    cold.codec = compress::CodecType::kZsLite;
    cold.rowgroup_cache_bytes = 1ull << 20;

    // Filter-only pushdown on plain data that fits the cache: storage
    // serves decoded chunks from cache and ships large filtered batches;
    // the engine does projection, aggregation, join, top-N and merge. The
    // connector's metadata cache prunes LaghosSelectiveQuery's splits.
    WorkloadSpec warm;
    warm.name = "filter_warm";
    warm.rows_per_file = 1 << 15;
    warm.codec = compress::CodecType::kNone;
    warm.rowgroup_cache_bytes = 512ull << 20;
    warm.filter_only = true;
    warm.extended_mix = true;
    warm.connector_caches = true;
    warm.warmup_passes = 2;

    // Three tenants reading through admission, load-aware dispatch over
    // three nodes and the connector caches, while a writer keeps
    // overwriting objects with identical content.
    WorkloadSpec mixed;
    mixed.name = "mixed_rw";
    mixed.rows_per_file = 1 << 14;
    mixed.codec = compress::CodecType::kZsLite;
    mixed.rowgroup_cache_bytes = 64ull << 20;
    mixed.extended_mix = true;
    mixed.connector_caches = true;
    mixed.storage_nodes = 3;
    mixed.readers = 3;
    mixed.writer = true;
    return std::vector<WorkloadSpec>{cold, warm, mixed};
  }();
  return specs;
}

// One result row: non-float cells rendered as text, float cells as numbers.
struct Row {
  std::vector<std::string> keys;
  std::vector<double> floats;
  bool operator<(const Row& o) const {
    return keys != o.keys ? keys < o.keys : floats < o.floats;
  }
};

std::vector<Row> SortedRows(const columnar::RecordBatch& batch) {
  std::vector<Row> rows(batch.num_rows());
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const columnar::Column& col = *batch.column(c);
    for (size_t r = 0; r < rows.size(); ++r) {
      if (!col.IsNull(r) && col.type() == columnar::TypeKind::kFloat64) {
        rows[r].floats.push_back(col.GetFloat64(r));
      } else {
        rows[r].keys.push_back(col.IsNull(r) ? "NULL"
                                             : col.GetDatum(r).ToString());
      }
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Storage-side partial aggregation sums floats in another order than the
// no-pushdown engine, so float results may differ in their last bits, and
// ResultRowFingerprint (9 significant digits) flips when a sum sits on a
// rounding boundary. A fingerprint mismatch is re-checked here: same rows,
// floats equal within a relative 1e-9.
bool SameRows(const columnar::RecordBatch& a, const columnar::RecordBatch& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  const std::vector<Row> ra = SortedRows(a);
  const std::vector<Row> rb = SortedRows(b);
  for (size_t r = 0; r < ra.size(); ++r) {
    if (ra[r].keys != rb[r].keys ||
        ra[r].floats.size() != rb[r].floats.size()) {
      return false;
    }
    for (size_t i = 0; i < ra[r].floats.size(); ++i) {
      const double x = ra[r].floats[i];
      const double y = rb[r].floats[i];
      if (std::fabs(x - y) > 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)})) {
        return false;
      }
    }
  }
  return true;
}

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Fisher-Yates with an explicit modulo draw, so the order depends on the
// seed alone and not on the standard library's distributions.
void Shuffle(std::vector<size_t>* order, std::mt19937_64* rng) {
  for (size_t i = order->size(); i > 1; --i) {
    std::swap((*order)[i - 1], (*order)[(*rng)() % i]);
  }
}

// Runs query `q` once and folds the outcome into `out`. With a tracer,
// Execute is wrapped in the root span (`*root_span` receives its id).
bool RunOne(Bench& bench, size_t q, const engine::QueryOptions& options,
            LoopStats* out, Tracer* tracer = nullptr, uint64_t query_id = 0,
            uint32_t lane = 0, uint64_t* root_span = nullptr) {
  const NamedQuery& query = bench.queries[q];
  ++out->attempted;
  std::unique_ptr<ScopedSpan> root;
  if (tracer != nullptr) {
    root = std::make_unique<ScopedSpan>(tracer, "engine.execute", 0, query_id,
                                        lane);
    root->Exclude();  // engine.self_s is derived from it instead
    *root_span = root->id();
  }
  const Clock::time_point t0 = Clock::now();
  auto result = bench.bed->engine().Execute(query.sql, bench.catalog, options);
  const double wall = root ? root->End() : Since(t0);
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kUnavailable) {
      ++out->refused;
    } else {
      ++out->failed;
    }
    std::fprintf(stderr, "perfbench: %s failed: %s\n", query.name.c_str(),
                 result.status().ToString().c_str());
    return false;
  }
  if (!bench.Check(q, *result)) {
    ++out->wrong;
    std::fprintf(stderr, "perfbench: %s returned a wrong answer\n",
                 query.name.c_str());
  }
  const engine::QueryMetrics& m = result->metrics;
  out->latency_s.push_back(wall);
  out->model_s.push_back(m.total);
  out->bytes_from_storage.push_back(static_cast<double>(m.bytes_from_storage));
  out->admission_wait_s += m.admission_queue_seconds;
  out->post_scan_s += m.post_scan_execution;
  out->splits_planned += m.splits_planned;
  out->splits_pruned += m.splits_pruned;
  out->metadata_hits += m.metadata_cache_hits;
  out->metadata_misses += m.metadata_cache_misses;
  out->metadata_stale += m.metadata_cache_stale;
  return true;
}

// Re-encodes `object` (format::FileWriter: page encoding + codec) and
// stores it under `key` with OcsCluster::PutObject. With a tracer, the
// write is decomposed afterwards into EncodePage and Codec::Compress calls
// per chunk, as children of the format.write span.
Status PutOnce(Bench& bench, const StoredObject& object, const std::string& key,
               LoopStats* out, Tracer* tracer, uint32_t lane) {
  ++out->put_attempted;
  const format::WriterOptions options = bench.writer_options();
  const uint64_t query_id = tracer ? tracer->NewId() : 0;
  std::unique_ptr<ScopedSpan> root;
  if (tracer) {
    root = std::make_unique<ScopedSpan>(tracer, "put", 0, query_id, lane);
    root->Exclude();
  }
  const Clock::time_point t0 = Clock::now();
  uint64_t write_span = 0;
  Bytes file;
  {
    std::unique_ptr<ScopedSpan> span;
    if (tracer) {
      span = std::make_unique<ScopedSpan>(tracer, "format.write", root->id(),
                                          query_id, lane);
      write_span = span->id();
    }
    format::FileWriter writer(object.table->schema(), options);
    for (const auto& batch : object.table->batches()) {
      POCS_RETURN_NOT_OK(writer.WriteBatch(*batch));
    }
    POCS_ASSIGN_OR_RETURN(file, writer.Finish());
  }
  {
    std::unique_ptr<ScopedSpan> span;
    if (tracer) {
      span = std::make_unique<ScopedSpan>(tracer, "objectstore.put", root->id(),
                                          query_id, lane);
      span->Arg("bytes", static_cast<double>(file.size()));
    }
    POCS_RETURN_NOT_OK(
        bench.bed->cluster().PutObject(object.bucket, key, std::move(file)));
  }
  out->put_s.push_back(Since(t0));
  if (!tracer) return Status::OK();
  root->End();

  // Each table batch is one row group (the object was written with the
  // same rows_per_group), so this repeats the writer's chunk work.
  const compress::Codec& codec = compress::GetCodec(options.codec);
  const columnar::Schema& schema = *object.table->schema();
  for (const auto& batch : object.table->batches()) {
    for (size_t c = 0; c < batch->num_columns(); ++c) {
      Bytes page;
      {
        ScopedSpan span(tracer, "format.encode", write_span, query_id, lane + 1);
        page = format::EncodePage(*batch->column(c), schema.field(c));
      }
      ScopedSpan span(tracer, "compress.compress", write_span, query_id,
                      lane + 1);
      Bytes compressed = codec.Compress(ByteSpan(page.data(), page.size()));
      span.Arg("bytes_in", static_cast<double>(page.size()));
      span.Arg("bytes_out", static_cast<double>(compressed.size()));
    }
  }
  return Status::OK();
}

// The stored objects in seeded shuffled passes, each covering every
// object once, so every run writes the same mix of object sizes.
class ObjectCycle {
 public:
  ObjectCycle(const Bench& bench, uint64_t salt)
      : bench_(bench),
        rng_(HashCombine(bench.seed, salt)),
        order_(bench.objects.size()) {
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  }
  const StoredObject& Next() {
    if (next_ == order_.size()) {
      Shuffle(&order_, &rng_);
      next_ = 0;
    }
    return bench_.objects[order_[next_++]];
  }

 private:
  const Bench& bench_;
  std::mt19937_64 rng_;
  std::vector<size_t> order_;
  size_t next_ = order_.size();
};

void RecordPut(const Status& status, LoopStats* out) {
  if (status.ok()) return;
  ++out->put_failed;
  std::fprintf(stderr, "perfbench: put failed: %s\n", status.ToString().c_str());
}

// Overwrites objects with identical content, one per
// kReadsPerWrite queries the readers complete (`reads_done`), so the
// read:write proportion is part of the workload, not of machine speed.
void WriterLoop(Bench& bench, Clock::time_point deadline,
                const std::atomic<uint64_t>* reads_done, LoopStats* out,
                Tracer* tracer, uint32_t lane) {
  ObjectCycle objects(bench, 0x77726974);
  uint64_t puts = 0;
  while (Clock::now() < deadline) {
    if (reads_done->load(std::memory_order_relaxed) <
        (puts + 1) * kReadsPerWrite) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    const StoredObject& object = objects.Next();
    RecordPut(PutOnce(bench, object, object.key, out, tracer, lane), out);
    ++puts;
  }
}

// Workloads without a writer client still measure the write path: every
// kRoundsPerProbePut rounds, the client writes one stored object
// again under a new key (so no table changes).
void ProbePut(Bench& bench, uint64_t round, ObjectCycle* objects,
              LoopStats* out, Tracer* tracer, uint32_t lane) {
  if (bench.spec.writer || round == 0 || round % kRoundsPerProbePut != 0) {
    return;
  }
  const StoredObject& object = objects->Next();
  RecordPut(PutOnce(bench, object, object.key + ".put_probe", out, tracer, lane),
            out);
}

// One reader client's closed loop: the next query is sent only after the
// previous one returned. Queries come in seeded shuffled rounds of the mix,
// and only whole rounds run, so every query weighs the same in a run.
void ReaderLoop(Bench& bench, size_t client, Clock::time_point deadline,
                std::atomic<uint64_t>* reads_done, LoopStats* out,
                Tracer* tracer, ReplayCounts* counts,
                uint64_t* replay_failures) {
  std::mt19937_64 rng(HashCombine(bench.seed, 0x72656164 + client));
  engine::QueryOptions options;
  options.tenant = bench.tenants[client];
  std::vector<size_t> order(bench.queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  size_t next = order.size();
  uint64_t rounds = 0;
  ObjectCycle probe_objects(bench, 0x70726f62);
  const uint32_t lane = static_cast<uint32_t>(3 * client);
  double busy = 0;
  while (true) {
    if (next == order.size()) {
      if (Clock::now() >= deadline) break;
      ProbePut(bench, rounds++, &probe_objects, out, tracer, lane);
      Shuffle(&order, &rng);
      next = 0;
    }
    const size_t q = order[next++];
    const uint64_t query_id = tracer ? tracer->NewId() : 0;
    uint64_t root_span = 0;
    const size_t before = out->latency_s.size();
    const bool ok =
        RunOne(bench, q, options, out, tracer, query_id, lane, &root_span);
    if (out->latency_s.size() > before) busy += out->latency_s.back();
    reads_done->fetch_add(1, std::memory_order_relaxed);
    if (ok && tracer) {
      Status s = ReplayQuery(*bench.bed, bench.catalog, bench.queries[q].sql,
                             tracer, query_id, root_span, lane + 1, counts);
      if (!s.ok()) {
        ++*replay_failures;
        std::fprintf(stderr, "perfbench: replay of %s failed: %s\n",
                     bench.queries[q].name.c_str(), s.ToString().c_str());
      }
    }
  }
  if (busy > 0) {
    out->client_qps.push_back(static_cast<double>(out->latency_s.size()) / busy);
  }
}

// Single client, traced: each round runs every query's timed root first
// and then every replay, so a replay meets the caches the way its root
// did (other queries ran in between both times).
void TracedRounds(Bench& bench, Clock::time_point deadline, Tracer* tracer,
                  TraceResult* out) {
  std::mt19937_64 rng(HashCombine(bench.seed, 0x74726163));
  engine::QueryOptions options;
  options.tenant = bench.tenants[0];
  std::vector<size_t> order(bench.queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  ObjectCycle probe_objects(bench, 0x70726f62);
  for (uint64_t round = 0; Clock::now() < deadline; ++round) {
    ProbePut(bench, round, &probe_objects, &out->loop, tracer, 0);
    Shuffle(&order, &rng);
    struct Root {
      size_t q;
      uint64_t query_id;
      uint64_t span;
    };
    std::vector<Root> roots;
    for (size_t q : order) {
      Root root{q, tracer->NewId(), 0};
      if (RunOne(bench, q, options, &out->loop, tracer, root.query_id, 0,
                 &root.span)) {
        roots.push_back(root);
      }
    }
    for (const Root& root : roots) {
      Status s = ReplayQuery(*bench.bed, bench.catalog,
                             bench.queries[root.q].sql, tracer, root.query_id,
                             root.span, 1, &out->counts);
      if (!s.ok()) {
        ++out->replay_failures;
        std::fprintf(stderr, "perfbench: replay of %s failed: %s\n",
                     bench.queries[root.q].name.c_str(), s.ToString().c_str());
      }
    }
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) names.push_back(spec.name);
  return names;
}

void LoopStats::Merge(const LoopStats& o) {
  attempted += o.attempted;
  failed += o.failed;
  refused += o.refused;
  wrong += o.wrong;
  latency_s.insert(latency_s.end(), o.latency_s.begin(), o.latency_s.end());
  model_s.insert(model_s.end(), o.model_s.begin(), o.model_s.end());
  bytes_from_storage.insert(bytes_from_storage.end(),
                            o.bytes_from_storage.begin(),
                            o.bytes_from_storage.end());
  put_s.insert(put_s.end(), o.put_s.begin(), o.put_s.end());
  client_qps.insert(client_qps.end(), o.client_qps.begin(),
                    o.client_qps.end());
  put_attempted += o.put_attempted;
  put_failed += o.put_failed;
  admission_wait_s += o.admission_wait_s;
  post_scan_s += o.post_scan_s;
  splits_planned += o.splits_planned;
  splits_pruned += o.splits_pruned;
  metadata_hits += o.metadata_hits;
  metadata_misses += o.metadata_misses;
  metadata_stale += o.metadata_stale;
}

format::WriterOptions Bench::writer_options() const {
  format::WriterOptions options;
  options.codec = spec.codec;
  options.rows_per_group = kRowsPerGroup;
  return options;
}

uint64_t Bench::TotalRows() const {
  uint64_t rows = 0;
  for (const StoredObject& object : objects) rows += object.table->num_rows();
  return rows;
}

bool Bench::Check(size_t q, const engine::QueryResult& result) const {
  const Reference& ref = reference[q];
  if (!result.table) return ref.rows == 0;
  if (result.table->num_rows() != ref.rows) return false;
  return workloads::ResultRowFingerprint(*result.table) == ref.fingerprint ||
         SameRows(*result.table, *ref.table);
}

Result<std::unique_ptr<Bench>> Bench::SetUp(const WorkloadSpec& spec,
                                            uint64_t seed) {
  auto bench = std::make_unique<Bench>();
  bench->spec = spec;
  bench->seed = seed;

  workloads::TestbedConfig config;
  config.cluster.num_storage_nodes = spec.storage_nodes;
  config.cluster.storage.rowgroup_cache_bytes = spec.rowgroup_cache_bytes;
  config.engine.worker_threads = kEngineWorkers;
  config.engine.admission.enabled = true;
  if (spec.storage_nodes > 1) {
    config.cluster.placement = ocs::PlacementPolicy::kLeastLoaded;
    config.load_aware_dispatch = true;
    config.dispatcher.max_inflight_per_node = 2;
  }
  if (spec.readers > 1) {
    config.engine.admission.max_concurrent =
        static_cast<uint32_t>(spec.readers);
    for (const workloads::TenantSpec& t : workloads::DefaultTenants()) {
      config.engine.admission.groups.push_back(
          {.name = t.name,
           .weight = t.weight,
           .max_concurrent = t.max_concurrent,
           .max_queued = t.max_queued});
      if (bench->tenants.size() < spec.readers) bench->tenants.push_back(t.name);
    }
    if (bench->tenants.size() < spec.readers) {
      return Status::InvalidArgument("more readers than default tenants");
    }
  } else {
    bench->tenants = {"default"};
  }
  if (spec.connector_caches) {
    config.ocs_connector.split_result_cache_bytes = kSplitCacheBytes;
    config.ocs_connector.metadata_cache_bytes = kMetadataCacheBytes;
  }
  bench->bed = std::make_unique<workloads::Testbed>(config);
  bench->catalog = "ocs";
  if (spec.filter_only) {
    connectors::OcsConnectorConfig filter = config.ocs_connector;
    filter.pushdown_projection = false;
    filter.pushdown_aggregation = false;
    filter.pushdown_topn = false;
    filter.pushdown_join_bloom = false;
    bench->catalog = "ocs_filter";
    bench->bed->RegisterOcsCatalog(bench->catalog, filter);
  }

  // Seeded datasets. Every generator and the client schedules derive
  // their seeds from the one workload seed.
  workloads::LaghosConfig laghos;
  laghos.num_files = kFilesPerDataset;
  laghos.rows_per_file = spec.rows_per_file;
  laghos.rows_per_group = kRowsPerGroup;
  laghos.codec = spec.codec;
  laghos.seed = HashCombine(seed, 1);
  workloads::DeepWaterConfig deepwater;
  deepwater.num_files = kFilesPerDataset;
  deepwater.rows_per_file = spec.rows_per_file;
  deepwater.rows_per_group = kRowsPerGroup;
  deepwater.codec = spec.codec;
  deepwater.seed = HashCombine(seed, 2);
  workloads::TpchConfig tpch;
  tpch.num_files = kFilesPerDataset;
  tpch.rows_per_file = spec.rows_per_file;
  tpch.rows_per_group = kRowsPerGroup;
  tpch.codec = spec.codec;
  tpch.seed = HashCombine(seed, 3);

  std::vector<workloads::GeneratedDataset> datasets;
  POCS_ASSIGN_OR_RETURN(auto mesh, workloads::GenerateLaghos(laghos));
  datasets.push_back(std::move(mesh));
  POCS_ASSIGN_OR_RETURN(auto impact, workloads::GenerateDeepWater(deepwater));
  datasets.push_back(std::move(impact));
  POCS_ASSIGN_OR_RETURN(auto lineitem, workloads::GenerateLineitem(tpch));
  datasets.push_back(std::move(lineitem));
  for (workloads::GeneratedDataset& dataset : datasets) {
    for (const auto& [key, bytes] : dataset.files) {
      POCS_ASSIGN_OR_RETURN(auto reader, format::FileReader::Open(bytes));
      POCS_ASSIGN_OR_RETURN(auto table, reader->ReadAll());
      bench->objects.push_back({dataset.info.bucket, key, std::move(table)});
    }
    POCS_RETURN_NOT_OK(bench->bed->Ingest(std::move(dataset)));
  }
  if (spec.extended_mix) {
    workloads::SupplierConfig supplier;
    supplier.codec = spec.codec;
    POCS_ASSIGN_OR_RETURN(auto dim, workloads::GenerateSupplier(supplier));
    POCS_RETURN_NOT_OK(bench->bed->Ingest(std::move(dim)));
  }

  bench->queries = {
      {"laghos", workloads::LaghosQuery("laghos")},
      {"deepwater", workloads::DeepWaterQuery("deepwater")},
      {"tpch_q1", workloads::TpchQ1("lineitem")},
      {"tpch_q6", workloads::TpchQ6("lineitem")},
      {"tpch_dict", workloads::TpchDictFilterQuery("lineitem")},
  };
  if (spec.extended_mix) {
    bench->queries.push_back(
        {"tpch_join", workloads::TpchJoinQuery("lineitem", "supplier")});
    // Vertex ranges are disjoint and ascending across files, with 32 rows
    // per vertex: this bound keeps exactly the first file.
    bench->queries.push_back(
        {"laghos_selective",
         workloads::LaghosSelectiveQuery(
             "laghos", static_cast<int64_t>(spec.rows_per_file / 32))});
  }

  for (const NamedQuery& query : bench->queries) {
    POCS_ASSIGN_OR_RETURN(engine::QueryResult result,
                          bench->bed->engine().Execute(query.sql, "hive_raw"));
    Reference ref;
    if (result.table) {
      ref.rows = result.table->num_rows();
      ref.fingerprint = workloads::ResultRowFingerprint(*result.table);
      ref.table = result.table;
    }
    bench->reference.push_back(ref);
  }

  engine::QueryOptions options;
  options.tenant = bench->tenants[0];
  for (int pass = 0; pass < spec.warmup_passes; ++pass) {
    for (size_t q = 0; q < bench->queries.size(); ++q) {
      POCS_ASSIGN_OR_RETURN(engine::QueryResult result,
                            bench->bed->engine().Execute(
                                bench->queries[q].sql, bench->catalog, options));
      if (!bench->Check(q, result)) {
        return Status::Internal("warm-up answer of " + bench->queries[q].name +
                                " differs from the no-pushdown reference");
      }
    }
  }
  return bench;
}

CacheCounts RowGroupCacheCounts(const Bench& bench) {
  CacheCounts counts;
  ocs::OcsCluster& cluster = bench.bed->cluster();
  for (size_t i = 0; i < cluster.num_storage_nodes(); ++i) {
    const auto& cache = cluster.storage_node(i).rowgroup_cache();
    if (!cache) continue;
    counts.hits += cache->stats().hits;
    counts.misses += cache->stats().misses;
  }
  return counts;
}

CacheCounts SplitCacheCounts(const Bench& bench) {
  CacheCounts counts;
  auto* conn = dynamic_cast<connectors::OcsConnector*>(
      bench.bed->engine().GetConnector(bench.catalog));
  if (conn != nullptr && conn->split_result_cache()) {
    counts.hits = conn->split_result_cache()->stats().hits;
    counts.misses = conn->split_result_cache()->stats().misses;
  }
  return counts;
}

LoopStats RunTimed(Bench& bench, double seconds, double* wall_s) {
  const size_t clients = bench.spec.readers + (bench.spec.writer ? 1 : 0);
  std::vector<LoopStats> per_client(clients);
  std::vector<ReplayCounts> unused(clients);
  std::vector<uint64_t> unused_failures(clients, 0);
  std::atomic<uint64_t> reads_done{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;
    for (size_t c = 0; c < bench.spec.readers; ++c) {
      threads.emplace_back([&, c] {
        ReaderLoop(bench, c, deadline, &reads_done, &per_client[c], nullptr,
                   &unused[c], &unused_failures[c]);
      });
    }
    if (bench.spec.writer) {
      threads.emplace_back([&] {
        WriterLoop(bench, deadline, &reads_done, &per_client.back(), nullptr,
                   0);
      });
    }
  }
  *wall_s = Since(start);
  LoopStats total;
  for (const LoopStats& s : per_client) total.Merge(s);
  return total;
}

TraceResult RunTraced(Bench& bench, double seconds, Tracer* tracer) {
  TraceResult result;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  if (bench.spec.readers == 1 && !bench.spec.writer) {
    TracedRounds(bench, deadline, tracer, &result);
    return result;
  }
  const size_t clients = bench.spec.readers + (bench.spec.writer ? 1 : 0);
  std::vector<LoopStats> per_client(clients);
  std::vector<ReplayCounts> counts(clients);
  std::vector<uint64_t> failures(clients, 0);
  std::atomic<uint64_t> reads_done{0};
  {
    std::vector<std::jthread> threads;
    for (size_t c = 0; c < bench.spec.readers; ++c) {
      threads.emplace_back([&, c] {
        ReaderLoop(bench, c, deadline, &reads_done, &per_client[c], tracer,
                   &counts[c], &failures[c]);
      });
    }
    if (bench.spec.writer) {
      threads.emplace_back([&] {
        WriterLoop(bench, deadline, &reads_done, &per_client.back(), tracer,
                   static_cast<uint32_t>(3 * bench.spec.readers));
      });
    }
  }
  for (size_t c = 0; c < clients; ++c) {
    result.loop.Merge(per_client[c]);
    result.counts.Merge(counts[c]);
    result.replay_failures += failures[c];
  }
  return result;
}

}  // namespace perfbench
