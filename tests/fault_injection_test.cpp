// Fault injection and graceful degradation: rpc retry/deadline/backoff
// semantics, and the end-to-end recovery paths — a crashed storage exec
// engine degrades to the engine-side scan (queries still answer
// correctly with the same row counters, listeners see the fallbacks; a
// Hive Select, which runs on the same engine, falls back the same way), a
// dead frontend propagates cleanly, a Hive Select that exhausts its
// retries re-plans as a raw GET with the filter applied compute-side, and
// a Put that lands while the fallback reads the object neither stitches
// two versions nor gets old rows cached as new. A corrupt chunk fails a
// scan that decodes ahead exactly where, and as, the sequential scan
// fails.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/ipc.h"
#include "common/counters.h"
#include "connectors/ocs/ocs_connector.h"
#include "engine/engine.h"
#include "netsim/fault_plan.h"
#include "ocs/cluster.h"
#include "rpc/rpc.h"
#include "workloads/chaos.h"
#include "workloads/concurrent.h"
#include "workloads/laghos.h"
#include "workloads/testbed.h"
#include "workloads/tpch.h"

namespace pocs {
namespace {

using workloads::CanonicalRows;
// ---------------------------------------------------------------------------
// rpc retry semantics
// ---------------------------------------------------------------------------

struct RpcFixture {
  std::shared_ptr<netsim::Network> net;
  netsim::NodeId client_node;
  netsim::NodeId server_node;
  std::shared_ptr<rpc::Server> server;

  explicit RpcFixture(netsim::LinkConfig link = {1e9, 100e-6})
      : net(std::make_shared<netsim::Network>(link)),
        client_node(net->AddNode("client")),
        server_node(net->AddNode("server")),
        server(std::make_shared<rpc::Server>(server_node, "svc")) {}

  rpc::Channel channel() const { return {net, client_node, server}; }
};

TEST(RpcRetry, TransientUnavailableHealsWithinBudget) {
  RpcFixture fx;
  auto calls = std::make_shared<std::atomic<int>>(0);
  fx.server->RegisterMethod("Work", [calls](ByteSpan req) -> Result<Bytes> {
    if (calls->fetch_add(1) < 2) return Status::Unavailable("warming up");
    return Bytes(req.begin(), req.end());
  });
  Bytes req = {9, 8, 7};
  rpc::CallOptions options;
  options.max_attempts = 3;
  auto result =
      fx.channel().Call("Work", ByteSpan(req.data(), req.size()), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->response, req);
  EXPECT_EQ(result->retries, 2u);
  EXPECT_EQ(calls->load(), 3);
  // Backoff waits are folded into the modelled time: two retries must
  // cost at least two half-base waits on top of the wire time.
  EXPECT_GT(result->transfer_seconds, options.backoff_base_seconds);
}

TEST(RpcRetry, BudgetExhaustionReturnsLastError) {
  RpcFixture fx;
  fx.server->RegisterMethod("Down", [](ByteSpan) -> Result<Bytes> {
    return Status::Unavailable("dead");
  });
  rpc::CallOptions options;
  options.max_attempts = 4;
  rpc::CallResult out;
  Status status = fx.channel().CallInto("Down", ByteSpan(), options, &out);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // The cost of the lost attempts is still reported.
  EXPECT_EQ(out.retries, 3u);
  EXPECT_GT(out.transfer_seconds, 0.0);
}

TEST(RpcRetry, NonRetryableErrorsAreNotRetried) {
  RpcFixture fx;
  auto calls = std::make_shared<std::atomic<int>>(0);
  fx.server->RegisterMethod("Bug", [calls](ByteSpan) -> Result<Bytes> {
    calls->fetch_add(1);
    return Status::Internal("application bug");
  });
  rpc::CallOptions options;
  options.max_attempts = 5;
  auto result = fx.channel().Call("Bug", ByteSpan(), options);
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(calls->load(), 1);
}

TEST(RpcRetry, DeadlineExceededOnSlowLink) {
  RpcFixture fx(netsim::LinkConfig{1e9, /*latency=*/1.0});
  fx.server->RegisterMethod("Echo", [](ByteSpan req) -> Result<Bytes> {
    return Bytes(req.begin(), req.end());
  });
  rpc::CallOptions options;
  options.max_attempts = 2;
  options.deadline_seconds = 0.5;  // each attempt needs ~2 s of latency
  rpc::CallResult out;
  Status status = fx.channel().CallInto("Echo", ByteSpan(), options, &out);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(out.retries, 1u);  // deadline misses are retryable
}

TEST(RpcRetry, BackoffIsDeterministicPerSeed) {
  auto run = [](uint64_t jitter_seed) {
    RpcFixture fx;
    fx.server->RegisterMethod("Down", [](ByteSpan) -> Result<Bytes> {
      return Status::Unavailable("dead");
    });
    rpc::CallOptions options;
    options.max_attempts = 4;
    options.jitter_seed = jitter_seed;
    rpc::CallResult out;
    Bytes req = {1, 2, 3};
    (void)fx.channel().CallInto("Down", ByteSpan(req.data(), req.size()),
                                options, &out);
    return out.transfer_seconds;
  };
  EXPECT_EQ(run(5), run(5));     // replays are bit-identical
  EXPECT_NE(run(5), run(6));     // the jitter really is seeded
}

// ---------------------------------------------------------------------------
// end-to-end degradation
// ---------------------------------------------------------------------------

workloads::LaghosConfig SmallLaghos() {
  workloads::LaghosConfig config;
  config.num_files = 3;
  config.rows_per_file = 1 << 12;
  config.rows_per_vertex = 8;
  return config;
}

TEST(FaultInjectionE2E, CrashedStorageExecFallsBackToEngineScan) {
  workloads::Testbed bed;
  auto data = workloads::GenerateLaghos(SmallLaghos());
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(bed.Ingest(std::move(*data)).ok());
  const std::string sql = workloads::LaghosQuery("laghos");

  auto reference = bed.Run(sql, "ocs");
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(reference->metrics.fallbacks, 0u);

  for (size_t i = 0; i < bed.cluster().num_storage_nodes(); ++i) {
    bed.cluster().mutable_storage_node(i).faults().exec_crashed.store(true);
  }
  auto degraded = bed.Run(sql, "ocs");
  ASSERT_TRUE(degraded.ok()) << degraded.status();

  // Same rows, recovered entirely through the engine-side scan.
  EXPECT_EQ(CanonicalRows(*degraded->table), CanonicalRows(*reference->table));
  const auto& m = degraded->metrics;
  EXPECT_EQ(m.fallbacks, m.splits);
  EXPECT_EQ(m.failed_splits, m.splits);
  EXPECT_EQ(m.retries, 2 * m.splits);  // 3 attempts per dispatch
  EXPECT_GT(m.splits, 0u);

  // The rejection trail: PushdownHistory records every exhausted
  // dispatch, and the stats listener sees the fallbacks.
  EXPECT_GE(bed.history().total_offload_rejections(), m.splits);
  auto rejections = bed.history().offload_rejections();
  ASSERT_FALSE(rejections.empty());
  EXPECT_EQ(rejections.back().connector_id, "ocs");
  EXPECT_EQ(rejections.back().code, StatusCode::kUnavailable);
  EXPECT_EQ(bed.stats().last().fallbacks, m.splits);
  EXPECT_EQ(bed.stats().TotalsFor("ocs").fallbacks, m.splits);

  // Un-crash: pushdown resumes, no fallbacks.
  for (size_t i = 0; i < bed.cluster().num_storage_nodes(); ++i) {
    bed.cluster().mutable_storage_node(i).faults().exec_crashed.store(false);
  }
  auto healed = bed.Run(sql, "ocs");
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->metrics.fallbacks, 0u);
}

TEST(FaultInjectionE2E, SlowStorageTripsConnectorDeadline) {
  workloads::TestbedConfig config;
  config.ocs_connector.dispatch.storage_deadline_seconds = 0.25;
  workloads::Testbed bed(config);
  auto data = workloads::GenerateLaghos(SmallLaghos());
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(bed.Ingest(std::move(*data)).ok());
  const std::string sql = workloads::LaghosQuery("laghos");

  auto fast = bed.Run(sql, "ocs");
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->metrics.fallbacks, 0u);

  // Degrade the node: each in-storage execution now reports an extra
  // second of compute, blowing the connector's storage deadline.
  for (size_t i = 0; i < bed.cluster().num_storage_nodes(); ++i) {
    bed.cluster().mutable_storage_node(i).faults().exec_delay_seconds.store(
        1.0);
  }
  auto slow = bed.Run(sql, "ocs");
  ASSERT_TRUE(slow.ok()) << slow.status();
  EXPECT_EQ(CanonicalRows(*slow->table), CanonicalRows(*fast->table));
  EXPECT_EQ(slow->metrics.fallbacks, slow->metrics.splits);
}

TEST(FaultInjectionE2E, CrashedFrontendPropagatesUnavailable) {
  workloads::Testbed bed;
  auto data = workloads::GenerateLaghos(SmallLaghos());
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(bed.Ingest(std::move(*data)).ok());
  const std::string sql = workloads::LaghosQuery("laghos");

  bed.cluster().SetFrontendCrashed(true);
  // No path around a dead frontend: the fallback GET rides through it
  // too, so the query fails — with the transport error, not a crash.
  auto result = bed.Run(sql, "ocs");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);

  bed.cluster().SetFrontendCrashed(false);
  auto recovered = bed.Run(sql, "ocs");
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->metrics.fallbacks, 0u);
}

TEST(FaultInjectionE2E, HiveSelectFallsBackToRawGet) {
  workloads::TestbedConfig config;
  config.hive.call.max_attempts = 2;           // Select: attempts 0–1
  config.hive.fallback_call.max_attempts = 6;  // GET: reaches the heal
  workloads::Testbed bed(config);
  auto data = workloads::GenerateLaghos(SmallLaghos());
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(bed.Ingest(std::move(*data)).ok());
  // A filter the Select API accepts, so the fallback must re-apply it
  // compute-side to honour the pushdown contract.
  const std::string sql =
      "SELECT vertex_id, e FROM laghos WHERE x < 2.0 AND e > 100.0";

  auto reference = bed.Run(sql, "hive");
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(reference->metrics.fallbacks, 0u);

  // Partition compute ↔ frontend until attempt 4: the Select's 2-attempt
  // budget exhausts, the fallback GET's 6-attempt budget heals through.
  auto plan = std::make_shared<netsim::FaultPlan>(11);
  plan->AddRule(netsim::FaultPlan::Partition(
      bed.compute_node(), bed.cluster().frontend_node(),
      /*heal_at_attempt=*/4));
  bed.SetFaultPlan(plan);

  auto degraded = bed.Run(sql, "hive");
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(CanonicalRows(*degraded->table), CanonicalRows(*reference->table));
  EXPECT_EQ(degraded->metrics.fallbacks, degraded->metrics.splits);
  EXPECT_EQ(degraded->metrics.failed_splits, degraded->metrics.splits);
  EXPECT_GT(degraded->metrics.retries, 0u);
}

// The fallback runs the storage node's own scan over the fetched object,
// so losing the exec engine moves the plan, not its answer: every query
// returns the pushed run's rows and row counters — stats, hint and lazy
// pruning, the code-domain filter, late materialization and the join
// bloom included. The row-group cache is off so both runs decode alike;
// the planner's metadata cache is off, then on, which gives the splits
// version-pinned row-group hints.
TEST(FallbackParityTest, CrashedExecMatchesPushedRowsAndRowCounters) {
  for (const uint64_t metadata_cache_bytes : {uint64_t{0}, uint64_t{1} << 20}) {
    SCOPED_TRACE("metadata cache bytes " +
                 std::to_string(metadata_cache_bytes));
    workloads::TestbedConfig config;
    config.cluster.storage.rowgroup_cache_bytes = 0;
    config.ocs_connector.metadata_cache_bytes = metadata_cache_bytes;
    workloads::Testbed bed(config);
    workloads::TpchConfig tpch;
    tpch.num_files = 2;
    tpch.rows_per_file = 8192;
    tpch.rows_per_group = 2048;
    auto fact = workloads::GenerateLineitem(tpch);
    ASSERT_TRUE(fact.ok()) << fact.status();
    ASSERT_TRUE(bed.Ingest(std::move(*fact)).ok());
    auto dim = workloads::GenerateSupplier(workloads::SupplierConfig{});
    ASSERT_TRUE(dim.ok()) << dim.status();
    ASSERT_TRUE(bed.Ingest(std::move(*dim)).ok());

    auto crash_exec = [&bed](bool crashed) {
      for (size_t i = 0; i < bed.cluster().num_storage_nodes(); ++i) {
        bed.cluster().mutable_storage_node(i).faults().exec_crashed.store(
            crashed);
      }
    };
    connector::QueryStats pushed_sum;
    for (const std::string& sql :
         {workloads::TpchQ1(), workloads::TpchSelectiveQuery(),
          workloads::TpchDictFilterQuery(), workloads::TpchJoinQuery()}) {
      SCOPED_TRACE(sql);
      crash_exec(false);
      auto pushed = bed.Run(sql, "ocs");
      ASSERT_TRUE(pushed.ok()) << pushed.status();
      crash_exec(true);
      auto fallback = bed.Run(sql, "ocs");
      ASSERT_TRUE(fallback.ok()) << fallback.status();

      const auto& p = pushed->metrics;
      const auto& f = fallback->metrics;
      pushed_sum += p;
      EXPECT_GT(p.rows_output, 0u);
      EXPECT_EQ(p.fallbacks, 0u);
      EXPECT_GT(f.splits, 0u);
      EXPECT_EQ(f.fallbacks, f.splits);
      EXPECT_EQ(CanonicalRows(*fallback->table),
                CanonicalRows(*pushed->table));
      EXPECT_EQ(f.rows_scanned, p.rows_scanned);
      EXPECT_EQ(f.rows_output, p.rows_output);
      EXPECT_EQ(f.row_groups_total, p.row_groups_total);
      EXPECT_EQ(f.row_groups_skipped, p.row_groups_skipped);
      EXPECT_EQ(f.row_groups_hint_skipped, p.row_groups_hint_skipped);
      EXPECT_EQ(f.row_groups_lazy_skipped, p.row_groups_lazy_skipped);
      EXPECT_EQ(f.rows_dict_filtered, p.rows_dict_filtered);
      EXPECT_EQ(f.rows_late_materialized, p.rows_late_materialized);
      EXPECT_EQ(f.bloom_rows_pruned, p.bloom_rows_pruned);
    }
    // The queries exercise the scan's pruning paths, so the equalities
    // above compare real work, not zeros. Row groups are skipped on their
    // stats without the metadata cache, and on the planner's hint with it.
    if (metadata_cache_bytes == 0) {
      EXPECT_GT(pushed_sum.row_groups_skipped, 0u);
    } else {
      EXPECT_GT(pushed_sum.row_groups_hint_skipped, 0u);
    }
    EXPECT_GT(pushed_sum.rows_dict_filtered, 0u);
    EXPECT_GT(pushed_sum.rows_late_materialized, 0u);
    EXPECT_GT(pushed_sum.bloom_rows_pruned, 0u);
  }
}

// S3 Select runs on the same executor as ExecutePlan, so crashing it
// takes Select down too, and the Hive connector's Select→GET fallback
// runs the very plan the Select carried: every query returns the Select's
// rows and row counters — stats and lazy pruning, the code-domain filter
// and late materialization included.
TEST(SelectParityTest, CrashedExecMatchesSelectRowsAndRowCounters) {
  workloads::Testbed bed;
  workloads::TpchConfig tpch;
  tpch.num_files = 2;
  tpch.rows_per_file = 8192;
  tpch.rows_per_group = 2048;
  auto fact = workloads::GenerateLineitem(tpch);
  ASSERT_TRUE(fact.ok()) << fact.status();
  ASSERT_TRUE(bed.Ingest(std::move(*fact)).ok());
  auto laghos = workloads::GenerateLaghos(SmallLaghos());
  ASSERT_TRUE(laghos.ok()) << laghos.status();
  ASSERT_TRUE(bed.Ingest(std::move(*laghos)).ok());

  auto crash_exec = [&bed](bool crashed) {
    for (size_t i = 0; i < bed.cluster().num_storage_nodes(); ++i) {
      bed.cluster().mutable_storage_node(i).faults().exec_crashed.store(
          crashed);
    }
  };
  connector::QueryStats selected_sum;
  for (const std::string& sql :
       {workloads::TpchQ1(), workloads::TpchQ6(),
        workloads::TpchDictFilterQuery(), workloads::LaghosQuery()}) {
    SCOPED_TRACE(sql);
    crash_exec(false);
    auto selected = bed.Run(sql, "hive");
    ASSERT_TRUE(selected.ok()) << selected.status();
    crash_exec(true);
    auto fallback = bed.Run(sql, "hive");
    crash_exec(false);
    ASSERT_TRUE(fallback.ok()) << fallback.status();

    const auto& p = selected->metrics;
    const auto& f = fallback->metrics;
    selected_sum += p;
    EXPECT_EQ(p.fallbacks, 0u);
    EXPECT_GT(f.splits, 0u);
    EXPECT_EQ(f.fallbacks, f.splits);
    EXPECT_EQ(CanonicalRows(*fallback->table),
              CanonicalRows(*selected->table));
    EXPECT_EQ(f.rows_scanned, p.rows_scanned);
    EXPECT_EQ(f.rows_output, p.rows_output);
    EXPECT_EQ(f.row_groups_total, p.row_groups_total);
    EXPECT_EQ(f.row_groups_skipped, p.row_groups_skipped);
    EXPECT_EQ(f.row_groups_lazy_skipped, p.row_groups_lazy_skipped);
    EXPECT_EQ(f.rows_dict_filtered, p.rows_dict_filtered);
    EXPECT_EQ(f.rows_late_materialized, p.rows_late_materialized);
  }
  // Every filter went to storage and the code-domain filter ran, so the
  // equalities above compare real work, not zeros.
  EXPECT_GT(selected_sum.pushdown_accepted, 0u);
  EXPECT_GT(selected_sum.rows_dict_filtered, 0u);
}

// ---------------------------------------------------------------------------
// A Put that lands while the fallback reads the object (DESIGN.md §9.3)
// ---------------------------------------------------------------------------

// One Laghos object of `rows` rows; the same key for every row count.
Result<workloads::GeneratedDataset> LaghosObject(size_t rows) {
  workloads::LaghosConfig config = SmallLaghos();
  config.num_files = 1;
  config.rows_per_file = rows;
  return workloads::GenerateLaghos(config);
}

// An OCS cluster whose exec engine is down, so every split takes the
// fallback, reached only through a test-side frontend. Its handlers
// forward each call to the cluster's frontend, counting the Gets, and,
// once the first Get has been answered, Put a new version of the object:
// `second_rows` rows where the first had `first_rows`. The "ocs" catalog
// has the split-result cache on.
class PutAfterFirstGet {
 public:
  explicit PutAfterFirstGet(uint64_t fallback_chunk_bytes,
                            size_t first_rows = 1024,
                            size_t second_rows = 2048)
      : net_(std::make_shared<netsim::Network>(netsim::EffectiveS3())),
        cluster_(net_, ocs::ClusterConfig{}),
        metastore_(std::make_shared<metastore::Metastore>()),
        engine_(engine::EngineConfig{}) {
    auto first = LaghosObject(first_rows);
    auto second = LaghosObject(second_rows);
    POCS_CHECK(first.ok() && second.ok());
    POCS_CHECK(first->files.size() == 1 &&
               first->files[0].first == second->files[0].first);
    bucket_ = first->info.bucket;
    key_ = first->files[0].first;
    next_ = std::move(second->files[0].second);
    next_size_ = next_.size();
    POCS_CHECK(cluster_.PutObject(bucket_, key_, first->files[0].second).ok());
    POCS_CHECK(metastore_->CreateSchema("default").ok());
    POCS_CHECK(metastore_->RegisterTable(first->info).ok());
    cluster_.mutable_storage_node(0).faults().exec_crashed.store(true);

    auto frontend = std::make_shared<rpc::Server>(net_->AddNode("test-frontend"),
                                                  "test-frontend");
    for (const char* method : {"ExecutePlan", "Stat", "Get"}) {
      frontend->RegisterMethod(
          method, [this, method](ByteSpan req) -> Result<Bytes> {
            Result<Bytes> response =
                cluster_.frontend_server()->Dispatch(method, req);
            if (std::string_view(method) != "Get") return response;
            ++gets_;
            if (!put_.exchange(true)) {
              POCS_RETURN_NOT_OK(
                  cluster_.PutObject(bucket_, key_, std::move(next_)));
            }
            return response;
          });
    }
    connectors::OcsConnectorConfig config;
    config.split_result_cache_bytes = 8 << 20;
    config.dispatch.fallback_chunk_bytes = fallback_chunk_bytes;
    engine_.RegisterConnector(std::make_shared<connectors::OcsConnector>(
        "ocs", metastore_,
        ocs::OcsClient(
            rpc::Channel(net_, net_->AddNode("compute"), frontend)),
        config));
  }

  // One scan of the table; its one cell is the table's row count.
  Result<engine::QueryResult> Scan() {
    return engine_.Execute("SELECT COUNT(*) FROM laghos", "ocs");
  }
  bool put() const { return put_.load(); }
  uint64_t gets() const { return gets_.load(); }
  uint64_t next_size() const { return next_size_; }

 private:
  std::shared_ptr<netsim::Network> net_;
  ocs::OcsCluster cluster_;
  std::shared_ptr<metastore::Metastore> metastore_;
  engine::QueryEngine engine_;
  std::string bucket_;
  std::string key_;
  Bytes next_;
  uint64_t next_size_ = 0;
  std::atomic<bool> put_{false};
  std::atomic<uint64_t> gets_{0};
};

int64_t RowCount(const engine::QueryResult& result) {
  return result.table->column(0)->GetInt64(0);
}

// One whole-object Get: its rows are cached under the version they were
// read from, so after the Put the next scan misses and reads the new
// version.
TEST(FallbackVersionTest, PutAfterTheGetIsNotServedFromTheSplitCache) {
  PutAfterFirstGet bed(/*fallback_chunk_bytes=*/0);
  auto before = bed.Scan();
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_TRUE(bed.put());
  EXPECT_EQ(RowCount(*before), 1024);
  EXPECT_EQ(before->metrics.fallbacks, 1u);

  auto after = bed.Scan();
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(RowCount(*after), 2048);
  EXPECT_EQ(after->metrics.cache_hits, 0u);
  EXPECT_EQ(after->metrics.fallbacks, 1u);
}

// 4 KiB ranges: the range after the Put reports the new version, so the
// read restarts and the scan sees the new object whole. Each Get reads
// one range: the first version's first range, the range that saw the
// second version, then every range of the second.
TEST(FallbackVersionTest, PutBetweenRangesRestartsTheRead) {
  PutAfterFirstGet bed(/*fallback_chunk_bytes=*/4096);
  auto scan = bed.Scan();
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_TRUE(bed.put());
  EXPECT_EQ(RowCount(*scan), 2048);
  EXPECT_EQ(scan->metrics.fallbacks, 1u);
  EXPECT_EQ(bed.gets(), 2 + (bed.next_size() + 4095) / 4096);

  auto again = bed.Scan();
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(RowCount(*again), 2048);
  EXPECT_EQ(again->metrics.cache_hits, 1u);
}

// 4 KiB ranges over an object that a Put shrinks to 16 rows (2,029
// bytes) after the first range: the second range's offset lies past the
// new object's end, which can only mean a new version, so the read
// restarts and reads the 16-row object in one range. Gets: the first
// version's first range, the range past the end, the new object whole.
TEST(FallbackVersionTest, PutThatShrinksTheObjectRestartsTheRead) {
  PutAfterFirstGet bed(/*fallback_chunk_bytes=*/4096, /*first_rows=*/2048,
                       /*second_rows=*/16);
  ASSERT_LE(bed.next_size(), 4096u);
  auto scan = bed.Scan();
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_TRUE(bed.put());
  EXPECT_EQ(RowCount(*scan), 16);
  EXPECT_EQ(scan->metrics.fallbacks, 1u);
  EXPECT_EQ(bed.gets(), 3u);
}

TEST(FaultInjectionE2E, DeterministicReplaySameSeedSamePlan) {
  auto run = [](uint64_t seed) {
    workloads::ChaosConfig chaos{.profile = "flaky-rpc", .seed = seed};
    auto config = workloads::MakeChaosTestbedConfig(chaos);
    EXPECT_TRUE(config.ok());
    auto bed = std::make_unique<workloads::Testbed>(*config);
    auto data = workloads::GenerateLaghos(SmallLaghos());
    EXPECT_TRUE(data.ok());
    EXPECT_TRUE(bed->Ingest(std::move(*data)).ok());
    EXPECT_TRUE(workloads::ApplyChaos(bed.get(), chaos).ok());
    auto result = bed->Run(workloads::LaghosQuery("laghos"), "ocs");
    EXPECT_TRUE(result.ok());
    struct Fingerprint {
      std::vector<std::string> rows;
      uint64_t bytes, retries, fallbacks, failed;
      bool operator==(const Fingerprint&) const = default;
    };
    return Fingerprint{CanonicalRows(*result->table),
                       result->metrics.bytes_from_storage,
                       result->metrics.retries,
                       result->metrics.fallbacks,
                       result->metrics.failed_splits};
  };
  EXPECT_TRUE(run(3) == run(3));
}

// ---------------------------------------------------------------------------
// read-ahead over corrupt chunks
// ---------------------------------------------------------------------------

columnar::SchemaPtr ReadAheadSchema() {
  return columnar::MakeSchema({{"id", columnar::TypeKind::kInt64},
                               {"x", columnar::TypeKind::kFloat64},
                               {"tag", columnar::TypeKind::kString}});
}

// 16 zs-lite row groups of 256 rows: id = i; x = g + (i % 256) / 512, so
// group g's x lies in [g, g + 0.5); tag cycles through five strings.
Bytes ReadAheadFile() {
  format::WriterOptions options;
  options.codec = compress::CodecType::kZsLite;
  options.rows_per_group = 256;
  format::FileWriter writer(ReadAheadSchema(), options);
  auto id = columnar::MakeColumn(columnar::TypeKind::kInt64);
  auto x = columnar::MakeColumn(columnar::TypeKind::kFloat64);
  auto tag = columnar::MakeColumn(columnar::TypeKind::kString);
  for (int i = 0; i < 16 * 256; ++i) {
    id->AppendInt64(i);
    x->AppendFloat64(i / 256 + (i % 256) / 512.0);
    tag->AppendString("tag" + std::to_string(i % 5));
  }
  EXPECT_TRUE(
      writer.WriteBatch(*columnar::MakeBatch(ReadAheadSchema(), {id, x, tag}))
          .ok());
  auto file = writer.Finish();
  EXPECT_TRUE(file.ok()) << file.status();
  return *file;
}

// `file` with one byte of group `g`'s chunk of column `c` flipped.
Bytes FlipChunkByte(Bytes file, size_t g, int c) {
  auto meta = format::ReadFooter(file);
  EXPECT_TRUE(meta.ok()) << meta.status();
  const format::ChunkMeta& chunk = meta->row_groups[g].chunks[c];
  file[chunk.offset + chunk.length / 2] ^= 0x40;
  return file;
}

std::unique_ptr<substrait::Rel> ReadAheadRead() {
  auto read = std::make_unique<substrait::Rel>();
  read->kind = substrait::RelKind::kRead;
  read->bucket = "data";
  read->object = "obj";
  read->base_schema = ReadAheadSchema();
  return read;
}

substrait::Plan FilterOnX(substrait::ScalarFunc op, double value) {
  substrait::Plan plan;
  auto filter = std::make_unique<substrait::Rel>();
  filter->kind = substrait::RelKind::kFilter;
  filter->input = ReadAheadRead();
  filter->predicate = substrait::Expression::Call(
      op,
      {substrait::Expression::FieldRef(1, columnar::TypeKind::kFloat64),
       substrait::Expression::Literal(columnar::Datum::Float64(value))},
      columnar::TypeKind::kBool);
  plan.root = std::move(filter);
  return plan;
}

std::vector<uint64_t> Counts(const ocs::OcsExecStats& stats) {
  std::vector<uint64_t> counts;
  ForEachCounter(stats, [&](std::string_view, const auto& value) {
    if constexpr (kIsCount<decltype(value)>) counts.push_back(value);
  });
  return counts;
}

// A node (row-group cache off, so every chunk decodes) holding `file`,
// whose scans decode ahead on its pool.
struct CorruptObjectNode {
  explicit CorruptObjectNode(Bytes file)
      : store(std::make_shared<objectstore::ObjectStore>()) {
    EXPECT_TRUE(store->CreateBucket("data").ok());
    EXPECT_TRUE(store->Put("data", "obj", std::move(file)).ok());
    ocs::StorageNodeConfig config;
    config.rowgroup_cache_bytes = 0;
    node = std::make_unique<ocs::StorageNode>(store, config);
  }

  uint64_t version() const {
    auto object = store->GetVersioned("data", "obj");
    EXPECT_TRUE(object.ok());
    return object.ok() ? object->version : 0;
  }

  // The node's answer equals the sequential scan's over the same bytes:
  // the same rows and counts, or the same error.
  void ExpectSequentialOutcome(const substrait::Plan& plan) const {
    auto object = store->GetVersioned("data", "obj");
    ASSERT_TRUE(object.ok()) << object.status();
    ocs::OcsExecStats counts;
    auto expected = ocs::ExecuteOnObject(plan, *object, nullptr, &counts);
    auto got = node->ExecutePlan(plan);
    if (!expected.ok()) {
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.status().code(), expected.status().code());
      EXPECT_EQ(got.status().message(), expected.status().message());
      return;
    }
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(Counts(got->stats), Counts(counts));
    const Bytes ipc = columnar::ipc::SerializeTable(**expected);
    EXPECT_EQ(got->arrow_ipc.span().size(), ipc.size());
    EXPECT_TRUE(std::equal(ipc.begin(), ipc.end(), got->arrow_ipc.data()));
  }

  std::shared_ptr<objectstore::ObjectStore> store;
  std::unique_ptr<ocs::StorageNode> node;
};

// A corrupt chunk in a group the scan skips — on the planner's hint, on
// the chunk statistics, or after the lazy predicate check — fails
// nothing, although the read-ahead may have decoded it; the scan's answer
// is the sequential scan's. In a chunk the scan reads, it fails the plan
// with the sequential scan's Corruption.
TEST(ReadAheadCorruptionTest, FailsOnlyWhereTheSequentialScanFails) {
  const Bytes clean = ReadAheadFile();
  for (int column : {0, 2}) {
    SCOPED_TRACE("corrupt column " + std::to_string(column));
    CorruptObjectNode fx(FlipChunkByte(clean, 5, column));

    substrait::Plan hinted;
    hinted.root = ReadAheadRead();
    for (uint32_t g = 0; g < 16; ++g) {
      if (g != 5) hinted.root->row_group_hint.push_back(g);
    }
    hinted.root->hint_version = fx.version();
    // Stats keep groups 0-4; the lazy check drops group 5, whose x range
    // holds 5.2509765625 but no row equals it.
    substrait::Plan stats_pruned = FilterOnX(substrait::ScalarFunc::kLt, 4.9);
    substrait::Plan lazy_skipped =
        FilterOnX(substrait::ScalarFunc::kEq, 5.2509765625);
    substrait::Plan full;
    full.root = ReadAheadRead();

    for (const substrait::Plan* plan : {&hinted, &stats_pruned, &lazy_skipped}) {
      auto got = fx.node->ExecutePlan(*plan);
      ASSERT_TRUE(got.ok()) << got.status();
      fx.ExpectSequentialOutcome(*plan);
    }
    auto lazy = fx.node->ExecutePlan(lazy_skipped);
    ASSERT_TRUE(lazy.ok());
    EXPECT_EQ(lazy->stats.row_groups_lazy_skipped, 1u);

    auto failed = fx.node->ExecutePlan(full);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kCorruption);
    fx.ExpectSequentialOutcome(full);
  }
}

// A scan that fails on its very first chunk returns while the chunks of
// the next groups are still queued or being decoded; the source cancels
// or waits for each of them (the sanitizer jobs run this).
TEST(ReadAheadCorruptionTest, FirstChunkFailsWhileLaterChunksAreInFlight) {
  CorruptObjectNode fx(FlipChunkByte(ReadAheadFile(), 0, 0));
  substrait::Plan full;
  full.root = ReadAheadRead();
  for (int i = 0; i < 20; ++i) {
    auto got = fx.node->ExecutePlan(full);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().message(), "parquet-lite: chunk checksum mismatch");
  }
  fx.ExpectSequentialOutcome(full);
}

}  // namespace
}  // namespace pocs
