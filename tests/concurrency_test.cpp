// End-to-end tests for the concurrent multi-tenant tier
// (`ctest -L concurrency`): the seeded driver's determinism contract
// (same seed → bit-identical per-query results AND identical exact
// admission/dispatch counters across two fresh testbeds), correctness
// under throttling against a serial reference, deterministic rejection,
// least-loaded placement spread, engine-internal admission, split
// dispatchers that keep their in-flight state to themselves, and scans
// that decode ahead on a storage node's pool while the object changes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "columnar/ipc.h"
#include "connectors/ocs/split_dispatcher.h"
#include "format/parquet_lite.h"
#include "ocs/storage_node.h"
#include "workloads/chaos.h"
#include "workloads/concurrent.h"
#include "workloads/tpch.h"

namespace pocs::workloads {
namespace {

ConcurrentWorkloadReport MustRun(const ConcurrentWorkloadConfig& config) {
  Testbed bed(MakeConcurrentTestbedConfig(config));
  Status ingest = IngestChaosDatasets(&bed);
  EXPECT_TRUE(ingest.ok()) << ingest.ToString();
  auto report = RunConcurrentWorkload(&bed, config);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return *std::move(report);
}

// The acceptance gate: two testbeds built from scratch in one process,
// same seed — every schedule-deterministic quantity must match exactly.
TEST(ConcurrentWorkload, DeterministicReplay) {
  ConcurrentWorkloadConfig config;
  config.seed = 1337;
  config.num_queries = 24;

  const ConcurrentWorkloadReport a = MustRun(config);
  const ConcurrentWorkloadReport b = MustRun(config);

  EXPECT_EQ(a.result_fingerprint, b.result_fingerprint);
  EXPECT_EQ(a.admission_queued, b.admission_queued);
  EXPECT_EQ(a.admission_admitted, b.admission_admitted);
  EXPECT_EQ(a.admission_rejected, b.admission_rejected);
  EXPECT_EQ(a.rows_total, b.rows_total);
  EXPECT_EQ(a.node_plans, b.node_plans);

  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    EXPECT_EQ(a.outcomes[i].tenant, b.outcomes[i].tenant);
    EXPECT_EQ(a.outcomes[i].query, b.outcomes[i].query);
    EXPECT_EQ(a.outcomes[i].rejected, b.outcomes[i].rejected);
    EXPECT_EQ(a.outcomes[i].rows, b.outcomes[i].rows);
    EXPECT_EQ(a.outcomes[i].row_fingerprint, b.outcomes[i].row_fingerprint);
  }

  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].tenant, b.tenants[i].tenant);
    EXPECT_EQ(a.tenants[i].queries, b.tenants[i].queries);
    EXPECT_EQ(a.tenants[i].admitted, b.tenants[i].admitted);
    EXPECT_EQ(a.tenants[i].rejected, b.tenants[i].rejected);
  }
}

// Throttled, admission-controlled, load-aware execution must not change
// WHAT a query returns — every admitted query's rows equal a serial
// reference run of the same template on a plain testbed.
TEST(ConcurrentWorkload, MatchesSerialReference) {
  // Reference: default testbed (no admission, no dispatcher, round-robin
  // placement, caches as shipped) run one query at a time.
  Testbed reference;
  ASSERT_TRUE(IngestChaosDatasets(&reference).ok());
  std::map<std::string, uint64_t> ref_fingerprint, ref_rows;
  for (const auto& [name, sql] : ChaosQueries()) {
    auto result = reference.Run(sql, "ocs");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ref_rows[name] = result->table->num_rows();
    ref_fingerprint[name] = ResultRowFingerprint(*result->table);
  }

  ConcurrentWorkloadConfig config;
  config.seed = 7;
  config.num_queries = 16;
  const ConcurrentWorkloadReport report = MustRun(config);
  size_t checked = 0;
  for (const QueryOutcome& out : report.outcomes) {
    if (out.rejected) continue;
    SCOPED_TRACE(out.tenant + "/" + out.query);
    EXPECT_EQ(out.rows, ref_rows[out.query]);
    EXPECT_EQ(out.row_fingerprint, ref_fingerprint[out.query]);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

// Rejection outcomes are decided at enqueue time against the paused
// controller, so they are a pure function of the schedule: a one-slot
// queue per tenant accepts exactly one arrival per tenant and rejects
// the rest, every run.
TEST(ConcurrentWorkload, DeterministicRejection) {
  ConcurrentWorkloadConfig config;
  config.seed = 3;
  config.num_queries = 12;
  config.tenants = {
      {.name = "x", .weight = 1, .max_concurrent = 1, .max_queued = 1},
      {.name = "y", .weight = 1, .max_concurrent = 1, .max_queued = 1},
  };
  const ConcurrentWorkloadReport a = MustRun(config);
  EXPECT_EQ(a.admission_queued, 2u);  // one accepted per tenant
  EXPECT_EQ(a.admission_rejected, 10u);
  const ConcurrentWorkloadReport b = MustRun(config);
  EXPECT_EQ(b.admission_rejected, a.admission_rejected);
  EXPECT_EQ(b.result_fingerprint, a.result_fingerprint);
}

// Least-loaded ingest placement + hint-interleaved split ordering must
// actually spread the dispatch load: every storage node serves plans.
TEST(ConcurrentWorkload, LoadAwareDispatchSpreadsAcrossNodes) {
  ConcurrentWorkloadConfig config;
  config.seed = 11;
  config.num_queries = 12;
  const ConcurrentWorkloadReport report = MustRun(config);
  ASSERT_EQ(report.node_plans.size(), 3u);
  EXPECT_GT(report.min_node_plans, 0u)
      << "a storage node served no plans — placement/hints are not "
         "spreading load";
  EXPECT_GE(report.max_node_plans, report.min_node_plans);
  // Every split of every admitted query dispatches exactly once: the
  // per-node totals must sum to the scheduled split count (lineitem has
  // 3 objects, laghos and deepwater 4 each — IngestChaosDatasets).
  uint64_t expected = 0;
  for (const QueryOutcome& out : report.outcomes) {
    if (out.rejected) continue;
    expected += (out.query == "tpch_q1" || out.query == "tpch_q6") ? 3 : 4;
  }
  uint64_t total = 0;
  for (uint64_t n : report.node_plans) total += n;
  EXPECT_EQ(total, expected);
}

// Admission also works without a driver: Execute() with a tenant in the
// options enqueues internally, and the tenant + queue wait land in
// QueryStats for listeners.
TEST(ConcurrentWorkload, EngineInternalAdmission) {
  ConcurrentWorkloadConfig config;
  Testbed bed(MakeConcurrentTestbedConfig(config));
  ASSERT_TRUE(IngestChaosDatasets(&bed).ok());

  engine::QueryOptions options;
  options.tenant = "interactive";
  auto result = bed.engine().Execute(TpchQ6("lineitem"), "ocs", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->table->num_rows(), 0u);
  EXPECT_GE(result->metrics.admission_queue_seconds, 0.0);

  EXPECT_EQ(bed.stats().last().tenant, "interactive");
  const auto snap = bed.engine().admission_controller()->snapshot();
  EXPECT_EQ(snap.queued, 1u);
  EXPECT_EQ(snap.admitted, 1u);
  EXPECT_EQ(snap.running, 0u);  // released when Execute returned
}

using connectors::SplitDispatcher;

// Dispatch(0) on a detached thread; the future holds the granted lease.
// A dispatch that never returns keeps the thread, and the dispatcher it
// shares, alive: the test then fails on its bounded wait instead of
// hanging.
std::future<SplitDispatcher::Lease> DispatchAsync(
    std::shared_ptr<SplitDispatcher> dispatcher) {
  std::promise<SplitDispatcher::Lease> granted;
  std::future<SplitDispatcher::Lease> lease = granted.get_future();
  std::thread([dispatcher = std::move(dispatcher),
               granted = std::move(granted)]() mutable {
    granted.set_value(dispatcher->Dispatch(0));
  }).detach();
  return lease;
}

// Two dispatchers over one node each, one plan in flight per node: each
// throttles only its own leases, and a release wakes its own waiters.
TEST(SplitDispatcherTest, InstancesShareNoInFlightState) {
  using std::chrono::milliseconds;
  connectors::SplitDispatcherConfig config;
  config.max_inflight_per_node = 1;
  auto a = std::make_shared<SplitDispatcher>(config, 1);
  auto b = std::make_shared<SplitDispatcher>(config, 1);

  SplitDispatcher::Lease a_first = a->Dispatch(0);
  auto b_first = DispatchAsync(b);
  ASSERT_EQ(b_first.wait_for(milliseconds(5000)), std::future_status::ready)
      << "B waited on a lease held by A";
  SplitDispatcher::Lease b_lease = b_first.get();

  auto a_second = DispatchAsync(a);
  EXPECT_EQ(a_second.wait_for(milliseconds(100)), std::future_status::timeout)
      << "A dispatched past its own in-flight cap";
  a_first = SplitDispatcher::Lease();  // release A's first lease
  ASSERT_EQ(a_second.wait_for(milliseconds(5000)), std::future_status::ready)
      << "releasing A's lease did not wake A's waiter";
  SplitDispatcher::Lease a_lease = a_second.get();

  EXPECT_EQ(a->NodePlanCounts(), std::vector<uint64_t>{2});
  EXPECT_EQ(b->NodePlanCounts(), std::vector<uint64_t>{1});
}

columnar::SchemaPtr VersionSchema() {
  return columnar::MakeSchema({{"id", columnar::TypeKind::kInt64},
                               {"x", columnar::TypeKind::kFloat64},
                               {"tag", columnar::TypeKind::kString}});
}

// Version `v` of one object: 8 zs-lite row groups of 256 rows, whose
// values all depend on `v`.
Bytes VersionFile(int v) {
  format::WriterOptions options;
  options.codec = compress::CodecType::kZsLite;
  options.rows_per_group = 256;
  format::FileWriter writer(VersionSchema(), options);
  auto id = columnar::MakeColumn(columnar::TypeKind::kInt64);
  auto x = columnar::MakeColumn(columnar::TypeKind::kFloat64);
  auto tag = columnar::MakeColumn(columnar::TypeKind::kString);
  for (int i = 0; i < 8 * 256; ++i) {
    id->AppendInt64(i * (v + 1));
    x->AppendFloat64(((i * (7 + v)) % 100) / 10.0);
    tag->AppendString("v" + std::to_string(v) + "/" + std::to_string(i % 3));
  }
  EXPECT_TRUE(
      writer.WriteBatch(*columnar::MakeBatch(VersionSchema(), {id, x, tag}))
          .ok());
  auto file = writer.Finish();
  EXPECT_TRUE(file.ok()) << file.status();
  return *file;
}

// Four threads run a filter plan against one storage node — its scans
// decode ahead on the node's pool and share its row-group cache — while a
// writer keeps overwriting the object: every answer is the answer over
// one of the object's versions.
TEST(ReadAheadConcurrencyTest, EachAnswerIsOneVersionsAnswer) {
  constexpr int kVersions = 3;
  substrait::Plan plan;
  auto read = std::make_unique<substrait::Rel>();
  read->kind = substrait::RelKind::kRead;
  read->bucket = "data";
  read->object = "obj";
  read->base_schema = VersionSchema();
  plan.root = std::make_unique<substrait::Rel>();
  plan.root->kind = substrait::RelKind::kFilter;
  plan.root->input = std::move(read);
  plan.root->predicate = substrait::Expression::Call(
      substrait::ScalarFunc::kLt,
      {substrait::Expression::FieldRef(1, columnar::TypeKind::kFloat64),
       substrait::Expression::Literal(columnar::Datum::Float64(2.5))},
      columnar::TypeKind::kBool);

  std::vector<Bytes> files;
  std::vector<Bytes> answers;
  for (int v = 0; v < kVersions; ++v) {
    files.push_back(VersionFile(v));
    ocs::OcsExecStats stats;
    auto table = ocs::ExecuteOnObject(
        plan, {std::make_shared<const Bytes>(files.back()), 1}, nullptr,
        &stats);
    ASSERT_TRUE(table.ok()) << table.status();
    answers.push_back(columnar::ipc::SerializeTable(**table));
  }

  auto store = std::make_shared<objectstore::ObjectStore>();
  ASSERT_TRUE(store->CreateBucket("data").ok());
  ASSERT_TRUE(store->Put("data", "obj", files[0]).ok());
  const ocs::StorageNode node(store, ocs::StorageNodeConfig{});

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 1; !done.load(); ++i) {
      EXPECT_TRUE(store->Put("data", "obj", files[i % kVersions]).ok());
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        auto result = node.ExecutePlan(plan);
        if (!result.ok()) {
          ++failures;
          continue;
        }
        const ByteSpan got = result->arrow_ipc.span();
        const bool known = std::any_of(
            answers.begin(), answers.end(), [&](const Bytes& answer) {
              return std::equal(answer.begin(), answer.end(), got.begin(),
                                got.end());
            });
        if (!known) ++mismatches;
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  done = true;
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace pocs::workloads
