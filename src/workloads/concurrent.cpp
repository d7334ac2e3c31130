#include "workloads/concurrent.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "workloads/chaos.h"

namespace pocs::workloads {

std::vector<std::string> CanonicalRows(const columnar::RecordBatch& batch,
                                       bool order_sensitive,
                                       int float_digits) {
  std::vector<std::string> rows;
  rows.reserve(batch.num_rows());
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      if (c) row += "|";
      const auto& col = *batch.column(c);
      if (col.IsNull(r)) {
        row += "NULL";
      } else if (col.type() == columnar::TypeKind::kFloat64) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.*g", float_digits,
                      col.GetFloat64(r));
        row += buf;
      } else {
        row += col.GetDatum(r).ToString();
      }
    }
    rows.push_back(std::move(row));
  }
  if (!order_sensitive) std::sort(rows.begin(), rows.end());
  return rows;
}

// Canonical rows hashed individually and summed, so two runs whose splits
// merged in different orders still agree (and the rows need no sort).
uint64_t ResultRowFingerprint(const columnar::RecordBatch& batch) {
  uint64_t fp = 0;
  for (const std::string& row :
       CanonicalRows(batch, /*order_sensitive=*/true)) {
    fp += HashString(row);  // wrap-around sum: order-independent
  }
  return fp;
}

namespace {

struct ScheduledQuery {
  size_t index = 0;
  std::string tenant;
  std::string name;
  std::string sql;
};

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

}  // namespace

std::vector<TenantSpec> DefaultTenants() {
  return {
      {.name = "interactive", .weight = 4, .max_concurrent = 2, .max_queued = 8},
      {.name = "batch", .weight = 1, .max_concurrent = 1, .max_queued = 8},
      // Short queue: with the controller paused over a whole schedule,
      // ad-hoc arrivals past 3 waiting are rejected — exercising the
      // rejection path deterministically.
      {.name = "adhoc", .weight = 2, .max_concurrent = 1, .max_queued = 3},
  };
}

TestbedConfig MakeConcurrentTestbedConfig(const ConcurrentWorkloadConfig& cfg) {
  TestbedConfig bed;
  bed.cluster.num_storage_nodes = 3;
  bed.cluster.placement = ocs::PlacementPolicy::kLeastLoaded;
  // Interleaving-dependent cache hits would make the storage-side
  // counters run-dependent; the concurrent tier trades the cache for
  // exact replay.
  bed.cluster.storage.rowgroup_cache_bytes = 0;

  bed.engine.worker_threads = 8;
  bed.engine.max_inflight_splits = 2;
  bed.engine.admission.enabled = true;
  bed.engine.admission.max_concurrent = cfg.global_max_concurrent;
  const std::vector<TenantSpec> tenants =
      cfg.tenants.empty() ? DefaultTenants() : cfg.tenants;
  for (const TenantSpec& t : tenants) {
    bed.engine.admission.groups.push_back({.name = t.name,
                                           .weight = t.weight,
                                           .max_concurrent = t.max_concurrent,
                                           .max_queued = t.max_queued});
  }

  bed.load_aware_dispatch = true;
  bed.dispatcher.max_inflight_per_node = 2;
  return bed;
}

Result<ConcurrentWorkloadReport> RunConcurrentWorkload(
    Testbed* bed, const ConcurrentWorkloadConfig& config) {
  engine::AdmissionController* controller =
      bed->engine().admission_controller();
  if (controller == nullptr) {
    return Status::InvalidArgument(
        "concurrent workload needs admission enabled on the testbed");
  }
  const std::vector<TenantSpec> tenants =
      config.tenants.empty() ? DefaultTenants() : config.tenants;
  if (tenants.empty()) {
    return Status::InvalidArgument("concurrent workload needs tenants");
  }
  const auto templates = ChaosQueries();

  // 1. Seeded arrival schedule: tenant and template drawn per query.
  //    (Explicit modulo, not std::uniform_int_distribution — the draw
  //    sequence must not depend on the standard library.)
  std::mt19937_64 rng(config.seed);
  std::vector<ScheduledQuery> schedule;
  schedule.reserve(config.num_queries);
  for (size_t i = 0; i < config.num_queries; ++i) {
    const TenantSpec& tenant = tenants[rng() % tenants.size()];
    const auto& [name, sql] = templates[rng() % templates.size()];
    schedule.push_back({.index = i, .tenant = tenant.name, .name = name,
                        .sql = sql});
  }

  // 2. Pause, then enqueue the whole schedule on this thread: every
  //    accept/reject decision is made here, sequentially.
  controller->SetPaused(true);
  std::vector<QueryOutcome> outcomes(schedule.size());
  std::vector<std::shared_ptr<engine::AdmissionTicket>> tickets(
      schedule.size());
  for (const ScheduledQuery& q : schedule) {
    outcomes[q.index].tenant = q.tenant;
    outcomes[q.index].query = q.name;
    auto ticket = controller->Enqueue(q.tenant);
    if (!ticket.ok()) {
      if (ticket.status().code() != StatusCode::kUnavailable) {
        controller->SetPaused(false);
        return ticket.status();
      }
      outcomes[q.index].rejected = true;
      continue;
    }
    tickets[q.index] = *std::move(ticket);
  }

  // 3. One runner per accepted query; each blocks on its pre-enqueued
  //    ticket inside Execute until the WFQ policy grants it.
  std::vector<Status> statuses(schedule.size(), Status::OK());
  std::vector<std::thread> runners;
  runners.reserve(schedule.size());
  for (const ScheduledQuery& q : schedule) {
    if (!tickets[q.index]) continue;
    runners.emplace_back([bed, &config, &q, &outcomes, &statuses, &tickets] {
      engine::QueryOptions options;
      options.tenant = q.tenant;
      options.ticket = tickets[q.index];
      auto result = bed->engine().Execute(q.sql, config.catalog, options);
      if (!result.ok()) {
        statuses[q.index] = result.status();
        return;
      }
      QueryOutcome& out = outcomes[q.index];
      out.rows = result->table ? result->table->num_rows() : 0;
      out.row_fingerprint =
          result->table ? ResultRowFingerprint(*result->table) : 0;
      out.sim_seconds = result->metrics.total;
      out.queue_wait_seconds = result->metrics.admission_queue_seconds;
    });
  }
  controller->SetPaused(false);
  for (std::thread& t : runners) t.join();
  for (const Status& s : statuses) POCS_RETURN_NOT_OK(s);

  // 4. Aggregate. Exact quantities come from the controller/dispatcher
  //    (pure functions of the schedule); timing quantiles come from this
  //    run's outcomes.
  ConcurrentWorkloadReport report;
  report.outcomes = std::move(outcomes);

  std::map<std::string, std::vector<double>> tenant_seconds;
  std::map<std::string, std::vector<double>> tenant_waits;
  for (const QueryOutcome& out : report.outcomes) {
    report.result_fingerprint = HashCombine(
        report.result_fingerprint,
        HashString(out.tenant + "|" + out.query +
                   (out.rejected ? "|rejected" : "|ok")));
    report.result_fingerprint = HashCombine(
        report.result_fingerprint,
        HashCombine(out.rows, out.row_fingerprint));
    if (out.rejected) continue;
    report.rows_total += out.rows;
    tenant_seconds[out.tenant].push_back(out.sim_seconds);
    tenant_waits[out.tenant].push_back(out.queue_wait_seconds);
  }

  const auto snapshot = controller->snapshot();
  report.admission_queued = snapshot.queued;
  report.admission_admitted = snapshot.admitted;
  report.admission_rejected = snapshot.rejected;
  for (const auto& group : snapshot.groups) {
    TenantReport t;
    t.tenant = group.tenant;
    t.queries = group.queued + group.rejected;
    t.admitted = group.admitted;
    t.rejected = group.rejected;
    t.p50_seconds = Quantile(tenant_seconds[t.tenant], 0.50);
    t.p95_seconds = Quantile(tenant_seconds[t.tenant], 0.95);
    t.p99_seconds = Quantile(tenant_seconds[t.tenant], 0.99);
    t.queue_wait_p95_seconds = Quantile(tenant_waits[t.tenant], 0.95);
    report.tenants.push_back(std::move(t));
  }

  if (const auto& dispatcher = bed->dispatcher()) {
    report.node_plans = dispatcher->NodePlanCounts();
    if (!report.node_plans.empty()) {
      report.max_node_plans = *std::max_element(report.node_plans.begin(),
                                                report.node_plans.end());
      report.min_node_plans = *std::min_element(report.node_plans.begin(),
                                                report.node_plans.end());
    }
  }
  return report;
}

}  // namespace pocs::workloads
