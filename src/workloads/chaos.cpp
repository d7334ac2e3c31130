#include "workloads/chaos.h"

#include "workloads/deepwater.h"
#include "workloads/laghos.h"
#include "workloads/tpch.h"

namespace pocs::workloads {

std::vector<std::string> ChaosProfiles() {
  return {"crash-storage", "slow-link", "partition", "flaky-rpc",
          "flaky-rpc-cached", "stats-drop", "join-drop"};
}

Result<ChaosExpectation> ChaosExpectationFor(const std::string& profile) {
  // Profiles that take in-storage execution away entirely must recover
  // through the engine-side fallback; transient ones heal via retries
  // and never need it.
  if (profile == "none") return ChaosExpectation{};
  if (profile == "crash-storage") return ChaosExpectation{.expect_fallbacks = true};
  if (profile == "slow-link") return ChaosExpectation{.expect_fallbacks = true};
  if (profile == "partition") return ChaosExpectation{.expect_retries = true};
  if (profile == "flaky-rpc") return ChaosExpectation{};
  if (profile == "flaky-rpc-cached") {
    return ChaosExpectation{.expect_fallbacks = true,
                            .expect_cache_effects = true};
  }
  if (profile == "stats-drop") {
    return ChaosExpectation{.expect_stats_unavailable = true};
  }
  if (profile == "join-drop") {
    // In-storage execution is gone, so pushed join-key blooms and partial
    // aggregations cannot run at storage; every split must recover
    // through the engine-side fallback with identical rows.
    return ChaosExpectation{.expect_fallbacks = true};
  }
  return Status::InvalidArgument("unknown chaos profile: " + profile);
}

Result<TestbedConfig> MakeChaosTestbedConfig(const ChaosConfig& config) {
  TestbedConfig bed;
  bed.cluster.num_storage_nodes = 2;
  connectors::OcsDispatchPolicy& d = bed.ocs_connector.dispatch;
  d.call.jitter_seed = config.seed;
  d.fallback_call.jitter_seed = config.seed + 1;
  if (config.profile == "none" || config.profile == "crash-storage" ||
      config.profile == "join-drop") {
    // Defaults: 3 attempts, no deadline. A crashed exec engine fails all
    // three, then the split re-plans through the fallback.
  } else if (config.profile == "slow-link") {
    // The degraded link blows any reasonable dispatch deadline on the
    // first attempt; retrying a persistently slow link is wasted time,
    // so go straight to the fallback (whose GET has no deadline — the
    // raw object is slow but unavoidable).
    d.call.max_attempts = 1;
    d.call.deadline_seconds = 0.25;
  } else if (config.profile == "partition") {
    // The partition heals at attempt 2; three attempts reach it.
    d.call.max_attempts = 3;
  } else if (config.profile == "flaky-rpc") {
    // Independent 20% drops per leg: six attempts push the residual
    // dispatch-failure probability to ~1e-3, and the fallback catches
    // the stragglers.
    d.call.max_attempts = 6;
    d.fallback_call.max_attempts = 6;
  } else if (config.profile == "flaky-rpc-cached") {
    // In-storage execution is dead (ApplyChaos crashes every exec engine)
    // and the compute↔frontend link drops 20% of messages: every split
    // degrades to the *chunked* fallback, where an rpc-level retry
    // re-requests one lost 16 KiB range instead of the whole object —
    // bytes_refetched_on_retry stays well below the bytes moved. Drops
    // are keyed on request content, so small ranges (many requests per
    // object) make some retries near-certain under every pinned seed.
    // The split-result cache serves repeat scans after a metadata-only
    // revalidation.
    d.call.max_attempts = 1;  // exec is gone; extra attempts are waste
    d.fallback_call.max_attempts = 6;
    d.fallback_chunk_bytes = 16 << 10;
    bed.ocs_connector.split_result_cache_bytes = 64ull << 20;
  } else if (config.profile == "stats-drop") {
    // Split pruning is armed (metadata cache on) but ApplyChaos takes the
    // stats RPC away: every DescribeObject fails, planning must degrade
    // to the unpruned path and the dispatch layer never sees a fault.
    bed.ocs_connector.metadata_cache_bytes = 8ull << 20;
  } else {
    return Status::InvalidArgument("unknown chaos profile: " + config.profile);
  }
  return bed;
}

Status ApplyChaos(Testbed* bed, const ChaosConfig& config) {
  if (config.profile == "none") {
    bed->SetFaultPlan(nullptr);
    return Status::OK();
  }
  if (config.profile == "crash-storage" || config.profile == "join-drop") {
    for (size_t i = 0; i < bed->cluster().num_storage_nodes(); ++i) {
      bed->cluster().mutable_storage_node(i).faults().exec_crashed.store(true);
    }
    return Status::OK();
  }
  if (config.profile == "stats-drop") {
    // Only the stats service goes down; data-path RPCs stay healthy.
    bed->cluster().SetDescribeCrashed(true);
    return Status::OK();
  }
  if (config.profile == "flaky-rpc-cached") {
    // Storage-side execution down AND a lossy link: the query must heal
    // through the chunked fallback alone.
    for (size_t i = 0; i < bed->cluster().num_storage_nodes(); ++i) {
      bed->cluster().mutable_storage_node(i).faults().exec_crashed.store(true);
    }
    auto plan = std::make_shared<netsim::FaultPlan>(config.seed);
    netsim::FaultRule rule = netsim::FaultPlan::Flaky(0.2);
    rule.all_links = false;
    rule.a = bed->compute_node();
    rule.b = bed->cluster().frontend_node();
    plan->AddRule(rule);
    bed->SetFaultPlan(std::move(plan));
    return Status::OK();
  }
  auto plan = std::make_shared<netsim::FaultPlan>(config.seed);
  if (config.profile == "slow-link") {
    plan->AddRule(netsim::FaultPlan::SlowLinks(/*bandwidth_factor=*/0.1,
                                               /*extra_latency_seconds=*/1.0));
  } else if (config.profile == "partition") {
    plan->AddRule(netsim::FaultPlan::Partition(
        bed->compute_node(), bed->cluster().frontend_node(),
        /*heal_at_attempt=*/2));
  } else if (config.profile == "flaky-rpc") {
    // Scope the drops to the compute↔frontend link: the frontend's
    // internal hops always dispatch at attempt 0, so an all-links flaky
    // rule would re-fail them identically on every outer retry (the
    // decision is a pure function of link/flow/attempt) and no retry
    // budget could ever heal it.
    netsim::FaultRule rule = netsim::FaultPlan::Flaky(0.2);
    rule.all_links = false;
    rule.a = bed->compute_node();
    rule.b = bed->cluster().frontend_node();
    plan->AddRule(rule);
  } else {
    return Status::InvalidArgument("unknown chaos profile: " + config.profile);
  }
  bed->SetFaultPlan(std::move(plan));
  return Status::OK();
}

Status IngestChaosDatasets(Testbed* bed) {
  TpchConfig tpch;
  tpch.num_files = 3;
  tpch.rows_per_file = 1 << 12;
  tpch.rows_per_group = 1 << 10;
  POCS_ASSIGN_OR_RETURN(GeneratedDataset lineitem, GenerateLineitem(tpch));
  POCS_RETURN_NOT_OK(bed->Ingest(std::move(lineitem)));

  LaghosConfig laghos;
  laghos.num_files = 4;
  laghos.rows_per_file = 1 << 12;
  laghos.rows_per_group = 1 << 10;
  POCS_ASSIGN_OR_RETURN(GeneratedDataset mesh, GenerateLaghos(laghos));
  POCS_RETURN_NOT_OK(bed->Ingest(std::move(mesh)));

  DeepWaterConfig deepwater;
  deepwater.num_files = 4;
  deepwater.rows_per_file = 1 << 12;
  deepwater.rows_per_group = 1 << 10;
  POCS_ASSIGN_OR_RETURN(GeneratedDataset impact, GenerateDeepWater(deepwater));
  POCS_RETURN_NOT_OK(bed->Ingest(std::move(impact)));

  SupplierConfig supplier;
  supplier.num_suppliers = 500;
  POCS_ASSIGN_OR_RETURN(GeneratedDataset dim, GenerateSupplier(supplier));
  return bed->Ingest(std::move(dim));
}

std::vector<std::pair<std::string, std::string>> ChaosQueries() {
  // Existing indices are load-bearing for seeded replay tests: only
  // append at the end.
  return {
      {"tpch_q1", TpchQ1("lineitem")},
      {"tpch_q6", TpchQ6("lineitem")},
      {"laghos", LaghosQuery("laghos")},
      {"deepwater", DeepWaterQuery("deepwater")},
      {"tpch_join", TpchJoinQuery("lineitem", "supplier")},
  };
}

}  // namespace pocs::workloads
