// Chaos harness: named fault profiles over the standard testbed, shared
// by the `ctest -L chaos` suite and the CI chaos matrix. Each profile is
// a (testbed tuning, fault set, expected degradation signature) triple:
// the suite runs the paper's workload queries under the profile and
// asserts (a) every query still returns rows identical to a no-fault
// run and (b) the profile's signature showed up in QueryStats (fallbacks
// on profiles that kill in-storage execution, retries on transient ones).
//
// Concurrency: profile construction and the assertions run on one
// thread; all cross-thread state lives behind the annotated mutexes of
// the components under test (network, cluster, caches — DESIGN.md §11),
// so this harness deliberately holds no locks of its own.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "workloads/testbed.h"

namespace pocs::workloads {

struct ChaosConfig {
  // One of ChaosProfiles() or "none" (the fault-free reference).
  std::string profile = "none";
  uint64_t seed = 1;
};

// The CI chaos matrix profiles (excludes "none").
std::vector<std::string> ChaosProfiles();

// The degradation signature a profile must exhibit on every query.
struct ChaosExpectation {
  bool expect_fallbacks = false;  // QueryStats.fallbacks > 0
  bool expect_retries = false;    // QueryStats.retries > 0
  // The chunked fallback and the split cache are on under this profile:
  // chunked reads must keep bytes_refetched_on_retry strictly below the
  // bytes moved, and a repeat scan must be served from the split cache.
  bool expect_cache_effects = false;
  // The planner metadata cache is enabled but the stats RPC is down:
  // split planning must degrade to the unpruned path (splits_pruned == 0,
  // metadata_cache_errors > 0) and never touch result rows.
  bool expect_stats_unavailable = false;
};
Result<ChaosExpectation> ChaosExpectationFor(const std::string& profile);

// Testbed config tuned for the profile: the OCS dispatch policy's retry
// budget / deadlines are set so the fault either heals through retries or
// degrades to the engine-side fallback instead of failing the query.
Result<TestbedConfig> MakeChaosTestbedConfig(const ChaosConfig& config);

// Install the profile's faults on an already-ingested testbed (crash
// switches on storage nodes, a FaultPlan on the network, or both). Call
// AFTER Ingest: ingest traffic is part of the fixture, not the workload
// under test.
Status ApplyChaos(Testbed* bed, const ChaosConfig& config);

// Small fixed-seed cuts of the paper's three datasets (TPC-H lineitem,
// Laghos, Deep Water), identical across testbeds built from the same
// binary — the basis for fault/no-fault equivalence checks.
Status IngestChaosDatasets(Testbed* bed);

// (query name, SQL) pairs over the chaos datasets — the paper's Table 2
// queries plus TPC-H Q6.
std::vector<std::pair<std::string, std::string>> ChaosQueries();

}  // namespace pocs::workloads
