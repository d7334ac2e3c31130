// The Hive connector — the paper's baseline (§2.4): the de-facto standard
// interface between distributed SQL engines and S3-compatible object
// storage. Capabilities are deliberately limited to what the S3 Select
// API offers:
//   * column projection pushdown (the Select's column list),
//   * WHERE-clause filter pushdown (simple conjunctive comparisons only),
//   * row-oriented (CSV) result format — no columnar transfer.
// Aggregation and top-N are never pushed; they run compute-side.
//
// Two modes reproduce the paper's baselines:
//   select_pushdown = false → "no pushdown": whole objects are GET-ed and
//     decoded at the compute node (Fig. 5's leftmost bars);
//   select_pushdown = true  → "filter-only pushdown" via the Select API:
//     each split sends its Read → [Filter] → [Project] plan to the
//     storage node's "Select" method, which runs it with the node's one
//     scan and answers in the OcsResult frame with a CSV payload. The
//     frame's counters and modelled seconds are the split's storage
//     counters, as on the OCS path.
#pragma once

#include <memory>

#include "connector/spi.h"
#include "metastore/metastore.h"
#include "ocs/client.h"

namespace pocs::connectors {

struct HiveConnectorConfig {
  bool select_pushdown = true;
  // Model real S3 Select's lack of double-precision support (§2.2: "S3
  // Select lacks support for double-precision floating-point values,
  // making it unsuitable for scientific domains"). When set, filters
  // touching float64 columns are not pushed and float64 projections fall
  // back to raw GETs. Off by default — the repo's Select API supports
  // doubles, and the paper treats the limitation as a flaw to expose,
  // not behaviour to rely on.
  bool s3_strict_types = false;
  // Retry budget / deadline for Select and GET dispatches.
  rpc::CallOptions call;
  // Options for the degradation path's raw GET: a Select that exhausts
  // its retries with a retryable error re-plans the split as a raw GET
  // and runs the same plan compute-side. Kept separate from `call`: the
  // raw object is much larger than a Select result, so a Select-sized
  // deadline would starve it.
  rpc::CallOptions fallback_call;
};

class HiveConnector final : public connector::Connector {
 public:
  HiveConnector(std::string id,
                std::shared_ptr<metastore::Metastore> metastore,
                ocs::OcsClient client, HiveConnectorConfig config)
      : id_(std::move(id)),
        metastore_(std::move(metastore)),
        client_(std::move(client)),
        config_(config) {}

  std::string id() const override { return id_; }

  Result<connector::TableHandle> GetTableHandle(
      const std::string& schema_name, const std::string& table) override;

  Result<connector::SplitPlan> GetSplits(
      const connector::TableHandle& table,
      const connector::ScanSpec& spec) override;

  Result<bool> OfferPushdown(const connector::TableHandle& table,
                             const connector::PushedOperator& op,
                             connector::ScanSpec* spec,
                             connector::PushdownDecision* decision) override;

  Result<std::unique_ptr<connector::PageSource>> CreatePageSource(
      const connector::TableHandle& table, const connector::Split& split,
      const connector::ScanSpec& spec) override;

 private:
  std::string id_;
  std::shared_ptr<metastore::Metastore> metastore_;
  ocs::OcsClient client_;
  HiveConnectorConfig config_;
};

}  // namespace pocs::connectors
