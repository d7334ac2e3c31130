// Selectivity Analyzer — §4 "Local Optimizer" of the paper.
//
// Estimates each candidate operator's data-reduction potential from Hive
// metastore statistics:
//   * range filters: assumes values are distributed between the column's
//     min/max (normal by default, matching the paper; uniform available)
//     and integrates the predicate's pass probability;
//   * aggregations: output cardinality ≈ row_count / NDV(keys) — i.e.
//     estimated groups = Π NDV(key), capped at the row count;
//   * top-N: LIMIT / input rows, exactly known.
// The paper notes the normal-distribution assumption breaks on skewed
// data; tests cover that failure mode, and the distribution is a config
// knob (ablated in bench_report's Selectivity Analyzer ablation).
#pragma once

#include "connector/spi.h"
#include "metastore/metastore.h"
#include "substrait/expr.h"

namespace pocs::connectors {

enum class ValueDistribution : uint8_t { kNormal, kUniform };

struct SelectivityConfig {
  ValueDistribution distribution = ValueDistribution::kNormal;
};

class SelectivityAnalyzer {
 public:
  SelectivityAnalyzer(const metastore::TableInfo& table,
                      SelectivityConfig config)
      : table_(table), config_(config) {}

  // Estimated fraction of input rows a filter keeps (0..1]. Unknown
  // sub-expressions contribute a conservative 1.0.
  double EstimateFilterSelectivity(
      const substrait::Expression& predicate,
      const columnar::Schema& input_schema) const;

  // Estimated output/input row ratio of a grouped aggregation.
  // `input_rows` is the estimated row count flowing into the aggregation.
  double EstimateAggregationSelectivity(
      const std::vector<int>& group_keys,
      const columnar::Schema& input_schema, double input_rows) const;

  // Estimated output/input ratio of a top-N.
  double EstimateTopNSelectivity(int64_t limit, double input_rows) const;

  // P(column <op> literal) for a single comparison from min/max stats;
  // 1.0 when stats are missing.
  double ComparisonSelectivity(const format::ColumnStats& stats,
                               substrait::ScalarFunc op,
                               const columnar::Datum& literal) const;

 private:
  const metastore::TableInfo& table_;
  SelectivityConfig config_;
};

}  // namespace pocs::connectors
