// dbgen-lite: a TPC-H `lineitem` generator faithful to the column domains
// Q1 depends on (paper §5.1):
//   * quantity        — uniform integer 1..50 (stored float64);
//   * extendedprice   — derived price, ~900..104950;
//   * discount        — 0.00..0.10;  tax — 0.00..0.08;
//   * shipdate        — orderdate + 1..121 days over 1992-01-02..1998-08-02,
//     so the Q1 cutoff (1998-12-01 − 90 days = 1998-09-02) keeps ~98–99 %
//     of rows — reproducing the paper's tiny 1.03 % movement reduction
//     under filter-only pushdown;
//   * returnflag/linestatus — per the TPC-H rules: linestatus = 'O' iff
//     shipdate > 1995-06-17 else 'F'; returnflag ∈ {R, A} for rows with
//     receiptdate ≤ 1995-06-17, 'N' otherwise — yielding Q1's 4 groups.
#pragma once

#include "compress/codec.h"
#include "workloads/dataset.h"

namespace pocs::workloads {

struct TpchConfig {
  size_t num_files = 4;
  size_t rows_per_file = 1 << 16;
  size_t rows_per_group = 1 << 14;
  compress::CodecType codec = compress::CodecType::kNone;
  uint64_t seed = 19920101;
};

columnar::SchemaPtr LineitemSchema();

Result<GeneratedDataset> GenerateLineitem(const TpchConfig& config);

// TPC-H Query 1 (paper Table 2).
std::string TpchQ1(const std::string& table = "lineitem");

// TPC-H Query 6 — a second OLAP shape the connector handles well: a
// highly selective multi-predicate filter feeding a single global
// aggregate (forecast revenue change). Complements Q1's "filter keeps
// everything" regime with a "filter crushes everything" one.
std::string TpchQ6(const std::string& table = "lineitem");

// TPC-H Q6 restricted to an orderkey prefix. orderkey is assigned
// monotonically across files, so `orderkey <= max_orderkey` makes
// trailing files — and, within the boundary file, trailing row groups —
// prunable from footer statistics (coordinator split pruning +
// row-group hints, DESIGN.md §13).
std::string TpchSelectiveQuery(const std::string& table = "lineitem",
                               int64_t max_orderkey = 1000);

// A returnflag/quantity filter projecting columns the predicate never
// touches. returnflag is a 3-value string column, so every row group
// stores it dictionary-encoded: the storage node evaluates the string
// conjunct in the code domain and late-materializes only the surviving
// rows' string bytes (DESIGN.md §15). Drives the `dict.*` bench section
// and its dictionary-filter and late-materialization gates.
std::string TpchDictFilterQuery(const std::string& table = "lineitem");

// supplier dimension table for the multi-table workload (DESIGN.md §14).
// Column names are prefixed `s_` because the SQL dialect has no qualified
// references: names must be globally unique across a join's two tables.
// s_suppkey covers 1..num_suppliers — the same domain lineitem's suppkey
// draws from — and s_nationkey = s_suppkey % 25, so a nation filter keeps
// ~1/25 of suppliers and the pushed join-key bloom prunes most fact rows.
struct SupplierConfig {
  size_t num_suppliers = 1000;
  size_t rows_per_group = 1 << 9;
  compress::CodecType codec = compress::CodecType::kNone;
};

columnar::SchemaPtr SupplierSchema();

Result<GeneratedDataset> GenerateSupplier(const SupplierConfig& config);

// Multi-table join shape: dimension filter + fact scan + group-by.
// Aggregate arguments are plain fact columns and the aggregation sits
// directly above the join, so the connector may take both the join-key
// bloom and the storage-side partial phase (`nations` bounds the
// s_nationkey dimension filter).
std::string TpchJoinQuery(const std::string& fact = "lineitem",
                          const std::string& dim = "supplier",
                          int64_t nations = 5);

}  // namespace pocs::workloads
