// Hive-metastore-lite: the catalog of schemas, tables, their object
// layout, and column statistics. In the paper this is Apache Hive 3.0 —
// the connector's Selectivity Analyzer reads min/max, NDV, and row counts
// from here to size up pushdown candidates (§4 "Local Optimizer").
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "columnar/types.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "format/stats.h"

namespace pocs::metastore {

struct TableInfo {
  std::string schema_name;
  std::string table_name;
  columnar::SchemaPtr schema;

  // Physical layout: the table's data objects in the object store.
  std::string bucket;
  std::vector<std::string> objects;

  // Table-level statistics (merged over all objects at registration).
  uint64_t row_count = 0;
  uint64_t total_bytes = 0;  // on-storage (possibly compressed) footprint
  std::vector<format::ColumnStats> column_stats;  // one per schema field
  // One per schema field (empty = unknown, all false): true when the
  // objects' [min, max] ranges of the column are pairwise disjoint and at
  // most one object holds nulls, so each value, null included, lives in
  // exactly one object. Grouping on such a column keeps every group
  // inside one split.
  std::vector<bool> object_disjoint;

  // Stats for a column by name; nullptr if unknown.
  const format::ColumnStats* StatsFor(std::string_view column) const {
    if (!schema) return nullptr;
    int idx = schema->FieldIndex(column);
    if (idx < 0 || static_cast<size_t>(idx) >= column_stats.size()) {
      return nullptr;
    }
    return &column_stats[idx];
  }

  bool ObjectDisjoint(int field) const {
    return field >= 0 && static_cast<size_t>(field) < object_disjoint.size() &&
           object_disjoint[field];
  }
};

class Metastore {
 public:
  Status CreateSchema(const std::string& name);
  bool HasSchema(const std::string& name) const;

  Status RegisterTable(TableInfo info);
  Status DropTable(const std::string& schema_name,
                   const std::string& table_name);
  Result<TableInfo> GetTable(const std::string& schema_name,
                             const std::string& table_name) const;
  Result<std::vector<std::string>> ListTables(
      const std::string& schema_name) const;

 private:
  // Reader/writer lock: the catalog is written once at table-registration
  // time and then read on every split enumeration, so concurrent GetTable
  // calls from planner threads share the lock.
  mutable SharedMutex mu_;
  std::map<std::string, std::map<std::string, TableInfo>> schemas_
      POCS_GUARDED_BY(mu_);
};

}  // namespace pocs::metastore
