// Tests for the connectors: the Select-API predicate decomposition
// (ocs::CollectPruningTerms, shared with stats pruning) and capability
// limits, the Presto-OCS connector's Selectivity Analyzer (distribution
// assumptions, NDV-based aggregation estimates, threshold behaviour), the
// ScanSpec→Substrait translator, and the pushdown history monitor.
#include <gtest/gtest.h>

#include "connectors/hive/hive_connector.h"
#include "connectors/ocs/ocs_connector.h"
#include "connectors/ocs/pushdown_history.h"
#include "connectors/ocs/selectivity_analyzer.h"
#include "connectors/ocs/sql_reconstruction.h"
#include "connectors/ocs/translator.h"
#include "engine/two_phase.h"
#include "ocs/storage_node.h"
#include "sql/parser.h"
#include "workloads/laghos.h"

namespace pocs::connectors {
namespace {

using columnar::Datum;
using columnar::TypeKind;
using connector::PushedOperator;
using connector::ScanSpec;
using connector::TableHandle;
using substrait::AggFunc;
using substrait::Expression;
using substrait::ScalarFunc;

Expression Cmp(ScalarFunc op, int field, TypeKind type, Datum lit) {
  return Expression::Call(op,
                          {Expression::FieldRef(field, type),
                           Expression::Literal(std::move(lit))},
                          TypeKind::kBool);
}

columnar::SchemaPtr XySchema() {
  return columnar::MakeSchema(
      {{"x", TypeKind::kFloat64}, {"y", TypeKind::kFloat64}});
}

TEST(HiveDecomposeTest, ConjunctiveComparisonsAccepted) {
  auto pred = Expression::Call(
      ScalarFunc::kAnd,
      {Cmp(ScalarFunc::kGe, 0, TypeKind::kFloat64, Datum::Float64(0.8)),
       Cmp(ScalarFunc::kLe, 1, TypeKind::kFloat64, Datum::Float64(3.2))},
      TypeKind::kBool);
  std::vector<objectstore::SelectPredicate> terms;
  ASSERT_TRUE(ocs::CollectPruningTerms(pred, *XySchema(), &terms));
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_EQ(terms[0].column, "x");
  EXPECT_EQ(terms[0].op, columnar::CompareOp::kGe);
  EXPECT_EQ(terms[1].column, "y");
}

TEST(HiveDecomposeTest, FlippedLiteralSideNormalized) {
  // 5.0 < x  ≡  x > 5.0
  auto pred = Expression::Call(
      ScalarFunc::kLt,
      {Expression::Literal(Datum::Float64(5.0)),
       Expression::FieldRef(0, TypeKind::kFloat64)},
      TypeKind::kBool);
  std::vector<objectstore::SelectPredicate> terms;
  ASSERT_TRUE(ocs::CollectPruningTerms(pred, *XySchema(), &terms));
  EXPECT_EQ(terms[0].op, columnar::CompareOp::kGt);
}

TEST(HiveDecomposeTest, DisjunctionRejected) {
  auto pred = Expression::Call(
      ScalarFunc::kOr,
      {Cmp(ScalarFunc::kGt, 0, TypeKind::kFloat64, Datum::Float64(1)),
       Cmp(ScalarFunc::kLt, 1, TypeKind::kFloat64, Datum::Float64(2))},
      TypeKind::kBool);
  std::vector<objectstore::SelectPredicate> terms;
  EXPECT_FALSE(ocs::CollectPruningTerms(pred, *XySchema(), &terms));
}

TEST(HiveDecomposeTest, ArithmeticOperandRejected) {
  // (x + 1) > 2 is not a simple column comparison.
  auto pred = Expression::Call(
      ScalarFunc::kGt,
      {Expression::Call(ScalarFunc::kAdd,
                        {Expression::FieldRef(0, TypeKind::kFloat64),
                         Expression::Literal(Datum::Float64(1))},
                        TypeKind::kFloat64),
       Expression::Literal(Datum::Float64(2))},
      TypeKind::kBool);
  std::vector<objectstore::SelectPredicate> terms;
  EXPECT_FALSE(ocs::CollectPruningTerms(pred, *XySchema(), &terms));
}

TEST(HiveDecomposeTest, PartialConjunctionStillCollectsTerms) {
  // x >= 0.8 AND (x + 1) > 2 AND y < 3.2: the middle conjunct is not a
  // term, so the Select API cannot take the filter, but pruning still
  // gets the other two.
  auto pred = Expression::Call(
      ScalarFunc::kAnd,
      {Expression::Call(
           ScalarFunc::kAnd,
           {Cmp(ScalarFunc::kGe, 0, TypeKind::kFloat64, Datum::Float64(0.8)),
            Expression::Call(
                ScalarFunc::kGt,
                {Expression::Call(ScalarFunc::kAdd,
                                  {Expression::FieldRef(0, TypeKind::kFloat64),
                                   Expression::Literal(Datum::Float64(1))},
                                  TypeKind::kFloat64),
                 Expression::Literal(Datum::Float64(2))},
                TypeKind::kBool)},
           TypeKind::kBool),
       Cmp(ScalarFunc::kLt, 1, TypeKind::kFloat64, Datum::Float64(3.2))},
      TypeKind::kBool);
  std::vector<objectstore::SelectPredicate> terms;
  EXPECT_FALSE(ocs::CollectPruningTerms(pred, *XySchema(), &terms));
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_EQ(terms[0].column, "x");
  EXPECT_EQ(terms[0].op, columnar::CompareOp::kGe);
  EXPECT_EQ(terms[1].column, "y");
  EXPECT_EQ(terms[1].op, columnar::CompareOp::kLt);
}

// ---- selectivity analyzer ---------------------------------------------------

metastore::TableInfo StatsTable(double min, double max, uint64_t ndv,
                                uint64_t rows) {
  metastore::TableInfo info;
  info.schema = XySchema();
  info.row_count = rows;
  format::ColumnStats stats;
  stats.min = Datum::Float64(min);
  stats.max = Datum::Float64(max);
  stats.ndv = ndv;
  stats.row_count = rows;
  info.column_stats = {stats, stats};
  return info;
}

TEST(SelectivityTest, UniformRangeEstimate) {
  auto info = StatsTable(0.0, 4.0, 1000, 10000);
  SelectivityAnalyzer analyzer(info, {ValueDistribution::kUniform});
  // x <= 1.0 over U(0,4): 25%.
  auto pred = Cmp(ScalarFunc::kLe, 0, TypeKind::kFloat64, Datum::Float64(1.0));
  EXPECT_NEAR(analyzer.EstimateFilterSelectivity(pred, *info.schema), 0.25,
              1e-9);
  // x >= 3.0: 25%.
  pred = Cmp(ScalarFunc::kGe, 0, TypeKind::kFloat64, Datum::Float64(3.0));
  EXPECT_NEAR(analyzer.EstimateFilterSelectivity(pred, *info.schema), 0.25,
              1e-9);
}

TEST(SelectivityTest, NormalAssumptionConcentratesMass) {
  auto info = StatsTable(0.0, 4.0, 1000, 10000);
  SelectivityAnalyzer normal(info, {ValueDistribution::kNormal});
  SelectivityAnalyzer uniform(info, {ValueDistribution::kUniform});
  // Mid-range band [1.5, 2.5] holds more mass under the normal assumption.
  auto band = Expression::Call(
      ScalarFunc::kAnd,
      {Cmp(ScalarFunc::kGe, 0, TypeKind::kFloat64, Datum::Float64(1.5)),
       Cmp(ScalarFunc::kLe, 0, TypeKind::kFloat64, Datum::Float64(2.5))},
      TypeKind::kBool);
  EXPECT_GT(normal.EstimateFilterSelectivity(band, *info.schema),
            uniform.EstimateFilterSelectivity(band, *info.schema));
  // The paper's known limitation: on skewed data (mass near min) the
  // normal assumption badly overestimates a tail predicate — document by
  // construction: P(x >= 3.9) estimated ≈ tiny even if the real data were
  // all at 3.95.
  auto tail = Cmp(ScalarFunc::kGe, 0, TypeKind::kFloat64, Datum::Float64(3.9));
  EXPECT_LT(normal.EstimateFilterSelectivity(tail, *info.schema), 0.01);
}

TEST(SelectivityTest, ConjunctionMultipliesDisjunctionAdds) {
  auto info = StatsTable(0.0, 1.0, 100, 1000);
  SelectivityAnalyzer analyzer(info, {ValueDistribution::kUniform});
  auto half_x = Cmp(ScalarFunc::kLe, 0, TypeKind::kFloat64, Datum::Float64(0.5));
  auto half_y = Cmp(ScalarFunc::kLe, 1, TypeKind::kFloat64, Datum::Float64(0.5));
  auto both = Expression::Call(ScalarFunc::kAnd, {half_x, half_y},
                               TypeKind::kBool);
  EXPECT_NEAR(analyzer.EstimateFilterSelectivity(both, *info.schema), 0.25,
              1e-9);
  auto either = Expression::Call(ScalarFunc::kOr, {half_x, half_y},
                                 TypeKind::kBool);
  EXPECT_NEAR(analyzer.EstimateFilterSelectivity(either, *info.schema), 0.75,
              1e-9);
}

TEST(SelectivityTest, EqualityUsesNdv) {
  auto info = StatsTable(0.0, 1.0, 200, 1000);
  SelectivityAnalyzer analyzer(info, {});
  auto eq = Cmp(ScalarFunc::kEq, 0, TypeKind::kFloat64, Datum::Float64(0.5));
  EXPECT_NEAR(analyzer.EstimateFilterSelectivity(eq, *info.schema), 1.0 / 200,
              1e-9);
}

TEST(SelectivityTest, MissingStatsAreConservative) {
  metastore::TableInfo info;
  info.schema = XySchema();
  info.row_count = 1000;
  info.column_stats.resize(2);  // null min/max, ndv 0
  SelectivityAnalyzer analyzer(info, {});
  auto pred = Cmp(ScalarFunc::kLe, 0, TypeKind::kFloat64, Datum::Float64(1.0));
  EXPECT_EQ(analyzer.EstimateFilterSelectivity(pred, *info.schema), 1.0);
  EXPECT_EQ(analyzer.EstimateAggregationSelectivity({0}, *info.schema, 1000),
            1.0);
}

TEST(SelectivityTest, AggregationCardinalityFromNdv) {
  auto info = StatsTable(0, 1, 50, 10000);
  SelectivityAnalyzer analyzer(info, {});
  // 50 groups over 10000 rows.
  EXPECT_NEAR(analyzer.EstimateAggregationSelectivity({0}, *info.schema, 10000),
              0.005, 1e-9);
  // Two keys: 50 × 50 = 2500 groups.
  EXPECT_NEAR(
      analyzer.EstimateAggregationSelectivity({0, 1}, *info.schema, 10000),
      0.25, 1e-9);
  // Global aggregate: single row.
  EXPECT_NEAR(analyzer.EstimateAggregationSelectivity({}, *info.schema, 10000),
              1e-4, 1e-12);
}

TEST(SelectivityTest, CappedNdvTreatedAsHighCardinality) {
  auto info = StatsTable(0, 1, 1 << 16, 100000);
  info.column_stats[0].ndv_capped = true;
  SelectivityAnalyzer analyzer(info, {});
  EXPECT_NEAR(
      analyzer.EstimateAggregationSelectivity({0}, *info.schema, 100000), 1.0,
      1e-9);
}

TEST(SelectivityTest, TopNExact) {
  auto info = StatsTable(0, 1, 10, 1000);
  SelectivityAnalyzer analyzer(info, {});
  EXPECT_NEAR(analyzer.EstimateTopNSelectivity(100, 10000), 0.01, 1e-12);
  EXPECT_EQ(analyzer.EstimateTopNSelectivity(100, 50), 1.0);
}

// ---- translator ------------------------------------------------------------

TableHandle LaghosHandle() {
  TableHandle handle;
  handle.info.schema = workloads::LaghosSchema();
  handle.info.bucket = "hpc";
  handle.info.row_count = 1000;
  handle.info.column_stats.resize(10);
  return handle;
}

TEST(TranslatorTest, FilterAggTopnPipeline) {
  TableHandle table = LaghosHandle();
  connector::Split split{"hpc", "laghos/part-0"};
  ScanSpec spec;
  spec.columns = {0, 1, 4};  // vertex_id, x, e
  spec.output_schema = columnar::MakeSchema({{"vertex_id", TypeKind::kInt64},
                                             {"x", TypeKind::kFloat64},
                                             {"e", TypeKind::kFloat64}});
  PushedOperator filter;
  filter.kind = PushedOperator::Kind::kFilter;
  filter.predicate =
      Cmp(ScalarFunc::kGe, 1, TypeKind::kFloat64, Datum::Float64(0.8));
  spec.operators.push_back(filter);

  PushedOperator agg;
  agg.kind = PushedOperator::Kind::kPartialAggregation;
  agg.group_keys = {0};
  agg.aggregates = engine::PartialAggSpecs(
      {{AggFunc::kAvg, Expression::FieldRef(2, TypeKind::kFloat64), "e"}});
  spec.operators.push_back(agg);

  PushedOperator topn;
  topn.kind = PushedOperator::Kind::kPartialTopN;
  topn.sort_fields = {{1, true, true}};  // original agg output col "e"
  topn.limit = 10;
  spec.operators.push_back(topn);

  auto plan = TranslateScanSpec(table, split, spec);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Read -> Filter -> Aggregate -> Project(aux) -> Sort -> Fetch -> Project
  // (the pushed aggregation is the storage-side partial phase)
  EXPECT_EQ(substrait::PlanToString(*plan),
            "Read(hpc/laghos/part-0) -> Filter -> Aggregate(partial) -> "
            "Project -> Sort -> Fetch -> Project");
  // The plan's final schema is the canonical partial schema.
  auto schema = substrait::OutputSchema(*plan->root);
  ASSERT_TRUE(schema.ok());
  ASSERT_EQ((*schema)->num_fields(), 3u);
  EXPECT_EQ((*schema)->field(0).name, "vertex_id");
  EXPECT_EQ((*schema)->field(1).name, "e$sum");
  EXPECT_EQ((*schema)->field(2).name, "e$cnt");
  // Serialization roundtrip of the full translated plan.
  Bytes wire = substrait::SerializePlan(*plan);
  EXPECT_TRUE(substrait::DeserializePlan(ByteSpan(wire.data(), wire.size()))
                  .ok());
}

TEST(TranslatorTest, TopNWithoutAggSortsRawRows) {
  TableHandle table = LaghosHandle();
  ScanSpec spec;
  spec.columns = {1};
  spec.output_schema = columnar::MakeSchema({{"x", TypeKind::kFloat64}});
  PushedOperator topn;
  topn.kind = PushedOperator::Kind::kPartialTopN;
  topn.sort_fields = {{0, false, true}};
  topn.limit = 5;
  spec.operators.push_back(topn);
  auto plan = TranslateScanSpec(table, {"hpc", "laghos/part-0"}, spec);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(substrait::PlanToString(*plan),
            "Read(hpc/laghos/part-0) -> Sort -> Fetch");
}

TEST(TranslatorTest, MissingLimitRejected) {
  TableHandle table = LaghosHandle();
  ScanSpec spec;
  spec.output_schema = table.info.schema;
  PushedOperator topn;
  topn.kind = PushedOperator::Kind::kPartialTopN;
  topn.sort_fields = {{0, true, true}};
  topn.limit = -1;
  spec.operators.push_back(topn);
  EXPECT_FALSE(TranslateScanSpec(table, {"hpc", "o"}, spec).ok());
}

// ---- SQL reconstruction (§4) -------------------------------------------------

TEST(SqlReconstructionTest, FullPipelineReconstructsAndReparses) {
  TableHandle table = LaghosHandle();
  table.info.table_name = "laghos";
  ScanSpec spec;
  spec.columns = {0, 1, 4};  // vertex_id, x, e
  spec.output_schema = columnar::MakeSchema({{"vertex_id", TypeKind::kInt64},
                                             {"x", TypeKind::kFloat64},
                                             {"e", TypeKind::kFloat64}});
  PushedOperator filter;
  filter.kind = PushedOperator::Kind::kFilter;
  filter.predicate =
      Cmp(ScalarFunc::kGe, 1, TypeKind::kFloat64, Datum::Float64(0.8));
  spec.operators.push_back(filter);
  PushedOperator agg;
  agg.kind = PushedOperator::Kind::kPartialAggregation;
  agg.group_keys = {0};
  agg.aggregates = engine::PartialAggSpecs(
      {{AggFunc::kAvg, Expression::FieldRef(2, TypeKind::kFloat64), "e"},
       {AggFunc::kMin, Expression::FieldRef(1, TypeKind::kFloat64), "mx"}});
  spec.operators.push_back(agg);
  PushedOperator topn;
  topn.kind = PushedOperator::Kind::kPartialTopN;
  topn.sort_fields = {{1, true, true}};  // original agg output "e"
  topn.limit = 10;
  spec.operators.push_back(topn);

  auto sql = ReconstructSql(table, spec);
  ASSERT_TRUE(sql.ok()) << sql.status();
  // The statement must parse with the repo's own SQL parser (modulo the
  // $-suffixed partial aliases, which are valid identifiers here).
  auto reparsed = sql::ParseQuery(*sql);
  ASSERT_TRUE(reparsed.ok()) << *sql << "\n" << reparsed.status();
  EXPECT_EQ(reparsed->table_name, "laghos");
  EXPECT_NE(sql->find("WHERE (x >= 0.8)"), std::string::npos) << *sql;
  EXPECT_NE(sql->find("GROUP BY vertex_id"), std::string::npos) << *sql;
  EXPECT_NE(sql->find("ORDER BY e"), std::string::npos) << *sql;
  EXPECT_NE(sql->find("LIMIT 10"), std::string::npos) << *sql;
  // The reconstructed statement shows the PARTIAL decomposition actually
  // shipped to storage: avg(e) appears as its sum/count pair.
  EXPECT_NE(sql->find("sum(e) AS e$sum"), std::string::npos) << *sql;
  EXPECT_NE(sql->find("count(e) AS e$cnt"), std::string::npos) << *sql;
}

TEST(SqlReconstructionTest, FilterOnlyWithResultProjection) {
  TableHandle table = LaghosHandle();
  table.info.table_name = "laghos";
  ScanSpec spec;
  spec.columns = {0, 1};
  spec.output_schema = columnar::MakeSchema(
      {{"vertex_id", TypeKind::kInt64}});
  spec.result_columns = {0};  // drop the filter column x
  PushedOperator filter;
  filter.kind = PushedOperator::Kind::kFilter;
  filter.predicate =
      Cmp(ScalarFunc::kLt, 1, TypeKind::kFloat64, Datum::Float64(1.0));
  spec.operators.push_back(filter);
  auto sql = ReconstructSql(table, spec);
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_EQ(*sql, "SELECT vertex_id FROM laghos WHERE (x < 1)");
}

TEST(SqlReconstructionTest, LimitOnly) {
  TableHandle table = LaghosHandle();
  table.info.table_name = "laghos";
  ScanSpec spec;
  spec.columns = {0};
  spec.output_schema =
      columnar::MakeSchema({{"vertex_id", TypeKind::kInt64}});
  PushedOperator limit;
  limit.kind = PushedOperator::Kind::kPartialLimit;
  limit.limit = 42;
  spec.operators.push_back(limit);
  auto sql = ReconstructSql(table, spec);
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(*sql, "SELECT vertex_id FROM laghos LIMIT 42");
}

// ---- pushdown history --------------------------------------------------------

connector::QueryEvent Event(bool accepted, uint64_t bytes) {
  connector::QueryEvent event;
  connector::PushdownDecision d;
  d.kind = PushedOperator::Kind::kPartialAggregation;
  d.accepted = accepted;
  event.stats.pushdown_decisions = {d};
  event.stats.bytes_from_storage = bytes;
  return event;
}

TEST(PushdownHistoryTest, SlidingWindowAndRates) {
  PushdownHistory history(3);
  history.QueryCompleted(Event(true, 100));
  history.QueryCompleted(Event(false, 200));
  history.QueryCompleted(Event(true, 300));
  EXPECT_EQ(history.window_size(), 3u);
  auto stats = history.StatsFor(PushedOperator::Kind::kPartialAggregation);
  EXPECT_EQ(stats.offered, 3u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_NEAR(history.AverageBytesFromStorage(), 200.0, 1e-9);
  // Fourth event evicts the first (an accepted one).
  history.QueryCompleted(Event(false, 400));
  EXPECT_EQ(history.window_size(), 3u);
  stats = history.StatsFor(PushedOperator::Kind::kPartialAggregation);
  EXPECT_EQ(stats.offered, 3u);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_NEAR(stats.accept_rate(), 1.0 / 3.0, 1e-9);
}

TEST(PushdownHistoryTest, EmptyHistory) {
  PushdownHistory history;
  EXPECT_EQ(history.window_size(), 0u);
  EXPECT_EQ(history.AverageBytesFromStorage(), 0.0);
  EXPECT_EQ(history.StatsFor(PushedOperator::Kind::kFilter).offered, 0u);
}

}  // namespace
}  // namespace pocs::connectors
