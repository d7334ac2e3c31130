// Tests for the engine's planning layers: analyzer plan shapes (paper
// Table 2), column pruning, two-phase aggregation decomposition, and the
// connector-local optimizer negotiation with a scripted mock connector.
#include <gtest/gtest.h>

#include "engine/analyzer.h"
#include "engine/optimizer.h"
#include "engine/two_phase.h"
#include "sql/parser.h"
#include "workloads/deepwater.h"
#include "workloads/laghos.h"
#include "workloads/tpch.h"

namespace pocs::engine {
namespace {

using columnar::TypeKind;
using connector::PushedOperator;
using substrait::AggFunc;
using substrait::AggregateSpec;
using substrait::Expression;

connector::TableHandle LaghosHandle() {
  connector::TableHandle handle;
  handle.connector_id = "test";
  handle.info.schema_name = "default";
  handle.info.table_name = "laghos";
  handle.info.bucket = "hpc";
  handle.info.schema = workloads::LaghosSchema();
  handle.info.objects = {"laghos/part-0", "laghos/part-1"};
  handle.info.row_count = 1000;
  handle.info.column_stats.resize(handle.info.schema->num_fields());
  return handle;
}

connector::TableHandle DeepWaterHandle() {
  connector::TableHandle handle;
  handle.connector_id = "test";
  handle.info.schema = workloads::DeepWaterSchema();
  handle.info.table_name = "deepwater";
  handle.info.objects = {"deepwater/ts-0"};
  handle.info.row_count = 1000;
  handle.info.column_stats.resize(4);
  return handle;
}

connector::TableHandle TpchHandle() {
  connector::TableHandle handle;
  handle.connector_id = "test";
  handle.info.schema = workloads::LineitemSchema();
  handle.info.table_name = "lineitem";
  handle.info.objects = {"lineitem/part-0"};
  handle.info.row_count = 1000;
  handle.info.column_stats.resize(handle.info.schema->num_fields());
  return handle;
}

PlanNodePtr Analyze(const std::string& sql,
                    const connector::TableHandle& handle) {
  auto query = sql::ParseQuery(sql);
  EXPECT_TRUE(query.ok()) << query.status();
  auto plan = AnalyzeQuery(*query, handle);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return plan.ok() ? *plan : nullptr;
}

TEST(AnalyzerTest, LaghosPlanShapeMatchesPaper) {
  auto plan = Analyze(workloads::LaghosQuery(), LaghosHandle());
  ASSERT_NE(plan, nullptr);
  // Table 2: TableScan → Filter → Aggregation → Top-N (+ output project).
  EXPECT_EQ(PlanChainToString(*plan),
            "TableScan -> Filter -> Aggregation -> TopN -> Project(identity)");
}

TEST(AnalyzerTest, DeepWaterPlanShapeMatchesPaper) {
  auto plan = Analyze(workloads::DeepWaterQuery(), DeepWaterHandle());
  ASSERT_NE(plan, nullptr);
  // Table 2: TableScan → Filter → Project → Aggregation.
  EXPECT_EQ(PlanChainToString(*plan),
            "TableScan -> Filter -> Project -> Aggregation -> "
            "Project(identity)");
}

TEST(AnalyzerTest, TpchQ1PlanShapeMatchesPaper) {
  auto plan = Analyze(workloads::TpchQ1(), TpchHandle());
  ASSERT_NE(plan, nullptr);
  // Table 2: TableScan → Filter → Project → Aggregation → Sort.
  EXPECT_EQ(PlanChainToString(*plan),
            "TableScan -> Filter -> Project -> Aggregation -> Sort -> "
            "Project(identity)");
}

TEST(AnalyzerTest, OutputSchemaUsesAliases) {
  auto plan = Analyze(workloads::LaghosQuery(), LaghosHandle());
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->output_schema->field(0).name, "vid");
  EXPECT_EQ(plan->output_schema->field(4).name, "e");
  EXPECT_EQ(plan->output_schema->field(4).type, TypeKind::kFloat64);
}

TEST(AnalyzerTest, NonAggregateSelect) {
  auto plan = Analyze("SELECT x, vertex_id FROM laghos WHERE e > 10",
                      LaghosHandle());
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(PlanChainToString(*plan),
            "TableScan -> Filter -> Project(identity)");
  EXPECT_EQ(plan->output_schema->field(0).name, "x");
}

TEST(AnalyzerTest, ErrorsOnBadQueries) {
  auto handle = LaghosHandle();
  auto q = sql::ParseQuery("SELECT nope FROM laghos");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(AnalyzeQuery(*q, handle).ok());
  // Non-grouped bare column in an aggregate query.
  q = sql::ParseQuery("SELECT x, min(e) FROM laghos GROUP BY vertex_id");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(AnalyzeQuery(*q, handle).ok());
  // ORDER BY unknown column.
  q = sql::ParseQuery("SELECT x FROM laghos ORDER BY nope");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(AnalyzeQuery(*q, handle).ok());
}

TEST(AnalyzerTest, LowerExpressionConstantFoldsDateArithmetic) {
  auto ast = sql::ParseExpression("DATE '1998-12-01' - INTERVAL '90' DAY");
  ASSERT_TRUE(ast.ok());
  columnar::Schema empty{std::vector<columnar::Field>{}};
  auto lowered = LowerExpression(**ast, empty);
  ASSERT_TRUE(lowered.ok()) << lowered.status();
  EXPECT_EQ(lowered->kind, substrait::ExprKind::kLiteral);
  EXPECT_EQ(lowered->literal.ToString(), "1998-09-02");
}

TEST(PruneColumnsTest, LaghosScanReadsOnlyQueryColumns) {
  auto plan = Analyze(workloads::LaghosQuery(), LaghosHandle());
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(PruneColumns(plan).ok());
  PlanNode* scan = FindScan(*plan);
  ASSERT_NE(scan, nullptr);
  // Query touches vertex_id, x, y, z, e → 5 of 10 columns.
  EXPECT_EQ(scan->scan_spec.columns, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(scan->output_schema->num_fields(), 5u);
}

TEST(PruneColumnsTest, RemapsFilterAndAggregateIndices) {
  // Query touching non-contiguous columns forces remapping.
  auto plan = Analyze(
      "SELECT avg(e) AS m FROM laghos WHERE p > 5000 GROUP BY vertex_id",
      LaghosHandle());
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(PruneColumns(plan).ok());
  PlanNode* scan = FindScan(*plan);
  // columns: vertex_id(0), e(4), p(6) → pruned indices 0,1,2
  EXPECT_EQ(scan->scan_spec.columns, (std::vector<int>{0, 4, 6}));
  // Filter references p → new index 2.
  PlanNode* filter = plan.get();
  while (filter && filter->kind != NodeKind::kFilter) {
    filter = filter->input.get();
  }
  ASSERT_NE(filter, nullptr);
  std::vector<int> refs;
  filter->predicate.CollectFieldRefs(&refs);
  EXPECT_EQ(refs, (std::vector<int>{2}));
}

TEST(PruneColumnsTest, CountStarKeepsNarrowestColumn) {
  auto plan = Analyze("SELECT COUNT(*) AS n FROM deepwater",
                      DeepWaterHandle());
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(PruneColumns(plan).ok());
  PlanNode* scan = FindScan(*plan);
  ASSERT_EQ(scan->scan_spec.columns.size(), 1u);
  // timestep (int32) is the narrowest column.
  EXPECT_EQ(scan->scan_spec.columns[0], 2);
}

// ---- two-phase aggregation -------------------------------------------------

TEST(TwoPhaseTest, AvgDecomposesToSumCount) {
  std::vector<AggregateSpec> aggs = {
      {AggFunc::kAvg, Expression::FieldRef(1, TypeKind::kFloat64), "avg_x"},
      {AggFunc::kCountStar, {}, "cnt"}};
  auto partial = PartialAggSpecs(aggs);
  ASSERT_EQ(partial.size(), 3u);
  EXPECT_EQ(partial[0].func, AggFunc::kSum);
  EXPECT_EQ(partial[0].output_name, "avg_x$sum");
  EXPECT_EQ(partial[1].func, AggFunc::kCount);
  EXPECT_EQ(partial[1].output_name, "avg_x$cnt");
  EXPECT_EQ(partial[2].func, AggFunc::kCountStar);

  auto final_specs = FinalAggSpecs(aggs, 1);
  ASSERT_EQ(final_specs.size(), 3u);
  EXPECT_EQ(final_specs[0].func, AggFunc::kSum);  // merge sums
  EXPECT_EQ(final_specs[1].func, AggFunc::kSum);  // merge counts
  EXPECT_EQ(final_specs[2].func, AggFunc::kSum);  // merge count(*)
  // Final args reference partial columns 1, 2, 3 (after 1 key).
  EXPECT_EQ(final_specs[0].argument.field_index, 1);
  EXPECT_EQ(final_specs[1].argument.field_index, 2);
  EXPECT_EQ(final_specs[2].argument.field_index, 3);
}

TEST(TwoPhaseTest, MinMaxMergeAsThemselves) {
  std::vector<AggregateSpec> aggs = {
      {AggFunc::kMin, Expression::FieldRef(0, TypeKind::kInt64), "lo"},
      {AggFunc::kMax, Expression::FieldRef(0, TypeKind::kInt64), "hi"}};
  auto final_specs = FinalAggSpecs(aggs, 0);
  EXPECT_EQ(final_specs[0].func, AggFunc::kMin);
  EXPECT_EQ(final_specs[1].func, AggFunc::kMax);
}

TEST(TwoPhaseTest, FinalizeProjectionComputesAvg) {
  std::vector<AggregateSpec> aggs = {
      {AggFunc::kAvg, Expression::FieldRef(1, TypeKind::kFloat64), "m"}};
  columnar::Schema input({{"k", TypeKind::kString},
                          {"v", TypeKind::kFloat64}});
  auto partial_schema = PartialOutputSchema(input, {0}, aggs);
  ASSERT_EQ(partial_schema->num_fields(), 3u);  // k, m$sum, m$cnt
  // Final schema = keys + merged columns (same layout here).
  std::vector<Expression> exprs;
  std::vector<std::string> names;
  FinalizeProjection(aggs, 1, *partial_schema, &exprs, &names);
  ASSERT_EQ(exprs.size(), 2u);
  EXPECT_EQ(names[0], "k");
  EXPECT_EQ(names[1], "m");
  EXPECT_EQ(exprs[1].kind, substrait::ExprKind::kCall);
  EXPECT_EQ(exprs[1].func, substrait::ScalarFunc::kDivide);
}

// ---- local optimizer negotiation --------------------------------------------

// Scripted connector: accepts the operator kinds listed in `accept`.
class MockConnector final : public connector::Connector {
 public:
  explicit MockConnector(std::set<PushedOperator::Kind> accept)
      : accept_(std::move(accept)) {}

  std::string id() const override { return "mock"; }
  Result<connector::TableHandle> GetTableHandle(const std::string&,
                                                const std::string&) override {
    return Status::Unimplemented("mock");
  }
  Result<connector::SplitPlan> GetSplits(const connector::TableHandle&,
                                         const connector::ScanSpec&) override {
    return Status::Unimplemented("mock");
  }
  Result<bool> OfferPushdown(const connector::TableHandle&,
                             const PushedOperator& op,
                             connector::ScanSpec* spec,
                             connector::PushdownDecision* decision) override {
    offered.push_back(op.kind);
    decision->accepted = accept_.contains(op.kind);
    if (decision->accepted) spec->operators.push_back(op);
    return decision->accepted;
  }
  Result<std::unique_ptr<connector::PageSource>> CreatePageSource(
      const connector::TableHandle&, const connector::Split&,
      const connector::ScanSpec&) override {
    return Status::Unimplemented("mock");
  }

  std::vector<PushedOperator::Kind> offered;

 private:
  std::set<PushedOperator::Kind> accept_;
};

TEST(LocalOptimizerTest, FullPushdownRewritesLaghosPlan) {
  auto plan = Analyze(workloads::LaghosQuery(), LaghosHandle());
  ASSERT_TRUE(PruneColumns(plan).ok());
  MockConnector conn({PushedOperator::Kind::kFilter,
                      PushedOperator::Kind::kPartialAggregation,
                      PushedOperator::Kind::kPartialTopN});
  auto result = RunConnectorOptimizer(plan, conn);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(PlanChainToString(*result->plan),
            "TableScan[pushed:filter,aggregation,topn] -> Aggregation -> "
            "TopN -> Project(identity)");
  // Filter removed; aggregation kept as final step.
  PlanNode* agg = result->plan.get();
  while (agg && agg->kind != NodeKind::kAggregation) agg = agg->input.get();
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->agg_step, AggregationStep::kFinal);
  EXPECT_EQ(result->decisions.size(), 3u);
  for (const auto& d : result->decisions) EXPECT_TRUE(d.accepted);
}

TEST(LocalOptimizerTest, FilterOnlyPushdownKeepsAggregation) {
  auto plan = Analyze(workloads::LaghosQuery(), LaghosHandle());
  ASSERT_TRUE(PruneColumns(plan).ok());
  MockConnector conn({PushedOperator::Kind::kFilter});
  auto result = RunConnectorOptimizer(plan, conn);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PlanChainToString(*result->plan),
            "TableScan[pushed:filter] -> Aggregation -> TopN -> "
            "Project(identity)");
  PlanNode* agg = result->plan.get();
  while (agg && agg->kind != NodeKind::kAggregation) agg = agg->input.get();
  EXPECT_EQ(agg->agg_step, AggregationStep::kSingle);
}

TEST(LocalOptimizerTest, RejectionStopsTheWalk) {
  auto plan = Analyze(workloads::TpchQ1(), TpchHandle());
  ASSERT_TRUE(PruneColumns(plan).ok());
  // Connector accepts filters and aggregation but NOT projection: the walk
  // must stop at the project, leaving the aggregation unpushed.
  MockConnector conn({PushedOperator::Kind::kFilter,
                      PushedOperator::Kind::kPartialAggregation});
  auto result = RunConnectorOptimizer(plan, conn);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PlanChainToString(*result->plan),
            "TableScan[pushed:filter] -> Project -> Aggregation -> Sort -> "
            "Project(identity)");
  ASSERT_EQ(conn.offered.size(), 2u);
  EXPECT_EQ(conn.offered[1], PushedOperator::Kind::kProject);
}

TEST(LocalOptimizerTest, NothingAcceptedLeavesPlanUntouched) {
  auto plan = Analyze(workloads::LaghosQuery(), LaghosHandle());
  ASSERT_TRUE(PruneColumns(plan).ok());
  std::string before = PlanChainToString(*plan);
  MockConnector conn({});
  auto result = RunConnectorOptimizer(plan, conn);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PlanChainToString(*result->plan), before);
  EXPECT_EQ(conn.offered.size(), 1u);  // only the filter was offered
}

TEST(LocalOptimizerTest, PureTopNPushdownKeepsMergeNode) {
  auto plan = Analyze("SELECT x FROM laghos ORDER BY x LIMIT 5",
                      LaghosHandle());
  ASSERT_TRUE(PruneColumns(plan).ok());
  MockConnector conn({PushedOperator::Kind::kPartialTopN});
  auto result = RunConnectorOptimizer(plan, conn);
  ASSERT_TRUE(result.ok());
  // TopN pushed per split, but the node stays for the final merge.
  EXPECT_EQ(PlanChainToString(*result->plan),
            "TableScan[pushed:topn] -> TopN -> Project(identity)");
}

}  // namespace
}  // namespace pocs::engine
