// Tests for the plan IR: expression construction/typing, relation schema
// derivation/validation, serialization roundtrips (incl. fuzz-ish
// corruption), and the vectorized evaluator's SQL semantics.
#include <gtest/gtest.h>

#include "columnar/batch.h"
#include "substrait/eval.h"
#include "substrait/expr.h"
#include "substrait/rel.h"
#include "substrait/serialize.h"

namespace pocs::substrait {
namespace {

using columnar::Datum;
using columnar::MakeBatch;
using columnar::MakeColumn;
using columnar::MakeSchema;
using columnar::TypeKind;

columnar::SchemaPtr ScanSchema() {
  return MakeSchema({{"x", TypeKind::kFloat64},
                     {"n", TypeKind::kInt64},
                     {"s", TypeKind::kString}});
}

columnar::RecordBatchPtr ScanBatch() {
  auto x = MakeColumn(TypeKind::kFloat64);
  auto n = MakeColumn(TypeKind::kInt64);
  auto s = MakeColumn(TypeKind::kString);
  // x: 0.5, 1.5, null, 3.5 ; n: 1..4 ; s: a,b,a,c
  x->AppendFloat64(0.5);
  x->AppendFloat64(1.5);
  x->AppendNull();
  x->AppendFloat64(3.5);
  for (int i = 1; i <= 4; ++i) n->AppendInt64(i);
  s->AppendString("a");
  s->AppendString("b");
  s->AppendString("a");
  s->AppendString("c");
  return MakeBatch(ScanSchema(), {x, n, s});
}

std::unique_ptr<Rel> MakeRead() {
  auto read = std::make_unique<Rel>();
  read->kind = RelKind::kRead;
  read->bucket = "data";
  read->object = "obj";
  read->base_schema = ScanSchema();
  return read;
}

TEST(ExprTest, BuildersSetTypes) {
  auto field = Expression::FieldRef(0, TypeKind::kFloat64);
  EXPECT_EQ(field.kind, ExprKind::kFieldRef);
  EXPECT_EQ(field.type, TypeKind::kFloat64);
  auto lit = Expression::Literal(Datum::Int64(5));
  EXPECT_EQ(lit.type, TypeKind::kInt64);
  auto call = Expression::Call(ScalarFunc::kGe, {field, lit}, TypeKind::kBool);
  EXPECT_EQ(call.args.size(), 2u);
}

TEST(ExprTest, PromoteNumeric) {
  EXPECT_EQ(Expression::PromoteNumeric(TypeKind::kInt64, TypeKind::kFloat64),
            TypeKind::kFloat64);
  EXPECT_EQ(Expression::PromoteNumeric(TypeKind::kInt32, TypeKind::kInt64),
            TypeKind::kInt64);
}

TEST(ExprTest, ToStringReadable) {
  auto schema = ScanSchema();
  auto e = Expression::Call(
      ScalarFunc::kGe,
      {Expression::FieldRef(0, TypeKind::kFloat64),
       Expression::Literal(Datum::Float64(0.8))},
      TypeKind::kBool);
  EXPECT_EQ(e.ToString(schema.get()), "(x >= 0.8)");
}

TEST(ExprTest, CollectFieldRefs) {
  auto e = Expression::Call(
      ScalarFunc::kAdd,
      {Expression::FieldRef(2, TypeKind::kFloat64),
       Expression::Call(ScalarFunc::kMultiply,
                        {Expression::FieldRef(0, TypeKind::kFloat64),
                         Expression::Literal(Datum::Float64(2.0))},
                        TypeKind::kFloat64)},
      TypeKind::kFloat64);
  std::vector<int> refs;
  e.CollectFieldRefs(&refs);
  EXPECT_EQ(refs, (std::vector<int>{2, 0}));
}

TEST(RelTest, ReadOutputSchema) {
  auto read = MakeRead();
  auto schema = OutputSchema(*read);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ((*schema)->num_fields(), 3u);
  read->read_columns = {2, 0};
  schema = OutputSchema(*read);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ((*schema)->field(0).name, "s");
  EXPECT_EQ((*schema)->field(1).name, "x");
  read->read_columns = {9};
  EXPECT_FALSE(OutputSchema(*read).ok());
}

TEST(RelTest, FilterRequiresBoolPredicate) {
  auto filter = std::make_unique<Rel>();
  filter->kind = RelKind::kFilter;
  filter->input = MakeRead();
  filter->predicate = Expression::FieldRef(0, TypeKind::kFloat64);
  EXPECT_FALSE(OutputSchema(*filter).ok());
  filter->predicate = Expression::Call(
      ScalarFunc::kGt,
      {Expression::FieldRef(0, TypeKind::kFloat64),
       Expression::Literal(Datum::Float64(1.0))},
      TypeKind::kBool);
  EXPECT_TRUE(OutputSchema(*filter).ok());
}

// A call whose operand types the evaluator's kernels do not define:
// validation rejects it with InvalidArgument, and evaluating it anyway is
// an InvalidArgument too, never a read of the wrong value buffer.
void ExpectRejected(const Expression& expr) {
  SCOPED_TRACE(expr.ToString());
  auto project = std::make_unique<Rel>();
  project->kind = RelKind::kProject;
  project->input = MakeRead();
  project->expressions = {expr};
  project->output_names = {"e"};
  auto schema = OutputSchema(*project);
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kInvalidArgument);
  auto batch = ScanBatch();
  auto col = Evaluate(expr, *batch);
  ASSERT_FALSE(col.ok());
  EXPECT_EQ(col.status().code(), StatusCode::kInvalidArgument);
  if (expr.type == TypeKind::kBool) {
    auto sel = FilterSelection(expr, *batch);
    ASSERT_FALSE(sel.ok());
    EXPECT_EQ(sel.status().code(), StatusCode::kInvalidArgument);
  }
}

Expression N() { return Expression::FieldRef(1, TypeKind::kInt64); }
Expression S() { return Expression::FieldRef(2, TypeKind::kString); }
Expression XGt1() {
  return Expression::Call(ScalarFunc::kGt,
                          {Expression::FieldRef(0, TypeKind::kFloat64),
                           Expression::Literal(Datum::Float64(1.0))},
                          TypeKind::kBool);
}

TEST(RelTest, RejectsStringComparedWithNumber) {
  // `flag = 7`: a string field against an int64 literal.
  ExpectRejected(Expression::Call(
      ScalarFunc::kEq, {S(), Expression::Literal(Datum::Int64(7))},
      TypeKind::kBool));
  ExpectRejected(Expression::Call(
      ScalarFunc::kLt, {N(), Expression::Literal(Datum::String("a"))},
      TypeKind::kBool));
}

TEST(RelTest, RejectsBoolComparedWithNumber) {
  ExpectRejected(Expression::Call(
      ScalarFunc::kEq, {XGt1(), Expression::Literal(Datum::Int64(1))},
      TypeKind::kBool));
}

TEST(RelTest, RejectsArithmeticOverNonNumerics) {
  ExpectRejected(Expression::Call(
      ScalarFunc::kAdd, {S(), Expression::Literal(Datum::Int64(1))},
      TypeKind::kInt64));
  ExpectRejected(Expression::Call(
      ScalarFunc::kMultiply, {XGt1(), Expression::Literal(Datum::Int64(2))},
      TypeKind::kInt64));
}

TEST(RelTest, RejectsNegateOfNonNumeric) {
  ExpectRejected(
      Expression::Call(ScalarFunc::kNegate, {S()}, TypeKind::kInt64));
}

TEST(RelTest, RejectsIntegerResultOverFloatOperand) {
  ExpectRejected(Expression::Call(
      ScalarFunc::kAdd, {Expression::FieldRef(0, TypeKind::kFloat64), N()},
      TypeKind::kInt64));
}

TEST(RelTest, RejectsLogicalOverNonBools) {
  ExpectRejected(
      Expression::Call(ScalarFunc::kAnd, {N(), XGt1()}, TypeKind::kBool));
  ExpectRejected(
      Expression::Call(ScalarFunc::kOr, {XGt1(), S()}, TypeKind::kBool));
  ExpectRejected(Expression::Call(ScalarFunc::kNot, {N()}, TypeKind::kBool));
}

TEST(RelTest, AggregateOutputSchema) {
  auto agg = std::make_unique<Rel>();
  agg->kind = RelKind::kAggregate;
  agg->input = MakeRead();
  agg->group_keys = {2};
  AggregateSpec spec;
  spec.func = AggFunc::kAvg;
  spec.argument = Expression::FieldRef(0, TypeKind::kFloat64);
  spec.output_name = "avg_x";
  agg->aggregates = {spec};
  auto schema = OutputSchema(*agg);
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_EQ((*schema)->num_fields(), 2u);
  EXPECT_EQ((*schema)->field(0).name, "s");
  EXPECT_EQ((*schema)->field(1).name, "avg_x");
  EXPECT_EQ((*schema)->field(1).type, TypeKind::kFloat64);
}

TEST(RelTest, SumOutputTypes) {
  AggregateSpec int_sum{AggFunc::kSum,
                        Expression::FieldRef(1, TypeKind::kInt64), "s"};
  EXPECT_EQ(int_sum.OutputType(), TypeKind::kInt64);
  AggregateSpec float_sum{AggFunc::kSum,
                          Expression::FieldRef(0, TypeKind::kFloat64), "s"};
  EXPECT_EQ(float_sum.OutputType(), TypeKind::kFloat64);
  AggregateSpec cnt{AggFunc::kCountStar, {}, "c"};
  EXPECT_EQ(cnt.OutputType(), TypeKind::kInt64);
}

TEST(RelTest, PlanToStringShowsPipeline) {
  Plan plan;
  auto filter = std::make_unique<Rel>();
  filter->kind = RelKind::kFilter;
  filter->input = MakeRead();
  filter->predicate = Expression::Call(
      ScalarFunc::kGt,
      {Expression::FieldRef(1, TypeKind::kInt64),
       Expression::Literal(Datum::Int64(0))},
      TypeKind::kBool);
  plan.root = std::move(filter);
  EXPECT_EQ(PlanToString(plan), "Read(data/obj) -> Filter");
}

TEST(RelTest, CloneIsDeep) {
  auto filter = std::make_unique<Rel>();
  filter->kind = RelKind::kFilter;
  filter->input = MakeRead();
  filter->predicate = Expression::Literal(Datum::Bool(true));
  auto clone = CloneRel(*filter);
  clone->input->bucket = "other";
  EXPECT_EQ(filter->input->bucket, "data");
  EXPECT_EQ(clone->input->bucket, "other");
}

Plan FullPlan() {
  // Read -> Filter(x >= 1.0) -> Aggregate(group s; sum n, avg x)
  //      -> Sort(by sum desc) -> Fetch(limit 10)
  auto read = MakeRead();
  auto filter = std::make_unique<Rel>();
  filter->kind = RelKind::kFilter;
  filter->input = std::move(read);
  filter->predicate = Expression::Call(
      ScalarFunc::kGe,
      {Expression::FieldRef(0, TypeKind::kFloat64),
       Expression::Literal(Datum::Float64(1.0))},
      TypeKind::kBool);
  auto agg = std::make_unique<Rel>();
  agg->kind = RelKind::kAggregate;
  agg->input = std::move(filter);
  agg->group_keys = {2};
  agg->aggregates = {
      {AggFunc::kSum, Expression::FieldRef(1, TypeKind::kInt64), "sum_n"},
      {AggFunc::kAvg, Expression::FieldRef(0, TypeKind::kFloat64), "avg_x"}};
  auto sort = std::make_unique<Rel>();
  sort->kind = RelKind::kSort;
  sort->input = std::move(agg);
  sort->sort_fields = {{1, false, true}};
  auto fetch = std::make_unique<Rel>();
  fetch->kind = RelKind::kFetch;
  fetch->input = std::move(sort);
  fetch->offset = 0;
  fetch->count = 10;
  Plan plan;
  plan.root = std::move(fetch);
  return plan;
}

TEST(SerializeTest, PlanRoundtrip) {
  Plan plan = FullPlan();
  ASSERT_TRUE(ValidatePlan(plan).ok());
  Bytes data = SerializePlan(plan);
  auto rt = DeserializePlan(ByteSpan(data.data(), data.size()));
  ASSERT_TRUE(rt.ok()) << rt.status();
  // Re-serialize: fixpoint.
  Bytes data2 = SerializePlan(*rt);
  EXPECT_EQ(data, data2);
  EXPECT_EQ(PlanToString(*rt), PlanToString(plan));
}

// The pushdown-pipeline extensions (DESIGN.md §14): a read rel carrying
// a version-pinned join-key bloom, and a partial-phase aggregation, must
// survive the wire bit-for-bit.
TEST(SerializeTest, BloomAndAggPhaseRoundtrip) {
  Plan plan = FullPlan();
  Rel* agg = plan.root->input.get();  // Fetch -> Sort -> Aggregate
  ASSERT_EQ(agg->kind, RelKind::kSort);
  agg = agg->input.get();
  ASSERT_EQ(agg->kind, RelKind::kAggregate);
  agg->agg_phase = AggPhase::kPartial;
  Rel* read = agg->input->input.get();  // Filter -> Read
  ASSERT_EQ(read->kind, RelKind::kRead);
  read->bloom_words = {0x0123456789abcdefull, 0xfedcba9876543210ull, 1, 0};
  read->bloom_hashes = 5;
  read->bloom_seed = 0x706f63736a6f696eull;
  read->bloom_column = 1;
  read->bloom_version = 42;

  ASSERT_TRUE(ValidatePlan(plan).ok());
  Bytes data = SerializePlan(plan);
  auto rt = DeserializePlan(ByteSpan(data.data(), data.size()));
  ASSERT_TRUE(rt.ok()) << rt.status();
  Bytes data2 = SerializePlan(*rt);
  EXPECT_EQ(data, data2);

  const Rel* rt_agg = rt->root->input->input.get();
  ASSERT_EQ(rt_agg->kind, RelKind::kAggregate);
  EXPECT_EQ(rt_agg->agg_phase, AggPhase::kPartial);
  const Rel* rt_read = rt_agg->input->input.get();
  ASSERT_EQ(rt_read->kind, RelKind::kRead);
  EXPECT_EQ(rt_read->bloom_words, read->bloom_words);
  EXPECT_EQ(rt_read->bloom_hashes, 5u);
  EXPECT_EQ(rt_read->bloom_seed, 0x706f63736a6f696eull);
  EXPECT_EQ(rt_read->bloom_column, 1);
  EXPECT_EQ(rt_read->bloom_version, 42u);

  // A plan without a bloom must serialize to different (smaller) bytes —
  // the fields are not silently dropped on the wire.
  Plan bare = FullPlan();
  Rel* bare_agg = bare.root->input->input.get();
  bare_agg->agg_phase = AggPhase::kPartial;
  EXPECT_NE(SerializePlan(bare), data);
}

TEST(SerializeTest, ExpressionRoundtripAllFuncs) {
  for (int f = 0; f <= static_cast<int>(ScalarFunc::kNegate); ++f) {
    ScalarFunc func = static_cast<ScalarFunc>(f);
    size_t arity =
        (func == ScalarFunc::kNot || func == ScalarFunc::kNegate) ? 1 : 2;
    std::vector<Expression> args;
    for (size_t i = 0; i < arity; ++i) {
      args.push_back(Expression::FieldRef(static_cast<int>(i),
                                          TypeKind::kFloat64));
    }
    auto e = Expression::Call(func, std::move(args),
                              IsArithmetic(func) ? TypeKind::kFloat64
                                                 : TypeKind::kBool);
    BufferWriter w;
    WriteExpression(e, &w);
    BufferReader r(w.span());
    auto rt = ReadExpression(&r);
    ASSERT_TRUE(rt.ok()) << "func " << f;
    EXPECT_EQ(rt->func, func);
    EXPECT_EQ(rt->args.size(), arity);
  }
}

TEST(SerializeTest, CorruptPlansRejected) {
  Plan plan = FullPlan();
  Bytes data = SerializePlan(plan);
  // Truncations at many offsets must all fail cleanly, never crash.
  for (size_t cut = 0; cut < data.size(); cut += 7) {
    auto rt = DeserializePlan(ByteSpan(data.data(), cut));
    EXPECT_FALSE(rt.ok());
  }
  // Flipped kind bytes must either fail or still validate.
  for (size_t i = 4; i < data.size(); i += 11) {
    Bytes bad = data;
    bad[i] ^= 0x7;
    auto rt = DeserializePlan(ByteSpan(bad.data(), bad.size()));
    if (rt.ok()) {
      EXPECT_TRUE(ValidatePlan(*rt).ok());
    }
  }
}

TEST(SerializeTest, TrailingBytesRejected) {
  Plan plan = FullPlan();
  Bytes data = SerializePlan(plan);
  data.push_back(0);
  EXPECT_FALSE(DeserializePlan(ByteSpan(data.data(), data.size())).ok());
}

// ---- evaluation -----------------------------------------------------------

TEST(EvalTest, FieldRefReturnsColumn) {
  auto batch = ScanBatch();
  auto col = Evaluate(Expression::FieldRef(1, TypeKind::kInt64), *batch);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->GetInt64(2), 3);
}

TEST(EvalTest, ArithmeticWithNullPropagation) {
  auto batch = ScanBatch();
  // x * 2 + n
  auto e = Expression::Call(
      ScalarFunc::kAdd,
      {Expression::Call(ScalarFunc::kMultiply,
                        {Expression::FieldRef(0, TypeKind::kFloat64),
                         Expression::Literal(Datum::Float64(2.0))},
                        TypeKind::kFloat64),
       Expression::FieldRef(1, TypeKind::kInt64)},
      TypeKind::kFloat64);
  auto col = Evaluate(e, *batch);
  ASSERT_TRUE(col.ok()) << col.status();
  EXPECT_DOUBLE_EQ((*col)->GetFloat64(0), 2.0);   // 0.5*2 + 1
  EXPECT_DOUBLE_EQ((*col)->GetFloat64(1), 5.0);   // 1.5*2 + 2
  EXPECT_TRUE((*col)->IsNull(2));                 // null * 2 + 3
  EXPECT_DOUBLE_EQ((*col)->GetFloat64(3), 11.0);  // 3.5*2 + 4
}

TEST(EvalTest, IntegerModuloAndDivision) {
  auto batch = ScanBatch();
  auto mod = Expression::Call(
      ScalarFunc::kModulo,
      {Expression::FieldRef(1, TypeKind::kInt64),
       Expression::Literal(Datum::Int64(2))},
      TypeKind::kInt64);
  auto col = Evaluate(mod, *batch);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->GetInt64(0), 1);
  EXPECT_EQ((*col)->GetInt64(1), 0);
  // Division by zero degrades to NULL.
  auto div0 = Expression::Call(
      ScalarFunc::kDivide,
      {Expression::FieldRef(1, TypeKind::kInt64),
       Expression::Literal(Datum::Int64(0))},
      TypeKind::kInt64);
  col = Evaluate(div0, *batch);
  ASSERT_TRUE(col.ok());
  EXPECT_TRUE((*col)->IsNull(0));
}

TEST(EvalTest, ComparisonAndKleeneLogic) {
  auto batch = ScanBatch();
  // (x > 1.0) AND (n < 4): row0 F, row1 T, row2 null AND T = null, row3 F
  auto pred = Expression::Call(
      ScalarFunc::kAnd,
      {Expression::Call(ScalarFunc::kGt,
                        {Expression::FieldRef(0, TypeKind::kFloat64),
                         Expression::Literal(Datum::Float64(1.0))},
                        TypeKind::kBool),
       Expression::Call(ScalarFunc::kLt,
                        {Expression::FieldRef(1, TypeKind::kInt64),
                         Expression::Literal(Datum::Int64(4))},
                        TypeKind::kBool)},
      TypeKind::kBool);
  auto col = Evaluate(pred, *batch);
  ASSERT_TRUE(col.ok());
  EXPECT_FALSE((*col)->GetBool(0));
  EXPECT_TRUE((*col)->GetBool(1));
  EXPECT_TRUE((*col)->IsNull(2));
  EXPECT_FALSE((*col)->GetBool(3));  // n=4 not < 4 → false AND dominates

  auto sel = FilterSelection(pred, *batch);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (columnar::SelectionVector{1}));  // null rows dropped
}

TEST(EvalTest, KleeneOrWithNull) {
  auto batch = ScanBatch();
  // (x > 10) OR (n >= 4): row2 has x null → null OR false = null;
  // row3: false OR true = true.
  auto pred = Expression::Call(
      ScalarFunc::kOr,
      {Expression::Call(ScalarFunc::kGt,
                        {Expression::FieldRef(0, TypeKind::kFloat64),
                         Expression::Literal(Datum::Float64(10.0))},
                        TypeKind::kBool),
       Expression::Call(ScalarFunc::kGe,
                        {Expression::FieldRef(1, TypeKind::kInt64),
                         Expression::Literal(Datum::Int64(4))},
                        TypeKind::kBool)},
      TypeKind::kBool);
  auto col = Evaluate(pred, *batch);
  ASSERT_TRUE(col.ok());
  EXPECT_FALSE((*col)->GetBool(0));
  EXPECT_TRUE((*col)->IsNull(2));
  EXPECT_TRUE((*col)->GetBool(3));
}

TEST(EvalTest, StringComparison) {
  auto batch = ScanBatch();
  auto pred = Expression::Call(
      ScalarFunc::kEq,
      {Expression::FieldRef(2, TypeKind::kString),
       Expression::Literal(Datum::String("a"))},
      TypeKind::kBool);
  auto sel = FilterSelection(pred, *batch);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (columnar::SelectionVector{0, 2}));
}

TEST(EvalTest, NotAndNegate) {
  auto batch = ScanBatch();
  auto inner = Expression::Call(
      ScalarFunc::kGt,
      {Expression::FieldRef(1, TypeKind::kInt64),
       Expression::Literal(Datum::Int64(2))},
      TypeKind::kBool);
  auto pred = Expression::Call(ScalarFunc::kNot, {inner}, TypeKind::kBool);
  auto sel = FilterSelection(pred, *batch);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (columnar::SelectionVector{0, 1}));

  auto neg = Expression::Call(ScalarFunc::kNegate,
                              {Expression::FieldRef(0, TypeKind::kFloat64)},
                              TypeKind::kFloat64);
  auto col = Evaluate(neg, *batch);
  ASSERT_TRUE(col.ok());
  EXPECT_DOUBLE_EQ((*col)->GetFloat64(0), -0.5);
  EXPECT_TRUE((*col)->IsNull(2));
}

TEST(EvalTest, IsNullNeverPropagatesNull) {
  auto batch = ScanBatch();  // x has a null at row 2
  auto is_null = Expression::Call(
      ScalarFunc::kIsNull, {Expression::FieldRef(0, TypeKind::kFloat64)},
      TypeKind::kBool);
  auto col = Evaluate(is_null, *batch);
  ASSERT_TRUE(col.ok()) << col.status();
  EXPECT_FALSE((*col)->has_nulls());
  EXPECT_FALSE((*col)->GetBool(0));
  EXPECT_TRUE((*col)->GetBool(2));
  // NOT(IS NULL) selects exactly the non-null rows.
  auto not_null = Expression::Call(ScalarFunc::kNot, {is_null},
                                   TypeKind::kBool);
  auto sel = FilterSelection(not_null, *batch);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (columnar::SelectionVector{0, 1, 3}));
}

TEST(SerializeTest, IsNullRoundtrip) {
  auto e = Expression::Call(
      ScalarFunc::kIsNull, {Expression::FieldRef(1, TypeKind::kInt64)},
      TypeKind::kBool);
  BufferWriter w;
  WriteExpression(e, &w);
  BufferReader r(w.span());
  auto rt = ReadExpression(&r);
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt->func, ScalarFunc::kIsNull);
  EXPECT_EQ(rt->args.size(), 1u);
}

TEST(EvalTest, FilterBatchDropsRows) {
  auto batch = ScanBatch();
  auto pred = Expression::Call(
      ScalarFunc::kGe,
      {Expression::FieldRef(0, TypeKind::kFloat64),
       Expression::Literal(Datum::Float64(1.0))},
      TypeKind::kBool);
  auto filtered = FilterBatch(pred, *batch);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ((*filtered)->num_rows(), 2u);  // rows 1 and 3; null dropped
  EXPECT_EQ((*filtered)->column(1)->GetInt64(0), 2);
  EXPECT_EQ((*filtered)->column(1)->GetInt64(1), 4);
}

}  // namespace
}  // namespace pocs::substrait
