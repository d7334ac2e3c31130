#include "engine/two_phase.h"

namespace pocs::engine {

using columnar::Field;
using columnar::MakeSchema;
using columnar::SchemaPtr;
using columnar::TypeKind;
using substrait::AggFunc;
using substrait::AggregateSpec;
using substrait::Expression;

std::vector<AggregateSpec> PartialAggSpecs(
    const std::vector<AggregateSpec>& aggregates) {
  std::vector<AggregateSpec> partial;
  for (const AggregateSpec& agg : aggregates) {
    switch (agg.func) {
      case AggFunc::kAvg: {
        AggregateSpec sum;
        sum.func = AggFunc::kSum;
        sum.argument = agg.argument;
        sum.output_name = agg.output_name + "$sum";
        partial.push_back(std::move(sum));
        AggregateSpec count;
        count.func = AggFunc::kCount;
        count.argument = agg.argument;
        count.output_name = agg.output_name + "$cnt";
        partial.push_back(std::move(count));
        break;
      }
      default: {
        AggregateSpec p = agg;
        p.output_name = agg.output_name + "$p";
        partial.push_back(std::move(p));
        break;
      }
    }
  }
  return partial;
}

SchemaPtr PartialOutputSchema(const columnar::Schema& input_schema,
                              const std::vector<int>& group_keys,
                              const std::vector<AggregateSpec>& aggregates) {
  std::vector<Field> fields;
  for (int key : group_keys) fields.push_back(input_schema.field(key));
  for (const AggregateSpec& p : PartialAggSpecs(aggregates)) {
    fields.push_back({p.output_name, p.OutputType()});
  }
  return MakeSchema(std::move(fields));
}

std::vector<AggregateSpec> FinalAggSpecs(
    const std::vector<AggregateSpec>& aggregates, size_t n_keys) {
  std::vector<AggregateSpec> partial = PartialAggSpecs(aggregates);
  std::vector<AggregateSpec> final_specs;
  size_t col = n_keys;  // partial columns start after the keys
  for (const AggregateSpec& agg : aggregates) {
    auto merge = [&](AggFunc func, TypeKind partial_type,
                     const std::string& name) {
      AggregateSpec spec;
      spec.func = func;
      spec.argument =
          Expression::FieldRef(static_cast<int>(col), partial_type);
      spec.output_name = name;
      final_specs.push_back(std::move(spec));
      ++col;
    };
    // No `default`: -Wswitch (in -Wall; an error under POCS_WERROR)
    // rejects an AggFunc without a merge case, so no aggregate kind can
    // be split into phases whose per-split partials are never merged.
    switch (agg.func) {
      case AggFunc::kAvg:
        merge(AggFunc::kSum, partial[col - n_keys].OutputType(),
              agg.output_name + "$sum");
        merge(AggFunc::kSum, TypeKind::kInt64, agg.output_name + "$cnt");
        break;
      case AggFunc::kSum:
        merge(AggFunc::kSum, partial[col - n_keys].OutputType(),
              agg.output_name);
        break;
      case AggFunc::kCount:
      case AggFunc::kCountStar:
        merge(AggFunc::kSum, TypeKind::kInt64, agg.output_name);
        break;
      case AggFunc::kMin:
        merge(AggFunc::kMin, agg.argument.type, agg.output_name);
        break;
      case AggFunc::kMax:
        merge(AggFunc::kMax, agg.argument.type, agg.output_name);
        break;
    }
  }
  return final_specs;
}

void FinalizeProjection(const std::vector<AggregateSpec>& aggregates,
                        size_t n_keys, const columnar::Schema& final_schema,
                        std::vector<Expression>* expressions,
                        std::vector<std::string>* names) {
  // Keys pass through.
  for (size_t k = 0; k < n_keys; ++k) {
    expressions->push_back(
        Expression::FieldRef(static_cast<int>(k), final_schema.field(k).type));
    names->push_back(final_schema.field(k).name);
  }
  size_t col = n_keys;
  for (const AggregateSpec& agg : aggregates) {
    switch (agg.func) {
      case AggFunc::kAvg: {
        Expression sum = Expression::FieldRef(
            static_cast<int>(col), final_schema.field(col).type);
        Expression count = Expression::FieldRef(
            static_cast<int>(col + 1), final_schema.field(col + 1).type);
        expressions->push_back(Expression::Call(
            substrait::ScalarFunc::kDivide, {sum, count},
            TypeKind::kFloat64));
        names->push_back(agg.output_name);
        col += 2;
        break;
      }
      default:
        expressions->push_back(Expression::FieldRef(
            static_cast<int>(col), final_schema.field(col).type));
        names->push_back(agg.output_name);
        ++col;
        break;
    }
  }
}

}  // namespace pocs::engine
