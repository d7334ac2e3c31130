#include "substrait/rel.h"

#include <sstream>

namespace pocs::substrait {

using columnar::Field;
using columnar::MakeSchema;
using columnar::Schema;
using columnar::SchemaPtr;
using columnar::TypeKind;

std::string_view RelKindName(RelKind kind) {
  switch (kind) {
    case RelKind::kRead: return "Read";
    case RelKind::kFilter: return "Filter";
    case RelKind::kProject: return "Project";
    case RelKind::kAggregate: return "Aggregate";
    case RelKind::kSort: return "Sort";
    case RelKind::kFetch: return "Fetch";
  }
  return "?";
}

std::string_view AggPhaseName(AggPhase phase) {
  switch (phase) {
    case AggPhase::kSingle: return "single";
    case AggPhase::kPartial: return "partial";
    case AggPhase::kFinal: return "final";
  }
  return "?";
}

namespace {

// Checks that every field reference in expr is valid against the schema,
// that the recorded result types are consistent, and that every call's
// operand types are ones the evaluator's kernels define.
Status CheckExpression(const Expression& expr, const Schema& input) {
  switch (expr.kind) {
    case ExprKind::kFieldRef:
      if (expr.field_index < 0 ||
          static_cast<size_t>(expr.field_index) >= input.num_fields()) {
        return Status::InvalidArgument(
            "field ref $" + std::to_string(expr.field_index) +
            " out of range for " + input.ToString());
      }
      if (input.field(expr.field_index).type != expr.type) {
        return Status::InvalidArgument(
            "field ref $" + std::to_string(expr.field_index) +
            " type mismatch");
      }
      return Status::OK();
    case ExprKind::kLiteral:
      if (expr.literal.type() != expr.type) {
        return Status::InvalidArgument("literal type mismatch");
      }
      return Status::OK();
    case ExprKind::kCall: {
      for (const Expression& arg : expr.args) {
        POCS_RETURN_NOT_OK(CheckExpression(arg, input));
      }
      const size_t arity = IsUnary(expr.func) ? 1 : 2;
      if (expr.args.size() != arity) {
        return Status::InvalidArgument(
            std::string(ScalarFuncName(expr.func)) + " expects " +
            std::to_string(arity) + " args");
      }
      return CheckCallTypes(expr.func, expr.type, expr.args[0].type,
                            expr.args[arity - 1].type);
    }
  }
  return Status::Internal("unknown expr kind");
}

}  // namespace

Result<SchemaPtr> OutputSchema(const Rel& rel) {
  if (rel.kind == RelKind::kRead) {
    if (rel.input) return Status::InvalidArgument("read rel has an input");
    if (!rel.base_schema) return Status::InvalidArgument("read rel: no schema");
    const size_t scan_width = rel.read_columns.empty()
                                  ? rel.base_schema->num_fields()
                                  : rel.read_columns.size();
    if (!rel.bloom_words.empty()) {
      if (rel.bloom_column < 0 ||
          static_cast<size_t>(rel.bloom_column) >= scan_width) {
        return Status::InvalidArgument("read rel: bloom column out of range");
      }
      if (rel.bloom_hashes == 0) {
        return Status::InvalidArgument("read rel: bloom with zero hashes");
      }
    }
    if (rel.read_columns.empty()) return SchemaPtr(rel.base_schema);
    std::vector<Field> fields;
    for (int c : rel.read_columns) {
      if (c < 0 || static_cast<size_t>(c) >= rel.base_schema->num_fields()) {
        return Status::InvalidArgument("read rel: bad column index");
      }
      fields.push_back(rel.base_schema->field(c));
    }
    return MakeSchema(std::move(fields));
  }

  if (!rel.input) {
    return Status::InvalidArgument(std::string(RelKindName(rel.kind)) +
                                   " rel: missing input");
  }
  POCS_ASSIGN_OR_RETURN(SchemaPtr input, OutputSchema(*rel.input));

  switch (rel.kind) {
    case RelKind::kFilter:
      POCS_RETURN_NOT_OK(CheckExpression(rel.predicate, *input));
      if (rel.predicate.type != TypeKind::kBool) {
        return Status::InvalidArgument("filter predicate must be bool");
      }
      return input;

    case RelKind::kProject: {
      if (rel.expressions.empty()) {
        return Status::InvalidArgument("project rel: no expressions");
      }
      if (rel.output_names.size() != rel.expressions.size()) {
        return Status::InvalidArgument("project rel: name/expr count mismatch");
      }
      std::vector<Field> fields;
      for (size_t i = 0; i < rel.expressions.size(); ++i) {
        POCS_RETURN_NOT_OK(CheckExpression(rel.expressions[i], *input));
        fields.push_back({rel.output_names[i], rel.expressions[i].type});
      }
      return MakeSchema(std::move(fields));
    }

    case RelKind::kAggregate: {
      std::vector<Field> fields;
      for (int key : rel.group_keys) {
        if (key < 0 || static_cast<size_t>(key) >= input->num_fields()) {
          return Status::InvalidArgument("aggregate rel: bad group key");
        }
        fields.push_back(input->field(key));
      }
      if (rel.aggregates.empty()) {
        return Status::InvalidArgument("aggregate rel: no aggregate funcs");
      }
      for (const AggregateSpec& agg : rel.aggregates) {
        if (agg.func != AggFunc::kCountStar) {
          POCS_RETURN_NOT_OK(CheckExpression(agg.argument, *input));
          if (agg.func != AggFunc::kMin && agg.func != AggFunc::kMax &&
              !columnar::IsNumeric(agg.argument.type)) {
            return Status::InvalidArgument(
                std::string(AggFuncName(agg.func)) + " needs numeric arg");
          }
        }
        fields.push_back({agg.output_name, agg.OutputType()});
      }
      return MakeSchema(std::move(fields));
    }

    case RelKind::kSort:
      if (rel.sort_fields.empty()) {
        return Status::InvalidArgument("sort rel: no sort fields");
      }
      for (const SortField& sf : rel.sort_fields) {
        if (sf.field < 0 ||
            static_cast<size_t>(sf.field) >= input->num_fields()) {
          return Status::InvalidArgument("sort rel: bad field index");
        }
      }
      return input;

    case RelKind::kFetch:
      if (rel.offset < 0) {
        return Status::InvalidArgument("fetch rel: negative offset");
      }
      return input;

    case RelKind::kRead:
      break;  // handled above
  }
  return Status::Internal("unknown rel kind");
}

Status ValidatePlan(const Plan& plan) {
  if (!plan.root) return Status::InvalidArgument("plan has no root");
  return OutputSchema(*plan.root).status();
}

std::string PlanToString(const Plan& plan) {
  std::vector<const Rel*> chain;
  for (const Rel* r = plan.root.get(); r != nullptr; r = r->input.get()) {
    chain.push_back(r);
  }
  std::ostringstream os;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (it != chain.rbegin()) os << " -> ";
    os << RelKindName((*it)->kind);
    if ((*it)->kind == RelKind::kRead) {
      os << "(" << (*it)->bucket << "/" << (*it)->object;
      if (!(*it)->bloom_words.empty()) os << ", bloom";
      os << ")";
    } else if ((*it)->kind == RelKind::kAggregate &&
               (*it)->agg_phase != AggPhase::kSingle) {
      os << "(" << AggPhaseName((*it)->agg_phase) << ")";
    }
  }
  return os.str();
}

std::unique_ptr<Rel> CloneRel(const Rel& rel) {
  auto out = std::make_unique<Rel>();
  out->kind = rel.kind;
  if (rel.input) out->input = CloneRel(*rel.input);
  out->bucket = rel.bucket;
  out->object = rel.object;
  out->base_schema = rel.base_schema;
  out->read_columns = rel.read_columns;
  out->row_group_hint = rel.row_group_hint;
  out->hint_version = rel.hint_version;
  out->bloom_words = rel.bloom_words;
  out->bloom_hashes = rel.bloom_hashes;
  out->bloom_seed = rel.bloom_seed;
  out->bloom_column = rel.bloom_column;
  out->bloom_version = rel.bloom_version;
  out->predicate = rel.predicate;
  out->expressions = rel.expressions;
  out->output_names = rel.output_names;
  out->group_keys = rel.group_keys;
  out->aggregates = rel.aggregates;
  out->agg_phase = rel.agg_phase;
  out->sort_fields = rel.sort_fields;
  out->offset = rel.offset;
  out->count = rel.count;
  return out;
}

}  // namespace pocs::substrait
