#include "engine/optimizer.h"

#include <algorithm>
#include <optional>
#include <set>

#include "engine/two_phase.h"

namespace pocs::engine {

using columnar::Field;
using columnar::MakeSchema;
using columnar::SchemaPtr;
using substrait::Expression;
using substrait::ExprKind;

namespace {

void CollectExprColumns(const Expression& e, std::set<int>* used) {
  std::vector<int> refs;
  e.CollectFieldRefs(&refs);
  used->insert(refs.begin(), refs.end());
}

void RemapExpr(Expression* e, const std::vector<int>& old_to_new) {
  if (e->kind == ExprKind::kFieldRef) {
    e->field_index = old_to_new[e->field_index];
    return;
  }
  for (Expression& arg : e->args) RemapExpr(&arg, old_to_new);
}

// A scan's output narrowed to the columns the nodes above it read.
struct NarrowedScan {
  std::vector<int> columns;  // kept input columns, ascending
  SchemaPtr schema;          // the kept columns' schema
};

// Narrow the columns flowing out of a scan whose output schema is
// `schema` to those the nodes above it read. `above` lists those nodes
// bottom → top. The walk takes consecutive filters, sorts, top-Ns and
// limits, which pass the scan's schema through, then stops at the first
// project or aggregation, which reads it last; any other node ends it.
// When the walk reads fewer than all columns, its nodes' references are
// remapped to the kept columns and the pass-through nodes take the
// narrowed schema. Returns nullopt, changing nothing, when every column
// is read, when none is and `keep_one` is false, or above a join: the
// nodes there reference the combined (fact + dim) schema, so the remap
// would corrupt them. The dimension table is small by contract and the
// fact side's reduction comes from the pushed bloom filter instead. With
// `keep_one`, a walk that reads no column (SELECT COUNT(*)) keeps the
// narrowest so scans still produce row counts.
std::optional<NarrowedScan> NarrowScanOutput(
    const std::vector<PlanNode*>& above, const columnar::Schema& schema,
    bool keep_one) {
  for (const PlanNode* n : above) {
    if (n->kind == NodeKind::kJoin) return std::nullopt;
  }
  std::set<int> used;
  size_t boundary = 0;  // nodes passing the scan schema through
  for (; boundary < above.size(); ++boundary) {
    const PlanNode* n = above[boundary];
    if (n->kind == NodeKind::kFilter) {
      CollectExprColumns(n->predicate, &used);
    } else if (n->kind == NodeKind::kSort || n->kind == NodeKind::kTopN) {
      for (const auto& sf : n->sort_fields) used.insert(sf.field);
    } else if (n->kind != NodeKind::kLimit) {
      break;
    }
  }
  PlanNode* last = boundary < above.size() ? above[boundary] : nullptr;
  if (last && last->kind == NodeKind::kProject) {
    for (const Expression& e : last->expressions) CollectExprColumns(e, &used);
  } else if (last && last->kind == NodeKind::kAggregation) {
    for (int k : last->group_keys) used.insert(k);
    for (const auto& agg : last->aggregates) {
      if (agg.func != substrait::AggFunc::kCountStar) {
        CollectExprColumns(agg.argument, &used);
      }
    }
  }

  if (used.empty() && keep_one) {
    int narrowest = 0;
    size_t best = SIZE_MAX;
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      size_t width = columnar::TypeWidth(schema.field(c).type);
      if (width == 0) width = 16;
      if (width < best) {
        best = width;
        narrowest = static_cast<int>(c);
      }
    }
    used.insert(narrowest);
  }
  if (used.empty() || used.size() >= schema.num_fields()) return std::nullopt;

  NarrowedScan out;
  out.columns.assign(used.begin(), used.end());
  std::vector<int> old_to_new(schema.num_fields(), -1);
  std::vector<Field> fields;
  for (size_t c = 0; c < out.columns.size(); ++c) {
    old_to_new[out.columns[c]] = static_cast<int>(c);
    fields.push_back(schema.field(out.columns[c]));
  }
  out.schema = MakeSchema(std::move(fields));

  for (size_t n = 0; n < boundary; ++n) {
    PlanNode* node = above[n];
    if (node->kind == NodeKind::kFilter) {
      RemapExpr(&node->predicate, old_to_new);
    } else if (node->kind == NodeKind::kSort ||
               node->kind == NodeKind::kTopN) {
      for (auto& sf : node->sort_fields) sf.field = old_to_new[sf.field];
    }
    node->output_schema = out.schema;
  }
  if (last && last->kind == NodeKind::kProject) {
    for (Expression& e : last->expressions) RemapExpr(&e, old_to_new);
  } else if (last && last->kind == NodeKind::kAggregation) {
    for (int& k : last->group_keys) k = old_to_new[k];
    for (auto& agg : last->aggregates) {
      if (agg.func != substrait::AggFunc::kCountStar) {
        RemapExpr(&agg.argument, old_to_new);
      }
    }
  }
  return out;
}

// After pushdown negotiation, trim the columns the pushed pipeline sends
// back to what the residual plan actually uses. Only meaningful when the
// absorbed pipeline preserves the scan schema (filter and/or raw-row
// top-N); project/aggregation outputs are already exact.
void TrimResultColumns(PlanNode* scan,
                       const std::vector<PlanNode*>& residual_above_scan) {
  connector::ScanSpec& spec = scan->scan_spec;
  if (spec.operators.empty() || !spec.output_schema) return;
  for (const auto& op : spec.operators) {
    if (op.kind == connector::PushedOperator::Kind::kProject ||
        op.kind == connector::PushedOperator::Kind::kPartialAggregation) {
      return;  // output schema already minimal
    }
  }
  std::optional<NarrowedScan> trimmed = NarrowScanOutput(
      residual_above_scan, *spec.output_schema, /*keep_one=*/false);
  if (!trimmed) return;
  spec.result_columns = std::move(trimmed->columns);
  spec.output_schema = trimmed->schema;
  scan->output_schema = trimmed->schema;
}

}  // namespace

Status PruneColumns(const PlanNodePtr& root) {
  std::vector<PlanNode*> chain;
  for (PlanNode* n = root.get(); n != nullptr; n = n->input.get()) {
    chain.push_back(n);
  }
  std::reverse(chain.begin(), chain.end());
  if (chain.empty() || chain[0]->kind != NodeKind::kTableScan) {
    return Status::InvalidArgument("plan must start with a table scan");
  }
  PlanNode* scan = chain[0];
  std::optional<NarrowedScan> pruned =
      NarrowScanOutput({chain.begin() + 1, chain.end()},
                       *scan->table.info.schema, /*keep_one=*/true);
  if (pruned) {
    scan->scan_spec.columns = std::move(pruned->columns);
    scan->output_schema = pruned->schema;
  }
  return Status::OK();
}

Result<LocalOptimizerResult> RunConnectorOptimizer(
    PlanNodePtr root, connector::Connector& connector) {
  LocalOptimizerResult result;

  // Bottom-up: collect the chain, then offer nodes directly above the
  // scan one at a time. A rejected node stops the walk (operators cannot
  // be reordered across an unpushed one).
  std::vector<PlanNodePtr> chain;  // top → bottom
  for (PlanNodePtr n = root; n; n = n->input) chain.push_back(n);
  std::reverse(chain.begin(), chain.end());  // bottom → top
  if (chain.empty() || chain[0]->kind != NodeKind::kTableScan) {
    return Status::InvalidArgument("plan must start with a table scan");
  }
  PlanNodePtr scan = chain[0];
  connector::ScanSpec& spec = scan->scan_spec;
  if (!spec.output_schema) spec.output_schema = scan->output_schema;

  size_t absorbed = 0;  // nodes above the scan absorbed into the spec
  bool agg_absorbed = false;
  bool keep_topn = false;  // absorbed a TopN that must stay for the merge
  for (size_t i = 1; i < chain.size(); ++i) {
    PlanNode& node = *chain[i];
    connector::PushedOperator op;
    bool offerable = true;
    switch (node.kind) {
      case NodeKind::kFilter:
        op.kind = connector::PushedOperator::Kind::kFilter;
        op.predicate = node.predicate;
        break;
      case NodeKind::kProject:
        if (node.identity_project) {
          offerable = false;  // output projects stay compute-side (free)
          break;
        }
        op.kind = connector::PushedOperator::Kind::kProject;
        op.expressions = node.expressions;
        op.output_names = node.output_names;
        break;
      case NodeKind::kAggregation: {
        op.kind = connector::PushedOperator::Kind::kPartialAggregation;
        op.group_keys = node.group_keys;
        // The connector receives the PARTIAL decomposition: storage
        // returns partial results that the engine's final step merges.
        op.aggregates = PartialAggSpecs(node.aggregates);
        break;
      }
      case NodeKind::kTopN: {
        op.kind = connector::PushedOperator::Kind::kPartialTopN;
        op.sort_fields = node.sort_fields;
        op.limit = node.limit;
        break;
      }
      case NodeKind::kLimit: {
        op.kind = connector::PushedOperator::Kind::kPartialLimit;
        op.limit = node.limit;
        break;
      }
      default:
        offerable = false;
        break;
    }
    if (!offerable) break;

    connector::PushdownDecision decision;
    decision.kind = op.kind;
    POCS_ASSIGN_OR_RETURN(bool accepted,
                          connector.OfferPushdown(scan->table, op, &spec,
                                                  &decision));
    result.decisions.push_back(decision);
    if (!accepted) break;

    if (node.kind == NodeKind::kAggregation) {
      agg_absorbed = true;
      // Partial results come from storage: the page source output is the
      // canonical partial schema.
      ++absorbed;
      break;  // the aggregation node itself stays (final step); only a
              // TopN directly above may still be offered
    }
    if (node.kind == NodeKind::kTopN || node.kind == NodeKind::kLimit) {
      // Partial top-N / limit: storage bounds each split's rows; the node
      // stays in the plan for the final merge.
      keep_topn = true;
      ++absorbed;
      break;
    }
    ++absorbed;
  }

  // A TopN/Limit directly above an absorbed aggregation may additionally
  // be offered (the storage can bound each split's candidate set).
  if (agg_absorbed && absorbed + 1 < chain.size()) {
    PlanNode& above = *chain[absorbed + 1];
    if (above.kind == NodeKind::kTopN || above.kind == NodeKind::kLimit) {
      connector::PushedOperator op;
      op.kind = above.kind == NodeKind::kTopN
                    ? connector::PushedOperator::Kind::kPartialTopN
                    : connector::PushedOperator::Kind::kPartialLimit;
      op.sort_fields = above.sort_fields;
      op.limit = above.limit;
      connector::PushdownDecision decision;
      decision.kind = op.kind;
      POCS_ASSIGN_OR_RETURN(bool accepted,
                            connector.OfferPushdown(scan->table, op, &spec,
                                                    &decision));
      (void)accepted;  // the TopN node stays either way (merge re-sort)
      result.decisions.push_back(decision);
    }
  }

  // Rewrite the plan: drop fully absorbed Filter/Project nodes; an
  // absorbed Aggregation becomes a final-step node over the scan; an
  // absorbed TopN stays for the merge re-sort.
  if (absorbed > 0) {
    size_t keep_from = 1 + absorbed;  // first chain index kept above scan
    PlanNodePtr bottom = scan;
    if (agg_absorbed) {
      // chain[absorbed] is the aggregation node: keep it as kFinal.
      PlanNodePtr agg = chain[absorbed];
      agg->agg_step = AggregationStep::kFinal;
      agg->input = scan;
      bottom = agg;
    } else if (keep_topn) {
      PlanNodePtr topn = chain[absorbed];
      topn->input = scan;
      bottom = topn;
    }
    if (keep_from >= chain.size()) {
      result.plan = bottom;
    } else {
      chain[keep_from]->input = bottom;
      result.plan = chain.back();
    }
  } else {
    result.plan = root;
  }

  // Trim the returned columns to what the residual plan needs.
  {
    std::vector<PlanNode*> residual;
    for (PlanNode* n = result.plan.get();
         n && n->kind != NodeKind::kTableScan; n = n->input.get()) {
      residual.push_back(n);
    }
    std::reverse(residual.begin(), residual.end());
    TrimResultColumns(scan.get(), residual);
  }
  return result;
}

}  // namespace pocs::engine
