#include "middleware/count_batch.h"

#include <cassert>
#include <string>

namespace sqlclass {

CountBatch::Plan::Plan(const std::vector<Node>& nodes, int class_column,
                       int num_classes)
    : class_column(class_column),
      num_classes(num_classes),
      predicates([&nodes] {
        std::vector<const Expr*> out;
        for (const Node& node : nodes) out.push_back(node.predicate);
        return out;
      }()),
      matcher(predicates) {
  for (const Node& node : nodes) attrs.push_back(node.active_attrs);
}

CountBatch::CountBatch(const std::vector<Node>& nodes, int class_column,
                       int num_classes)
    : CountBatch(std::make_shared<const Plan>(nodes, class_column,
                                              num_classes)) {}

CountBatch::CountBatch(std::shared_ptr<const Plan> plan)
    : plan_(std::move(plan)) {
  Reset();
}

void CountBatch::Drop(size_t pos) {
  ccs_[pos] = CcTable(plan_->num_classes);
  dropped_[pos] = 1;
}

void CountBatch::Reset() {
  const size_t n = plan_->attrs.size();
  ccs_.clear();
  ccs_.reserve(n);
  for (size_t i = 0; i < n; ++i) ccs_.emplace_back(plan_->num_classes);
  rows_.assign(n, 0);
  dropped_.assign(n, 0);
}

CountBatch CountBatch::Partial() const { return CountBatch(plan_); }

void CountBatch::Merge(const CountBatch& partial) {
  assert(partial.plan_ == plan_);
  for (size_t i = 0; i < ccs_.size(); ++i) {
    if (dropped_[i]) continue;
    ccs_[i].Merge(partial.ccs_[i]);
    rows_[i] += partial.rows_[i];
  }
}

uint64_t CountBatch::CcUpdates() const {
  uint64_t updates = 0;
  for (size_t i = 0; i < rows_.size(); ++i) {
    updates += rows_[i] * plan_->attrs[i]->size();
  }
  return updates;
}

void CountBatch::Assign(size_t pos, CcTable cc) {
  rows_[pos] = static_cast<uint64_t>(cc.TotalRows());
  ccs_[pos] = std::move(cc);
}

CcTable CountBatch::Take(size_t pos) {
  CcTable taken = std::move(ccs_[pos]);
  ccs_[pos] = CcTable(plan_->num_classes);
  return taken;
}

Status PrepareRequest(const Schema& schema, uint64_t table_rows,
                      CcRequest* request) {
  if (request->predicate == nullptr) request->predicate = Expr::True();
  SQLCLASS_RETURN_IF_ERROR(request->predicate->Bind(schema));
  if (request->active_attrs.empty()) {
    return Status::InvalidArgument("request with no attributes to count");
  }
  for (int attr : request->active_attrs) {
    if (attr < 0 || attr >= schema.num_columns() ||
        attr == schema.class_column()) {
      return Status::InvalidArgument("bad attribute column in request");
    }
  }
  if (request->parent_id < 0) request->data_size = table_rows;
  return Status::OK();
}

Status CheckCounted(const CcRequest& request, const CcTable& cc) {
  if (request.data_size_is_estimate ||
      static_cast<uint64_t>(cc.TotalRows()) == request.data_size) {
    return Status::OK();
  }
  return Status::Internal("counted " + std::to_string(cc.TotalRows()) +
                          " rows for node " + std::to_string(request.node_id) +
                          ", expected " + std::to_string(request.data_size));
}

}  // namespace sqlclass
