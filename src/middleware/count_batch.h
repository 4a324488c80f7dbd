#ifndef SQLCLASS_MIDDLEWARE_COUNT_BATCH_H_
#define SQLCLASS_MIDDLEWARE_COUNT_BATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "catalog/row.h"
#include "catalog/schema.h"
#include "common/status.h"
#include "middleware/batch_matcher.h"
#include "mining/cc_provider.h"
#include "mining/cc_table.h"
#include "sql/expr.h"

namespace sqlclass {

/// The middleware's one counting kernel (§4.1.1): the CC tables of a batch
/// of active nodes, built in one data scan by routing each row to every
/// node whose predicate it satisfies. Every count engine fills one
/// (DESIGN.md "Count kernel"). Two parts:
///  * a read-only plan: each node's bound predicate and active attributes,
///    plus the one BatchMatcher trie built from them;
///  * an accumulator: one CcTable and one matched-row tally per node.
/// Per-worker and per-shard partials share the plan and Merge back in a
/// fixed order; cells are int64 sums over disjoint row sets, so the merged
/// tables equal one serial pass. The kernel charges no cost counter.
class CountBatch {
 public:
  /// One CC request of the batch. Pointees must stay valid for every
  /// CountRow, Merge and CcUpdates call on the batch and its partials.
  struct Node {
    const Expr* predicate = nullptr;  // bound; null means TRUE
    const std::vector<int>* active_attrs = nullptr;  // non-null
  };

  static Node NodeOf(const CcRequest& request) {
    return Node{request.predicate.get(), &request.active_attrs};
  }

  CountBatch(const std::vector<Node>& nodes, int class_column,
             int num_classes);

  size_t size() const { return ccs_.size(); }
  int class_column() const { return plan_->class_column; }
  int num_classes() const { return plan_->num_classes; }
  const std::vector<const Expr*>& predicates() const {
    return plan_->predicates;
  }
  const std::vector<int>& attrs(size_t pos) const {
    return *plan_->attrs[pos];
  }

  /// Folds one row into every matching node that has not been dropped and
  /// bumps its tally. Returns the positions of *all* matching nodes, dropped
  /// ones included, so a serial scan can keep staging rows for them; the
  /// reference is valid until the next call.
  const std::vector<int>& CountRow(const Value* values) {
    plan_->matcher.Match(values, &matches_);
    for (int pos : matches_) {
      if (dropped_[pos]) continue;
      ccs_[pos].AddRow(values, *plan_->attrs[pos], plan_->class_column);
      ++rows_[pos];
    }
    return matches_;
  }

  /// Overflow eviction: empties the node's table and stops counting it.
  /// Its tally keeps the rows counted before the drop.
  void Drop(size_t pos);
  bool dropped(size_t pos) const { return dropped_[pos] != 0; }

  /// Empties every table and tally and undoes every drop (a retried pass).
  void Reset();

  /// A fresh accumulator over the same plan, for one worker or shard.
  CountBatch Partial() const;

  /// Adds `partial`'s tables and tallies (built over rows disjoint from
  /// this batch's) into this batch's non-dropped nodes.
  void Merge(const CountBatch& partial);

  const CcTable& cc(size_t pos) const { return ccs_[pos]; }

  /// Rows counted into the node: matched rows for a row scan, the node
  /// bitmap's popcount for the bitmap engine, matching sample rows for the
  /// sample engine.
  uint64_t rows(size_t pos) const { return rows_[pos]; }

  /// Total (node, attribute) cell bumps: sum of rows(i) * |attrs(i)|.
  uint64_t CcUpdates() const;

  /// Installs a table built outside the row kernel (bitmap popcounts, a
  /// shard's wire reply, a scaled sample CC); the tally becomes its row
  /// count.
  void Assign(size_t pos, CcTable cc);

  /// Moves the node's table out (delivery).
  CcTable Take(size_t pos);

 private:
  struct Plan {
    Plan(const std::vector<Node>& nodes, int class_column, int num_classes);

    int class_column;
    int num_classes;
    std::vector<const Expr*> predicates;
    std::vector<const std::vector<int>*> attrs;
    BatchMatcher matcher;  // built from `predicates`
  };

  explicit CountBatch(std::shared_ptr<const Plan> plan);

  std::shared_ptr<const Plan> plan_;
  std::vector<CcTable> ccs_;
  std::vector<uint64_t> rows_;
  std::vector<char> dropped_;
  std::vector<int> matches_;  // CountRow scratch
};

/// Readies a queued CC request for counting: a null predicate becomes TRUE,
/// the predicate is bound against `schema`, and the active attributes must
/// be non-class columns of it. A root request (no parent) counts the whole
/// table, `table_rows`.
[[nodiscard]] Status PrepareRequest(const Schema& schema, uint64_t table_rows,
                                    CcRequest* request);

/// The exact-count invariant: a node's CC table totals its requested data
/// size. kInternal otherwise, unless that size is an estimate (the node
/// descends from a sample-served CC, and the exact count is the truth).
[[nodiscard]] Status CheckCounted(const CcRequest& request, const CcTable& cc);

/// Drains `source` — anything with `StatusOr<bool> Next(Row*)`, such as a
/// server cursor or a heap-file reader — through `counts`, adding each row
/// read to `*rows_read`. Rows counted before a mid-scan failure stay
/// counted, so the caller can still charge them.
template <typename Source>
[[nodiscard]] Status CountAllRows(Source* source, CountBatch* counts,
                                  uint64_t* rows_read) {
  // cost: charged-by-caller(rows_read and CountBatch::CcUpdates)
  Row row;
  while (true) {
    SQLCLASS_ASSIGN_OR_RETURN(bool more, source->Next(&row));
    if (!more) return Status::OK();
    ++*rows_read;
    counts->CountRow(row.data());
  }
}

}  // namespace sqlclass

#endif  // SQLCLASS_MIDDLEWARE_COUNT_BATCH_H_
