#ifndef SQLCLASS_MIDDLEWARE_BITMAP_SCAN_H_
#define SQLCLASS_MIDDLEWARE_BITMAP_SCAN_H_

#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "middleware/count_batch.h"
#include "server/cost_model.h"
#include "sql/expr.h"
#include "storage/bitmap/bitmap_index.h"

namespace sqlclass {

/// Applies the SQLCLASS_BITMAP_INDEX environment override to the configured
/// `use_bitmap_index` knob: "0"/"false"/"off" forces bitmap routing off,
/// any other value forces it on, unset keeps the configured value.
bool ResolveUseBitmapIndex(bool configured);

/// Answers CC requests from a persisted bitmap index instead of a row
/// scan: the node bitmap is the AND of its conjunction's value bitmaps,
/// and every (attribute value x class) count is a popcount of a three-way
/// intersection. Produces CC tables byte-identical to the row-scan path —
/// cells exist exactly for the (attribute, value) pairs present in the
/// node's data — while charging per-bitmap-word costs (mw_bitmap_*) in
/// place of per-row cursor costs.
class BitmapCountScan {
 public:
  /// True iff `predicate` can be served from the index: null, TRUE, or a
  /// (nested) conjunction of column =/<> literal tests — exactly the shapes
  /// BatchMatcher::FlattenConjunction accepts. Disjunctions and negations
  /// never occur in node predicates and are not servable.
  static bool Servable(const Expr* predicate);

  /// Builds every node's CC table of `counts` from `index`; each node's
  /// tally is the popcount of its node bitmap. `cost` (non-null) takes the
  /// logical mw_bitmap_* charges; physical reads land on the counters the
  /// index reader was opened with. Charges are per node and independent of
  /// the reader's cache state, so simulated cost is deterministic across
  /// batchings and repeat runs.
  [[nodiscard]] static Status Run(BitmapIndexReader* index,
                                  const Schema& schema, CountBatch* counts,
                                  CostCounters* cost);
};

}  // namespace sqlclass

#endif  // SQLCLASS_MIDDLEWARE_BITMAP_SCAN_H_
