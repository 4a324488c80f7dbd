#ifndef SQLCLASS_MIDDLEWARE_PARALLEL_SCAN_H_
#define SQLCLASS_MIDDLEWARE_PARALLEL_SCAN_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/thread_pool.h"
#include "middleware/count_batch.h"
#include "server/cost_model.h"
#include "sql/expr.h"
#include "storage/io_counters.h"
#include "storage/row_store.h"

namespace sqlclass {

/// Which logical costs a parallel counting scan charges per row, so the
/// same engine can stand in for each serial scan shape:
///  * a server cursor scan (every row evaluated at the server, passing
///    rows additionally paying the cursor transfer),
///  * a staged-file scan (one middleware file read per row),
///  * a memory-store scan (one middleware memory read per row).
/// CC updates are always charged per matched (node, attribute) bump.
/// Totals are sums over the same row set the serial path touches, so they
/// are identical at any thread count.
struct ScanCharge {
  bool server_row_evaluated = false;  // ++server_rows_evaluated per row
  bool cursor_transfer = false;       // transfer charges per delivered row
  bool mw_file_read = false;          // ++mw_file_rows_read per delivered row
  bool mw_memory_read = false;        // ++mw_memory_rows_read per row
};

struct ParallelScanOptions {
  /// Morsel granularity. Heap-file scans hand out page ranges; memory
  /// stores hand out row ranges.
  uint64_t pages_per_morsel = 4;
  size_t rows_per_morsel = 8192;

  /// Server-side pushdown filter (may be null). Rows failing it are charged
  /// the per-row evaluation but never delivered, matched, or counted —
  /// exactly the ServerCursor contract.
  const Expr* filter = nullptr;

  ScanCharge charge;
};

struct ParallelScanResult {
  uint64_t rows_scanned = 0;    // rows read from the source (pre-filter)
  uint64_t rows_delivered = 0;  // rows passing the filter
  uint64_t cc_updates = 0;      // total (node, attribute) bumps
};

/// Morsel-parallel counting scan (DESIGN.md "Count kernel"). Each worker
/// owns a private reader and a CountBatch partial of `counts`; morsels are
/// claimed off one atomic counter; partials merge into `counts` in worker
/// order after the join, so the tables are byte-identical to a serial scan.
/// Logical costs — including mw_cc_updates — are charged to `cost` once,
/// post-merge, in totals equal to the serial path's; a failed scan charges
/// none and leaves `counts` untouched. Physical IoCounters (not part of the
/// simulated cost model) are merged from per-worker locals.
class ParallelCountScan {
 public:
  /// Scans the heap file at `path` (a server table or a sealed staged
  /// file). Workers bypass any buffer pool — each opens its own pool-less
  /// reader — so every page is physically read exactly once per scan.
  [[nodiscard]] static StatusOr<ParallelScanResult> OverHeapFile(
      ThreadPool* pool, const std::string& path, int num_columns,
      const ParallelScanOptions& options, CountBatch* counts,
      CostCounters* cost, IoCounters* io);

  /// Scans an in-memory staged store; rows are already decoded, so workers
  /// count straight off the store's contiguous values.
  [[nodiscard]] static StatusOr<ParallelScanResult> OverMemoryStore(
      ThreadPool* pool, const InMemoryRowStore& store,
      const ParallelScanOptions& options, CountBatch* counts,
      CostCounters* cost);
};

}  // namespace sqlclass

#endif  // SQLCLASS_MIDDLEWARE_PARALLEL_SCAN_H_
