#ifndef SQLCLASS_MIDDLEWARE_SERVER_PASS_H_
#define SQLCLASS_MIDDLEWARE_SERVER_PASS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/retry.h"
#include "middleware/count_batch.h"
#include "middleware/shard_scan.h"
#include "server/server.h"
#include "storage/bitmap/bitmap_index.h"

namespace sqlclass {

/// The one fall-through and retry rule: kIoError, kDataLoss and kNotFound
/// may heal on a costlier path or another attempt; nothing else does.
bool RecoverableFailure(const Status& status);

/// The engines that can serve one exact pass over a server table.
enum class PassEngine {
  kBitmap,  // AND + popcount over the table's bitmap index (Rule 0)
  kShards,  // fan-out over the table's shard set (Rule 8)
  kRows,    // a row scan: morsel-parallel over the heap file, or a cursor
};

/// What one ServerPass::Run did; each layer adds it to its own counters.
struct PassReport {
  Status status = Status::OK();
  PassEngine engine = PassEngine::kRows;  // served; on failure, last tried
  bool bitmap_fallback = false;
  bool shard_fallback = false;
  uint64_t rows_scanned = 0;  // rows the serving engine delivered
  uint64_t retries = 0;       // failed row passes run again
  uint64_t checksum_failures = 0;  // failed rungs that returned kDataLoss
  uint64_t shard_rescans = 0;
  uint64_t shard_replica_rescans = 0;
  uint64_t shard_rpc_timeouts = 0;     // counted also when the rung fails
  uint64_t shard_worker_restarts = 0;  // counted also when the rung fails
  CostCounters cost;  // metered cost of the final attempt
};

/// Adds `report` to a layer's engine counters: the middleware's Stats and
/// ServiceMetrics name them alike.
template <typename Counters>
void AddEngineCounters(const PassReport& report, Counters* counters) {
  counters->scan_retries += report.retries;
  counters->bitmap_fallbacks += report.bitmap_fallback ? 1 : 0;
  counters->shard_fallbacks += report.shard_fallback ? 1 : 0;
  counters->shard_rescans += report.shard_rescans;
  counters->shard_replica_rescans += report.shard_replica_rescans;
  counters->shard_rpc_timeouts += report.shard_rpc_timeouts;
  counters->shard_worker_restarts += report.shard_worker_restarts;
  if (!report.status.ok()) return;
  if (report.engine == PassEngine::kBitmap) ++counters->bitmap_scans;
  if (report.engine == PassEngine::kShards) ++counters->shard_scans;
}

/// Lets a caller take the rows of a serial row pass itself (the middleware
/// counts, stages and checks CC memory row by row).
struct PassRows {
  /// Runs before every rung attempt, after the tables are emptied, and
  /// discards what the last attempt left. True when the row rung must hand
  /// every row to `take` (staging), which keeps it serial.
  std::function<bool()> begin;
  /// Counts one row into the batch. A failure ends the pass unretried and
  /// unwrapped: it is the caller's, not the table's.
  std::function<Status(const Row&)> take;
};

/// One exact pass over a server table for a batch of CC requests (§4.1.1),
/// shared by the middleware and the service (DESIGN.md "Fault tolerance &
/// degraded modes"). Tries an ordered list of engines ("rungs"), skipping
/// one whose structure the table lacks. A rung that fails recoverably
/// falls to the next and stays off for the rest of the pass; any other
/// failure ends the pass. A recoverable failure of the last rung is retried
/// under `scan_retry`. Every attempt counts from empty tables, so a
/// recovered pass delivers what a fault-free one would; failed attempts
/// stay charged. The shard transport and the worker pool live as long as
/// the object, so subprocess workers survive across passes.
class ServerPass {
 public:
  struct Options {
    /// Keep the bitmap reader and shard coordinator across passes until a
    /// rung fails; such a pass serves one table. Otherwise every pass
    /// reopens them and sees any rebuild since the last.
    bool cache_readers = false;
    bool filter_pushdown = true;  // §4.3.1 OR of the batch's predicates
    int parallel_scan_threads = 0;
    uint64_t parallel_scan_min_rows = 0;
    ShardingConfig sharding;
    RetryPolicy scan_retry;
    /// When set, Run holds it for each attempt, never across a backoff.
    Mutex* server_mu = nullptr;
  };

  /// `server` and `options.server_mu` must outlive the pass.
  ServerPass(SqlServer* server, Options options);

  /// Fills `counts` from `table` through `rungs`, which end in kRows.
  /// `table_rows` sizes the parallel-scan choice; `rows` may be null.
  PassReport Run(const std::string& table, const Schema& schema,
                 uint64_t table_rows, CountBatch* counts,
                 const std::vector<PassEngine>& rungs,
                 const PassRows* rows = nullptr);

  /// The worker pool for parallel scans, rebuilt when `threads` changes.
  ThreadPool* ScanPool(int threads);

 private:
  [[nodiscard]] Status RunBitmap(const std::string& table,
                                 const Schema& schema, CountBatch* counts,
                                 CostCounters* cost);
  [[nodiscard]] Status RunShards(const std::string& table,
                                 const Schema& schema, CountBatch* counts,
                                 CostCounters* cost, PassReport* report);
  [[nodiscard]] Status RunRows(const std::string& table, const Schema& schema,
                               uint64_t table_rows, CountBatch* counts,
                               const PassRows* rows, bool need_rows,
                               CostCounters* cost, PassReport* report,
                               bool* caller_failed);

  SqlServer* server_;
  Options options_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ShardTransport> transport_;
  std::unique_ptr<BitmapIndexReader> bitmap_reader_;  // see cache_readers
  std::unique_ptr<ShardCoordinator> coordinator_;     // see cache_readers
};

}  // namespace sqlclass

#endif  // SQLCLASS_MIDDLEWARE_SERVER_PASS_H_
