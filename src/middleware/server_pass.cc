#include "middleware/server_pass.h"

#include <optional>
#include <utility>

#include "common/logging.h"
#include "middleware/bitmap_scan.h"
#include "middleware/parallel_scan.h"

namespace sqlclass {

bool RecoverableFailure(const Status& status) {
  return status.code() == StatusCode::kIoError ||
         status.code() == StatusCode::kDataLoss ||
         status.code() == StatusCode::kNotFound;
}

namespace {

/// §4.3.1: the OR of the batch's predicates, or null when some node wants
/// the whole table.
std::unique_ptr<Expr> PushdownFilter(const CountBatch& counts) {
  std::vector<std::unique_ptr<Expr>> clauses;
  for (const Expr* predicate : counts.predicates()) {
    if (predicate == nullptr || predicate->kind() == ExprKind::kTrue) {
      return nullptr;
    }
    clauses.push_back(predicate->Clone());
  }
  if (clauses.empty()) return nullptr;
  return Expr::Or(std::move(clauses));
}

/// Hands every row of `cursor` to `rows.take`, adding each to `*rows_read`.
/// A failed take sets `*caller_failed`.
[[nodiscard]] Status TakeAllRows(ServerCursor* cursor, const PassRows& rows,
                                 uint64_t* rows_read, bool* caller_failed) {
  // cost: charged-by-caller(ServerPass::RunRows)
  Row row;
  while (true) {
    SQLCLASS_ASSIGN_OR_RETURN(bool more, cursor->Next(&row));
    if (!more) return Status::OK();
    ++*rows_read;
    Status taken = rows.take(row);
    if (!taken.ok()) {
      *caller_failed = true;
      return taken;
    }
  }
}

}  // namespace

ServerPass::ServerPass(SqlServer* server, Options options)
    : server_(server), options_(std::move(options)) {}

PassReport ServerPass::Run(const std::string& table, const Schema& schema,
                           uint64_t table_rows, CountBatch* counts,
                           const std::vector<PassEngine>& rungs,
                           const PassRows* rows) {
  PassReport report;
  size_t rung = 0;
  bool caller_failed = false;
  for (int attempt = 1;; ++attempt) {
    {
      std::optional<MutexLock> lock;
      if (options_.server_mu != nullptr) lock.emplace(*options_.server_mu);
      CostCounters& cost = server_->cost_counters();
      const CostCounters before = cost;
      while (true) {
        const PassEngine engine = rungs[rung];
        if ((engine == PassEngine::kBitmap &&
             !server_->HasBitmapIndex(table)) ||
            (engine == PassEngine::kShards && !server_->HasShardSet(table))) {
          ++rung;
          continue;
        }
        report.engine = engine;
        report.rows_scanned = 0;
        counts->Reset();
        const bool need_rows = rows != nullptr && rows->begin();
        switch (engine) {
          case PassEngine::kBitmap:
            report.status = RunBitmap(table, schema, counts, &cost);
            break;
          case PassEngine::kShards:
            report.status = RunShards(table, schema, counts, &cost, &report);
            break;
          case PassEngine::kRows:
            report.status = RunRows(table, schema, table_rows, counts, rows,
                                    need_rows, &cost, &report, &caller_failed);
            break;
        }
        if (report.status.ok()) break;
        if (report.status.code() == StatusCode::kDataLoss) {
          ++report.checksum_failures;
        }
        if (caller_failed || rung + 1 == rungs.size() ||
            !RecoverableFailure(report.status)) {
          break;
        }
        // Fall to the next rung, dropping the cached reader so a later
        // pass reopens it from scratch.
        if (engine == PassEngine::kBitmap) {
          report.bitmap_fallback = true;
          bitmap_reader_.reset();
        } else if (engine == PassEngine::kShards) {
          report.shard_fallback = true;
          coordinator_.reset();
        }
        SQLCLASS_LOG(kWarning)
            << (engine == PassEngine::kBitmap ? "bitmap" : "shard")
            << " pass over table '" << table
            << "' failed, falling back: " << report.status.ToString();
        ++rung;
      }
      report.cost = CostCounters::Delta(cost, before);
      if (!options_.cache_readers) {
        bitmap_reader_.reset();
        coordinator_.reset();
      }
    }
    if (report.status.ok() || caller_failed) return report;
    if (!RecoverableFailure(report.status) ||
        attempt >= options_.scan_retry.max_attempts) {
      report.status = Status(
          report.status.code(),
          "scan over table '" + table + "' failed after " +
              std::to_string(attempt) +
              " attempt(s): " + report.status.message());
      return report;
    }
    ++report.retries;
    SleepForBackoff(options_.scan_retry, attempt);
  }
}

ThreadPool* ServerPass::ScanPool(int threads) {
  if (pool_ == nullptr || pool_->size() != threads) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  return pool_.get();
}

Status ServerPass::RunBitmap(const std::string& table, const Schema& schema,
                             CountBatch* counts, CostCounters* cost) {
  if (bitmap_reader_ == nullptr) {
    SQLCLASS_ASSIGN_OR_RETURN(const std::string path,
                              server_->BitmapIndexPath(table));
    SQLCLASS_ASSIGN_OR_RETURN(
        bitmap_reader_,
        BitmapIndexReader::Open(path, &server_->io_counters()));
  }
  return BitmapCountScan::Run(bitmap_reader_.get(), schema, counts, cost);
}

Status ServerPass::RunShards(const std::string& table, const Schema& schema,
                             CountBatch* counts, CostCounters* cost,
                             PassReport* report) {
  if (coordinator_ == nullptr) {
    SQLCLASS_ASSIGN_OR_RETURN(const std::string heap_path,
                              server_->TableHeapPath(table));
    SQLCLASS_ASSIGN_OR_RETURN(
        coordinator_,
        ShardCoordinator::Open(heap_path, schema, &server_->io_counters()));
  }
  const int workers = ResolveShardWorkers(options_.sharding.worker_threads);
  const int resolved =
      workers == 0 ? ThreadPool::HardwareConcurrency() : workers;
  if (transport_ == nullptr) {
    transport_ = MakeShardTransport(options_.sharding);
  }
  const uint64_t timeouts_before = transport_->rpc_timeouts();
  const uint64_t restarts_before = transport_->worker_restarts();
  ShardCoordinator::Result result;
  const Status ran =
      coordinator_->Run(resolved > 1 ? ScanPool(resolved) : nullptr,
                        transport_.get(), counts, cost, &result);
  // RPC hardening activity is metered even when the rung fails — the
  // fault-injection tests reconcile these against the injected faults.
  report->shard_rpc_timeouts += transport_->rpc_timeouts() - timeouts_before;
  report->shard_worker_restarts +=
      transport_->worker_restarts() - restarts_before;
  SQLCLASS_RETURN_IF_ERROR(ran);
  report->rows_scanned = result.rows_scanned;
  report->shard_rescans += result.rescans;
  report->shard_replica_rescans += result.replica_rescans;
  return Status::OK();
}

Status ServerPass::RunRows(const std::string& table, const Schema& schema,
                           uint64_t table_rows, CountBatch* counts,
                           const PassRows* rows, bool need_rows,
                           CostCounters* cost, PassReport* report,
                           bool* caller_failed) {
  std::unique_ptr<Expr> filter =
      options_.filter_pushdown ? PushdownFilter(*counts) : nullptr;
  const int threads = ResolveParallelThreads(options_.parallel_scan_threads);
  if (threads > 1 && !need_rows &&
      table_rows >= options_.parallel_scan_min_rows) {
    // Same CC tables and logical charges as the cursor pass below (DESIGN.md
    // "Count kernel"); the filter must outlive the scan.
    if (filter != nullptr) SQLCLASS_RETURN_IF_ERROR(filter->Bind(schema));
    ParallelScanOptions scan_options;
    scan_options.filter = filter.get();
    scan_options.charge.server_row_evaluated = true;
    scan_options.charge.cursor_transfer = true;
    SQLCLASS_ASSIGN_OR_RETURN(const std::string path,
                              server_->TableHeapPath(table));
    ++cost->server_scans;  // what OpenCursor charges at open
    SQLCLASS_ASSIGN_OR_RETURN(
        const ParallelScanResult scan,
        ParallelCountScan::OverHeapFile(ScanPool(threads), path,
                                        schema.num_columns(), scan_options,
                                        counts, cost,
                                        &server_->io_counters()));
    report->rows_scanned = scan.rows_delivered;
    return Status::OK();
  }
  std::string sql = "SELECT * FROM " + table;
  if (filter != nullptr) sql += " WHERE " + filter->ToSql();
  SQLCLASS_ASSIGN_OR_RETURN(std::unique_ptr<ServerCursor> cursor,
                            server_->OpenCursorSql(sql));
  Status scanned = Status::OK();
  if (rows == nullptr) {
    scanned = CountAllRows(cursor.get(), counts, &report->rows_scanned);
  } else {
    scanned = TakeAllRows(cursor.get(), *rows, &report->rows_scanned,
                          caller_failed);
  }
  // The kernel charges nothing: every row counted — also before a mid-pass
  // fault — is charged here, once.
  cost->mw_cc_updates += counts->CcUpdates();
  return scanned;
}

}  // namespace sqlclass
