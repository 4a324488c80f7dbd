#include "middleware/middleware.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>

#include "common/logging.h"
#include "middleware/bitmap_scan.h"
#include "middleware/count_batch.h"
#include "middleware/parallel_scan.h"
#include "middleware/sample_scan.h"
#include "mining/cc_sql.h"

namespace sqlclass {

namespace {

/// Adds one server pass's report to the middleware's counters and to the
/// batch's trace.
void AddPassReport(const PassReport& report,
                   ClassificationMiddleware::Stats* stats,
                   ClassificationMiddleware::BatchTrace* trace) {
  AddEngineCounters(report, stats);
  stats->checksum_failures += report.checksum_failures;
  trace->scan_retries += static_cast<int>(report.retries);
  trace->bitmap_fallback |= report.bitmap_fallback;
  trace->shard_fallback |= report.shard_fallback;
  trace->shard_rescans += static_cast<int>(report.shard_rescans);
  trace->shard_replica_rescans +=
      static_cast<int>(report.shard_replica_rescans);
  trace->shard_rpc_timeouts += static_cast<int>(report.shard_rpc_timeouts);
  trace->shard_worker_restarts +=
      static_cast<int>(report.shard_worker_restarts);
  if (!report.status.ok()) return;
  trace->rows_scanned = report.rows_scanned;
  trace->served_from_bitmap = report.engine == PassEngine::kBitmap;
  trace->served_from_shards = report.engine == PassEngine::kShards;
  if (report.engine == PassEngine::kRows) ++stats->server_scans;
}

}  // namespace

StatusOr<std::unique_ptr<ClassificationMiddleware>>
ClassificationMiddleware::Create(SqlServer* server, const std::string& table,
                                 MiddlewareConfig config) {
  SQLCLASS_ASSIGN_OR_RETURN(const Schema* schema, server->GetSchema(table));
  if (!schema->has_class_column()) {
    return Status::InvalidArgument("table has no class column: " + table);
  }
  SQLCLASS_ASSIGN_OR_RETURN(uint64_t rows, server->TableRowCount(table));
  if (config.memory_budget_bytes == 0) {
    return Status::InvalidArgument("memory budget must be positive");
  }
  if (config.file_split_threshold < 0 || config.file_split_threshold > 1) {
    return Status::InvalidArgument("file split threshold must be in [0, 1]");
  }
  if (config.cc_memory_reserve < 0 || config.cc_memory_reserve >= 1) {
    return Status::InvalidArgument("cc memory reserve must be in [0, 1)");
  }
  if (config.overflow_check_interval == 0) {
    return Status::InvalidArgument("overflow check interval must be >= 1");
  }
  if (config.parallel_scan_threads < 0) {
    return Status::InvalidArgument("parallel scan threads must be >= 0");
  }
  if (config.sharding.worker_threads < 0) {
    return Status::InvalidArgument("shard worker threads must be >= 0");
  }
  return std::unique_ptr<ClassificationMiddleware>(
      new ClassificationMiddleware(server, table, *schema, rows,
                                   std::move(config)));
}

ClassificationMiddleware::ClassificationMiddleware(SqlServer* server,
                                                   std::string table,
                                                   Schema schema,
                                                   uint64_t table_rows,
                                                   MiddlewareConfig config)
    : server_(server),
      table_(std::move(table)),
      schema_(std::move(schema)),
      num_classes_(schema_.attribute(schema_.class_column()).cardinality),
      table_rows_(table_rows),
      config_(std::move(config)),
      scheduler_(config_),
      estimator_(schema_),
      staging_(std::make_unique<StagingManager>(config_.staging_dir,
                                                schema_.num_columns(),
                                                &server->cost_counters())),
      server_pass_(server,
                   ServerPass::Options{
                       .cache_readers = true,
                       .filter_pushdown = config_.enable_filter_pushdown,
                       .parallel_scan_threads = config_.parallel_scan_threads,
                       .parallel_scan_min_rows = config_.parallel_scan_min_rows,
                       .sharding = config_.sharding,
                       .scan_retry = config_.scan_retry}) {}

Status ClassificationMiddleware::QueueRequest(CcRequest request) {
  SQLCLASS_RETURN_IF_ERROR(PrepareRequest(schema_, table_rows_, &request));

  Pending pending;
  pending.seq = next_seq_++;
  const double est_entries = estimator_.EstimateEntries(
      request.parent_id, request.data_size, request.active_attrs);
  pending.est_cc_bytes = static_cast<size_t>(
      est_entries * static_cast<double>(CcTable::BytesPerEntry(num_classes_)));
  pending.location = estimator_.InheritedLocation(request.parent_id);
  pending.request = std::move(request);
  pending_.push_back(std::move(pending));
  return Status::OK();
}

Status ClassificationMiddleware::GarbageCollectStores() {
  std::set<DataLocation> referenced;
  for (const Pending& pending : pending_) {
    if (pending.location.kind != LocationKind::kServer) {
      referenced.insert(pending.location);
    }
  }
  // Stores holding the data of delivered-but-unreleased nodes stay pinned:
  // the client may still queue children that will inherit them.
  for (int node_id : unreleased_) {
    if (estimator_.HasMeta(node_id)) {
      const DataLocation& loc = estimator_.meta(node_id).location;
      if (loc.kind != LocationKind::kServer) referenced.insert(loc);
    }
  }
  for (const DataLocation& loc : staging_->LiveStores()) {
    if (referenced.count(loc) == 0) {
      SQLCLASS_RETURN_IF_ERROR(staging_->Free(loc));
      ++stats_.stores_freed;
    }
  }
  return Status::OK();
}

void ClassificationMiddleware::ReleaseNode(int node_id) {
  unreleased_.erase(node_id);
}

Status ClassificationMiddleware::EvictMemoryStoresUnderPressure() {
  size_t smallest_est = std::numeric_limits<size_t>::max();
  for (const Pending& pending : pending_) {
    smallest_est = std::min(smallest_est, pending.est_cc_bytes);
  }
  if (smallest_est == std::numeric_limits<size_t>::max()) return Status::OK();

  while (config_.memory_budget_bytes <
         staging_->memory_bytes_used() + smallest_est) {
    // Pick the largest live memory store.
    DataLocation victim;
    uint64_t victim_rows = 0;
    for (const DataLocation& loc : staging_->LiveStores()) {
      if (loc.kind != LocationKind::kMemory) continue;
      SQLCLASS_ASSIGN_OR_RETURN(uint64_t rows, staging_->StoreRows(loc));
      if (rows >= victim_rows) {
        victim_rows = rows;
        victim = loc;
      }
    }
    if (victim.kind != LocationKind::kMemory) break;  // nothing to evict
    SQLCLASS_RETURN_IF_ERROR(staging_->Free(victim));
    ++stats_.stores_evicted;
    const DataLocation server_loc{LocationKind::kServer, 0};
    estimator_.RelocateStore(victim, server_loc);
    for (Pending& pending : pending_) {
      if (pending.location == victim) pending.location = server_loc;
    }
  }
  return Status::OK();
}

StatusOr<std::vector<CcResult>> ClassificationMiddleware::FulfillSome() {
  std::vector<CcResult> results;
  if (pending_.empty()) return results;

  // The client has queued all follow-ups for previously delivered nodes by
  // now (CcProvider contract), so the pending set fully determines which
  // staged stores are still reachable.
  SQLCLASS_RETURN_IF_ERROR(GarbageCollectStores());
  SQLCLASS_RETURN_IF_ERROR(EvictMemoryStoresUnderPressure());

  // A sample batch in which the gate escalates every node delivers nothing;
  // the escalated requests are back in the queue with sample routing off,
  // so planning again in the same call is guaranteed to make progress —
  // FulfillSome never returns empty-handed while requests are pending.
  while (true) {
    SQLCLASS_ASSIGN_OR_RETURN(results, PlanAndExecuteOne());
    ++stats_.batches;
    stats_.nodes_fulfilled += results.size();
    if (!results.empty() || pending_.empty()) return results;
  }
}

StatusOr<std::vector<CcResult>> ClassificationMiddleware::PlanAndExecuteOne() {
  std::vector<CcResult> results;
  const bool sample_routing =
      ResolveApproxEnabled(config_.approx.enable) &&
      ResolveApproxExactness(config_.approx.exactness) < 1.0 &&
      server_->HasSampleTable(table_);
  const bool bitmap_routing =
      ResolveUseBitmapIndex(config_.use_bitmap_index) &&
      server_->HasBitmapIndex(table_);
  const bool shard_routing =
      ResolveShardingEnabled(config_.sharding.enable) &&
      server_->HasShardSet(table_);
  const uint64_t shard_min_rows =
      ResolveShardMinRows(config_.sharding.min_node_rows);
  std::vector<SchedItem> items;
  items.reserve(pending_.size());
  std::map<DataLocation, uint64_t> store_rows;
  for (size_t i = 0; i < pending_.size(); ++i) {
    const Pending& pending = pending_[i];
    SchedItem item;
    item.idx = static_cast<int>(i);
    item.seq = pending.seq;
    item.data_size = pending.request.data_size;
    item.est_cc_bytes = pending.est_cc_bytes;
    item.location = pending.location;
    item.bitmap_servable =
        bitmap_routing && pending.location.kind == LocationKind::kServer &&
        BitmapCountScan::Servable(pending.request.predicate.get());
    item.sample_servable =
        sample_routing && !pending.no_sample &&
        !pending.request.prefer_exact &&
        pending.location.kind == LocationKind::kServer &&
        pending.request.data_size >= config_.approx.min_node_rows;
    item.shard_servable =
        shard_routing && pending.location.kind == LocationKind::kServer &&
        pending.request.data_size >= shard_min_rows;
    items.push_back(item);
    if (pending.location.kind != LocationKind::kServer &&
        store_rows.count(pending.location) == 0) {
      SQLCLASS_ASSIGN_OR_RETURN(uint64_t rows,
                                staging_->StoreRows(pending.location));
      store_rows[pending.location] = rows;
    }
  }

  SchedBudgets budgets;
  budgets.memory_budget = config_.memory_budget_bytes;
  budgets.file_budget =
      config_.enable_file_staging ? config_.file_budget_bytes : 0;
  budgets.staged_memory_used = staging_->memory_bytes_used();
  budgets.staged_file_used = staging_->file_bytes_used();
  budgets.row_bytes = staging_->RowBytes();

  BatchPlan plan = scheduler_.PlanBatch(items, store_rows, budgets);
  if (plan.admitted.empty()) {
    return Status::Internal("scheduler admitted no requests");
  }

  // Extract the admitted requests (in plan order) from the queue.
  std::vector<Pending> batch;
  batch.reserve(plan.admitted.size());
  std::vector<bool> taken(pending_.size(), false);
  std::map<int, int> idx_to_pos;
  for (int idx : plan.admitted) {
    idx_to_pos[idx] = static_cast<int>(batch.size());
    batch.push_back(std::move(pending_[idx]));
    taken[idx] = true;
  }
  std::vector<Pending> remaining;
  remaining.reserve(pending_.size() - batch.size());
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (!taken[i]) remaining.push_back(std::move(pending_[i]));
  }
  pending_ = std::move(remaining);

  // Rewrite staging decisions to batch positions.
  BatchPlan local = std::move(plan);
  for (StageDecision& decision : local.staging) {
    decision.idx = idx_to_pos.at(decision.idx);
  }

  SQLCLASS_ASSIGN_OR_RETURN(results, ExecuteBatch(local, std::move(batch)));
  return results;
}

StatusOr<std::vector<CcResult>> ClassificationMiddleware::ExecuteBatch(
    const BatchPlan& plan, std::vector<Pending> batch) {
  const int n = static_cast<int>(batch.size());
  const int class_column = schema_.class_column();
  CostCounters& cost = server_->cost_counters();

  BatchTrace trace;
  trace.batch = stats_.batches + 1;
  trace.source = plan.source;
  trace.nodes = n;
  trace.file_split = plan.file_split;

  // Per-attempt scan state. A recovery pass (staging abort, degradation to
  // the server, engine fallback, transient retry) rebuilds all of it from
  // scratch, so the one pass that succeeds fully determines the delivered
  // CC tables — that is what makes recovered results byte-identical to a
  // fault-free run. Charges from failed passes stay in the cost counters:
  // the work really happened, and honest accounting is part of the
  // degradation contract.
  DataLocation source = plan.source;
  bool staging_enabled = !plan.staging.empty();
  bool use_sample = plan.from_sample;
  std::vector<bool> fallback(n, false);
  std::vector<bool> escalate(n, false);
  std::vector<size_t> observed_bytes(n, 0);
  std::vector<std::optional<DataLocation>> stage_into(n);
  size_t cc_available = 0;
  uint64_t rows_since_check = 0;
  bool staging_fault = false;

  std::vector<CountBatch::Node> nodes;
  nodes.reserve(n);
  for (const Pending& pending : batch) {
    nodes.push_back(CountBatch::NodeOf(pending.request));
  }
  CountBatch counts(nodes, class_column, num_classes_);

  // Opens fresh staging stores for the planned nodes (Rule 4: batch nodes
  // only), adding the memory staging will fill during the scan to
  // `*planned_memory_bytes`.
  auto begin_staging = [&](size_t* planned_memory_bytes) -> Status {
    for (const StageDecision& decision : plan.staging) {
      const int pos = decision.idx;
      DataLocation loc;
      loc.kind = decision.target;
      if (decision.target == LocationKind::kFile) {
        SQLCLASS_ASSIGN_OR_RETURN(loc.store_id, staging_->BeginFileStore());
      } else {
        loc.store_id = staging_->BeginMemoryStore();
        *planned_memory_bytes +=
            batch[pos].request.data_size * staging_->RowBytes();
      }
      stage_into[pos] = loc;
    }
    return Status::OK();
  };

  // Drops every store this batch has been staging into, tolerating stores
  // that half-opened before a create failure.
  auto abort_staging = [&]() {
    for (int pos = 0; pos < n; ++pos) {
      if (!stage_into[pos].has_value()) continue;
      Status freed = staging_->Free(*stage_into[pos]);
      if (!freed.ok()) {
        SQLCLASS_LOG(kWarning) << "could not free aborted staging store: "
                               << freed.ToString();
      }
      stage_into[pos].reset();
    }
  };

  // Starts one pass attempt from scratch: drops what the last attempt
  // staged, resets the scan state and reopens the staging stores. Returns
  // whether this attempt stages rows.
  auto begin_attempt = [&]() -> bool {
    abort_staging();
    counts.Reset();
    std::fill(fallback.begin(), fallback.end(), false);
    std::fill(escalate.begin(), escalate.end(), false);
    std::fill(observed_bytes.begin(), observed_bytes.end(), 0);
    trace.rows_scanned = 0;
    rows_since_check = 0;
    staging_fault = false;
    size_t planned_memory_bytes = 0;
    if (staging_enabled) {
      Status staged = begin_staging(&planned_memory_bytes);
      if (!staged.ok()) {
        // Could not even create the stores (staging dir deleted, disk
        // full): give up staging for this batch, keep counting.
        abort_staging();
        planned_memory_bytes = 0;
        staging_enabled = false;
        ++stats_.staging_aborts;
        trace.staging_aborted = true;
        SQLCLASS_LOG(kWarning) << "staging disabled for batch " << trace.batch
                               << ": " << staged.ToString();
      }
    }
    // The memory left for CC tables during this scan: the budget minus
    // staged data already resident minus this batch's memory staging.
    const size_t memory_baseline =
        staging_->memory_bytes_used() + planned_memory_bytes;
    cc_available = config_.memory_budget_bytes > memory_baseline
                       ? config_.memory_budget_bytes - memory_baseline
                       : 0;
    return staging_enabled;
  };

  // Runtime handling of estimation error (§4.1.1): when the batch's actual
  // CC bytes exceed the available memory, evict the largest CC table. An
  // evicted node is normally *requeued* with a corrected (at least doubled)
  // estimate and counted in a later, smaller scan; only when it is the last
  // node standing — its CC alone does not fit in middleware memory — does
  // it switch to the SQL-based server-side implementation.
  auto check_overflow = [&]() {
    while (true) {
      size_t used = 0;
      int biggest = -1;
      size_t biggest_bytes = 0;
      int live = 0;
      for (int i = 0; i < n; ++i) {
        if (counts.dropped(i)) continue;
        ++live;
        const size_t bytes = counts.cc(i).ApproxBytes();
        used += bytes;
        if (bytes >= biggest_bytes) {
          biggest_bytes = bytes;
          biggest = i;
        }
      }
      if (used <= cc_available || biggest < 0) break;
      observed_bytes[biggest] = biggest_bytes;
      fallback[biggest] = live == 1;  // the rest are requeued
      counts.Drop(biggest);
    }
  };

  // Counts one row and stages it into the store of every node it matched
  // (evicted nodes included: their staged data serves the requeued retry).
  auto process_row = [&](const Row& row) -> Status {
    ++trace.rows_scanned;
    for (int pos : counts.CountRow(row.data())) {
      if (!stage_into[pos].has_value()) continue;
      const DataLocation& loc = *stage_into[pos];
      if (loc.kind == LocationKind::kFile) {
        Status appended = staging_->AppendToFileStore(loc.store_id, row);
        if (!appended.ok()) {
          // A failed staged *write* poisons only the stores, not the
          // counts: flag it so the recovery driver rescans the same
          // source with staging off rather than degrading the source.
          staging_fault = true;
          return appended;
        }
      } else {
        staging_->AppendToMemoryStore(loc.store_id, row);
      }
    }
    if (++rows_since_check >= config_.overflow_check_interval) {
      rows_since_check = 0;
      check_overflow();
    }
    return Status::OK();
  };

  // Rule 7 service: build every node's *sample* CC from the table's
  // scramble. Whether a sampled answer is good enough is decided per node
  // after the pass (the confidence gate); any recoverable failure here —
  // open fault, read fault, checksum mismatch — drops to the exact server
  // pass and the same batch is served exactly in this same FulfillSome
  // call.
  auto sample_pass = [&]() -> Status {
    SQLCLASS_ASSIGN_OR_RETURN(SampleFileReader * reader, SampleReader());
    SQLCLASS_RETURN_IF_ERROR(
        SampleCountScan::Run(reader, schema_, &counts, &cost));
    trace.rows_scanned = reader->num_rows();
    trace.served_from_sample = true;
    return Status::OK();
  };

  // One pass over a staged store (§4.1.1). Large stores with no staging go
  // through the morsel-parallel path: it builds the identical CC tables and
  // charges the identical logical costs (see DESIGN.md "Count kernel");
  // overflow is checked once after the merge instead of mid-scan, which
  // staging-free batches tolerate.
  auto staged_pass = [&]() -> Status {
    const int scan_threads =
        ResolveParallelThreads(config_.parallel_scan_threads);
    SQLCLASS_ASSIGN_OR_RETURN(const uint64_t source_rows,
                              staging_->StoreRows(source));
    if (scan_threads > 1 && !staging_enabled &&
        source_rows >= config_.parallel_scan_min_rows) {
      ThreadPool* pool = server_pass_.ScanPool(scan_threads);
      ParallelScanOptions options;
      ParallelScanResult scan;
      if (source.kind == LocationKind::kFile) {
        options.charge.mw_file_read = true;
        SQLCLASS_ASSIGN_OR_RETURN(const std::string path,
                                  staging_->FileStorePath(source.store_id));
        SQLCLASS_ASSIGN_OR_RETURN(
            scan, ParallelCountScan::OverHeapFile(
                      pool, path, schema_.num_columns(), options, &counts,
                      &cost, &staging_->io_counters()));
        ++stats_.file_scans;
      } else {
        options.charge.mw_memory_read = true;
        SQLCLASS_ASSIGN_OR_RETURN(const InMemoryRowStore* store,
                                  staging_->GetMemoryStore(source.store_id));
        SQLCLASS_ASSIGN_OR_RETURN(
            scan, ParallelCountScan::OverMemoryStore(pool, *store, options,
                                                     &counts, &cost));
        ++stats_.memory_scans;
      }
      trace.rows_scanned = scan.rows_delivered;
      return Status::OK();
    }
    const Status scanned = [&]() -> Status {
      if (source.kind == LocationKind::kFile) {
        SQLCLASS_ASSIGN_OR_RETURN(std::unique_ptr<RowSource> rows,
                                  staging_->OpenFileStore(source.store_id));
        Row row;
        while (true) {
          SQLCLASS_ASSIGN_OR_RETURN(bool more, rows->Next(&row));
          if (!more) break;
          SQLCLASS_RETURN_IF_ERROR(process_row(row));
        }
        ++stats_.file_scans;
        return Status::OK();
      }
      SQLCLASS_ASSIGN_OR_RETURN(const InMemoryRowStore* store,
                                staging_->GetMemoryStore(source.store_id));
      const size_t rows = store->num_rows();
      const int width = store->num_columns();
      Row row(width);
      for (size_t r = 0; r < rows; ++r) {
        const Value* values = store->RowAt(r);
        row.assign(values, values + width);
        ++cost.mw_memory_rows_read;
        SQLCLASS_RETURN_IF_ERROR(process_row(row));
      }
      ++stats_.memory_scans;
      return Status::OK();
    }();
    // The kernel charges nothing: every row counted — also before a
    // mid-pass fault — is charged here, once.
    cost.mw_cc_updates += counts.CcUpdates();
    return scanned;
  };

  // ---- Recovery driver: run the pass, and on a recoverable fault walk the
  // degradation ladder (each rung is taken at most once, so the loop
  // terminates):
  //   1. sample pass failed         -> serve the batch exactly
  //   2. staging write failed       -> rescan the same source, staging off
  //   3. staged source failed       -> invalidate the store, degrade to the
  //                                    server (graceful degradation up the
  //                                    staging hierarchy, §4.1.2)
  // A server-table pass walks its own engine rungs and retries inside
  // ServerPass (DESIGN.md "Fault tolerance & degraded modes"). Anything
  // else fails the batch with a Status that names the code.
  const PassRows server_rows{begin_attempt, process_row};
  std::vector<PassEngine> rungs;
  if (plan.from_bitmap) rungs.push_back(PassEngine::kBitmap);
  if (plan.from_shards) rungs.push_back(PassEngine::kShards);
  rungs.push_back(PassEngine::kRows);
  while (true) {
    Status pass;
    if (source.kind == LocationKind::kServer && !use_sample) {
      const PassReport report = server_pass_.Run(
          table_, schema_, table_rows_, &counts, rungs, &server_rows);
      AddPassReport(report, &stats_, &trace);
      pass = report.status;
      if (pass.ok()) break;
    } else {
      begin_attempt();
      pass = use_sample ? sample_pass() : staged_pass();
      if (pass.ok()) break;
      if (pass.code() == StatusCode::kDataLoss) ++stats_.checksum_failures;
    }

    abort_staging();
    if (!RecoverableFailure(pass)) return pass;
    if (use_sample) {
      // Sample rung: the scramble failed mid-pass. Rule 7 is an
      // optimisation, never a correctness dependency — serve the same
      // batch exactly in this pass, and drop the reader so a later batch
      // reopens the scramble from scratch.
      use_sample = false;
      sample_reader_.reset();
      ++stats_.sample_fallbacks;
      trace.sample_fallback = true;
      SQLCLASS_LOG(kWarning) << "sample pass failed for batch " << trace.batch
                             << ", serving exactly: " << pass.ToString();
      continue;
    }
    if (staging_fault && staging_enabled) {
      staging_enabled = false;
      ++stats_.staging_aborts;
      trace.staging_aborted = true;
      SQLCLASS_LOG(kWarning) << "staging aborted for batch " << trace.batch
                             << ": " << pass.ToString();
      continue;
    }
    if (source.kind == LocationKind::kServer) return pass;  // retries spent
    InvalidateStore(source);
    ++stats_.stores_invalidated;
    ++stats_.degraded_scans;
    trace.degraded_to_server = true;
    SQLCLASS_LOG(kWarning) << "staged store failed mid-scan, re-servicing "
                              "batch "
                           << trace.batch
                           << " from the server: " << pass.ToString();
    source = DataLocation{LocationKind::kServer, 0};
  }
  trace.source = source;  // where the surviving pass actually read from
  if (source.kind == LocationKind::kFile && plan.file_split) {
    ++stats_.file_splits;
  }
  // Sample CCs are bounded by the scramble, not the node: overflow handling
  // (requeue / SQL fallback) applies only to exact passes.
  if (!trace.served_from_sample) check_overflow();

  // Seal staged files; record locations so descendants inherit them. A seal
  // failure after a successful scan costs only the store, never the counts:
  // drop it and let descendants fall back to this batch's source.
  for (int pos = 0; pos < n; ++pos) {
    if (stage_into[pos].has_value() &&
        stage_into[pos]->kind == LocationKind::kFile) {
      Status sealed = staging_->FinishFileStore(stage_into[pos]->store_id);
      if (!sealed.ok()) {
        SQLCLASS_LOG(kWarning) << "dropping staged store that failed to "
                                  "seal: "
                               << sealed.ToString();
        Status freed = staging_->Free(*stage_into[pos]);
        if (!freed.ok()) {
          SQLCLASS_LOG(kWarning) << "could not free unsealed store: "
                                 << freed.ToString();
        }
        stage_into[pos].reset();
        ++stats_.staging_aborts;
        trace.staging_aborted = true;
      }
    }
  }
  for (int pos = 0; pos < n; ++pos) {
    if (!stage_into[pos].has_value()) continue;
    if (stage_into[pos]->kind == LocationKind::kFile) {
      ++trace.staged_to_file;
    } else {
      ++trace.staged_to_memory;
    }
  }

  // Rule 7 gate: decide per node whether the sampled CC identifies the
  // exact best split at the configured confidence. Accepted nodes are
  // scaled up to their (possibly estimated) data size and delivered as
  // approximate; rejected nodes re-enter the queue as exact requests and
  // never route back to the scramble.
  if (trace.served_from_sample) {
    const double confidence =
        ResolveApproxConfidence(config_.approx.confidence);
    const double exactness = ResolveApproxExactness(config_.approx.exactness);
    for (int pos = 0; pos < n; ++pos) {
      const SampleGateResult gate = EvaluateSampleGate(
          counts.cc(pos), batch[pos].request.active_attrs,
          config_.approx.gate_criterion, counts.rows(pos), confidence,
          exactness);
      sample_decisions_.push_back({batch[pos].request.node_id, gate.accept,
                                   gate.gap, gate.threshold});
      if (gate.accept) {
        counts.Assign(pos, ScaleCcToTotal(counts.cc(pos),
                                          batch[pos].request.active_attrs,
                                          batch[pos].request.data_size));
        ++stats_.sample_served_nodes;
      } else {
        escalate[pos] = true;
        ++stats_.sample_escalations;
      }
    }
  }

  // Fallback nodes: count at the server via the UNION GROUP BY query.
  std::vector<CcResult> results;
  results.reserve(n);
  for (int pos = 0; pos < n; ++pos) {
    if (escalate[pos]) {
      Pending retry = std::move(batch[pos]);
      retry.no_sample = true;
      pending_.push_back(std::move(retry));
      ++trace.escalated;
      continue;
    }
    if (counts.dropped(pos) && !fallback[pos]) {
      // Evicted under memory pressure: return to the queue with a corrected
      // estimate (monotone growth guarantees termination — once alone in a
      // batch it either fits or takes the SQL path). If its data was staged
      // during this scan, the retry reads the (smaller) staged store.
      Pending retry = std::move(batch[pos]);
      retry.est_cc_bytes =
          std::max(retry.est_cc_bytes * 2, observed_bytes[pos] * 2);
      // Point the retry at this batch's actual source, not the planned one:
      // after a mid-batch degradation the planned store no longer exists.
      retry.location =
          stage_into[pos].has_value() ? *stage_into[pos] : source;
      estimator_.SetLocation(retry.request.node_id, retry.location);
      pending_.push_back(std::move(retry));
      ++trace.requeued;
      continue;
    }
    CcTable cc = counts.Take(pos);
    if (fallback[pos]) {
      SQLCLASS_ASSIGN_OR_RETURN(cc, SqlFallback(batch[pos]));
      ++stats_.sql_fallbacks;
      ++trace.sql_fallbacks;
    }
    const Pending& pending = batch[pos];
    SQLCLASS_RETURN_IF_ERROR(CheckCounted(pending.request, cc));
    estimator_.RecordCounted(pending.request.node_id, cc,
                             static_cast<uint64_t>(cc.TotalRows()),
                             pending.request.active_attrs);
    estimator_.SetLocation(pending.request.node_id,
                           stage_into[pos].has_value() ? *stage_into[pos]
                                                       : source);
    unreleased_.insert(pending.request.node_id);
    results.emplace_back(pending.request.node_id, std::move(cc));
    results.back().approximate = trace.served_from_sample;
  }
  trace_.push_back(trace);
  return results;
}

void ClassificationMiddleware::InvalidateStore(const DataLocation& loc) {
  if (loc.kind == LocationKind::kServer) return;
  Status freed = staging_->Free(loc);
  if (!freed.ok()) {
    SQLCLASS_LOG(kWarning) << "could not free invalidated store: "
                           << freed.ToString();
  }
  const DataLocation server_loc{LocationKind::kServer, 0};
  estimator_.RelocateStore(loc, server_loc);
  for (Pending& pending : pending_) {
    if (pending.location == loc) pending.location = server_loc;
  }
}

StatusOr<SampleFileReader*> ClassificationMiddleware::SampleReader() {
  if (sample_reader_ == nullptr) {
    SQLCLASS_ASSIGN_OR_RETURN(const std::string path,
                              server_->SampleTablePath(table_));
    SQLCLASS_ASSIGN_OR_RETURN(
        sample_reader_,
        SampleFileReader::Open(path, &server_->io_counters()));
  }
  return sample_reader_.get();
}

StatusOr<CcTable> ClassificationMiddleware::SqlFallback(
    const Pending& pending) {
  const Expr* predicate =
      pending.request.predicate->kind() == ExprKind::kTrue
          ? nullptr
          : pending.request.predicate.get();
  const std::string sql = BuildCcQuerySql(
      table_, schema_, pending.request.active_attrs, predicate);
  SQLCLASS_ASSIGN_OR_RETURN(ResultSet result, server_->Execute(sql));
  const std::string& totals_attr =
      schema_.attribute(pending.request.active_attrs[0]).name;
  return CcFromResultSet(result, schema_, num_classes_, totals_attr);
}

}  // namespace sqlclass
