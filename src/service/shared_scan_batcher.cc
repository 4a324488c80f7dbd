#include "service/shared_scan_batcher.h"

#include "middleware/bitmap_scan.h"
#include "storage/bitmap/bitmap_index.h"

#include <algorithm>
#include <utility>

#include "common/retry.h"
#include "middleware/count_batch.h"
#include "middleware/parallel_scan.h"
#include "middleware/shard_scan.h"

namespace sqlclass {

SharedScanBatcher::SharedScanBatcher(SqlServer* server, Mutex* server_mu,
                                     const ServiceConfig& config)
    : server_(server), server_mu_(server_mu), config_(config) {}

Status SharedScanBatcher::RegisterTable(const std::string& table) {
  Schema schema;
  uint64_t rows = 0;
  {
    MutexLock server_lock(*server_mu_);
    SQLCLASS_ASSIGN_OR_RETURN(const Schema* s, server_->GetSchema(table));
    if (!s->has_class_column()) {
      return Status::InvalidArgument("table has no class column: " + table);
    }
    schema = *s;
    SQLCLASS_ASSIGN_OR_RETURN(rows, server_->TableRowCount(table));
  }

  MutexLock lock(mu_);
  TableState& t = tables_[table];  // re-register refreshes the snapshot
  t.schema = std::move(schema);
  t.num_classes = t.schema.attribute(t.schema.class_column()).cardinality;
  t.rows = rows;
  return Status::OK();
}

const Schema* SharedScanBatcher::GetSchema(const std::string& table) const {
  MutexLock lock(mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : &it->second.schema;
}

uint64_t SharedScanBatcher::TableRows(const std::string& table) const {
  MutexLock lock(mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? 0 : it->second.rows;
}

Status SharedScanBatcher::RegisterSession(SessionId id,
                                          const std::string& table,
                                          size_t quota_bytes) {
  MutexLock lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::InvalidArgument("table not registered: " + table);
  }
  if (sessions_.count(id) != 0) {
    return Status::InvalidArgument("session already registered");
  }
  SessionState state;
  state.table = table;
  state.quota_bytes = quota_bytes;
  sessions_.emplace(id, std::move(state));
  ++it->second.sessions_registered;
  cv_.NotifyAll();  // registered-set change affects scan triggering
  return Status::OK();
}

void SharedScanBatcher::UnregisterSession(SessionId id) {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  TableState& t = tables_.at(it->second.table);
  auto& pending = t.pending;
  pending.erase(std::remove_if(pending.begin(), pending.end(),
                               [id](const PendingReq& p) {
                                 return p.session == id;
                               }),
                pending.end());
  if (it->second.waiting) --t.sessions_waiting;
  --t.sessions_registered;
  sessions_.erase(it);
  cv_.NotifyAll();  // waiters must re-evaluate without this rider
}

Status SharedScanBatcher::Enqueue(SessionId id, CcRequest request) {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::InvalidArgument("session not registered");
  }
  SessionState& s = it->second;
  if (!s.error.ok()) return s.error;
  TableState& t = tables_.at(s.table);

  if (request.predicate == nullptr) request.predicate = Expr::True();
  SQLCLASS_RETURN_IF_ERROR(request.predicate->Bind(t.schema));
  if (request.active_attrs.empty()) {
    return Status::InvalidArgument("request with no attributes to count");
  }
  for (int attr : request.active_attrs) {
    if (attr < 0 || attr >= t.schema.num_columns() ||
        attr == t.schema.class_column()) {
      return Status::InvalidArgument("bad attribute column in request");
    }
  }
  if (request.parent_id < 0) request.data_size = t.rows;

  PendingReq p;
  p.session = id;
  p.request = std::move(request);
  t.pending.push_back(std::move(p));
  ++s.outstanding;
  t.gather_deadline.reset();  // new work restarts the gather window
  cv_.NotifyAll();
  return Status::OK();
}

bool SharedScanBatcher::AllPendingOwnersWaiting(const TableState& t) const {
  for (const PendingReq& p : t.pending) {
    auto it = sessions_.find(p.session);
    if (it != sessions_.end() && !it->second.waiting) return false;
  }
  return true;
}

bool SharedScanBatcher::ShouldLeadScan(
    TableState& t, std::optional<Clock::time_point>* wait_until) {
  wait_until->reset();
  if (t.scan_in_progress || t.pending.empty()) return false;
  if (!AllPendingOwnersWaiting(t)) return false;
  // Every session with queued work is blocked waiting. If every registered
  // session is waiting, nobody can contribute more work: scan immediately.
  if (t.sessions_waiting >= t.sessions_registered) return true;
  // Some registered session is between waves; give it one gather window to
  // contribute its next requests before scanning without it.
  const auto now = Clock::now();
  if (!t.gather_deadline) {
    t.gather_deadline =
        now + std::chrono::milliseconds(config_.gather_window_ms);
  }
  if (now >= *t.gather_deadline) return true;
  *wait_until = t.gather_deadline;
  return false;
}

StatusOr<std::vector<CcResult>> SharedScanBatcher::Fulfill(SessionId id) {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::InvalidArgument("session not registered");
  }
  SessionState& s = it->second;
  TableState& t = tables_.at(s.table);

  auto stop_waiting = [&] {
    if (s.waiting) {
      s.waiting = false;
      --t.sessions_waiting;
    }
  };

  while (true) {
    if (!s.error.ok()) {
      // Sticky: outstanding stays non-zero, so a client loop that keys on
      // PendingRequests() keeps seeing the error instead of silently
      // finishing with a partial model.
      stop_waiting();
      return s.error;
    }
    if (!s.outbox.empty()) {
      stop_waiting();
      std::vector<CcResult> results = std::move(s.outbox);
      s.outbox.clear();
      s.outstanding -= results.size();
      return results;
    }
    if (s.outstanding == 0) {
      stop_waiting();
      return std::vector<CcResult>();
    }

    if (!config_.enable_scan_sharing) {
      // Private scans: serve only this session's queued requests, no
      // cross-session gathering (still one scan per wave per session).
      RunScan(s.table, id);
      continue;
    }

    if (!s.waiting) {
      s.waiting = true;
      ++t.sessions_waiting;
      cv_.NotifyAll();  // other waiters re-check the trigger condition
    }

    std::optional<Clock::time_point> wait_until;
    if (ShouldLeadScan(t, &wait_until)) {
      RunScan(s.table, std::nullopt);
      continue;  // results (possibly for us) are deposited; re-check
    }
    if (wait_until) {
      cv_.WaitUntil(lock, *wait_until);
    } else {
      cv_.Wait(lock);
    }
  }
}

void SharedScanBatcher::RunScan(const std::string& table,
                                std::optional<SessionId> only_session) {
  TableState& t = tables_.at(table);

  std::vector<PendingReq> batch;
  if (only_session) {
    auto& pending = t.pending;
    for (PendingReq& p : pending) {
      if (p.session == *only_session) batch.push_back(std::move(p));
    }
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [&](const PendingReq& p) {
                                   return p.session == *only_session;
                                 }),
                  pending.end());
  } else {
    t.scan_in_progress = true;
    t.gather_deadline.reset();
    batch = std::move(t.pending);
    t.pending.clear();
  }
  if (batch.empty()) {
    if (!only_session) t.scan_in_progress = false;
    return;
  }

  // Snapshot rider quotas while mu_ is held; the scan runs without mu_.
  std::map<SessionId, size_t> quotas;
  for (const PendingReq& p : batch) {
    auto sit = sessions_.find(p.session);
    if (sit != sessions_.end()) quotas[p.session] = sit->second.quota_bytes;
  }

  // The TableState node and its schema are stable (tables are never
  // erased), so the scan can read them with mu_ released. Row count is
  // snapshotted here because RegisterTable may refresh it under mu_.
  const uint64_t table_rows = t.rows;
  mu_.Unlock();
  ScanOutcome out =
      ExecuteScan(table, t.schema, t.num_classes, table_rows, batch, quotas);
  mu_.Lock();

  // --- Deposit results and credit costs. ---
  std::map<SessionId, uint64_t> reqs_per_session;
  for (const PendingReq& p : batch) ++reqs_per_session[p.session];

  // The proportional share excludes CC-update work, which is attributed
  // exactly below (riders with small frontiers pay for their own counting).
  CostCounters shared_delta = out.delta;
  shared_delta.mw_cc_updates = 0;

  uint64_t delivered = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const SessionId sid = batch[i].session;
    auto it = sessions_.find(sid);
    if (it == sessions_.end()) continue;  // unregistered mid-scan: drop
    SessionState& s = it->second;
    if (!out.scan_status.ok()) {
      if (s.error.ok()) s.error = out.scan_status;
      continue;
    }
    auto err = out.session_errors.find(sid);
    if (err != out.session_errors.end()) {
      if (s.error.ok()) s.error = err->second;
      continue;
    }
    s.outbox.push_back(std::move(out.results[i]));
    ++delivered;
  }
  for (const auto& [sid, reqs] : reqs_per_session) {
    auto it = sessions_.find(sid);
    if (it == sessions_.end()) continue;
    SessionState& s = it->second;
    s.credited.AddProportional(shared_delta, reqs,
                               static_cast<uint64_t>(batch.size()));
    auto cc = out.cc_updates.find(sid);
    if (cc != out.cc_updates.end()) s.credited.mw_cc_updates += cc->second;
    ++s.scans;
  }

  ++scans_executed_;
  ++scans_by_table_[table];
  requests_fulfilled_ += delivered;
  scan_session_slots_ += reqs_per_session.size();
  rows_scanned_ += out.rows_scanned;
  scan_retries_ += out.retries;
  if (out.from_bitmap) ++bitmap_scans_;
  if (out.bitmap_fallback) ++bitmap_fallbacks_;
  if (out.from_shards) ++shard_scans_;
  if (out.shard_fallback) ++shard_fallbacks_;
  shard_rescans_ += out.shard_rescans;
  shard_replica_rescans_ += out.shard_replica_rescans;
  shard_rpc_timeouts_ += out.shard_rpc_timeouts;
  shard_worker_restarts_ += out.shard_worker_restarts;
  if (!out.scan_status.ok()) ++scan_failures_;

  if (!only_session) t.scan_in_progress = false;
  cv_.NotifyAll();
}

SharedScanBatcher::ScanOutcome SharedScanBatcher::ExecuteScan(
    const std::string& table, const Schema& schema, int num_classes,
    uint64_t table_rows, const std::vector<PendingReq>& batch,
    const std::map<SessionId, size_t>& quotas) {
  int attempt = 1;
  while (true) {
    ScanOutcome out =
        ExecuteScanOnce(table, schema, num_classes, table_rows, batch, quotas);
    out.retries = static_cast<uint64_t>(attempt - 1);
    if (out.scan_status.ok()) return out;
    const StatusCode code = out.scan_status.code();
    const bool transient = code == StatusCode::kIoError ||
                           code == StatusCode::kDataLoss ||
                           code == StatusCode::kNotFound;
    if (!transient || attempt >= config_.scan_retry.max_attempts) {
      out.scan_status =
          Status(code, "shared scan over table '" + table + "' failed after " +
                           std::to_string(attempt) +
                           " attempt(s): " + out.scan_status.message());
      return out;
    }
    // Retrying rebuilds all CC tables from scratch, so riders see either a
    // fault-free-identical result or the wrapped error above — never a
    // partially counted table. Failed-attempt costs stay on the server
    // counters (honest accounting) but are not credited to riders.
    SleepForBackoff(config_.scan_retry, attempt);
    ++attempt;
  }
}

SharedScanBatcher::ScanOutcome SharedScanBatcher::ExecuteScanOnce(
    const std::string& table, const Schema& schema, int num_classes,
    uint64_t table_rows, const std::vector<PendingReq>& batch,
    const std::map<SessionId, size_t>& quotas) {
  ScanOutcome out;
  const int n = static_cast<int>(batch.size());

  MutexLock server_lock(*server_mu_);
  CostCounters& cost = server_->cost_counters();
  const CostCounters before = cost;

  std::vector<CountBatch::Node> nodes;
  nodes.reserve(n);
  for (const PendingReq& p : batch) {
    nodes.push_back(CountBatch::NodeOf(p.request));
  }
  CountBatch counts(nodes, schema.class_column(), num_classes);

  // §4.3.1 OR-pushdown when every rider has a selective predicate.
  auto build_pushdown_filter = [&]() -> std::unique_ptr<Expr> {
    if (!config_.enable_filter_pushdown) return nullptr;
    std::vector<std::unique_ptr<Expr>> clauses;
    for (const PendingReq& p : batch) {
      if (p.request.predicate->kind() == ExprKind::kTrue) return nullptr;
      clauses.push_back(p.request.predicate->Clone());
    }
    if (clauses.empty()) return nullptr;
    return Expr::Or(std::move(clauses));
  };

  // Bitmap-first routing: when every rider's predicate is conjunctive and
  // the table carries a bitmap index, the whole cross-session batch is
  // answered by AND + popcount — byte-identical CC tables at per-word
  // cost. Any failure inside the bitmap pass (open fault, read fault,
  // checksum mismatch) falls back transparently to the row-scan path
  // below, with the partially built tables rebuilt from scratch.
  bool bitmap_served = false;
  if (ResolveUseBitmapIndex(config_.use_bitmap_index) &&
      server_->HasBitmapIndex(table)) {
    bool servable = true;
    for (const PendingReq& p : batch) {
      if (!BitmapCountScan::Servable(p.request.predicate.get())) {
        servable = false;
        break;
      }
    }
    if (servable) {
      Status bitmap_pass = [&]() -> Status {
        SQLCLASS_ASSIGN_OR_RETURN(const std::string path,
                                  server_->BitmapIndexPath(table));
        // A fresh reader per scan: the index may have been rebuilt since
        // the last scan, and the header re-read is one page.
        SQLCLASS_ASSIGN_OR_RETURN(
            std::unique_ptr<BitmapIndexReader> reader,
            BitmapIndexReader::Open(path, &server_->io_counters()));
        return BitmapCountScan::Run(reader.get(), schema, &counts, &cost);
      }();
      if (bitmap_pass.ok()) {
        bitmap_served = true;
        out.from_bitmap = true;
      } else {
        out.bitmap_fallback = true;
        counts.Reset();
      }
    }
  }

  // Sharded scan-out (scheduler Rule 8 at the service layer): when the
  // table carries a shard set, the whole cross-session batch fans out to
  // per-shard workers and the partial CC tables merge in fixed shard order
  // — byte-identical to the row-scan paths below at every shard and worker
  // count. Any failure inside the shard pass (map fault, dead shard whose
  // primary re-scan also fails) falls back transparently to the row scan,
  // with the partially built tables rebuilt from scratch.
  bool shard_served = false;
  if (!bitmap_served && ResolveShardingEnabled(config_.sharding.enable) &&
      server_->HasShardSet(table) &&
      table_rows >= ResolveShardMinRows(config_.sharding.min_node_rows)) {
    if (shard_transport_ == nullptr) {
      shard_transport_ = MakeShardTransport(config_.sharding);
    }
    const uint64_t timeouts_before = shard_transport_->rpc_timeouts();
    const uint64_t restarts_before = shard_transport_->worker_restarts();
    Status shard_pass = [&]() -> Status {
      SQLCLASS_ASSIGN_OR_RETURN(const std::string heap_path,
                                server_->TableHeapPath(table));
      // A fresh coordinator per scan: the shard set may have been rebuilt
      // since the last scan, and the map re-read is one page.
      SQLCLASS_ASSIGN_OR_RETURN(
          std::unique_ptr<ShardCoordinator> coordinator,
          ShardCoordinator::Open(heap_path, schema, &server_->io_counters()));
      const int workers = ResolveShardWorkers(config_.sharding.worker_threads);
      const int resolved =
          workers == 0 ? static_cast<int>(ThreadPool::HardwareConcurrency())
                       : workers;
      if (resolved > 1 &&
          (scan_pool_ == nullptr || scan_pool_->size() != resolved)) {
        scan_pool_ = std::make_unique<ThreadPool>(resolved);
      }
      ShardCoordinator::Result result;
      SQLCLASS_RETURN_IF_ERROR(
          coordinator->Run(resolved > 1 ? scan_pool_.get() : nullptr,
                           shard_transport_.get(), &counts, &cost, &result));
      out.rows_scanned = result.rows_scanned;
      out.shard_rescans = result.rescans;
      out.shard_replica_rescans = result.replica_rescans;
      return Status::OK();
    }();
    // RPC hardening activity is metered even when the pass fell back — the
    // fault-injection tests reconcile these against the injected faults.
    out.shard_rpc_timeouts = shard_transport_->rpc_timeouts() - timeouts_before;
    out.shard_worker_restarts =
        shard_transport_->worker_restarts() - restarts_before;
    if (shard_pass.ok()) {
      shard_served = true;
      out.from_shards = true;
      // Like the bitmap path, no per-session CC-update work exists to
      // credit exactly: the merge charges mw_shard_* primitives, which the
      // delta splits proportionally across riders.
    } else {
      out.shard_fallback = true;
      out.rows_scanned = 0;
      out.shard_rescans = 0;
      out.shard_replica_rescans = 0;
      counts.Reset();
    }
  }

  // One pass over the table for the whole cross-session batch (§4.1.1
  // lifted across sessions). Large tables go through the morsel-parallel
  // counting scan, which charges the identical logical costs.
  const int scan_threads =
      ResolveParallelThreads(config_.parallel_scan_threads);
  if (!bitmap_served && !shard_served) {
    // Counts, not rows, flow to the riders of a bitmap or shard pass, so
    // only a row pass has per-session CC-update work to credit exactly.
    Status scanned;
    if (scan_threads > 1 && table_rows >= config_.parallel_scan_min_rows) {
      ParallelScanOptions options;
      std::unique_ptr<Expr> filter = build_pushdown_filter();
      if (filter != nullptr) {
        Status bind_status = filter->Bind(schema);
        if (!bind_status.ok()) {
          out.scan_status = bind_status;
          return out;
        }
      }
      options.filter = filter.get();
      options.charge.server_row_evaluated = true;
      options.charge.cursor_transfer = true;

      StatusOr<std::string> path_or = server_->TableHeapPath(table);
      if (!path_or.ok()) {
        out.scan_status = path_or.status();
        return out;
      }
      if (scan_pool_ == nullptr || scan_pool_->size() != scan_threads) {
        scan_pool_ = std::make_unique<ThreadPool>(scan_threads);
      }
      ++cost.server_scans;  // what OpenCursor charges at open
      StatusOr<ParallelScanResult> scan = ParallelCountScan::OverHeapFile(
          scan_pool_.get(), *path_or, schema.num_columns(), options, &counts,
          &cost, &server_->io_counters());
      if (scan.ok()) out.rows_scanned = scan->rows_delivered;
      scanned = scan.status();
    } else {
      std::string sql = "SELECT * FROM " + table;
      if (std::unique_ptr<Expr> filter = build_pushdown_filter()) {
        sql += " WHERE " + filter->ToSql();
      }
      StatusOr<std::unique_ptr<ServerCursor>> cursor =
          server_->OpenCursorSql(sql);
      if (!cursor.ok()) {
        out.scan_status = cursor.status();
        return out;
      }
      scanned = CountAllRows(cursor->get(), &counts, &out.rows_scanned);
      cost.mw_cc_updates += counts.CcUpdates();
    }
    // A failed parallel pass leaves `counts` empty; a failed serial pass
    // credits the rows it counted before the fault.
    for (int i = 0; i < n; ++i) {
      const uint64_t updates =
          counts.rows(i) * batch[i].request.active_attrs.size();
      if (updates > 0) out.cc_updates[batch[i].session] += updates;
    }
    if (!scanned.ok()) {
      out.scan_status = scanned;
      return out;
    }
  }

  // Exact-count validation (same invariant the middleware enforces): a
  // mismatch poisons only the owning session, not its co-riders.
  for (int i = 0; i < n; ++i) {
    const PendingReq& p = batch[i];
    if (static_cast<uint64_t>(counts.cc(i).TotalRows()) !=
        p.request.data_size) {
      out.session_errors.emplace(
          p.session,
          Status::Internal(
              "counted " + std::to_string(counts.cc(i).TotalRows()) +
              " rows for node " + std::to_string(p.request.node_id) +
              ", expected " + std::to_string(p.request.data_size)));
    }
  }

  // Per-session quota: the CC tables one session's wave materializes must
  // fit its admission quota.
  std::map<SessionId, size_t> bytes_per_session;
  for (int i = 0; i < n; ++i) {
    bytes_per_session[batch[i].session] += counts.cc(i).ApproxBytes();
  }
  for (const auto& [sid, bytes] : bytes_per_session) {
    if (out.session_errors.count(sid) != 0) continue;
    auto qit = quotas.find(sid);
    const size_t quota = qit == quotas.end() ? 0 : qit->second;
    if (quota != 0 && bytes > quota) {
      out.session_errors.emplace(
          sid, Status::ResourceExhausted(
                   "session CC tables (" + std::to_string(bytes) +
                   " bytes) exceed session memory quota (" +
                   std::to_string(quota) + " bytes)"));
    }
  }

  out.results.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.results.emplace_back(batch[i].request.node_id, counts.Take(i));
  }
  out.delta = CostCounters::Delta(cost, before);
  return out;
}

size_t SharedScanBatcher::Outstanding(SessionId id) const {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? 0 : it->second.outstanding;
}

CostCounters SharedScanBatcher::CreditedCost(SessionId id) const {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? CostCounters() : it->second.credited;
}

uint64_t SharedScanBatcher::ScansParticipated(SessionId id) const {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? 0 : it->second.scans;
}

void SharedScanBatcher::FillMetrics(ServiceMetrics* out) const {
  MutexLock lock(mu_);
  out->scans_executed = scans_executed_;
  out->requests_fulfilled = requests_fulfilled_;
  out->scan_session_slots = scan_session_slots_;
  out->rows_scanned = rows_scanned_;
  out->scan_retries = scan_retries_;
  out->scan_failures = scan_failures_;
  out->bitmap_scans = bitmap_scans_;
  out->bitmap_fallbacks = bitmap_fallbacks_;
  out->shard_scans = shard_scans_;
  out->shard_fallbacks = shard_fallbacks_;
  out->shard_rescans = shard_rescans_;
  out->shard_replica_rescans = shard_replica_rescans_;
  out->shard_rpc_timeouts = shard_rpc_timeouts_;
  out->shard_worker_restarts = shard_worker_restarts_;
  out->scans_by_table = scans_by_table_;
}

}  // namespace sqlclass
