#include "service/shared_scan_batcher.h"

#include <algorithm>
#include <utility>

#include "middleware/bitmap_scan.h"
#include "middleware/count_batch.h"

namespace sqlclass {

SharedScanBatcher::SharedScanBatcher(SqlServer* server, Mutex* server_mu,
                                     const ServiceConfig& config)
    : server_(server),
      server_mu_(server_mu),
      config_(config),
      pass_(server, ServerPass::Options{
                        .filter_pushdown = config.enable_filter_pushdown,
                        .parallel_scan_threads = config.parallel_scan_threads,
                        .parallel_scan_min_rows = config.parallel_scan_min_rows,
                        .sharding = config.sharding,
                        .scan_retry = config.scan_retry,
                        .server_mu = server_mu}) {}

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

  SQLCLASS_RETURN_IF_ERROR(PrepareRequest(t.schema, t.rows, &request));

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
  // A failed scan credits no share.
  const PassReport& pass = out.pass;
  CostCounters shared_delta = pass.status.ok() ? pass.cost : CostCounters();
  shared_delta.mw_cc_updates = 0;

  uint64_t delivered = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const SessionId sid = batch[i].session;
    auto it = sessions_.find(sid);
    if (it == sessions_.end()) continue;  // unregistered mid-scan: drop
    SessionState& s = it->second;
    if (!pass.status.ok()) {
      if (s.error.ok()) s.error = pass.status;
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

  ++scans_.scans_executed;
  ++scans_.scans_by_table[table];
  scans_.requests_fulfilled += delivered;
  scans_.scan_session_slots += reqs_per_session.size();
  scans_.rows_scanned += pass.rows_scanned;
  if (!pass.status.ok()) ++scans_.scan_failures;
  AddEngineCounters(pass, &scans_);

  if (!only_session) t.scan_in_progress = false;
  cv_.NotifyAll();
}

SharedScanBatcher::ScanOutcome SharedScanBatcher::ExecuteScan(
    const std::string& table, const Schema& schema, int num_classes,
    uint64_t table_rows, const std::vector<PendingReq>& batch,
    const std::map<SessionId, size_t>& quotas) {
  const int n = static_cast<int>(batch.size());
  std::vector<CountBatch::Node> nodes;
  nodes.reserve(n);
  for (const PendingReq& p : batch) {
    nodes.push_back(CountBatch::NodeOf(p.request));
  }
  CountBatch counts(nodes, schema.class_column(), num_classes);

  // One pass over the table for the whole cross-session batch (§4.1.1
  // lifted across sessions). The index and the shard set are reopened for
  // every scan: either may have been rebuilt since the last one.
  std::vector<PassEngine> rungs;
  if (ResolveUseBitmapIndex(config_.use_bitmap_index) &&
      std::all_of(batch.begin(), batch.end(), [](const PendingReq& p) {
        return BitmapCountScan::Servable(p.request.predicate.get());
      })) {
    rungs.push_back(PassEngine::kBitmap);
  }
  if (ResolveShardingEnabled(config_.sharding.enable) &&
      table_rows >= ResolveShardMinRows(config_.sharding.min_node_rows)) {
    rungs.push_back(PassEngine::kShards);
  }
  rungs.push_back(PassEngine::kRows);
  ScanOutcome out;
  out.pass = pass_.Run(table, schema, table_rows, &counts, rungs);

  // Counts, not rows, flow to the riders of a bitmap or shard pass, so only
  // a row pass has per-session CC-update work to credit exactly. A failed
  // parallel pass leaves the tallies empty; a failed serial pass credits
  // the rows it counted before the fault.
  if (out.pass.engine == PassEngine::kRows) {
    for (int i = 0; i < n; ++i) {
      const uint64_t updates =
          counts.rows(i) * batch[i].request.active_attrs.size();
      if (updates > 0) out.cc_updates[batch[i].session] += updates;
    }
  }
  if (!out.pass.status.ok()) return out;

  // Exact-count validation (same invariant the middleware enforces): a
  // mismatch poisons only the owning session, not its co-riders.
  for (int i = 0; i < n; ++i) {
    Status counted = CheckCounted(batch[i].request, counts.cc(i));
    if (!counted.ok()) out.session_errors.emplace(batch[i].session, counted);
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

ServiceMetrics SharedScanBatcher::ScanMetrics() const {
  MutexLock lock(mu_);
  return scans_;
}

}  // namespace sqlclass
