// The service_mixed workload: four closed-loop client threads submit
// sessions to one ClassificationService over a census table that fits the
// buffer pool. Two clients grow decision trees and two train Naive Bayes
// models; each waits for its result before submitting again. Scan sharing
// is on and scans are serial.
//
// The service is timed at Submit / Wait; its own per-session figures come
// from SessionResult, and its counters from ServiceMetrics deltas over the
// measured window.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "service/service.h"

namespace perfbench {
namespace {

using sqlclass::ClassificationService;
using sqlclass::ServiceConfig;
using sqlclass::ServiceMetrics;
using sqlclass::SessionResult;
using sqlclass::SessionSpec;
using sqlclass::Status;

constexpr char kTable[] = "data";
constexpr int kClients = 4;

ServiceConfig MakeConfig() {
  ServiceConfig config;
  config.worker_threads = kClients;
  config.max_active_sessions = kClients;
  config.queue_capacity = 64;
  config.admission_timeout_ms = 30'000;
  config.enable_scan_sharing = true;
  config.enable_filter_pushdown = true;
  config.gather_window_ms = 2;
  config.buffer_pool_pages = 1024;
  config.parallel_scan_threads = 1;
  config.use_bitmap_index = false;
  config.approx.enable = false;
  config.sharding.enable = false;
  config.sharding.worker_threads = 1;
  return config;
}

struct Sample {
  uint64_t op = 0;
  bool tree = true;
  bool traced = false;
  bool timed = true;
  double latency_s = 0;  // Submit -> Wait returned
  SessionResult result;
};

Sample RunSession(ClassificationService* service, bool tree,
                  const sqlclass::TreeClientConfig& tree_config, uint64_t op,
                  bool traced, const RunClock& clock, Tracer* tracer) {
  Sample sample;
  sample.op = op;
  sample.tree = tree;
  sample.traced = traced;
  SessionSpec spec;
  spec.table = kTable;
  spec.task = tree ? SessionSpec::Task::kDecisionTree
                   : SessionSpec::Task::kNaiveBayes;
  spec.tree_config = tree_config;
  const double start = clock.Now();
  auto id = service->Submit(spec);
  if (id.ok()) {
    sample.result = service->Wait(id.value());
  } else {
    sample.result.status = id.status();
  }
  sample.latency_s = clock.Now() - start;
  if (traced) {
    Span span;
    span.name = "service.session";
    span.start_s = start;
    span.end_s = start + sample.latency_s;
    span.op = op;
    span.task = tree ? "tree" : "nb";
    span.queue_wait_ms = sample.result.queue_wait_ms;
    span.run_ms = sample.result.run_ms;
    tracer->Add(span);
  }
  return sample;
}

std::string InfoJson(const Options& options, const ServiceConfig& config,
                     uint64_t rows, uint64_t data_bytes, const Tail& tail,
                     double solo_tree_sim_s, double shared_tree_sim_s,
                     uint64_t tree_sessions, uint64_t nb_sessions) {
  std::string j = "{\"perfbench\": {";
  j += "\"workload\": " + Quote(options.workload);
  j += ", \"seed\": " + std::to_string(options.seed);
  j += ", \"trace\": " + std::string(options.trace ? "1" : "0");
  j += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  j += ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE);
  j += ", \"clients\": " + std::to_string(kClients);
  j += ", \"config\": {";
  j += "\"dataset\": \"census\"";
  j += ", \"rows\": " + std::to_string(rows);
  j += ", \"data_bytes\": " + std::to_string(data_bytes);
  j += ", \"buffer_pool_bytes\": " +
       std::to_string(config.buffer_pool_pages * 8192);
  j += ", \"memory_budget_bytes\": " +
       std::to_string(config.memory_budget_bytes);
  j += ", \"session_quota_bytes\": " +
       std::to_string(config.default_session_quota_bytes);
  j += ", \"worker_threads\": " + std::to_string(config.worker_threads);
  j += ", \"max_active_sessions\": " +
       std::to_string(config.max_active_sessions);
  j += ", \"scan_sharing\": " +
       std::string(config.enable_scan_sharing ? "true" : "false");
  j += ", \"gather_window_ms\": " + std::to_string(config.gather_window_ms);
  j += ", \"parallel_scan_threads\": " +
       std::to_string(config.parallel_scan_threads);
  j += ", \"use_bitmap_index\": false, \"sharding\": false, \"approx\": false";
  j += ", \"tree_clients\": 2, \"nb_clients\": 2";
  j += ", \"max_depth\": " + std::to_string(kMaxDepth);
  j += "}";
  j += ", \"checks\": {\"solo_tree_sim_s\": " + Num(solo_tree_sim_s) +
       ", \"shared_tree_sim_s_p50\": " + Num(shared_tree_sim_s) +
       ", \"tree_sessions\": " + std::to_string(tree_sessions) +
       ", \"nb_sessions\": " + std::to_string(nb_sessions) + "}";
  j += ", \"session_tail\": {\"value_s\": " + Num(tail.value) +
       ", \"percentile\": " + Num(tail.percentile) +
       ", \"samples\": " + std::to_string(tail.samples) + "}";
  j += "}}";
  return j;
}

}  // namespace

bool RunServiceWorkload(const Options& options, RunReport* report) {
  const uint64_t rows =
      static_cast<uint64_t>(std::max(200.0, 100'000 * options.scale));
  const ServiceConfig config = MakeConfig();
  sqlclass::TreeClientConfig tree_config;
  tree_config.max_depth = kMaxDepth;
  const RunClock clock;
  Tracer tracer(&clock);

  // Set up kSetups times from an empty directory; keep the last service.
  Table table;
  std::unique_ptr<ClassificationService> service;
  std::string service_dir;
  std::vector<double> setup_s, generate_s, load_s;
  for (int i = 0; i < kSetups; ++i) {
    const std::string dir = options.work_dir + "/setup" + std::to_string(i);
    std::filesystem::create_directories(dir);
    const double t0 = clock.Now();
    Status status = GenerateCensus(rows, options.seed, &table);
    const double t1 = clock.Now();
    std::unique_ptr<ClassificationService> next;
    if (status.ok()) {
      auto created = ClassificationService::Create(dir, config);
      status = created.status();
      if (created.ok()) {
        next = std::move(created).value();
        status = next->CreateAndLoadTable(kTable, table.schema, table.rows);
      }
    }
    const double t2 = clock.Now();
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   status.ToString().c_str());
      return false;
    }
    if (options.trace) {
      Span span;
      span.name = "setup.generate";
      span.start_s = t0;
      span.end_s = t1;
      tracer.Add(span);
      span.name = "setup.load";
      span.start_s = t1;
      span.end_s = t2;
      tracer.Add(span);
    }
    setup_s.push_back(t2 - t0);
    generate_s.push_back(t1 - t0);
    load_s.push_back(t2 - t1);
    if (service != nullptr) {
      service.reset();
      std::error_code ec;
      std::filesystem::remove_all(service_dir, ec);
    }
    service = std::move(next);
    service_dir = dir;
  }
  const uint64_t data_bytes = table.rows.size() * table.schema.RowBytes();

  Reference reference;
  if (Status status = ComputeReference(table, tree_config,
                                       options.tamper_reference, &reference);
      !status.ok()) {
    std::fprintf(stderr, "perfbench: reference failed: %s\n",
                 status.ToString().c_str());
    return false;
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu rows, %.1f MiB data, set-up "
               "%.3f s (median of %d)\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               table.rows.size(), data_bytes / 1048576.0, Median(setup_s),
               kSetups);

  // Warm-up: one session of each kind, run alone, verified but not timed.
  // Alone, the tree session rides no other session's scans, so the cost
  // credited to it is deterministic: that is grow_sim_s. (Sessions in the
  // window are credited shares of shared scans, which depend on timing.)
  std::vector<Sample> samples;
  std::atomic<uint64_t> next_op{1};
  for (bool tree : {true, false}) {
    samples.push_back(RunSession(service.get(), tree, tree_config,
                                 next_op++, false, clock, &tracer));
    samples.back().timed = false;
  }
  const double solo_tree_sim_s = samples.front().result.simulated_seconds;

  const auto snapshot = [&](sqlclass::CostCounters* cost,
                            sqlclass::BufferPool::Stats* pool) {
    sqlclass::MutexLock lock(*service->server_mutex());
    *cost = service->server()->cost_counters();
    *pool = service->server()->buffer_pool().stats();
  };
  sqlclass::CostCounters cost_before, cost_after;
  sqlclass::BufferPool::Stats pool_before, pool_after;
  snapshot(&cost_before, &pool_before);
  const ServiceMetrics metrics_before = service->Metrics();

  const double window_start = clock.Now();
  const double deadline = window_start + options.seconds;
  std::vector<std::vector<Sample>> per_client(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Half the clients grow trees and half train Naive Bayes models, so
      // two multi-wave tree sessions and two one-scan sessions are always
      // in flight. (A seeded per-session mix let the number of concurrent
      // tree sessions drift, and the Naive Bayes median with it.)
      const bool tree = c < kClients / 2;
      for (uint64_t i = 0; clock.Now() < deadline; ++i) {
        const bool traced = options.trace && i % 2 == 1;
        per_client[c].push_back(RunSession(service.get(), tree, tree_config,
                                           next_op++, traced, clock,
                                           &tracer));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double window_s = clock.Now() - window_start;
  const ServiceMetrics metrics = service->Metrics();
  snapshot(&cost_after, &pool_after);
  for (auto& client : per_client) {
    for (Sample& s : client) samples.push_back(std::move(s));
  }

  // Correctness gate, outside the timed window.
  uint64_t ok_sessions = 0;
  for (const Sample& s : samples) {
    ++report->attempted;
    const SessionResult& r = s.result;
    const std::string tag = std::string(s.tree ? "tree" : "naive bayes") +
                            " session " + std::to_string(s.op) + ": ";
    std::string why;
    if (!r.status.ok()) {
      why = r.status.ToString();
    } else if (s.tree && (r.tree == nullptr ||
                          r.tree->Signature() != reference.tree_signature)) {
      why = "tree differs from the in-memory reference";
    } else if (!s.tree && (r.model == nullptr ||
                           !SamePredictions(*r.model, table, reference))) {
      why = "predictions differ from the in-memory reference";
    }
    if (!why.empty()) {
      report->Fail(tag + why);
    } else if (s.timed) {
      ++ok_sessions;
    }
  }
  const auto delta = [&](uint64_t ServiceMetrics::*field) {
    return metrics.*field - metrics_before.*field;
  };
  std::string dirty;
  for (const auto& [name, field] :
       std::vector<std::pair<const char*, uint64_t ServiceMetrics::*>>{
           {"scan_retries", &ServiceMetrics::scan_retries},
           {"scan_failures", &ServiceMetrics::scan_failures},
           {"bitmap_fallbacks", &ServiceMetrics::bitmap_fallbacks},
           {"shard_fallbacks", &ServiceMetrics::shard_fallbacks},
           {"shard_rpc_timeouts", &ServiceMetrics::shard_rpc_timeouts},
           {"shard_worker_restarts", &ServiceMetrics::shard_worker_restarts},
           {"sessions_rejected", &ServiceMetrics::sessions_rejected},
           {"sessions_timed_out", &ServiceMetrics::sessions_timed_out}}) {
    if (metrics.*field != 0) {
      dirty += std::string(" ") + name + "=" + std::to_string(metrics.*field);
    }
  }
  if (!dirty.empty()) report->Fail("service counters on a clean run:" + dirty);

  std::vector<double> tree_run_s, tree_run_traced_s, tree_sim_s, tree_latency,
      nb_latency, queue_wait_ms, run_ms, requests, tree_nodes;
  for (const Sample& s : samples) {
    const SessionResult& r = s.result;
    if (!s.timed || !r.status.ok()) continue;
    if (s.traced) {
      if (s.tree) tree_run_traced_s.push_back(r.run_ms / 1e3);
      continue;
    }
    queue_wait_ms.push_back(r.queue_wait_ms);
    run_ms.push_back(r.run_ms);
    if (s.tree) {
      tree_run_s.push_back(r.run_ms / 1e3);
      tree_sim_s.push_back(r.simulated_seconds);
      tree_latency.push_back(s.latency_s);
      requests.push_back(static_cast<double>(r.requests_issued));
      if (r.tree != nullptr) tree_nodes.push_back(r.tree->num_nodes());
    } else {
      nb_latency.push_back(s.latency_s);
    }
  }
  const Tail tail = TailOf(tree_latency);
  report->info_json =
      InfoJson(options, config, table.rows.size(), data_bytes, tail,
               solo_tree_sim_s, Median(tree_sim_s), tree_latency.size(),
               nb_latency.size());

  if (!options.trace) {
    report->Set("setup_s", Median(setup_s));
    report->Set("grow_s_p50", Median(tree_run_s));
    report->Set("grow_sim_s", solo_tree_sim_s);
    report->Set("session_s_p50", Median(tree_latency));
    report->Set("nb_session_s_p50", Median(nb_latency));
    report->Set("sessions_per_s", ok_sessions / window_s);
    report->Set("peak_rss_mb", PeakRssMb());
    return true;
  }

  if (!options.trace_out.empty() && !tracer.WriteJson(options.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_out.c_str());
  }
  report->Set("fail_ratio",
              static_cast<double>(report->failed) / report->attempted);
  const double untraced_p50 = Median(tree_run_s);
  report->Set("trace_overhead_pct",
              untraced_p50 > 0 ? 100.0 * (Median(tree_run_traced_s) -
                                          untraced_p50) / untraced_p50
                               : 0);
  report->Set("service.session_tail_s", tail.value);
  report->Set("service.tail_pct", tail.percentile);
  report->Set("service.samples", static_cast<double>(tail.samples));
  report->Set("setup.generate_s", Median(generate_s));
  report->Set("setup.load_s", Median(load_s));
  report->Set("mining.requests", Median(requests));
  report->Set("mining.tree_nodes", Median(tree_nodes));

  const uint64_t scans = delta(&ServiceMetrics::scans_executed);
  const uint64_t completed = delta(&ServiceMetrics::sessions_completed);
  report->Set("service.queue_wait_ms_p50", Median(queue_wait_ms));
  report->Set("service.run_ms_p50", Median(run_ms));
  report->Set("service.scans_per_session",
              completed > 0 ? static_cast<double>(scans) / completed : 0);
  report->Set("service.merge_ratio",
              scans > 0 ? static_cast<double>(
                              delta(&ServiceMetrics::requests_fulfilled)) /
                              scans
                        : 0);
  report->Set("service.sessions_per_scan",
              scans > 0 ? static_cast<double>(
                              delta(&ServiceMetrics::scan_session_slots)) /
                              scans
                        : 0);
  report->Set("service.rows_scanned", delta(&ServiceMetrics::rows_scanned));
  report->Set("service.scan_retries", delta(&ServiceMetrics::scan_retries));
  report->Set("service.scan_failures", delta(&ServiceMetrics::scan_failures));
  report->Set("service.rejected", delta(&ServiceMetrics::sessions_rejected));
  report->Set("service.timed_out", delta(&ServiceMetrics::sessions_timed_out));
  report->Set("service.peak_active_sessions",
              static_cast<double>(metrics.peak_active_sessions));

  // Server and storage layers over the measured window.
  const sqlclass::CostCounters cost =
      sqlclass::CostCounters::Delta(cost_after, cost_before);
  const SimBreakdown sim = BreakDown(config.cost_model, cost);
  report->Set("service.sim_s_per_session",
              completed > 0 ? sim.total / completed : 0);
  report->Set("server.scans", cost.server_scans);
  report->Set("server.rows_evaluated", cost.server_rows_evaluated);
  report->Set("server.cursor_rows", cost.cursor_rows_transferred);
  report->Set("server.cursor_values", cost.cursor_values_transferred);
  report->Set("server.groupby_rows", cost.server_groupby_rows);
  report->Set("server.scan_sim_s", sim.scan);
  report->Set("server.cursor_sim_s", sim.cursor);
  report->Set("server.sql_sim_s", sim.sql);
  report->Set("middleware.cc_updates", cost.mw_cc_updates);
  report->Set("middleware.cc_update_sim_s", sim.cc_update);
  const uint64_t hits = pool_after.hits - pool_before.hits;
  const uint64_t misses = pool_after.misses - pool_before.misses;
  report->Set("storage.pool_hit_ratio",
              hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                                : 0);
  report->Set("storage.pool_misses", misses);
  report->Set("storage.pool_evictions",
              pool_after.evictions - pool_before.evictions);
  return true;
}

}  // namespace perfbench
