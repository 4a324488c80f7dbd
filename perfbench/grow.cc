// The three grow workloads: one closed-loop client grows a full decision
// tree through a fresh ClassificationMiddleware, then trains a Naive Bayes
// model through another, back to back, until the run's time is up.
//
//   grow_staged   census rows, memory budget 0.1 x data, hybrid file +
//                 memory staging; the paper's default configuration with
//                 the table larger than the 8 MiB buffer pool.
//   grow_bitmap   the same table with a bitmap index and a budget of
//                 1.2 x data; every batch is AND + popcount.
//   grow_sharded  random-tree (sec. 5.1.1) rows over 4 in-process shards,
//                 staging off (no local disk).
//
// Untraced grows are timed whole. On a traced run every other grow goes
// through TracingProvider, which records a span per QueueRequest /
// FulfillSome / ReleaseNode call; the per-layer sheet is built from those
// spans plus the counter deltas of each grow.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "datagen/datagen.h"
#include "datagen/load.h"
#include "datagen/random_tree.h"
#include "middleware/middleware.h"
#include "mining/cc_provider.h"
#include "mining/naive_bayes.h"
#include "mining/tree_client.h"
#include "server/server.h"

namespace perfbench {
namespace {

using sqlclass::CcProvider;
using sqlclass::CcRequest;
using sqlclass::CcResult;
using sqlclass::ClassificationMiddleware;
using sqlclass::CostCounters;
using sqlclass::MiddlewareConfig;
using sqlclass::SqlServer;
using sqlclass::Status;
using sqlclass::StatusOr;

constexpr char kTable[] = "data";

/// A grow workload, fully resolved: every knob that picks an engine or a
/// thread count is set here, never left to a hardware or environment
/// default.
struct GrowSpec {
  bool census = true;
  uint64_t rows = 0;
  double memory_fraction = 0;  // middleware memory budget / data bytes
  bool file_staging = true;
  bool memory_staging = true;
  bool bitmap_index = false;
  uint32_t shards = 0;  // 0: no shard set
  int shard_workers = 1;
  int scan_threads = 1;
};

GrowSpec SpecFor(const Options& options) {
  GrowSpec spec;
  const auto scaled = [&](double rows) {
    return static_cast<uint64_t>(std::max(200.0, rows * options.scale));
  };
  if (options.workload == "grow_staged") {
    spec.rows = scaled(300'000);
    spec.memory_fraction = 0.1;
  } else if (options.workload == "grow_bitmap") {
    spec.rows = scaled(300'000);
    spec.memory_fraction = 1.2;
    spec.bitmap_index = true;
  } else {  // grow_sharded
    spec.census = false;
    spec.rows = scaled(100'000);
    spec.memory_fraction = 6.0;
    spec.file_staging = false;
    spec.memory_staging = false;
    spec.shards = 4;
    spec.shard_workers = 4;
  }
  return spec;
}

/// Random-tree rows (sec. 5.1.1 defaults: 25 attributes, 10 classes,
/// cardinalities round(N(4, 4)) clamped to [2, 32]) from a 100-leaf
/// generating tree, sized to about `rows`.
Status GenerateRandomTree(uint64_t rows, uint64_t seed, Table* table) {
  sqlclass::RandomTreeParams params;
  params.num_leaves = 100;
  params.cases_per_leaf = static_cast<double>(rows) / params.num_leaves;
  params.seed = seed;
  SQLCLASS_ASSIGN_OR_RETURN(auto dataset,
                            sqlclass::RandomTreeDataset::Create(params));
  table->schema = dataset->schema();
  table->rows.clear();
  table->rows.reserve(rows);
  return dataset->Generate(sqlclass::CollectInto(&table->rows));
}

MiddlewareConfig MakeConfig(const GrowSpec& spec, uint64_t data_bytes,
                            const std::string& staging_dir) {
  MiddlewareConfig config;
  config.memory_budget_bytes =
      static_cast<size_t>(spec.memory_fraction * data_bytes);
  config.enable_file_staging = spec.file_staging;
  config.enable_memory_staging = spec.memory_staging;
  config.use_bitmap_index = spec.bitmap_index;
  config.staging_dir = staging_dir;
  config.parallel_scan_threads = spec.scan_threads;
  config.approx.enable = false;
  config.sharding.enable = spec.shards > 0;
  config.sharding.worker_threads = spec.shard_workers;
  config.sharding.transport = sqlclass::ShardTransportKind::kInProcess;
  return config;
}

/// One set-up: a fresh server directory, generated rows, the bulk load and
/// any index or shard set the workload serves from.
struct Instance {
  std::string dir;
  std::unique_ptr<SqlServer> server;
  double generate_s = 0;
  double load_s = 0;
  double bitmap_s = 0;
  double shard_s = 0;
  double Total() const { return generate_s + load_s + bitmap_s + shard_s; }
};

Status SetUp(const GrowSpec& spec, uint64_t seed, const std::string& dir,
             const RunClock& clock, Tracer* tracer, Table* table,
             Instance* instance) {
  instance->dir = dir;
  std::filesystem::create_directories(dir);
  const auto span = [&](const char* name, double start) {
    if (tracer != nullptr) {
      Span s;
      s.name = name;
      s.start_s = start;
      s.end_s = clock.Now();
      tracer->Add(s);
    }
    return clock.Now() - start;
  };
  double t = clock.Now();
  SQLCLASS_RETURN_IF_ERROR(spec.census ? GenerateCensus(spec.rows, seed, table)
                                       : GenerateRandomTree(spec.rows, seed,
                                                            table));
  instance->generate_s = span("setup.generate", t);

  t = clock.Now();
  instance->server = std::make_unique<SqlServer>(dir);
  SQLCLASS_RETURN_IF_ERROR(sqlclass::LoadIntoServer(
      instance->server.get(), kTable, table->schema,
      [&](const sqlclass::RowSink& sink) -> Status {
        for (const sqlclass::Row& row : table->rows) {
          SQLCLASS_RETURN_IF_ERROR(sink(row));
        }
        return Status::OK();
      }));
  instance->load_s = span("setup.load", t);

  if (spec.bitmap_index) {
    t = clock.Now();
    SQLCLASS_RETURN_IF_ERROR(instance->server->BuildBitmapIndex(kTable));
    instance->bitmap_s = span("setup.build_bitmap", t);
  }
  if (spec.shards > 0) {
    t = clock.Now();
    SQLCLASS_RETURN_IF_ERROR(instance->server->BuildShardSet(
        kTable, spec.shards, sqlclass::ShardScheme::kHashRowId,
        /*with_replicas=*/false));
    instance->shard_s = span("setup.build_shards", t);
  }
  return Status::OK();
}

const char* EngineOf(const ClassificationMiddleware::BatchTrace& batch) {
  if (batch.served_from_bitmap) return "bitmap";
  if (batch.served_from_shards) return "shard";
  if (batch.served_from_sample) return "sample";
  switch (batch.source.kind) {
    case sqlclass::LocationKind::kFile: return "file";
    case sqlclass::LocationKind::kMemory: return "memory";
    case sqlclass::LocationKind::kServer: break;
  }
  return "server";
}

/// CcProvider decorator between the tree client and the middleware: one
/// span per provider call, parented to the grow's span. A FulfillSome span
/// is tagged with the engine, nodes and rows of the BatchTrace entries the
/// call appended.
class TracingProvider : public CcProvider {
 public:
  TracingProvider(ClassificationMiddleware* middleware, Tracer* tracer,
                  int64_t parent, uint64_t op)
      : middleware_(middleware), tracer_(tracer), parent_(parent), op_(op) {}

  Status QueueRequest(CcRequest request) override {
    const int64_t id = tracer_->Open("middleware.queue", parent_, op_);
    Status status = middleware_->QueueRequest(std::move(request));
    tracer_->Close(id);
    return status;
  }

  StatusOr<std::vector<CcResult>> FulfillSome() override {
    const size_t before = middleware_->trace().size();
    Span span;
    span.name = "middleware.fulfill";
    span.parent = parent_;
    span.op = op_;
    span.start_s = tracer_->Now();
    StatusOr<std::vector<CcResult>> results = middleware_->FulfillSome();
    span.end_s = tracer_->Now();
    const auto& trace = middleware_->trace();
    if (trace.size() > before) {
      span.engine = EngineOf(trace[before]);
      span.nodes = 0;
      span.rows = 0;
      for (size_t i = before; i < trace.size(); ++i) {
        span.nodes += trace[i].nodes;
        span.rows += static_cast<int64_t>(trace[i].rows_scanned);
      }
    }
    tracer_->Add(span);
    return results;
  }

  void ReleaseNode(int node_id) override {
    const int64_t id = tracer_->Open("middleware.release", parent_, op_);
    middleware_->ReleaseNode(node_id);
    tracer_->Close(id);
  }

  size_t PendingRequests() const override {
    return middleware_->PendingRequests();
  }

 private:
  ClassificationMiddleware* middleware_;
  Tracer* tracer_;
  int64_t parent_;
  uint64_t op_;
};

/// Counters of one grow, as deltas over the grow.
struct GrowRecord {
  uint64_t op = 0;
  bool traced = false;
  bool timed = false;  // false for the warm-up grow
  std::string error;   // empty: the grow returned a tree
  double grow_s = 0;     // Create -> Grow returned
  double session_s = 0;  // ... plus middleware teardown
  std::string signature;
  int tree_nodes = 0;
  uint64_t requests = 0;
  CostCounters cost;
  ClassificationMiddleware::Stats stats;
  std::vector<ClassificationMiddleware::BatchTrace> batches;
  int files_created = 0;
  int memory_stores = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
};

struct NbRecord {
  bool timed = false;
  std::string error;
  double session_s = 0;
  std::optional<sqlclass::NaiveBayesModel> model;
  ClassificationMiddleware::Stats stats;
};

/// Fault and degradation counters that must stay zero on a clean run.
std::string DirtyCounters(const ClassificationMiddleware::Stats& s) {
  std::string out;
  const auto check = [&](const char* name, uint64_t value) {
    if (value != 0) {
      out += std::string(" ") + name + "=" + std::to_string(value);
    }
  };
  check("scan_retries", s.scan_retries);
  check("degraded_scans", s.degraded_scans);
  check("checksum_failures", s.checksum_failures);
  check("bitmap_fallbacks", s.bitmap_fallbacks);
  check("sample_fallbacks", s.sample_fallbacks);
  check("shard_fallbacks", s.shard_fallbacks);
  check("shard_rpc_timeouts", s.shard_rpc_timeouts);
  check("shard_worker_restarts", s.shard_worker_restarts);
  return out;
}

class GrowRunner {
 public:
  GrowRunner(const RunClock& clock, Tracer* tracer, SqlServer* server,
             const Table& table, MiddlewareConfig config)
      : clock_(clock),
        tracer_(tracer),
        server_(server),
        table_(table),
        config_(std::move(config)) {
    tree_config_.max_depth = kMaxDepth;
  }

  const sqlclass::TreeClientConfig& tree_config() const {
    return tree_config_;
  }

  GrowRecord Grow(uint64_t op, bool traced, bool timed) {
    GrowRecord record;
    record.op = op;
    record.traced = traced;
    record.timed = timed;
    const CostCounters cost_before = server_->cost_counters();
    const sqlclass::BufferPool::Stats pool_before =
        server_->buffer_pool().stats();

    const double start = clock_.Now();
    int64_t grow_span = -1;
    if (traced) grow_span = tracer_->Open("grow", -1, op);
    int64_t create_span = -1;
    if (traced) create_span = tracer_->Open("middleware.create", grow_span, op);
    auto middleware =
        ClassificationMiddleware::Create(server_, kTable, config_);
    if (traced) tracer_->Close(create_span);
    if (!middleware.ok()) {
      record.error = "create: " + middleware.status().ToString();
      return record;
    }
    ClassificationMiddleware* mw = middleware->get();
    TracingProvider tracing(mw, tracer_, grow_span, op);
    CcProvider* provider = traced ? static_cast<CcProvider*>(&tracing) : mw;
    sqlclass::DecisionTreeClient client(table_.schema, tree_config_);
    auto tree = client.Grow(provider, table_.rows.size());
    const double grown = clock_.Now();
    if (traced) tracer_->Close(grow_span);

    record.stats = mw->stats();
    record.batches = mw->trace();
    record.files_created = mw->staging().files_created();
    record.memory_stores = mw->staging().memory_stores_created();
    middleware->reset();
    record.grow_s = grown - start;
    record.session_s = clock_.Now() - start;

    record.cost = CostCounters::Delta(server_->cost_counters(), cost_before);
    const sqlclass::BufferPool::Stats& pool = server_->buffer_pool().stats();
    record.pool_hits = pool.hits - pool_before.hits;
    record.pool_misses = pool.misses - pool_before.misses;
    record.pool_evictions = pool.evictions - pool_before.evictions;
    record.requests = client.requests_issued();
    if (!tree.ok()) {
      record.error = "grow: " + tree.status().ToString();
      return record;
    }
    record.tree_nodes = tree->num_nodes();
    record.signature = tree->Signature();
    return record;
  }

  NbRecord TrainNaiveBayes(bool timed) {
    NbRecord record;
    record.timed = timed;
    const double start = clock_.Now();
    auto middleware =
        ClassificationMiddleware::Create(server_, kTable, config_);
    if (!middleware.ok()) {
      record.error = "create: " + middleware.status().ToString();
      return record;
    }
    auto model = sqlclass::NaiveBayesModel::TrainWith(
        table_.schema, middleware->get(), table_.rows.size());
    record.stats = (*middleware)->stats();
    middleware->reset();
    record.session_s = clock_.Now() - start;
    if (!model.ok()) {
      record.error = "naive bayes: " + model.status().ToString();
      return record;
    }
    record.model = std::move(model).value();
    return record;
  }

 private:
  const RunClock& clock_;
  Tracer* tracer_;
  SqlServer* server_;
  const Table& table_;
  MiddlewareConfig config_;
  sqlclass::TreeClientConfig tree_config_;
};

/// Per-grow aggregates of a traced grow's spans.
struct GrowSpans {
  double grow = 0, create = 0, queue = 0, fulfill = 0, release = 0;
  std::map<std::string, double> engine_s;
  std::vector<double> batch_ms;
};

std::map<uint64_t, GrowSpans> AggregateSpans(const std::vector<Span>& spans) {
  std::map<uint64_t, GrowSpans> by_op;
  for (const Span& s : spans) {
    if (s.op == 0) continue;  // set-up
    GrowSpans& g = by_op[s.op];
    const std::string name = s.name;
    if (name == "grow") {
      g.grow = s.Duration();
    } else if (name == "middleware.create") {
      g.create += s.Duration();
    } else if (name == "middleware.queue") {
      g.queue += s.Duration();
    } else if (name == "middleware.release") {
      g.release += s.Duration();
    } else if (name == "middleware.fulfill") {
      g.fulfill += s.Duration();
      if (s.engine != nullptr) {
        g.engine_s[s.engine] += s.Duration();
        g.batch_ms.push_back(s.Duration() * 1e3);
      }
    }
  }
  return by_op;
}

std::string InfoJson(const Options& options, const GrowSpec& spec,
                     const MiddlewareConfig& config, uint64_t data_bytes,
                     uint64_t heap_bytes, const GrowRecord* first,
                     double grow_sim_s, const Tail& tail) {
  std::string j = "{\"perfbench\": {";
  j += "\"workload\": " + Quote(options.workload);
  j += ", \"seed\": " + std::to_string(options.seed);
  j += ", \"trace\": " + std::string(options.trace ? "1" : "0");
  j += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  j += ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE);
  j += ", \"clients\": 1";
  j += ", \"config\": {";
  j += "\"dataset\": " + Quote(spec.census ? "census" : "random_tree");
  j += ", \"rows\": " + std::to_string(spec.rows);
  j += ", \"data_bytes\": " + std::to_string(data_bytes);
  j += ", \"heap_bytes\": " + std::to_string(heap_bytes);
  // SqlServer's default pool: 1024 pages of 8 KiB.
  j += ", \"buffer_pool_bytes\": " + std::to_string(1024 * 8192);
  const auto flag = [](bool on) { return std::string(on ? "true" : "false"); };
  j += ", \"memory_budget_bytes\": " +
       std::to_string(config.memory_budget_bytes);
  j += ", \"file_staging\": " + flag(config.enable_file_staging);
  j += ", \"memory_staging\": " + flag(config.enable_memory_staging);
  j += ", \"file_split_threshold\": " + Num(config.file_split_threshold);
  j += ", \"use_bitmap_index\": " + flag(config.use_bitmap_index);
  j += ", \"parallel_scan_threads\": " +
       std::to_string(config.parallel_scan_threads);
  j += ", \"sharding\": " + flag(config.sharding.enable);
  j += ", \"shards\": " + std::to_string(spec.shards);
  j += ", \"shard_worker_threads\": " +
       std::to_string(config.sharding.worker_threads);
  j += ", \"shard_min_node_rows\": " +
       std::to_string(config.sharding.min_node_rows);
  j += ", \"approx\": false";
  j += ", \"max_depth\": " + std::to_string(kMaxDepth);
  j += "}";
  if (first != nullptr) {
    j += ", \"checks\": {";
    j += "\"grow_sim_s\": " + Num(grow_sim_s);
    j += ", \"requests\": " + std::to_string(first->requests);
    j += ", \"tree_nodes\": " + std::to_string(first->tree_nodes);
    j += ", \"batches\": " + std::to_string(first->batches.size());
    uint64_t rows = 0;
    for (const auto& b : first->batches) rows += b.rows_scanned;
    j += ", \"rows_scanned\": " + std::to_string(rows);
    j += ", \"cc_updates\": " +
         std::to_string(first->cost.mw_cc_updates.load());
    j += "}";
  }
  j += ", \"grow_tail\": {\"value_s\": " + Num(tail.value) +
       ", \"percentile\": " + Num(tail.percentile) +
       ", \"samples\": " + std::to_string(tail.samples) + "}";
  j += "}}";
  return j;
}

}  // namespace

bool RunGrowWorkload(const Options& options, RunReport* report) {
  const GrowSpec spec = SpecFor(options);
  const RunClock clock;
  Tracer tracer(&clock);
  Tracer* span_log = options.trace ? &tracer : nullptr;

  // Set up kSetups times from an empty directory; keep the last instance.
  Table table;
  Instance instance;
  std::vector<double> setup_s, generate_s, load_s, bitmap_s, shard_s;
  for (int i = 0; i < kSetups; ++i) {
    const std::string dir = options.work_dir + "/setup" + std::to_string(i);
    Instance next;
    Status status =
        SetUp(spec, options.seed, dir, clock, span_log, &table, &next);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   status.ToString().c_str());
      return false;
    }
    setup_s.push_back(next.Total());
    generate_s.push_back(next.generate_s);
    load_s.push_back(next.load_s);
    bitmap_s.push_back(next.bitmap_s);
    shard_s.push_back(next.shard_s);
    if (instance.server != nullptr) {
      instance.server.reset();
      std::error_code ec;
      std::filesystem::remove_all(instance.dir, ec);
    }
    instance = std::move(next);
  }
  SqlServer* server = instance.server.get();
  const uint64_t data_bytes = table.rows.size() * table.schema.RowBytes();
  uint64_t heap_bytes = 0;
  if (auto path = server->TableHeapPath(kTable); path.ok()) {
    std::error_code ec;
    heap_bytes = std::filesystem::file_size(path.value(), ec);
  }
  const std::string staging_dir = options.work_dir + "/staging";
  std::filesystem::create_directories(staging_dir);
  const MiddlewareConfig config = MakeConfig(spec, data_bytes, staging_dir);
  GrowRunner runner(clock, &tracer, server, table, config);

  Reference reference;
  if (Status status = ComputeReference(table, runner.tree_config(),
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

  // Warm-up (verified, not timed), then the closed loop. On a traced run
  // odd grows are traced and even ones are not, so the two medians give
  // the tracing overhead.
  std::vector<GrowRecord> grows;
  std::vector<NbRecord> nbs;
  uint64_t op = 1;
  grows.push_back(runner.Grow(op++, false, false));
  nbs.push_back(runner.TrainNaiveBayes(false));
  const double window_start = clock.Now();
  const double deadline = window_start + options.seconds;
  while (clock.Now() < deadline) {
    const bool traced = options.trace && op % 2 == 1;
    grows.push_back(runner.Grow(op++, traced, true));
    nbs.push_back(runner.TrainNaiveBayes(true));
  }
  const double window_s = clock.Now() - window_start;

  // Correctness gate, outside the timed window.
  const sqlclass::CostModel& model = server->cost_model();
  const GrowRecord* first_ok = nullptr;
  double grow_sim_s = 0;
  uint64_t ok_ops = 0;
  for (const GrowRecord& g : grows) {
    ++report->attempted;
    const std::string tag = "grow " + std::to_string(g.op) + ": ";
    if (!g.error.empty()) {
      report->Fail(tag + g.error);
      continue;
    }
    const SimBreakdown sim = BreakDown(model, g.cost);
    if (first_ok == nullptr) {
      first_ok = &g;
      grow_sim_s = sim.total;
    }
    std::string why;
    if (g.signature != reference.tree_signature) {
      why = "tree differs from the in-memory reference";
    } else if (sim.total != grow_sim_s) {
      why = "simulated seconds " + Num(sim.total) + " != " + Num(grow_sim_s);
    } else if (std::abs(sim.Sum() - sim.total) > 1e-9 * sim.total) {
      why = "per-layer simulated seconds sum to " + Num(sim.Sum());
    } else if (std::string dirty = DirtyCounters(g.stats); !dirty.empty()) {
      why = "fault counters on a clean run:" + dirty;
    }
    if (!why.empty()) {
      report->Fail(tag + why);
    } else if (g.timed) {
      ++ok_ops;
    }
  }
  for (const NbRecord& nb : nbs) {
    ++report->attempted;
    std::string why = nb.error;
    if (why.empty() && !SamePredictions(*nb.model, table, reference)) {
      why = "predictions differ from the in-memory reference";
    }
    if (why.empty()) {
      if (std::string dirty = DirtyCounters(nb.stats); !dirty.empty()) {
        why = "fault counters on a clean run:" + dirty;
      }
    }
    if (!why.empty()) {
      report->Fail("naive bayes: " + why);
    } else if (nb.timed) {
      ++ok_ops;
    }
  }

  std::vector<double> grow_all, grow_untraced, grow_traced, session_s, nb_s;
  for (const GrowRecord& g : grows) {
    if (!g.timed || !g.error.empty()) continue;
    grow_all.push_back(g.grow_s);
    (g.traced ? grow_traced : grow_untraced).push_back(g.grow_s);
    if (!g.traced) session_s.push_back(g.session_s);
  }
  for (const NbRecord& nb : nbs) {
    if (nb.timed && nb.error.empty()) nb_s.push_back(nb.session_s);
  }
  const Tail tail = TailOf(options.trace ? grow_all : grow_untraced);
  report->info_json = InfoJson(options, spec, config, data_bytes, heap_bytes,
                               first_ok, grow_sim_s, tail);

  if (!options.trace) {
    report->Set("setup_s", Median(setup_s));
    report->Set("grow_s_p50", Median(grow_untraced));
    report->Set("grow_sim_s", grow_sim_s);
    report->Set("session_s_p50", Median(session_s));
    report->Set("nb_session_s_p50", Median(nb_s));
    report->Set("sessions_per_s", ok_ops / window_s);
    report->Set("peak_rss_mb", PeakRssMb());
    return true;
  }

  // Traced run: the per-layer sheet.
  if (!options.trace_out.empty() && !tracer.WriteJson(options.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_out.c_str());
  }
  const std::map<uint64_t, GrowSpans> spans = AggregateSpans(tracer.Spans());
  std::vector<double> client, create, queue, fulfill, release, batch_ms;
  std::map<std::string, std::vector<double>> engine_s;
  for (const auto& [id, g] : spans) {
    client.push_back(g.grow - g.create - g.queue - g.fulfill - g.release);
    create.push_back(g.create);
    queue.push_back(g.queue);
    fulfill.push_back(g.fulfill);
    release.push_back(g.release);
    batch_ms.insert(batch_ms.end(), g.batch_ms.begin(), g.batch_ms.end());
    for (const char* engine : {"server", "file", "memory", "bitmap", "shard"}) {
      const auto it = g.engine_s.find(engine);
      engine_s[engine].push_back(it == g.engine_s.end() ? 0 : it->second);
    }
  }
  const double attempted = static_cast<double>(report->attempted);
  report->Set("fail_ratio", report->failed / attempted);
  const double untraced_p50 = Median(grow_untraced);
  report->Set("trace_overhead_pct",
              untraced_p50 > 0
                  ? 100.0 * (Median(grow_traced) - untraced_p50) / untraced_p50
                  : 0);
  report->Set("grow.tail_s", tail.value);
  report->Set("grow.tail_pct", tail.percentile);
  report->Set("grow.samples", static_cast<double>(tail.samples));
  report->Set("setup.generate_s", Median(generate_s));
  report->Set("setup.load_s", Median(load_s));
  report->Set("bitmap.build_s", Median(bitmap_s));
  report->Set("shard.build_s", Median(shard_s));
  report->Set("mining.client_s", Median(client));
  report->Set("middleware.create_s", Median(create));
  report->Set("middleware.queue_s", Median(queue));
  report->Set("middleware.fulfill_s", Median(fulfill));
  report->Set("middleware.release_s", Median(release));
  report->Set("middleware.batch_ms_p50", Median(batch_ms));
  report->Set("middleware.batch_ms_max",
              batch_ms.empty() ? 0 : *std::max_element(batch_ms.begin(),
                                                       batch_ms.end()));
  if (first_ok == nullptr) return true;

  // Counts: every grow of a run does identical work (the gate checks the
  // simulated seconds), so one grow's deltas stand for all of them.
  const GrowRecord& g = *first_ok;
  const SimBreakdown sim = BreakDown(model, g.cost);
  report->Set("mining.requests", static_cast<double>(g.requests));
  report->Set("mining.tree_nodes", g.tree_nodes);
  uint64_t nodes = 0, requeued = 0;
  std::map<std::string, uint64_t> engine_batches, engine_rows;
  for (const auto& b : g.batches) {
    nodes += b.nodes;
    requeued += b.requeued;
    engine_batches[EngineOf(b)] += 1;
    engine_rows[EngineOf(b)] += b.rows_scanned;
  }
  const double batches = static_cast<double>(g.batches.size());
  report->Set("middleware.batches", batches);
  report->Set("middleware.nodes_per_batch", batches > 0 ? nodes / batches : 0);
  report->Set("middleware.requeue_ratio",
              nodes > 0 ? static_cast<double>(requeued) / nodes : 0);
  report->Set("middleware.sql_fallbacks", g.stats.sql_fallbacks);
  for (const char* engine : {"server", "file", "memory", "bitmap", "shard"}) {
    const std::string p = std::string("middleware.") + engine;
    const double seconds = Median(engine_s[engine]);
    const double rows = static_cast<double>(engine_rows[engine]);
    report->Set(p + "_s", seconds);
    report->Set(p + "_batches", engine_batches[engine]);
    report->Set(p + "_rows", rows);
    report->Set(p + "_ns_per_row", rows > 0 ? seconds * 1e9 / rows : 0);
  }
  report->Set("middleware.cc_updates", g.cost.mw_cc_updates);
  report->Set("middleware.cc_update_sim_s", sim.cc_update);
  report->Set("staging.files_created", g.files_created);
  report->Set("staging.file_splits", g.stats.file_splits);
  report->Set("staging.file_scans", g.stats.file_scans);
  report->Set("staging.memory_scans", g.stats.memory_scans);
  report->Set("staging.memory_stores", g.memory_stores);
  report->Set("staging.stores_evicted", g.stats.stores_evicted);
  report->Set("staging.sim_s", sim.staging);
  report->Set("staging.memory_sim_s", sim.memory);
  report->Set("server.scans", g.cost.server_scans);
  report->Set("server.rows_evaluated", g.cost.server_rows_evaluated);
  report->Set("server.cursor_rows", g.cost.cursor_rows_transferred);
  report->Set("server.cursor_values", g.cost.cursor_values_transferred);
  report->Set("server.groupby_rows", g.cost.server_groupby_rows);
  report->Set("server.scan_sim_s", sim.scan);
  report->Set("server.cursor_sim_s", sim.cursor);
  report->Set("server.sql_sim_s", sim.sql);
  const uint64_t lookups = g.pool_hits + g.pool_misses;
  report->Set("storage.pool_hit_ratio",
              lookups > 0 ? static_cast<double>(g.pool_hits) / lookups : 0);
  report->Set("storage.pool_misses", g.pool_misses);
  report->Set("storage.pool_evictions", g.pool_evictions);
  report->Set("bitmap.batch_s", Median(engine_s["bitmap"]));
  report->Set("bitmap.words_read", g.cost.mw_bitmap_words_read);
  report->Set("bitmap.and_ops", g.cost.mw_bitmap_and_ops);
  report->Set("bitmap.popcounts", g.cost.mw_bitmap_popcounts);
  report->Set("bitmap.sim_s", sim.bitmap);
  report->Set("bitmap.fallbacks", g.stats.bitmap_fallbacks);
  report->Set("shard.batch_s", Median(engine_s["shard"]));
  report->Set("shard.scans", g.stats.shard_scans);
  report->Set("shard.rows_read", g.cost.mw_shard_rows_read);
  report->Set("shard.merge_cells", g.cost.mw_shard_merge_cells);
  report->Set("shard.sim_s", sim.shard);
  report->Set("shard.fallbacks", g.stats.shard_fallbacks);
  return true;
}

}  // namespace perfbench
