// Shared pieces of the end-to-end benchmark: options, the metric sheet a
// run fills in, the in-memory span recorder, and small statistics helpers.
// Everything here measures the library from outside, through its public
// entry points; nothing in src/ knows the benchmark exists.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/row.h"
#include "catalog/schema.h"
#include "common/status.h"
#include "mining/naive_bayes.h"
#include "mining/tree_client.h"
#include "server/cost_model.h"

namespace perfbench {

/// Depth limit of every grown tree: deep enough for ~450 nodes on census,
/// bounded so that tree size moves little with the seed.
constexpr int kMaxDepth = 8;

/// Set-ups per run; setup_s is their median. One set-up takes 0.05-0.2 s
/// and varies by a third from one to the next, so it takes many.
constexpr int kSetups = 11;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch root for table files and staged stores; removed at exit.
  std::string work_dir;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_out;
  /// Multiplies every table size; the self-test runs at a tiny scale.
  double scale = 1.0;
  /// Corrupts the reference classifiers, so every op must be reported as
  /// failed. Proves the correctness gate fires.
  bool tamper_reference = false;
};

/// A metric as printed: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one run reports. `metrics` holds the end-to-end sheet on an
/// untraced run and the per-layer sheet on a traced one; `info_json` is a
/// free-form JSON object printed on the line before the result.
struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few reasons, for stderr
  std::map<std::string, Metric> metrics;
  std::string info_json;

  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
  /// Names that Set was given but the sheet does not have.
  std::vector<std::string> unknown;

  /// Sets the value of a metric on the sheet (see FillSheet), which also
  /// holds its unit.
  void Set(const std::string& name, double value) {
    const auto it = metrics.find(name);
    if (it == metrics.end()) {
      unknown.push_back(name);
    } else {
      it->second.value = value;
    }
  }
};

/// Seconds since the run started, on the monotonic clock.
class RunClock {
 public:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_ = Clock::now();
};

/// One span: a timed interval at a layer boundary. `op` groups the spans of
/// one grow or session; `parent` is the index of the enclosing span (-1 for
/// a root). Numeric tags are -1 when absent.
struct Span {
  const char* name = "";
  double start_s = 0;
  double end_s = 0;
  int64_t parent = -1;
  uint64_t op = 0;
  const char* engine = nullptr;  // middleware.fulfill: row source / engine
  const char* task = nullptr;    // service.session: "tree" or "nb"
  int64_t nodes = -1;
  int64_t rows = -1;
  double queue_wait_ms = -1;
  double run_ms = -1;

  double Duration() const { return end_s - start_s; }
};

/// In-memory span log. Spans are appended under a mutex (the service
/// workload records from several client threads) and written out once, at
/// the end of the run.
class Tracer {
 public:
  explicit Tracer(const RunClock* clock) : clock_(clock) {}

  double Now() const { return clock_->Now(); }

  /// Records a finished span and returns its index.
  int64_t Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Opens a span whose end is filled in by Close; returns its index.
  int64_t Open(const char* name, int64_t parent, uint64_t op) {
    Span span;
    span.name = name;
    span.start_s = Now();
    span.parent = parent;
    span.op = op;
    return Add(span);
  }
  void Close(int64_t id) {
    const double now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_s = now;
  }

  /// Copy of the log; call after every recording thread has finished.
  std::vector<Span> Spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Writes the spans as a JSON array of objects. Returns false on I/O
  /// failure.
  bool WriteJson(const std::string& path) const;

 private:
  const RunClock* clock_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Tail of a latency sample: the highest percentile with at least ten
/// samples beyond it. `percentile` is 100 * (n - 10) / n, `value` the
/// sample at that rank. With ten samples or fewer there is no such
/// percentile: `percentile` is 0 and `value` the maximum.
struct Tail {
  double value = 0;
  double percentile = 0;
  uint64_t samples = 0;
};
Tail TailOf(std::vector<double> values);

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMb();

/// Simulated seconds of one grow, split by the layer that was charged.
/// The categories partition CostModel::SimulatedSeconds, so they sum to
/// `total` up to rounding.
struct SimBreakdown {
  double total = 0;
  double scan = 0;       // server scan start-up + row evaluation
  double cursor = 0;     // rows and values shipped through the cursor
  double sql = 0;        // GROUP BY, temp tables, index probes, results
  double staging = 0;    // staged-file writes and reads
  double memory = 0;     // in-memory store reads
  double cc_update = 0;  // CC cell updates
  double bitmap = 0;     // bitmap words read, ANDed, popcounted
  double sample = 0;     // scramble rows
  double shard = 0;      // shard rows read + merge cells

  double Sum() const {
    return scan + cursor + sql + staging + memory + cc_update + bitmap +
           sample + shard;
  }
};
SimBreakdown BreakDown(const sqlclass::CostModel& model,
                       const sqlclass::CostCounters& counters);

/// JSON string literal for `text` (quotes, backslashes and control
/// characters escaped).
std::string Quote(const std::string& text);

/// Shortest round-tripping decimal for `value`.
std::string Num(double value);

/// The metric sheets, as (name, unit) pairs. A run prints exactly
/// one of them: end-to-end when untraced, per-layer when traced. Metrics a
/// workload does not exercise are printed as 0.
const std::vector<std::pair<std::string, std::string>>& EndToEndSheet();
const std::vector<std::pair<std::string, std::string>>& PerLayerSheet();

/// Zero-fills `report` with the sheet the run prints.
void FillSheet(bool trace, RunReport* report);

/// A generated table, held in memory: the in-memory reference classifiers
/// are grown from it and the server is loaded from it.
struct Table {
  sqlclass::Schema schema;
  std::vector<sqlclass::Row> rows;
};

/// Census-like rows (datagen/census.h) from `seed`.
sqlclass::Status GenerateCensus(uint64_t rows, uint64_t seed, Table* table);

/// The classifiers every op is checked against, grown by the in-memory
/// reference provider (mining/inmemory_provider.h) on the same rows.
struct Reference {
  std::string tree_signature;
  std::vector<sqlclass::Value> nb_predictions;  // one per table row
};
sqlclass::Status ComputeReference(const Table& table,
                                  const sqlclass::TreeClientConfig& config,
                                  bool tamper, Reference* reference);

/// True when `model` predicts the reference class for every table row.
bool SamePredictions(const sqlclass::NaiveBayesModel& model,
                     const Table& table, const Reference& reference);

/// Entry points of the four workloads. Each fills `report` and returns
/// false only when it could not run at all (set-up failed).
bool RunGrowWorkload(const Options& options, RunReport* report);
bool RunServiceWorkload(const Options& options, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
