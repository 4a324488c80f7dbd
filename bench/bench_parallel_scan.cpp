// Morsel-parallel counting scan: wall-clock speedup over the serial scan at
// fixed logical cost. A rows x threads grid scans one heap file through
// ParallelCountScan with a mixed-depth frontier, verifying along the way
// that every configuration produces CC tables identical to the 1-thread run
// (the determinism contract) and identical simulated seconds (the cost
// model cannot see thread count — only wall time moves).
//
// Flags:
//   --smoke        tiny grid for the `perf`-labeled ctest smoke run
//   --dump=FILE    also write the results as JSON (BENCH_parallel_scan.json)

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "middleware/count_batch.h"
#include "middleware/parallel_scan.h"
#include "storage/heap_file.h"

using namespace sqlclass;
using namespace sqlclass::bench;

namespace {

constexpr int kNumAttrs = 8;
constexpr int kCardinality = 8;
constexpr int kNumClasses = 3;

Schema MakeBenchSchema() {
  std::vector<AttributeDef> attrs;
  for (int i = 0; i < kNumAttrs; ++i) {
    AttributeDef attr;
    attr.name = "A" + std::to_string(i + 1);
    attr.cardinality = kCardinality;
    attrs.push_back(std::move(attr));
  }
  AttributeDef class_attr;
  class_attr.name = "class";
  class_attr.cardinality = kNumClasses;
  attrs.push_back(std::move(class_attr));
  return Schema(std::move(attrs), kNumAttrs);
}

// Uniform rows straight into a heap file; returns false on I/O failure.
bool WriteHeapFile(const std::string& path, const Schema& schema,
                   uint64_t rows, uint64_t seed) {
  auto writer = HeapFileWriter::Create(path, schema.num_columns(), nullptr);
  if (!writer.ok()) return false;
  Random rng(seed);
  Row row(schema.num_columns());
  for (uint64_t i = 0; i < rows; ++i) {
    for (int c = 0; c < schema.num_columns(); ++c) {
      row[c] = static_cast<Value>(rng.Uniform(schema.attribute(c).cardinality));
    }
    if (!(*writer)->Append(row).ok()) return false;
  }
  return (*writer)->Finish().ok();
}

// A frontier like one tree level: eight nodes splitting on A1 x A2, each
// counting the remaining attributes.
struct Frontier {
  std::vector<std::unique_ptr<Expr>> predicates;
  std::vector<std::vector<int>> attrs;
  std::unique_ptr<CountBatch> counts;
};

Frontier MakeFrontier(const Schema& schema) {
  Frontier f;
  for (Value a = 0; a < 4; ++a) {
    for (Value b = 0; b < 2; ++b) {
      std::vector<std::unique_ptr<Expr>> conj;
      conj.push_back(Expr::ColEq("A1", a));
      conj.push_back(Expr::ColEq("A2", b));
      auto pred = Expr::And(std::move(conj));
      if (!pred->Bind(schema).ok()) std::abort();
      f.predicates.push_back(std::move(pred));
      std::vector<int> attrs;
      for (int c = 2; c < kNumAttrs; ++c) attrs.push_back(c);
      f.attrs.push_back(std::move(attrs));
    }
  }
  std::vector<CountBatch::Node> nodes;
  for (size_t i = 0; i < f.predicates.size(); ++i) {
    nodes.push_back({f.predicates[i].get(), &f.attrs[i]});
  }
  f.counts = std::make_unique<CountBatch>(nodes, schema.class_column(),
                                          kNumClasses);
  return f;
}

struct GridCell {
  uint64_t rows = 0;
  int threads = 0;
  double wall_seconds = 0;
  double sim_seconds = 0;
  double speedup = 0;
  bool cc_identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string dump_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--dump=", 7) == 0) dump_path = argv[i] + 7;
  }

  ScopedDir dir("parallel_scan");
  Schema schema = MakeBenchSchema();
  Frontier frontier = MakeFrontier(schema);
  CostModel cost_model;

  std::vector<uint64_t> row_grid;
  if (smoke) {
    row_grid = {20'000};
  } else {
    for (double r : {125'000.0, 250'000.0, 500'000.0}) {
      row_grid.push_back(static_cast<uint64_t>(r * BenchScale()));
    }
  }
  // On a single-core host a multi-thread grid measures scheduler thrash,
  // not scan parallelism — ~1.0x "speedups" that would read as a bug. Run
  // the serial column only and say why in the JSON instead.
  const unsigned hardware = std::thread::hardware_concurrency();
  const bool single_core = hardware <= 1;
  std::string skipped_reason;
  if (single_core) {
    skipped_reason =
        "hardware_concurrency=" + std::to_string(hardware) +
        ": multi-thread cells skipped (wall-clock speedup over the serial "
        "scan is meaningless without a second core)";
  }
  std::vector<int> thread_grid;
  if (single_core) {
    thread_grid = {1};
  } else if (smoke) {
    thread_grid = {1, 4};
  } else {
    thread_grid = {1, 2, 4, 8};
  }

  std::printf("# Morsel-parallel counting scan (hardware_concurrency=%u)\n",
              hardware);
  if (single_core) std::printf("# %s\n", skipped_reason.c_str());
  std::printf("%-10s %-8s %12s %12s %10s %10s\n", "rows", "threads",
              "wall_sec", "sim_sec", "speedup", "cc_ok");

  std::vector<GridCell> cells;
  for (uint64_t rows : row_grid) {
    const std::string path =
        dir.path() + "/scan_" + std::to_string(rows) + ".heap";
    if (!WriteHeapFile(path, schema, rows, /*seed=*/rows + 99)) {
      std::fprintf(stderr, "heap file write failed\n");
      return 1;
    }

    ParallelScanOptions options;
    options.charge.server_row_evaluated = true;
    options.charge.cursor_transfer = true;

    std::vector<CcTable> serial_ccs;
    double serial_wall = 0;
    for (int threads : thread_grid) {
      ThreadPool pool(threads);
      CostCounters cost;
      IoCounters io;
      // Best of three runs, so one cold file cache doesn't skew a cell.
      double wall = 0;
      StatusOr<ParallelScanResult> scan = Status::OK();
      for (int rep = 0; rep < 3; ++rep) {
        cost.Reset();
        io.Reset();
        frontier.counts->Reset();
        Stopwatch watch;
        scan = ParallelCountScan::OverHeapFile(
            &pool, path, schema.num_columns(), options, frontier.counts.get(),
            &cost, &io);
        const double elapsed = watch.ElapsedSeconds();
        if (!scan.ok()) {
          std::fprintf(stderr, "scan: %s\n", scan.status().ToString().c_str());
          return 1;
        }
        if (rep == 0 || elapsed < wall) wall = elapsed;
      }

      GridCell cell;
      cell.rows = rows;
      cell.threads = threads;
      cell.wall_seconds = wall;
      cell.sim_seconds = cost_model.SimulatedSeconds(cost);
      const CountBatch& counts = *frontier.counts;
      if (threads == 1) {
        serial_ccs.clear();
        for (size_t i = 0; i < counts.size(); ++i) {
          serial_ccs.push_back(counts.cc(i));
        }
        serial_wall = wall;
        cell.cc_identical = true;
        cell.speedup = 1.0;
      } else {
        cell.cc_identical = counts.size() == serial_ccs.size();
        for (size_t i = 0; cell.cc_identical && i < serial_ccs.size(); ++i) {
          cell.cc_identical = counts.cc(i) == serial_ccs[i];
        }
        cell.speedup = wall > 0 ? serial_wall / wall : 0;
      }
      std::printf("%-10llu %-8d %12.4f %12.3f %10.2f %10s\n",
                  (unsigned long long)rows, threads, cell.wall_seconds,
                  cell.sim_seconds, cell.speedup,
                  cell.cc_identical ? "yes" : "NO");
      if (!cell.cc_identical) return 1;
      cells.push_back(cell);
    }
  }

  if (!dump_path.empty()) {
    JsonWriter json;
    json.BeginObject();
    json.Key("bench");
    json.String("parallel_scan");
    json.Key("hardware_concurrency");
    json.Int(hardware);
    if (!skipped_reason.empty()) {
      json.Key("skipped_reason");
      json.String(skipped_reason);
    }
    json.Key("frontier_nodes");
    json.Int(frontier.predicates.size());
    json.Key("note");
    json.String(
        "speedup is wall-clock vs the 1-thread run on the same machine; "
        "simulated seconds are thread-count-invariant by design");
    json.Key("results");
    json.BeginArray();
    for (const GridCell& cell : cells) {
      json.BeginObject();
      json.Key("rows");
      json.Int(cell.rows);
      json.Key("threads");
      json.Int(cell.threads);
      json.Key("wall_seconds");
      json.Double(cell.wall_seconds);
      json.Key("sim_seconds");
      json.Double(cell.sim_seconds);
      json.Key("speedup_vs_serial");
      json.Double(cell.speedup);
      json.Key("cc_identical_to_serial");
      json.Bool(cell.cc_identical);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    const Status dump_status = json.WriteToFile(dump_path);
    if (!dump_status.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", dump_path.c_str(),
                   dump_status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", dump_path.c_str());
  }
  return 0;
}
