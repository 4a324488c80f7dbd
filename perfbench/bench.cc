#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "datagen/census.h"
#include "datagen/datagen.h"
#include "mining/inmemory_provider.h"

namespace perfbench {

using sqlclass::CostCounters;
using sqlclass::CostModel;
using sqlclass::Status;

const std::vector<std::pair<std::string, std::string>>& EndToEndSheet() {
  static const auto* sheet =
      new std::vector<std::pair<std::string, std::string>>{
          {"setup_s", "s"},
          {"grow_s_p50", "s"},
          {"grow_sim_s", "sim-s"},
          {"session_s_p50", "s"},
          {"nb_session_s_p50", "s"},
          {"sessions_per_s", "1/s"},
          {"peak_rss_mb", "MB"},
      };
  return *sheet;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerSheet() {
  static const auto* sheet = [] {
    auto* s = new std::vector<std::pair<std::string, std::string>>{
        {"fail_ratio", "ratio"},
        {"trace_overhead_pct", "%"},
        {"grow.tail_s", "s"},
        {"grow.tail_pct", "%"},
        {"grow.samples", "count"},
        {"service.session_tail_s", "s"},
        {"service.tail_pct", "%"},
        {"service.samples", "count"},
        {"setup.generate_s", "s"},
        {"setup.load_s", "s"},
        {"mining.client_s", "s"},
        {"mining.requests", "count"},
        {"mining.tree_nodes", "count"},
        {"middleware.create_s", "s"},
        {"middleware.queue_s", "s"},
        {"middleware.fulfill_s", "s"},
        {"middleware.release_s", "s"},
        {"middleware.batches", "count"},
        {"middleware.nodes_per_batch", "count"},
        {"middleware.batch_ms_p50", "ms"},
        {"middleware.batch_ms_max", "ms"},
        {"middleware.requeue_ratio", "ratio"},
        {"middleware.sql_fallbacks", "count"},
    };
    for (const char* src : {"server", "file", "memory", "bitmap", "shard"}) {
      const std::string p = std::string("middleware.") + src;
      s->push_back({p + "_s", "s"});
      s->push_back({p + "_batches", "count"});
      s->push_back({p + "_rows", "count"});
      s->push_back({p + "_ns_per_row", "ns"});
    }
    s->insert(s->end(), {
        {"middleware.cc_updates", "count"},
        {"middleware.cc_update_sim_s", "sim-s"},
        {"staging.files_created", "count"},
        {"staging.file_splits", "count"},
        {"staging.file_scans", "count"},
        {"staging.memory_scans", "count"},
        {"staging.memory_stores", "count"},
        {"staging.stores_evicted", "count"},
        {"staging.sim_s", "sim-s"},
        {"staging.memory_sim_s", "sim-s"},
        {"server.scans", "count"},
        {"server.rows_evaluated", "count"},
        {"server.cursor_rows", "count"},
        {"server.cursor_values", "count"},
        {"server.groupby_rows", "count"},
        {"server.scan_sim_s", "sim-s"},
        {"server.cursor_sim_s", "sim-s"},
        {"server.sql_sim_s", "sim-s"},
        {"storage.pool_hit_ratio", "ratio"},
        {"storage.pool_misses", "count"},
        {"storage.pool_evictions", "count"},
        {"bitmap.build_s", "s"},
        {"bitmap.batch_s", "s"},
        {"bitmap.words_read", "count"},
        {"bitmap.and_ops", "count"},
        {"bitmap.popcounts", "count"},
        {"bitmap.sim_s", "sim-s"},
        {"bitmap.fallbacks", "count"},
        {"shard.build_s", "s"},
        {"shard.batch_s", "s"},
        {"shard.scans", "count"},
        {"shard.rows_read", "count"},
        {"shard.merge_cells", "count"},
        {"shard.sim_s", "sim-s"},
        {"shard.fallbacks", "count"},
        {"service.queue_wait_ms_p50", "ms"},
        {"service.run_ms_p50", "ms"},
        {"service.scans_per_session", "count"},
        {"service.merge_ratio", "ratio"},
        {"service.sessions_per_scan", "ratio"},
        {"service.rows_scanned", "count"},
        {"service.scan_retries", "count"},
        {"service.scan_failures", "count"},
        {"service.rejected", "count"},
        {"service.timed_out", "count"},
        {"service.peak_active_sessions", "count"},
        {"service.sim_s_per_session", "sim-s"},
    });
    return s;
  }();
  return *sheet;
}

void FillSheet(bool trace, RunReport* report) {
  for (const auto& [name, unit] : trace ? PerLayerSheet() : EndToEndSheet()) {
    report->metrics[name] = Metric{0, unit};
  }
}

Status GenerateCensus(uint64_t rows, uint64_t seed, Table* table) {
  sqlclass::CensusParams params;
  params.rows = rows;
  params.seed = seed;
  SQLCLASS_ASSIGN_OR_RETURN(auto dataset,
                            sqlclass::CensusDataset::Create(params));
  table->schema = dataset->schema();
  table->rows.clear();
  table->rows.reserve(rows);
  return dataset->Generate(sqlclass::CollectInto(&table->rows));
}

Status ComputeReference(const Table& table,
                        const sqlclass::TreeClientConfig& config, bool tamper,
                        Reference* reference) {
  sqlclass::InMemoryCcProvider tree_provider(table.schema, &table.rows);
  sqlclass::DecisionTreeClient client(table.schema, config);
  SQLCLASS_ASSIGN_OR_RETURN(sqlclass::DecisionTree tree,
                            client.Grow(&tree_provider, table.rows.size()));
  reference->tree_signature = tree.Signature();

  sqlclass::InMemoryCcProvider nb_provider(table.schema, &table.rows);
  SQLCLASS_ASSIGN_OR_RETURN(
      sqlclass::NaiveBayesModel model,
      sqlclass::NaiveBayesModel::TrainWith(table.schema, &nb_provider,
                                           table.rows.size()));
  reference->nb_predictions.clear();
  reference->nb_predictions.reserve(table.rows.size());
  for (const sqlclass::Row& row : table.rows) {
    reference->nb_predictions.push_back(model.Classify(row));
  }
  if (tamper) {
    reference->tree_signature += "#tampered";
    if (!reference->nb_predictions.empty()) {
      reference->nb_predictions[0] =
          (reference->nb_predictions[0] + 1) % model.num_classes();
    }
  }
  return Status::OK();
}

bool SamePredictions(const sqlclass::NaiveBayesModel& model,
                     const Table& table, const Reference& reference) {
  if (reference.nb_predictions.size() != table.rows.size()) return false;
  for (size_t i = 0; i < table.rows.size(); ++i) {
    if (model.Classify(table.rows[i]) != reference.nb_predictions[i]) {
      return false;
    }
  }
  return true;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  const std::vector<Span> spans = Spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":" << Quote(s.name)
        << ",\"start_s\":" << Num(s.start_s) << ",\"end_s\":" << Num(s.end_s)
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op;
    if (s.engine != nullptr) out << ",\"engine\":" << Quote(s.engine);
    if (s.task != nullptr) out << ",\"task\":" << Quote(s.task);
    if (s.nodes >= 0) out << ",\"nodes\":" << s.nodes;
    if (s.rows >= 0) out << ",\"rows\":" << s.rows;
    if (s.queue_wait_ms >= 0) {
      out << ",\"queue_wait_ms\":" << Num(s.queue_wait_ms);
    }
    if (s.run_ms >= 0) out << ",\"run_ms\":" << Num(s.run_ms);
    out << (i + 1 == spans.size() ? "}\n" : "},\n");
  }
  out << "]\n";
  out.close();
  return static_cast<bool>(out);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n <= 10) {
    tail.value = values.back();
    return tail;
  }
  // Rank n - 11 (0-based) has exactly ten samples above it.
  tail.value = values[n - 11];
  tail.percentile = 100.0 * static_cast<double>(n - 10) /
                    static_cast<double>(n);
  return tail;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

SimBreakdown BreakDown(const CostModel& model, const CostCounters& c) {
  // Each category is the cost model applied to the counters of that layer
  // alone; CostModel::SimulatedSeconds is linear in the counters.
  auto part = [&](auto fill) {
    CostCounters only;
    fill(&only);
    return model.SimulatedSeconds(only);
  };
  SimBreakdown b;
  b.total = model.SimulatedSeconds(c);
  b.scan = part([&](CostCounters* o) {
    o->server_scans = c.server_scans.load();
    o->server_rows_evaluated = c.server_rows_evaluated.load();
  });
  b.cursor = part([&](CostCounters* o) {
    o->cursor_rows_transferred = c.cursor_rows_transferred.load();
    o->cursor_values_transferred = c.cursor_values_transferred.load();
  });
  b.sql = part([&](CostCounters* o) {
    o->server_groupby_rows = c.server_groupby_rows.load();
    o->temp_table_rows_written = c.temp_table_rows_written.load();
    o->index_probes = c.index_probes.load();
    o->index_rows_inserted = c.index_rows_inserted.load();
    o->result_rows_returned = c.result_rows_returned.load();
  });
  b.staging = part([&](CostCounters* o) {
    o->mw_file_rows_written = c.mw_file_rows_written.load();
    o->mw_file_rows_read = c.mw_file_rows_read.load();
  });
  b.memory = part([&](CostCounters* o) {
    o->mw_memory_rows_read = c.mw_memory_rows_read.load();
  });
  b.cc_update = part([&](CostCounters* o) {
    o->mw_cc_updates = c.mw_cc_updates.load();
  });
  b.bitmap = part([&](CostCounters* o) {
    o->mw_bitmap_words_read = c.mw_bitmap_words_read.load();
    o->mw_bitmap_and_ops = c.mw_bitmap_and_ops.load();
    o->mw_bitmap_popcounts = c.mw_bitmap_popcounts.load();
  });
  b.sample = part([&](CostCounters* o) {
    o->mw_sample_rows_read = c.mw_sample_rows_read.load();
  });
  b.shard = part([&](CostCounters* o) {
    o->mw_shard_rows_read = c.mw_shard_rows_read.load();
    o->mw_shard_merge_cells = c.mw_shard_merge_cells.load();
  });
  return b;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

std::string Num(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

}  // namespace perfbench
