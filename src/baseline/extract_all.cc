#include "baseline/extract_all.h"

#include <cstdio>

#include "middleware/count_batch.h"

namespace sqlclass {

ExtractAllProvider::ExtractAllProvider(SqlServer* server, std::string table,
                                       Schema schema, uint64_t table_rows,
                                       std::string path, bool batch_counting)
    : server_(server),
      table_(std::move(table)),
      schema_(std::move(schema)),
      num_classes_(schema_.attribute(schema_.class_column()).cardinality),
      table_rows_(table_rows),
      path_(std::move(path)),
      batch_counting_(batch_counting) {}

ExtractAllProvider::~ExtractAllProvider() {
  if (extracted_) std::remove(path_.c_str());
}

StatusOr<std::unique_ptr<ExtractAllProvider>> ExtractAllProvider::Create(
    SqlServer* server, const std::string& table, const std::string& dir,
    bool batch_counting) {
  SQLCLASS_ASSIGN_OR_RETURN(const Schema* schema, server->GetSchema(table));
  if (!schema->has_class_column()) {
    return Status::InvalidArgument("table has no class column: " + table);
  }
  SQLCLASS_ASSIGN_OR_RETURN(uint64_t rows, server->TableRowCount(table));
  const std::string path = dir + "/extract_" + table + ".dat";
  return std::unique_ptr<ExtractAllProvider>(new ExtractAllProvider(
      server, table, *schema, rows, path, batch_counting));
}

Status ExtractAllProvider::QueueRequest(CcRequest request) {
  if (request.predicate == nullptr) request.predicate = Expr::True();
  SQLCLASS_RETURN_IF_ERROR(request.predicate->Bind(schema_));
  if (request.active_attrs.empty()) {
    return Status::InvalidArgument("request with no attributes to count");
  }
  if (request.parent_id < 0) request.data_size = table_rows_;
  queue_.push_back(std::move(request));
  return Status::OK();
}

Status ExtractAllProvider::ExtractOnce() {
  SQLCLASS_ASSIGN_OR_RETURN(std::unique_ptr<ServerCursor> cursor,
                            server_->OpenCursor(table_, nullptr));
  SQLCLASS_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapFileWriter> writer,
      HeapFileWriter::Create(path_, schema_.num_columns(), &io_));
  CostCounters& cost = server_->cost_counters();
  Row row;
  while (true) {
    SQLCLASS_ASSIGN_OR_RETURN(bool more, cursor->Next(&row));
    if (!more) break;
    SQLCLASS_RETURN_IF_ERROR(writer->Append(row));
    ++cost.mw_file_rows_written;
  }
  SQLCLASS_RETURN_IF_ERROR(writer->Finish());
  extracted_ = true;
  return Status::OK();
}

StatusOr<std::vector<CcResult>> ExtractAllProvider::FulfillSome() {
  std::vector<CcResult> results;
  if (queue_.empty()) return results;
  if (!extracted_) SQLCLASS_RETURN_IF_ERROR(ExtractOnce());

  // Traditional-client semantics (the default): one node per file scan.
  // With batch_counting, one scan services the whole frontier.
  std::vector<CcRequest> batch;
  if (batch_counting_) {
    while (!queue_.empty()) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  } else {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  std::vector<CountBatch::Node> nodes;
  nodes.reserve(batch.size());
  for (const CcRequest& request : batch) {
    nodes.push_back(CountBatch::NodeOf(request));
  }
  CountBatch counts(nodes, schema_.class_column(), num_classes_);

  SQLCLASS_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapFileReader> reader,
      HeapFileReader::Open(path_, schema_.num_columns(), &io_));
  CostCounters& cost = server_->cost_counters();
  uint64_t rows_read = 0;
  const Status scanned = CountAllRows(reader.get(), &counts, &rows_read);
  cost.mw_file_rows_read += rows_read;
  cost.mw_cc_updates += counts.CcUpdates();
  SQLCLASS_RETURN_IF_ERROR(scanned);
  ++file_scans_;
  results.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    results.emplace_back(batch[i].node_id, counts.Take(i));
  }
  return results;
}

}  // namespace sqlclass
