#include "middleware/parallel_scan.h"

#include <atomic>
#include <memory>

#include "storage/heap_file.h"
#include "storage/row_batch.h"

namespace sqlclass {

namespace {

/// Workers worth starting for `morsels` units of work on `pool`.
int WorkerCount(ThreadPool* pool, size_t morsels) {
  int workers = pool != nullptr ? pool->size() : 1;
  if (static_cast<size_t>(workers) > morsels) {
    workers = static_cast<int>(morsels);
  }
  return workers < 1 ? 1 : workers;
}

/// Runs `scan(w, count)` on `workers` workers, where `count(values)` feeds
/// one row through the pushdown filter into worker w's private partial of
/// `counts`. After the join the partials fold into `counts` in worker order
/// and the logical costs are charged once. CC cells are int64 sums over
/// disjoint row partitions, so the merged tables equal a serial scan's
/// regardless of morsel assignment.
template <typename Scan>
StatusOr<ParallelScanResult> RunWorkers(ThreadPool* pool, int workers,
                                        const ParallelScanOptions& options,
                                        int num_columns, CountBatch* counts,
                                        CostCounters* cost, Scan scan) {
  std::vector<CountBatch> partials;
  partials.reserve(workers);
  for (int w = 0; w < workers; ++w) partials.push_back(counts->Partial());
  std::vector<ParallelScanResult> tallies(workers);
  std::vector<Status> statuses(workers);

  auto run_worker = [&](int w) {
    CountBatch& partial = partials[w];
    ParallelScanResult& tally = tallies[w];
    statuses[w] = scan(w, [&](const Value* values) {
      ++tally.rows_scanned;
      if (options.filter != nullptr && !options.filter->Eval(values)) return;
      ++tally.rows_delivered;
      partial.CountRow(values);
    });
  };
  if (pool != nullptr && workers > 1) {
    pool->RunTasks(workers, run_worker);
  } else {
    run_worker(0);
  }

  for (const Status& status : statuses) SQLCLASS_RETURN_IF_ERROR(status);
  ParallelScanResult result;
  for (int w = 0; w < workers; ++w) {
    counts->Merge(partials[w]);
    result.rows_scanned += tallies[w].rows_scanned;
    result.rows_delivered += tallies[w].rows_delivered;
    result.cc_updates += partials[w].CcUpdates();
  }
  if (cost != nullptr) {
    if (options.charge.server_row_evaluated) {
      cost->server_rows_evaluated += result.rows_scanned;
    }
    if (options.charge.cursor_transfer) {
      cost->cursor_rows_transferred += result.rows_delivered;
      cost->cursor_values_transferred +=
          result.rows_delivered * static_cast<uint64_t>(num_columns);
    }
    if (options.charge.mw_file_read) {
      cost->mw_file_rows_read += result.rows_delivered;
    }
    if (options.charge.mw_memory_read) {
      cost->mw_memory_rows_read += result.rows_delivered;
    }
    cost->mw_cc_updates += result.cc_updates;
  }
  return result;
}

}  // namespace

StatusOr<ParallelScanResult> ParallelCountScan::OverHeapFile(
    ThreadPool* pool, const std::string& path, int num_columns,
    const ParallelScanOptions& options, CountBatch* counts, CostCounters* cost,
    IoCounters* io) {
  const int pool_threads = pool != nullptr ? pool->size() : 1;

  // Per-worker physical counters: IoCounters is a plain struct, so workers
  // must not share one. Merged below; totals match a pool-less serial scan.
  std::vector<IoCounters> local_io(
      static_cast<size_t>(pool_threads > 0 ? pool_threads : 1));

  SQLCLASS_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapFileReader> first,
      HeapFileReader::Open(path, num_columns, &local_io[0]));
  const std::vector<PageRange> morsels =
      MakePageMorsels(first->num_pages(), options.pages_per_morsel);
  const int workers = WorkerCount(pool, morsels.size());

  std::vector<std::unique_ptr<HeapFileReader>> readers;
  readers.reserve(workers);
  readers.push_back(std::move(first));
  for (int w = 1; w < workers; ++w) {
    SQLCLASS_ASSIGN_OR_RETURN(
        std::unique_ptr<HeapFileReader> reader,
        HeapFileReader::Open(path, num_columns, &local_io[w]));
    readers.push_back(std::move(reader));
  }

  std::atomic<size_t> next_morsel{0};
  StatusOr<ParallelScanResult> result = RunWorkers(
      pool, workers, options, num_columns, counts, cost,
      [&](int w, auto&& count) -> Status {
        HeapFileReader* reader = readers[w].get();
        RowBatch batch;
        while (true) {
          const size_t m = next_morsel.fetch_add(1, std::memory_order_relaxed);
          if (m >= morsels.size()) return Status::OK();
          for (uint64_t page = morsels[m].begin; page < morsels[m].end;
               ++page) {
            SQLCLASS_RETURN_IF_ERROR(reader->ReadPageInto(page, &batch));
            const size_t rows = batch.num_rows();
            for (size_t r = 0; r < rows; ++r) count(batch.RowAt(r));
          }
        }
      });

  if (io != nullptr) {
    for (int w = 0; w < workers; ++w) io->Add(local_io[w]);
  }
  return result;
}

StatusOr<ParallelScanResult> ParallelCountScan::OverMemoryStore(
    ThreadPool* pool, const InMemoryRowStore& store,
    const ParallelScanOptions& options, CountBatch* counts,
    CostCounters* cost) {
  const std::vector<std::pair<size_t, size_t>> morsels =
      store.RowMorsels(options.rows_per_morsel);
  std::atomic<size_t> next_morsel{0};
  return RunWorkers(
      pool, WorkerCount(pool, morsels.size()), options, store.num_columns(),
      counts, cost, [&](int, auto&& count) -> Status {
        while (true) {
          const size_t m = next_morsel.fetch_add(1, std::memory_order_relaxed);
          if (m >= morsels.size()) return Status::OK();
          for (size_t r = morsels[m].first; r < morsels[m].second; ++r) {
            count(store.RowAt(r));
          }
        }
      });
}

}  // namespace sqlclass
