// TableScan and FractionTable (§4.2.1): scans a stored table, optionally
// restricted to a row range. The parallelizer partitions a table into N
// fractions and gives each Exchange input a FractionTable-style scan over
// its own range — random (contiguous) partitioning — or range partitioning
// aligned to group boundaries when the sort order allows (§4.2.3).

#ifndef VIZQUERY_TDE_EXEC_SCAN_H_
#define VIZQUERY_TDE_EXEC_SCAN_H_

#include <memory>
#include <vector>

#include "src/tde/exec/morsel.h"
#include "src/tde/exec/operators.h"
#include "src/tde/storage/table.h"

namespace vizq::tde {

class TableScanOperator : public Operator {
 public:
  // Scans rows [row_begin, row_end) of `table`, producing the columns in
  // `column_indices` (in that order). row_end == -1 means "to the end".
  // The scan polls `ctx` every few batches, so a deadline or cancellation
  // actually stops the work mid-scan.
  TableScanOperator(std::shared_ptr<const Table> table,
                    std::vector<int> column_indices, int64_t row_begin = 0,
                    int64_t row_end = -1, ExecStats* stats = nullptr,
                    const ExecContext& ctx = ExecContext::Background());

  // Morsel mode (§10): instead of the fixed [row_begin, row_end) range,
  // the scan claims row-range morsels from `queue` until it is drained.
  // Sibling scans of one Exchange share the queue, so work distributes
  // dynamically. Overrides the constructor's range.
  void SetMorselQueue(MorselQueuePtr queue) { morsels_ = std::move(queue); }

  // Encoded emission (DESIGN.md §11): kRle columns are emitted as
  // run-encoded ColumnVectors (clipped, batch-relative runs over the raw
  // payload / dict tokens) instead of being flattened. Only enabled by the
  // planner when every downstream operator on the path is run-aware.
  void SetEmitEncoded(bool v) { emit_encoded_ = v; }

  const BatchSchema& schema() const override { return schema_; }
  Status Open() override;
  StatusOr<bool> Next(Batch* batch) override;
  Status Close() override;

 private:
  std::shared_ptr<const Table> table_;
  std::vector<int> column_indices_;
  int64_t row_begin_;
  int64_t row_end_;
  int64_t cursor_ = 0;
  int64_t morsel_end_ = 0;  // end of the currently claimed morsel
  MorselQueuePtr morsels_;
  bool emit_encoded_ = false;
  // Per-output-column resume cursors so kDelta scans are O(n), not O(n^2).
  std::vector<Column::DecodeCursor> delta_cursors_;
  std::vector<RowRange> range_;  // this batch's rows, reused
  BatchSchema schema_;
  ExecStats* stats_;
  ScanCounters counters_;
  ExecContext ctx_;
  Span* span_ = nullptr;
  int64_t batches_emitted_ = 0;
};

// Computes contiguous fraction boundaries for `num_rows` split `dop` ways:
// dop+1 offsets, first 0, last num_rows.
std::vector<int64_t> SplitRows(int64_t num_rows, int dop);

// Range partitioning (§4.2.3): splits `table` into at most `dop` fractions
// at boundaries where the value of the leading `prefix_len` sort columns
// changes, guaranteeing every group (w.r.t. those columns) lands in exactly
// one fraction. Returns dop'+1 offsets with dop' <= dop.
std::vector<int64_t> SplitRowsOnSortedPrefix(const Table& table,
                                             int prefix_len, int dop);

}  // namespace vizq::tde

#endif  // VIZQUERY_TDE_EXEC_SCAN_H_
