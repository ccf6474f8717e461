// RLE IndexTable range skipping (§4.3).
//
// For a run-length encoded column the optimizer can build an IndexTable of
// (value, count, start) runs, push the filter onto it, and turn the
// surviving runs into direct range accesses on the main table — "range
// skipping expressed as a join in the query plan". Parallel execution
// distributes the surviving ranges across threads.

#ifndef VIZQUERY_TDE_EXEC_RLE_INDEX_H_
#define VIZQUERY_TDE_EXEC_RLE_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "src/tde/exec/operators.h"
#include "src/tde/storage/table.h"

namespace vizq::tde {

// Evaluates `predicate` once per run of the RLE column `rle_column` of
// `table` (the operator-pushdown step: the filter runs over the IndexTable,
// typically a few rows, instead of over every tuple). `predicate` must be
// bound against a single-column schema holding that column. Returns the
// row ranges of the runs whose value satisfies the predicate. Runs whose
// value is null never match.
StatusOr<std::vector<RowRange>> ComputeMatchingRuns(const Table& table,
                                                    int rle_column,
                                                    const ExprPtr& predicate);

// Splits the ascending `ranges` into `dop` contiguous slices, in order,
// whose row counts differ by at most one; a range may be cut in two.
// At dop 1 the ranges pass through untouched.
std::vector<std::vector<RowRange>> SplitRanges(
    const std::vector<RowRange>& ranges, int dop);

// Scans only the given ranges of `table`, producing `column_indices`.
// Consecutive ranges are packed into full kBatchRows batches.
class RleIndexScanOperator : public Operator {
 public:
  RleIndexScanOperator(std::shared_ptr<const Table> table,
                       std::vector<int> column_indices,
                       std::vector<RowRange> ranges,
                       ExecStats* stats = nullptr);

  // Encoded emission (DESIGN.md §11), as TableScanOperator::SetEmitEncoded:
  // kRle columns leave as run-encoded ColumnVectors.
  void SetEmitEncoded(bool v) { emit_encoded_ = v; }

  const BatchSchema& schema() const override { return schema_; }
  Status Open() override;
  StatusOr<bool> Next(Batch* batch) override;
  Status Close() override;

 private:

  std::shared_ptr<const Table> table_;
  std::vector<int> column_indices_;
  std::vector<RowRange> ranges_;
  size_t range_idx_ = 0;
  int64_t offset_in_range_ = 0;
  bool emit_encoded_ = false;
  BatchSchema schema_;
  ExecStats* stats_;
  ScanCounters counters_;
  // This batch's pieces of the ranges (reused across batches).
  std::vector<RowRange> pieces_;
  std::vector<std::string> piece_strings_;  // plain-string decode scratch
  // Per-output-column kDelta resume cursors: ranges ascend, so a scan
  // continues each prefix sum instead of restarting it every batch.
  std::vector<Column::DecodeCursor> delta_cursors_;
};

}  // namespace vizq::tde

#endif  // VIZQUERY_TDE_EXEC_RLE_INDEX_H_
