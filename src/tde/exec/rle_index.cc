#include "src/tde/exec/rle_index.h"

#include <algorithm>
#include <iterator>

namespace vizq::tde {

StatusOr<std::vector<RowRange>> ComputeMatchingRuns(const Table& table,
                                                    int rle_column,
                                                    const ExprPtr& predicate) {
  const Column& col = *table.column(rle_column);
  if (!col.is_rle()) {
    return FailedPrecondition("column '" + table.column_info(rle_column).name +
                              "' is not RLE encoded");
  }
  const std::vector<RleRun>& runs = col.rle_runs();

  // Build the IndexTable's value column: one row per run, in the column's
  // decoded representation (dictionary tokens keep their dictionary).
  Batch index_batch;
  ColumnVector values(table.column_info(rle_column).type);
  if (col.is_dictionary_string()) values.dict = col.shared_dictionary();
  values.Reserve(static_cast<int64_t>(runs.size()));
  for (const RleRun& run : runs) {
    // A run of nulls carries value 0 with the null mask set on its rows.
    bool run_is_null = col.IsNull(run.start);
    if (run_is_null) {
      values.AppendNull();
    } else if (values.type.kind == TypeKind::kFloat64) {
      double d;
      static_assert(sizeof(d) == sizeof(run.value));
      __builtin_memcpy(&d, &run.value, sizeof(d));
      values.AppendDouble(d);
    } else {
      values.AppendInt(run.value);
    }
  }
  index_batch.columns.push_back(std::move(values));
  index_batch.num_rows = static_cast<int64_t>(runs.size());

  VIZQ_ASSIGN_OR_RETURN(std::vector<int64_t> selected,
                        EvalPredicate(*predicate, index_batch));
  std::vector<RowRange> ranges;
  ranges.reserve(selected.size());
  for (int64_t run_idx : selected) {
    ranges.push_back(RowRange{runs[run_idx].start, runs[run_idx].count});
  }
  return ranges;
}

std::vector<std::vector<RowRange>> SplitRanges(
    const std::vector<RowRange>& ranges, int dop) {
  if (dop <= 1) return {ranges};
  int64_t total = 0;
  for (const RowRange& r : ranges) total += r.count;
  // Fraction f takes rows [total*f/dop, total*(f+1)/dop) of the ranges'
  // concatenation: contiguous slices in ascending row order whose sizes
  // differ by at most one row (§4.3's skew concern, settled by rows, not
  // runs). A range straddling a cut is split there.
  std::vector<std::vector<RowRange>> out(dop);
  int f = 0;
  int64_t seen = 0;  // rows assigned so far
  for (RowRange r : ranges) {
    while (r.count > 0) {
      const int64_t end = total * (f + 1) / dop;
      const int64_t take = std::min(r.count, end - seen);
      if (take > 0) {
        out[f].push_back(RowRange{r.start, take});
        r.start += take;
        r.count -= take;
        seen += take;
      }
      if (seen == end && f + 1 < dop) ++f;
    }
  }
  return out;
}

RleIndexScanOperator::RleIndexScanOperator(std::shared_ptr<const Table> table,
                                           std::vector<int> column_indices,
                                           std::vector<RowRange> ranges,
                                           ExecStats* stats)
    : table_(std::move(table)),
      column_indices_(std::move(column_indices)),
      ranges_(std::move(ranges)),
      stats_(stats) {
  for (int ci : column_indices_) {
    const ColumnInfo& info = table_->column_info(ci);
    schema_.names.push_back(info.name);
    ColumnVector proto(info.type);
    if (table_->column(ci)->is_dictionary_string()) {
      proto.dict = table_->column(ci)->shared_dictionary();
    }
    schema_.prototypes.push_back(std::move(proto));
  }
}

Status RleIndexScanOperator::Open() {
  range_idx_ = 0;
  offset_in_range_ = 0;
  delta_cursors_.assign(column_indices_.size(), Column::DecodeCursor{});
  counters_ = ScanCounters{};
  return OkStatus();
}

Status RleIndexScanOperator::Close() {
  counters_.FlushTo(stats_);
  return OkStatus();
}

StatusOr<bool> RleIndexScanOperator::Next(Batch* batch) {
  // Pack the surviving ranges (or pieces of them) into one full batch.
  pieces_.clear();
  int64_t count = 0;
  while (count < kBatchRows && range_idx_ < ranges_.size()) {
    const RowRange& range = ranges_[range_idx_];
    int64_t take =
        std::min(kBatchRows - count, range.count - offset_in_range_);
    if (take > 0) {
      pieces_.push_back(RowRange{range.start + offset_in_range_, take});
      count += take;
      offset_in_range_ += take;
    }
    if (offset_in_range_ >= range.count) {
      ++range_idx_;
      offset_in_range_ = 0;
    }
  }
  if (count == 0) {
    counters_.FlushTo(stats_);
    return false;
  }

  // One gather per column over all pieces: runs rebased onto the pieces'
  // batch offsets (together contiguous, covering [0, count)), or flat
  // payloads back to back. The null mask stays flat and empty when no
  // piece holds a null.
  schema_.ResetBatch(batch);
  for (size_t i = 0; i < column_indices_.size(); ++i) {
    const Column& col = *table_->column(column_indices_[i]);
    ColumnVector& cv = batch->columns[i];
    col.GatherNulls(pieces_, &cv.nulls);
    if (emit_encoded_ && col.is_rle()) {
      col.GatherRuns(pieces_, &cv.runs);
      cv.run_encoded = true;
      counters_.encoded_rows_undecoded += count;
    } else if (cv.type.kind == TypeKind::kFloat64) {
      col.GatherDoubles(pieces_, &cv.doubles);
    } else if (cv.type.kind == TypeKind::kString && cv.dict == nullptr) {
      for (const RowRange& p : pieces_) {
        col.DecodeStrings(p.start, p.count, &piece_strings_, nullptr);
        cv.strings.insert(cv.strings.end(),
                          std::make_move_iterator(piece_strings_.begin()),
                          std::make_move_iterator(piece_strings_.end()));
      }
    } else {
      // ints, dates, bools, dict tokens
      col.GatherInts(pieces_, &cv.ints, &delta_cursors_[i]);
    }
  }
  batch->num_rows = count;
  counters_.rows_scanned += count;
  ++counters_.batches;
  return true;
}

}  // namespace vizq::tde
