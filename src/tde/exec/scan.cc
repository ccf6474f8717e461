#include "src/tde/exec/scan.h"

#include <algorithm>

namespace vizq::tde {

// Deadline/cancel poll frequency: every batch is cheap enough (an atomic
// load plus, on deadline contexts, one clock read per kCtxPollBatches).
constexpr int64_t kCtxPollBatches = 4;

TableScanOperator::TableScanOperator(std::shared_ptr<const Table> table,
                                     std::vector<int> column_indices,
                                     int64_t row_begin, int64_t row_end,
                                     ExecStats* stats, const ExecContext& ctx)
    : table_(std::move(table)),
      column_indices_(std::move(column_indices)),
      row_begin_(row_begin),
      row_end_(row_end < 0 ? table_->num_rows() : row_end),
      stats_(stats),
      ctx_(ctx) {
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

Status TableScanOperator::Open() {
  cursor_ = row_begin_;
  batches_emitted_ = 0;
  delta_cursors_.assign(column_indices_.size(), Column::DecodeCursor{});
  // Morsel mode: an empty current morsel forces a claim on first Next().
  morsel_end_ = cursor_;
  counters_ = ScanCounters{};
  span_ = ctx_.StartSpan("op:scan(" + table_->name() + ")");
  return OkStatus();
}

Status TableScanOperator::Close() {
  counters_.FlushTo(stats_);
  if (span_ != nullptr) {
    span_->End();
    span_ = nullptr;
  }
  return OkStatus();
}

StatusOr<bool> TableScanOperator::Next(Batch* batch) {
  if (batches_emitted_ % kCtxPollBatches == 0) {
    VIZQ_RETURN_IF_ERROR(ctx_.CheckContinue("table scan"));
  }
  ++batches_emitted_;
  int64_t limit = row_end_;
  if (morsels_ != nullptr) {
    if (cursor_ >= morsel_end_) {
      if (!morsels_->Claim(&cursor_, &morsel_end_)) {
        counters_.FlushTo(stats_);
        return false;
      }
      ++counters_.morsels_claimed;
    }
    limit = morsel_end_;
  }
  if (cursor_ >= limit) {
    counters_.FlushTo(stats_);
    return false;
  }
  int64_t count = std::min(kBatchRows, limit - cursor_);
  schema_.ResetBatch(batch);
  range_.assign(1, RowRange{cursor_, count});
  for (size_t i = 0; i < column_indices_.size(); ++i) {
    const Column& col = *table_->column(column_indices_[i]);
    ColumnVector& cv = batch->columns[i];
    // The null mask stays flat and empty when the rows hold no null.
    col.GatherNulls(range_, &cv.nulls);
    if (emit_encoded_ && col.is_rle()) {
      // Keep the runs: emit the payload (ints, dict tokens, or bit-cast
      // doubles) run-length encoded.
      col.GatherRuns(range_, &cv.runs);
      cv.run_encoded = true;
      counters_.encoded_rows_undecoded += count;
      continue;
    }
    switch (cv.type.kind) {
      case TypeKind::kFloat64:
        col.GatherDoubles(range_, &cv.doubles);
        break;
      case TypeKind::kString:
        if (cv.dict != nullptr) {
          col.GatherInts(range_, &cv.ints, &delta_cursors_[i]);
        } else {
          col.DecodeStrings(cursor_, count, &cv.strings, nullptr);
        }
        break;
      default:
        col.GatherInts(range_, &cv.ints, &delta_cursors_[i]);
        break;
    }
  }
  batch->num_rows = count;
  cursor_ += count;
  counters_.rows_scanned += count;
  ++counters_.batches;
  return true;
}

std::vector<int64_t> SplitRows(int64_t num_rows, int dop) {
  if (dop < 1) dop = 1;
  std::vector<int64_t> offsets;
  offsets.reserve(dop + 1);
  for (int i = 0; i <= dop; ++i) {
    offsets.push_back(num_rows * i / dop);
  }
  return offsets;
}

std::vector<int64_t> SplitRowsOnSortedPrefix(const Table& table,
                                             int prefix_len, int dop) {
  const std::vector<int>& sort_cols = table.sort_columns();
  std::vector<int> keys(sort_cols.begin(), sort_cols.begin() + prefix_len);
  int64_t n = table.num_rows();
  std::vector<int64_t> offsets{0};
  if (n == 0 || dop <= 1) {
    offsets.push_back(n);
    return offsets;
  }

  // Encoding-aware comparison: adjacent rows in the same RLE run or with
  // equal dict tokens compare equal without materializing Values.
  auto keys_equal = [&](int64_t a, int64_t b) {
    for (int k : keys) {
      if (table.column(k)->CompareRows(a, b) != 0) return false;
    }
    return true;
  };

  // Start from even split points and push each forward to the next group
  // boundary so no group straddles a fraction. The table is sorted on the
  // prefix, so the rows equal to row b-1 are contiguous: gallop forward,
  // then binary-search the first row that differs — O(log group) row
  // compares, not one per row of a long group.
  for (int i = 1; i < dop; ++i) {
    int64_t b = std::max(n * i / dop, offsets.back() + 1);
    if (b < n && keys_equal(b - 1, b)) {
      int64_t lo = b;  // keys_equal(b - 1, lo) holds
      int64_t step = 1;
      int64_t hi = std::min(n, lo + step);
      while (hi < n && keys_equal(b - 1, hi)) {
        lo = hi;
        step *= 2;
        hi = std::min(n, lo + step);
      }
      // First differing row lies in (lo, hi] (hi == n: none before end).
      while (hi - lo > 1) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (keys_equal(b - 1, mid)) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      b = hi;
    }
    if (b < n && b > offsets.back()) offsets.push_back(b);
  }
  offsets.push_back(n);
  return offsets;
}

}  // namespace vizq::tde
