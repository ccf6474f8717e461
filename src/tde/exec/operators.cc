#include "src/tde/exec/operators.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <utility>

namespace vizq::tde {

double ExecStats::MaxFractionSeconds() const {
  double mx = 0;
  for (const FractionStat& f : fractions) mx = std::max(mx, f.seconds);
  return mx;
}

double ExecStats::SumFractionSeconds() const {
  double sum = 0;
  for (const FractionStat& f : fractions) sum += f.seconds;
  return sum;
}

namespace {

// Sum over sections of the slowest matching fraction. `stage` < 0 means all
// stages. Fractions of one section ran concurrently (critical path = their
// max); distinct sections ran back-to-back (sum their maxima).
double SectionedCriticalPath(const std::vector<ExecStats::FractionStat>& fs,
                             int stage) {
  std::map<int, double> max_by_section;
  for (const ExecStats::FractionStat& f : fs) {
    if (stage >= 0 && f.stage != stage) continue;
    double& mx = max_by_section[f.section];
    mx = std::max(mx, f.seconds);
  }
  double total = 0;
  for (const auto& [section, mx] : max_by_section) total += mx;
  return total;
}

}  // namespace

double ExecStats::CriticalPathSeconds() const {
  return SectionedCriticalPath(fractions, /*stage=*/-1);
}

double ExecStats::StageCriticalPathSeconds(int stage) const {
  return SectionedCriticalPath(fractions, stage);
}

void ScanCounters::FlushTo(ExecStats* stats) {
  if (stats != nullptr && (batches > 0 || morsels_claimed > 0)) {
    std::lock_guard<std::mutex> lock(stats->mu);
    stats->rows_scanned += rows_scanned;
    stats->encoded_rows_undecoded += encoded_rows_undecoded;
    stats->batches += batches;
    stats->morsels_claimed += morsels_claimed;
    if (morsels_claimed > 0) stats->used_morsel_scan = true;
  }
  *this = ScanCounters{};
}

FilterOperator::FilterOperator(OperatorPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

void FilterOperator::EnableEncodedFilter(std::vector<EncodedConjunct> conjuncts,
                                         ExecStats* stats) {
  encoded_ = true;
  conjuncts_ = std::move(conjuncts);
  stats_ = stats;
}

Status FilterOperator::Open() {
  VIZQ_RETURN_IF_ERROR(child_->Open());
  if (!encoded_) return OkStatus();
  verdicts_.assign(conjuncts_.size(), VerdictTable{});
  const BatchSchema& in = child_->schema();
  for (size_t i = 0; i < conjuncts_.size(); ++i) {
    const EncodedConjunct& c = conjuncts_[i];
    if (c.kind == EncodedConjunct::Kind::kTokenBitmap) {
      const ColumnVector& proto = in.prototypes[c.column_index];
      const int64_t tokens =
          proto.dict != nullptr ? static_cast<int64_t>(proto.dict->size()) : 0;
      VIZQ_ASSIGN_OR_RETURN(
          verdicts_[i],
          BuildVerdictTable(*c.expr, c.column_index, proto, 0, tokens));
    } else if (c.kind == EncodedConjunct::Kind::kPerRun && c.value_card > 0) {
      VIZQ_ASSIGN_OR_RETURN(
          verdicts_[i],
          BuildVerdictTable(*c.expr, c.column_index,
                            in.prototypes[c.column_index], c.value_min,
                            c.value_card));
    }
  }
  return OkStatus();
}

namespace {

// A verdict-table conjunct over a flat column, as the row kernels read it.
struct FlatVerdicts {
  const int64_t* values = nullptr;
  const uint8_t* nulls = nullptr;  // null when the column has no NULLs
  const uint8_t* match = nullptr;
  uint64_t min = 0;
  uint64_t mask = 0;
  uint64_t null_slot = 0;

  FlatVerdicts() = default;
  FlatVerdicts(const VerdictTable& t, const ColumnVector& cv)
      : values(cv.ints.data()),
        nulls(cv.has_nulls() ? cv.nulls.data() : nullptr),
        match(t.match.data()),
        min(static_cast<uint64_t>(t.min)),
        mask(t.mask()),
        null_slot(static_cast<uint64_t>(t.card)) {}

  template <bool kNulls>
  uint8_t At(int64_t r) const {
    const uint64_t slot = (static_cast<uint64_t>(values[r]) - min) & mask;
    if constexpr (kNulls) return match[nulls[r] != 0 ? null_slot : slot];
    return match[slot];
  }
};

// live[r] &= f's verdict for row r.
template <bool kNulls>
void AndVerdicts(const FlatVerdicts& f, int64_t n, uint8_t* live) {
  for (int64_t r = 0; r < n; ++r) live[r] &= f.At<kNulls>(r);
}

// The selection kernel: writes every row index and advances only past rows
// that `live` (when kSeeded) and the one or two conjuncts accept — no
// branch per row. Returns the survivors.
template <bool kSeeded, bool kTwo, bool kNulls0, bool kNulls1>
int64_t SelectRows(const uint8_t* live, const FlatVerdicts* f, int64_t n,
                   int32_t* out) {
  int64_t k = 0;
  for (int64_t r = 0; r < n; ++r) {
    uint8_t ok = f[0].At<kNulls0>(r);
    if constexpr (kTwo) ok &= f[1].At<kNulls1>(r);
    if constexpr (kSeeded) ok &= live[r];
    out[k] = static_cast<int32_t>(r);
    k += ok;
  }
  return k;
}

using SelectRowsFn = int64_t (*)(const uint8_t*, const FlatVerdicts*, int64_t,
                                 int32_t*);

template <int... I>
constexpr std::array<SelectRowsFn, sizeof...(I)> SelectRowsTable(
    std::integer_sequence<int, I...>) {
  return {&SelectRows<(I & 8) != 0, (I & 4) != 0, (I & 2) != 0,
                      (I & 1) != 0>...};
}

constexpr std::array<SelectRowsFn, 16> kSelectRows =
    SelectRowsTable(std::make_integer_sequence<int, 16>());

}  // namespace

StatusOr<bool> FilterOperator::NextEncoded(Batch* batch) {
  while (true) {
    VIZQ_ASSIGN_OR_RETURN(bool more, child_->Next(&in_));
    if (!more) return false;
    const int64_t n = in_.num_rows;
    if (n == 0) continue;
    // Verdict-table conjuncts over flat columns run fused into the
    // selection kernel below. Every other conjunct clears rows of a live
    // mask (0 or 1 per physical row), seeded from any incoming selection.
    flat_.clear();
    bool seeded = in_.has_selection;
    if (seeded) {
      live_.assign(n, 0);
      for (int32_t r : in_.selection) live_[r] = 1;
    }
    auto seed = [&] {
      if (!seeded) live_.assign(n, 1);
      seeded = true;
    };
    for (size_t i = 0; i < conjuncts_.size(); ++i) {
      const EncodedConjunct& c = conjuncts_[i];
      const VerdictTable& table = verdicts_[i];
      const bool has_table = !table.match.empty();
      if (has_table && !in_.columns[c.column_index].is_run_encoded()) {
        flat_.emplace_back(&table, &in_.columns[c.column_index]);
        continue;
      }
      seed();
      uint8_t* live = live_.data();
      if (has_table || (c.kind == EncodedConjunct::Kind::kPerRun &&
                        in_.columns[c.column_index].is_run_encoded())) {
        // Run-encoded: one verdict per run, from the table or evaluated.
        const ColumnVector& cv = in_.columns[c.column_index];
        std::vector<uint8_t> evaluated;
        if (!has_table) {
          VIZQ_ASSIGN_OR_RETURN(
              evaluated, EvalPredicatePerRun(*c.expr, c.column_index, cv));
        }
        for (size_t k = 0; k < cv.runs.size(); ++k) {
          const RleRun& run = cv.runs[k];
          const uint8_t ok =
              !has_table ? evaluated[k]
              : cv.IsNull(run.start)
                  ? table.match[table.card]
                  : table.match[table.Slot(run.value)];
          if (ok == 0) std::memset(live + run.start, 0, run.count);
        }
        continue;
      }
      // Per row (or a kPerRun column that arrived flat). The planner only
      // classifies kPerRow for conjuncts over flat columns; flatten
      // defensively in case a run reached us anyway.
      std::vector<int> refs;
      c.expr->CollectColumnIndices(&refs);
      for (int col : refs) in_.columns[col].DecodeRuns();
      VIZQ_ASSIGN_OR_RETURN(std::vector<int64_t> sel,
                            EvalPredicate(*c.expr, in_));
      size_t k = 0;
      for (int64_t r = 0; r < n; ++r) {
        const bool match = k < sel.size() && sel[k] == r;
        k += match;
        live[r] &= static_cast<uint8_t>(match);
      }
    }
    // The kernel takes two flat conjuncts; fold any others into the mask.
    while (flat_.size() > 2) {
      seed();
      const FlatVerdicts f(*flat_.back().first, *flat_.back().second);
      if (f.nulls != nullptr) {
        AndVerdicts<true>(f, n, live_.data());
      } else {
        AndVerdicts<false>(f, n, live_.data());
      }
      flat_.pop_back();
    }
    selection_.resize(n);
    int32_t* out = selection_.data();
    int64_t survivors = 0;
    if (flat_.empty()) {
      seed();
      for (int64_t r = 0; r < n; ++r) {
        out[survivors] = static_cast<int32_t>(r);
        survivors += live_[r];
      }
    } else {
      const bool two = flat_.size() == 2;
      const FlatVerdicts f[2] = {
          FlatVerdicts(*flat_[0].first, *flat_[0].second),
          two ? FlatVerdicts(*flat_[1].first, *flat_[1].second)
              : FlatVerdicts()};
      const int fn = (seeded ? 8 : 0) | (two ? 4 : 0) |
                     (f[0].nulls != nullptr ? 2 : 0) |
                     (f[1].nulls != nullptr ? 1 : 0);
      survivors =
          kSelectRows[fn](seeded ? live_.data() : nullptr, f, n, out);
    }
    if (survivors == 0) continue;  // nothing left: pull the next batch
    std::swap(*batch, in_);
    if (survivors == n) {
      batch->ClearSelection();
      return true;
    }
    batch->selection.swap(selection_);
    batch->selection.resize(survivors);
    batch->has_selection = true;
    return true;
  }
}

StatusOr<bool> FilterOperator::Next(Batch* batch) {
  if (encoded_) return NextEncoded(batch);
  Batch in;
  while (true) {
    VIZQ_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) return false;
    if (in.num_rows == 0) continue;
    VIZQ_ASSIGN_OR_RETURN(std::vector<int64_t> selected,
                          EvalPredicate(*predicate_, in));
    *batch = schema().NewBatch();
    for (size_t c = 0; c < in.columns.size(); ++c) {
      // Keep the input's layout (e.g. dictionary) on the way through.
      batch->columns[c] = ColumnVector::LayoutLike(in.columns[c]);
      batch->columns[c].Reserve(static_cast<int64_t>(selected.size()));
      for (int64_t row : selected) {
        batch->columns[c].AppendFrom(in.columns[c], row);
      }
    }
    batch->num_rows = static_cast<int64_t>(selected.size());
    return true;  // possibly-empty batch; caller loops
  }
}

ProjectOperator::ProjectOperator(OperatorPtr child,
                                 std::vector<NamedExpr> exprs)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  for (const NamedExpr& ne : exprs_) {
    schema_.names.push_back(ne.name);
    ColumnVector proto(ne.expr->result_type);
    // A bare column reference keeps its dictionary layout.
    if (ne.expr->kind == ExprKind::kColumnRef &&
        ne.expr->column_index >= 0 &&
        ne.expr->column_index < child_->schema().num_columns()) {
      proto.dict = child_->schema().prototypes[ne.expr->column_index].dict;
    }
    schema_.prototypes.push_back(std::move(proto));
  }
}

StatusOr<bool> ProjectOperator::Next(Batch* batch) {
  Batch in;
  VIZQ_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
  if (!more) return false;
  batch->columns.clear();
  batch->columns.reserve(exprs_.size());
  for (const NamedExpr& ne : exprs_) {
    VIZQ_ASSIGN_OR_RETURN(ColumnVector v, EvalExpr(*ne.expr, in));
    batch->columns.push_back(std::move(v));
  }
  batch->num_rows = in.num_rows;
  return true;
}

StatusOr<ResultTable> CollectToResultTable(Operator* op) {
  const BatchSchema& schema = op->schema();
  std::vector<ResultColumn> cols;
  cols.reserve(schema.names.size());
  for (int i = 0; i < schema.num_columns(); ++i) {
    cols.push_back(ResultColumn{schema.names[i], schema.prototypes[i].type});
  }
  ResultTable out(std::move(cols));
  VIZQ_RETURN_IF_ERROR(op->Open());
  Batch batch;
  while (true) {
    VIZQ_ASSIGN_OR_RETURN(bool more, op->Next(&batch));
    if (!more) break;
    // Batches from selection-aware operators carry dead physical rows.
    const int64_t live = batch.has_selection
                             ? static_cast<int64_t>(batch.selection.size())
                             : batch.num_rows;
    for (int64_t i = 0; i < live; ++i) {
      const int64_t r = batch.has_selection ? batch.selection[i] : i;
      out.AddRow(batch.GetRow(r));
    }
  }
  VIZQ_RETURN_IF_ERROR(op->Close());
  return out;
}

StatusOr<int64_t> CollectToBatch(Operator* op, Batch* out) {
  *out = op->schema().NewBatch();
  VIZQ_RETURN_IF_ERROR(op->Open());
  Batch batch;
  int64_t total = 0;
  while (true) {
    VIZQ_ASSIGN_OR_RETURN(bool more, op->Next(&batch));
    if (!more) break;
    const int64_t live = batch.has_selection
                             ? static_cast<int64_t>(batch.selection.size())
                             : batch.num_rows;
    for (size_t c = 0; c < out->columns.size(); ++c) {
      for (int64_t i = 0; i < live; ++i) {
        const int64_t r = batch.has_selection ? batch.selection[i] : i;
        out->columns[c].AppendFrom(batch.columns[c], r);
      }
    }
    total += live;
  }
  out->num_rows = total;
  VIZQ_RETURN_IF_ERROR(op->Close());
  return total;
}

}  // namespace vizq::tde
