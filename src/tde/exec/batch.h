// Vectorized Volcano data representation.
//
// Operators exchange Batches of up to kBatchRows rows. A Batch is a set of
// ColumnVectors; each vector is either numeric, float, plain-string, or
// dictionary-string (tokens plus a shared immutable dictionary — the
// execution-time face of the storage layer's dictionary compression, which
// lets filters and group-bys run in token space without materializing
// strings).

#ifndef VIZQUERY_TDE_EXEC_BATCH_H_
#define VIZQUERY_TDE_EXEC_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/value.h"
#include "src/tde/storage/column.h"

namespace vizq::tde {

// Preferred number of rows per batch.
inline constexpr int64_t kBatchRows = 1024;

// A typed vector of values, one per row of the batch.
struct ColumnVector {
  DataType type;

  // Payloads; which one is active depends on `type` and `dict`:
  //   bool/int64/date        -> ints
  //   float64                -> doubles
  //   string, dict == null   -> strings
  //   string, dict != null   -> ints are tokens into *dict
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  std::shared_ptr<const StringDictionary> dict;
  std::vector<uint8_t> nulls;  // empty means "no nulls in this vector"

  // Optional run-length representation. When `run_encoded` is true the
  // fixed-width payload lives in `runs` (batch-relative starts, contiguous,
  // non-empty, covering [0, size())) and `ints`/`doubles` are empty; double
  // payloads are bit-cast into RleRun::value like the storage layer. The
  // null mask stays flat/positional (never run-compressed). Value-level
  // accessors below resolve through the runs, but bulk consumers
  // (expression eval, plain operators) require flat vectors — the planner
  // only routes run-encoded batches into run-aware operators, and
  // DecodeRuns() flattens as a fallback.
  std::vector<RleRun> runs;
  bool run_encoded = false;

  ColumnVector() = default;
  explicit ColumnVector(DataType t) : type(t) {}

  // Creates an empty vector with the same type/layout (incl. dictionary)
  // as `proto`.
  static ColumnVector LayoutLike(const ColumnVector& proto);

  int64_t size() const;

  bool has_nulls() const { return !nulls.empty(); }
  bool IsNull(int64_t row) const { return !nulls.empty() && nulls[row] != 0; }

  bool is_dict_string() const {
    return type.kind == TypeKind::kString && dict != nullptr;
  }

  bool is_run_encoded() const { return run_encoded; }

  // Raw fixed-width payload of `row` (int/bool/date value, dict token, or
  // bit-cast double), resolving through runs when run-encoded.
  int64_t IntAt(int64_t row) const;
  double DoubleAt(int64_t row) const;

  // Flattens a run-encoded vector into plain ints/doubles (no-op
  // otherwise). Correctness fallback for consumers that index payloads
  // directly.
  void DecodeRuns();

  // Materializes row `row` as a Value (strings resolved through the
  // dictionary).
  Value GetValue(int64_t row) const;

  // String payload of `row` without copying; valid only for string vectors
  // and non-null rows.
  std::string_view GetStringView(int64_t row) const;

  // Hash of row `row` consistent with Value::Hash under the column
  // collation (so mixed dict/plain vectors group correctly).
  uint64_t HashAt(int64_t row) const;

  // Three-way comparison of this vector's row `a` with `other`'s row `b`.
  int CompareAt(int64_t a, const ColumnVector& other, int64_t b) const;

  // --- building ---
  void Reserve(int64_t n);
  void AppendNull();
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string_view v);   // plain-string vectors
  void AppendToken(int64_t token);         // dict-string vectors
  void AppendValue(const Value& v);
  // Appends `src`'s row `row`, preserving tokens when dictionaries match.
  void AppendFrom(const ColumnVector& src, int64_t row);

 private:
  void MarkNull();   // extends nulls lazily and sets the last slot
  void MarkValid();  // extends nulls if they exist
};

// A horizontal slice of rows flowing between operators.
struct Batch {
  std::vector<ColumnVector> columns;
  int64_t num_rows = 0;

  // Optional selection vector: when `has_selection` is true only the rows
  // whose indexes appear in `selection` (sorted ascending) are live; the
  // column payloads are untouched. Lets filters pass encoded batches
  // through without materializing copies. `num_rows` stays the physical
  // row count.
  std::vector<int32_t> selection;
  bool has_selection = false;

  bool empty() const { return num_rows == 0; }
  int num_columns() const { return static_cast<int>(columns.size()); }

  // Rows surviving the selection vector (== num_rows when none).
  int64_t live_rows() const {
    return has_selection ? static_cast<int64_t>(selection.size()) : num_rows;
  }

  void ClearSelection() {
    selection.clear();
    has_selection = false;
  }

  // Materializes the batch row as Values.
  std::vector<Value> GetRow(int64_t row) const;
};

// Output schema of an operator: names + layout prototypes.
struct BatchSchema {
  std::vector<std::string> names;
  std::vector<ColumnVector> prototypes;  // empty vectors carrying type/dict

  int FindColumn(const std::string& name) const;
  int num_columns() const { return static_cast<int>(names.size()); }

  // Creates an empty batch with this schema's layouts.
  Batch NewBatch() const;

  // Turns *batch into an empty batch with this schema's layouts, keeping
  // the capacity of its payload buffers so a scan that refills the same
  // Batch every call allocates only on its first batches.
  void ResetBatch(Batch* batch) const;
};

}  // namespace vizq::tde

#endif  // VIZQUERY_TDE_EXEC_BATCH_H_
