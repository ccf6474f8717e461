#include "src/tde/exec/batch.h"

#include <cstring>

namespace vizq::tde {

namespace {

inline double RunBitsToDouble(int64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// Finds the run containing `row` by binary search on run starts.
inline const RleRun* FindBatchRun(const std::vector<RleRun>& runs,
                                  int64_t row) {
  int64_t lo = 0, hi = static_cast<int64_t>(runs.size()) - 1;
  while (lo <= hi) {
    int64_t mid = (lo + hi) / 2;
    const RleRun& r = runs[mid];
    if (row < r.start) {
      hi = mid - 1;
    } else if (row >= r.start + r.count) {
      lo = mid + 1;
    } else {
      return &r;
    }
  }
  return nullptr;
}

}  // namespace

ColumnVector ColumnVector::LayoutLike(const ColumnVector& proto) {
  ColumnVector out(proto.type);
  out.dict = proto.dict;
  return out;
}

int64_t ColumnVector::size() const {
  if (run_encoded) {
    if (runs.empty()) return 0;
    return runs.back().start + runs.back().count;
  }
  switch (type.kind) {
    case TypeKind::kFloat64:
      return static_cast<int64_t>(doubles.size());
    case TypeKind::kString:
      if (dict != nullptr) return static_cast<int64_t>(ints.size());
      return static_cast<int64_t>(strings.size());
    default:
      return static_cast<int64_t>(ints.size());
  }
}

int64_t ColumnVector::IntAt(int64_t row) const {
  if (run_encoded) {
    const RleRun* r = FindBatchRun(runs, row);
    if (r == nullptr) return 0;
    // Run values of float64 columns hold the double's bit pattern.
    if (type.kind == TypeKind::kFloat64) {
      return static_cast<int64_t>(RunBitsToDouble(r->value));
    }
    return r->value;
  }
  if (type.kind == TypeKind::kFloat64) {
    return static_cast<int64_t>(doubles[row]);
  }
  return ints[row];
}

double ColumnVector::DoubleAt(int64_t row) const {
  if (run_encoded) {
    const RleRun* r = FindBatchRun(runs, row);
    if (r == nullptr) return 0.0;
    if (type.kind == TypeKind::kFloat64) return RunBitsToDouble(r->value);
    return static_cast<double>(r->value);
  }
  if (type.kind == TypeKind::kFloat64) return doubles[row];
  return static_cast<double>(ints[row]);
}

void ColumnVector::DecodeRuns() {
  if (!run_encoded) return;
  int64_t n = size();
  if (type.kind == TypeKind::kFloat64) {
    doubles.resize(n);
    for (const RleRun& r : runs) {
      double v = RunBitsToDouble(r.value);
      for (int64_t i = 0; i < r.count; ++i) doubles[r.start + i] = v;
    }
  } else {
    ints.resize(n);
    for (const RleRun& r : runs) {
      for (int64_t i = 0; i < r.count; ++i) ints[r.start + i] = r.value;
    }
  }
  runs.clear();
  run_encoded = false;
}

Value ColumnVector::GetValue(int64_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type.kind) {
    case TypeKind::kBool:
      return Value(IntAt(row) != 0);
    case TypeKind::kInt64:
    case TypeKind::kDate:
      return Value(IntAt(row));
    case TypeKind::kFloat64:
      return Value(DoubleAt(row));
    case TypeKind::kString:
      if (dict != nullptr) return Value(dict->value(IntAt(row)));
      return Value(strings[row]);
  }
  return Value::Null();
}

std::string_view ColumnVector::GetStringView(int64_t row) const {
  if (dict != nullptr) return dict->value(IntAt(row));
  return strings[row];
}

uint64_t ColumnVector::HashAt(int64_t row) const {
  if (IsNull(row)) return 0x9e3779b97f4a7c15ULL;
  if (type.kind == TypeKind::kString) {
    return CollatedHash(GetStringView(row), type.collation);
  }
  return GetValue(row).Hash();
}

int ColumnVector::CompareAt(int64_t a, const ColumnVector& other,
                            int64_t b) const {
  bool an = IsNull(a);
  bool bn = other.IsNull(b);
  if (an || bn) {
    if (an && bn) return 0;
    return an ? -1 : 1;
  }
  if (type.kind == TypeKind::kString && other.type.kind == TypeKind::kString) {
    // Token fast path: same dictionary implies interning by collation key,
    // so equal tokens mean collated-equal strings.
    if (dict != nullptr && dict == other.dict && IntAt(a) == other.IntAt(b)) {
      return 0;
    }
    return CollatedCompare(GetStringView(a), other.GetStringView(b),
                           type.collation);
  }
  if (type.kind == TypeKind::kFloat64 ||
      other.type.kind == TypeKind::kFloat64) {
    double x = DoubleAt(a);
    double y = other.DoubleAt(b);
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  int64_t x = IntAt(a);
  int64_t y = other.IntAt(b);
  if (x < y) return -1;
  if (x > y) return 1;
  return 0;
}

void ColumnVector::Reserve(int64_t n) {
  switch (type.kind) {
    case TypeKind::kFloat64:
      doubles.reserve(n);
      break;
    case TypeKind::kString:
      if (dict != nullptr) {
        ints.reserve(n);
      } else {
        strings.reserve(n);
      }
      break;
    default:
      ints.reserve(n);
      break;
  }
}

void ColumnVector::MarkNull() {
  int64_t n = size();
  if (nulls.empty()) nulls.assign(n, 0);
  nulls.resize(n, 0);
  nulls.back() = 1;
}

void ColumnVector::MarkValid() {
  if (!nulls.empty()) nulls.push_back(0);
}

void ColumnVector::AppendNull() {
  switch (type.kind) {
    case TypeKind::kFloat64:
      doubles.push_back(0);
      break;
    case TypeKind::kString:
      if (dict != nullptr) {
        ints.push_back(0);
      } else {
        strings.emplace_back();
      }
      break;
    default:
      ints.push_back(0);
      break;
  }
  MarkNull();
}

void ColumnVector::AppendInt(int64_t v) {
  ints.push_back(v);
  MarkValid();
}

void ColumnVector::AppendDouble(double v) {
  doubles.push_back(v);
  MarkValid();
}

void ColumnVector::AppendString(std::string_view v) {
  strings.emplace_back(v);
  MarkValid();
}

void ColumnVector::AppendToken(int64_t token) {
  ints.push_back(token);
  MarkValid();
}

void ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type.kind) {
    case TypeKind::kBool:
      AppendInt(v.is_bool() ? (v.bool_value() ? 1 : 0)
                            : (v.AsDouble() != 0 ? 1 : 0));
      break;
    case TypeKind::kInt64:
    case TypeKind::kDate:
      AppendInt(v.is_int() ? v.int_value()
                           : static_cast<int64_t>(v.AsDouble()));
      break;
    case TypeKind::kFloat64:
      AppendDouble(v.AsDouble());
      break;
    case TypeKind::kString:
      if (dict != nullptr) {
        // Appending an arbitrary string into a dict vector requires the
        // token to exist; fall back to materializing as plain otherwise.
        int64_t token = dict->Find(v.string_value());
        if (token >= 0) {
          AppendToken(token);
        } else {
          // Demote to plain-string representation.
          std::vector<std::string> materialized;
          materialized.reserve(ints.size() + 1);
          for (size_t i = 0; i < ints.size(); ++i) {
            materialized.push_back(dict->value(ints[i]));
          }
          materialized.push_back(v.string_value());
          strings = std::move(materialized);
          ints.clear();
          dict = nullptr;
          MarkValid();
        }
      } else {
        AppendString(v.string_value());
      }
      break;
  }
}

void ColumnVector::AppendFrom(const ColumnVector& src, int64_t row) {
  if (src.IsNull(row)) {
    AppendNull();
    return;
  }
  if (type.kind == TypeKind::kString) {
    if (dict != nullptr && dict == src.dict) {
      AppendToken(src.IntAt(row));
      return;
    }
    if (dict != nullptr && src.dict == nullptr) {
      AppendValue(Value(std::string(src.GetStringView(row))));
      return;
    }
    if (dict == nullptr) {
      AppendString(src.GetStringView(row));
      return;
    }
    // Different dictionaries: translate through the value.
    AppendValue(Value(std::string(src.GetStringView(row))));
    return;
  }
  if (type.kind == TypeKind::kFloat64) {
    AppendDouble(src.DoubleAt(row));
    return;
  }
  AppendInt(src.type.kind == TypeKind::kFloat64
                ? static_cast<int64_t>(src.DoubleAt(row))
                : src.IntAt(row));
}

std::vector<Value> Batch::GetRow(int64_t row) const {
  std::vector<Value> out;
  out.reserve(columns.size());
  for (const ColumnVector& c : columns) out.push_back(c.GetValue(row));
  return out;
}

int BatchSchema::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Batch BatchSchema::NewBatch() const {
  Batch b;
  b.columns.reserve(prototypes.size());
  for (const ColumnVector& proto : prototypes) {
    b.columns.push_back(ColumnVector::LayoutLike(proto));
  }
  return b;
}

void BatchSchema::ResetBatch(Batch* batch) const {
  batch->columns.resize(prototypes.size());
  for (size_t i = 0; i < prototypes.size(); ++i) {
    ColumnVector& cv = batch->columns[i];
    cv.type = prototypes[i].type;
    if (cv.dict != prototypes[i].dict) cv.dict = prototypes[i].dict;
    cv.ints.clear();
    cv.doubles.clear();
    cv.strings.clear();
    cv.nulls.clear();
    cv.runs.clear();
    cv.run_encoded = false;
  }
  batch->num_rows = 0;
  batch->ClearSelection();
}

}  // namespace vizq::tde
