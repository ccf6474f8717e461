// The VizQuery type system.
//
// Kept deliberately small: the five physical kinds below are enough to model
// the paper's workloads (the FAA flights schema, dashboard filters and
// aggregates). Dates are carried as days-since-epoch in an int64 payload but
// keep their own kind so dialect generation and formatting can treat them
// distinctly.

#ifndef VIZQUERY_COMMON_TYPES_H_
#define VIZQUERY_COMMON_TYPES_H_

#include <cstdint>
#include <string>

#include "src/common/collation.h"

namespace vizq {

// Physical type of a column or expression result.
enum class TypeKind : uint8_t {
  kBool = 0,
  kInt64 = 1,
  kFloat64 = 2,
  kString = 3,
  kDate = 4,  // days since 1970-01-01, stored as int64
};
// Decoders reject kind bytes past this (BinaryReader::Enum).
inline constexpr TypeKind kLastTypeKind = TypeKind::kDate;

const char* TypeKindToString(TypeKind kind);

// A column/expression type: a physical kind plus, for strings, a collation.
struct DataType {
  TypeKind kind = TypeKind::kInt64;
  Collation collation = Collation::kBinary;

  static DataType Bool() { return {TypeKind::kBool, Collation::kBinary}; }
  static DataType Int64() { return {TypeKind::kInt64, Collation::kBinary}; }
  static DataType Float64() { return {TypeKind::kFloat64, Collation::kBinary}; }
  static DataType String(Collation c = Collation::kBinary) {
    return {TypeKind::kString, c};
  }
  static DataType Date() { return {TypeKind::kDate, Collation::kBinary}; }

  bool is_numeric() const {
    return kind == TypeKind::kInt64 || kind == TypeKind::kFloat64;
  }
  bool is_string() const { return kind == TypeKind::kString; }

  // Whether two values of this type are stored in the int64 payload.
  bool uses_int_payload() const {
    return kind == TypeKind::kBool || kind == TypeKind::kInt64 ||
           kind == TypeKind::kDate;
  }

  std::string ToString() const;

  bool operator==(const DataType& other) const {
    return kind == other.kind &&
           (kind != TypeKind::kString || collation == other.collation);
  }
};

// Aggregate functions supported across the stack (abstract queries, TQL and
// the intelligent cache's roll-up post-processing).
enum class AggFunc : uint8_t {
  kSum = 0,
  kMin,
  kMax,
  kCount,          // COUNT(expr): non-null count
  kCountStar,      // COUNT(*)
  kAvg,            // decomposed into SUM/COUNT internally for re-aggregation
  kCountDistinct,  // not re-aggregable from partials; blocks cache roll-up
};
inline constexpr AggFunc kLastAggFunc = AggFunc::kCountDistinct;

const char* AggFuncToString(AggFunc f);

// Result type of `f` applied to an input of type `input`.
DataType AggResultType(AggFunc f, const DataType& input);

// True when partial results of `f` can be combined by re-applying an
// aggregate to them (the property the intelligent cache's roll-up and the
// TDE's local/global aggregation both rely on).
bool IsReaggregable(AggFunc f);

}  // namespace vizq

#endif  // VIZQUERY_COMMON_TYPES_H_
