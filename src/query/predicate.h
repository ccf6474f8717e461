// Structured per-column predicates.
//
// The query processor keeps filters in a structured conjunction-of-column-
// constraints form rather than as free expressions, because the intelligent
// cache's applicability "is limited by proving capabilities" (§3.2):
// implication between IN-sets and ranges is decidable and fast, implication
// between arbitrary expressions is not. Dashboard interactions (quick
// filters, filter actions, range sliders) all produce exactly this shape.

#ifndef VIZQUERY_QUERY_PREDICATE_H_
#define VIZQUERY_QUERY_PREDICATE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/value.h"
#include "src/tde/exec/expression.h"

namespace vizq::query {

// A constraint on a single column: either a value set (IN) or a range.
struct ColumnPredicate {
  enum class Kind : uint8_t { kInSet, kRange };
  static constexpr Kind kLastKind = Kind::kRange;

  std::string column;
  Kind kind = Kind::kInSet;

  // kInSet
  std::vector<Value> values;

  // kRange: missing bound = unbounded.
  std::optional<Value> lower;
  bool lower_inclusive = true;
  std::optional<Value> upper;
  bool upper_inclusive = true;

  static ColumnPredicate InSet(std::string column, std::vector<Value> values);
  static ColumnPredicate Range(std::string column, std::optional<Value> lower,
                               std::optional<Value> upper,
                               bool lower_inclusive = true,
                               bool upper_inclusive = true);

  // True when every row satisfying *this also satisfies `other` (same
  // column assumed; callers match columns first).
  bool Implies(const ColumnPredicate& other) const;

  // Structural equality (after canonicalization of the value set order).
  bool EqualsPredicate(const ColumnPredicate& other) const;

  // Canonical rendering used in cache keys; value sets sorted.
  std::string ToKeyString() const;

  // Expression form, for execution (bound later against a schema).
  tde::ExprPtr ToExpr() const;

  // Sorts `values` (canonical form).
  void Canonicalize();
};

// A conjunction of column predicates (at most one per column after
// normalization; Normalize() intersects duplicates).
struct PredicateSet {
  std::vector<ColumnPredicate> predicates;

  // Merges duplicate-column predicates by intersection where possible
  // (set∩set, range∩range); returns false when an intersection cannot be
  // represented (mixed set/range stays as two entries — still a valid
  // conjunction, just weaker for proving).
  void Normalize();

  // Finds the predicate on `column`, or nullptr.
  const ColumnPredicate* Find(const std::string& column) const;

  // True when this conjunction implies `other`: every predicate of `other`
  // is implied by some predicate here on the same column.
  bool Implies(const PredicateSet& other) const;

  // Predicates of *this* that are not already guaranteed by `other` —
  // i.e. the residual filtering needed when reusing a result computed
  // under `other`. (Valid when this->Implies(other).)
  std::vector<ColumnPredicate> ResidualAgainst(const PredicateSet& other) const;

  std::string ToKeyString() const;

  // AND of all predicate expressions; nullptr when empty.
  tde::ExprPtr ToExpr() const;
};

}  // namespace vizq::query

#endif  // VIZQUERY_QUERY_PREDICATE_H_
