// Scalar expression trees, shared by TQL plans, the optimizer and the
// vectorized evaluator.
//
// Expressions are immutable and shared (ExprPtr); the binder produces new
// trees with column indices and result types resolved. Evaluation is
// column-at-a-time over Batches ("the engine employs vectorization in
// expression evaluation", §4.2.2).

#ifndef VIZQUERY_TDE_EXEC_EXPRESSION_H_
#define VIZQUERY_TDE_EXEC_EXPRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"
#include "src/tde/exec/batch.h"

namespace vizq::tde {

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

// Expression node kinds.
enum class ExprKind : uint8_t {
  kColumnRef,  // named (unbound) or indexed (bound) input column
  kLiteral,    // constant Value
  kBinary,     // arithmetic / comparison / logical with two operands
  kUnary,      // NOT, negation
  kFunc,       // scalar function call
  kIn,         // operand IN (literal set)
  kIsNull,     // operand IS NULL
};

enum class BinaryOp : uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

enum class UnaryOp : uint8_t { kNot, kNeg };

// Scalar functions; the cost profile assigns each a per-row cost constant
// (string manipulation is much more expensive than arithmetic, §4.2.2).
enum class ScalarFunc : uint8_t {
  kAbs,
  kLower,
  kUpper,
  kStrLen,
  kSubstr,   // substr(s, start, len) — 1-based start
  kYear,     // of a date column (days since epoch)
  kMonth,    // 1..12
  kWeekday,  // 0 = Monday .. 6 = Sunday
  kIf,       // if(cond, then, else)
};

const char* BinaryOpToString(BinaryOp op);
const char* ScalarFuncToString(ScalarFunc f);

// One expression node. Treat instances as immutable once built.
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kColumnRef
  std::string column_name;  // as written (unbound form)
  int column_index = -1;    // >= 0 once bound

  // kLiteral
  Value literal;

  // kBinary / kUnary / kFunc
  BinaryOp binary_op = BinaryOp::kAdd;
  UnaryOp unary_op = UnaryOp::kNot;
  ScalarFunc func = ScalarFunc::kAbs;

  // kIn
  std::vector<Value> in_set;

  std::vector<ExprPtr> children;

  // Set by the binder.
  bool bound = false;
  DataType result_type;

  // --- structural helpers ---
  std::string ToString() const;
  bool Equals(const Expr& other) const;
  uint64_t Hash() const;

  // Column indices referenced anywhere in this tree (bound exprs).
  void CollectColumnIndices(std::vector<int>* out) const;
  // Column names referenced anywhere in this tree (unbound exprs).
  void CollectColumnNames(std::vector<std::string>* out) const;
};

// --- factories (unbound) ---
ExprPtr Col(std::string name);
ExprPtr ColIdx(int index, DataType type);  // pre-bound reference
ExprPtr Lit(Value v);
ExprPtr Lit(int64_t v);
ExprPtr Lit(double v);
ExprPtr Lit(const char* v);
ExprPtr Lit(bool v);
ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Eq(ExprPtr lhs, ExprPtr rhs);
ExprPtr Ne(ExprPtr lhs, ExprPtr rhs);
ExprPtr Lt(ExprPtr lhs, ExprPtr rhs);
ExprPtr Le(ExprPtr lhs, ExprPtr rhs);
ExprPtr Gt(ExprPtr lhs, ExprPtr rhs);
ExprPtr Ge(ExprPtr lhs, ExprPtr rhs);
ExprPtr And(ExprPtr lhs, ExprPtr rhs);
ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
ExprPtr Not(ExprPtr operand);
ExprPtr Add(ExprPtr lhs, ExprPtr rhs);
ExprPtr Sub(ExprPtr lhs, ExprPtr rhs);
ExprPtr Mul(ExprPtr lhs, ExprPtr rhs);
ExprPtr Div(ExprPtr lhs, ExprPtr rhs);
ExprPtr Func(ScalarFunc f, std::vector<ExprPtr> args);
ExprPtr In(ExprPtr operand, std::vector<Value> set);
ExprPtr IsNull(ExprPtr operand);

// Binds `expr` against `schema`, resolving column names to indices and
// type-checking the tree. Returns a new, fully-bound tree.
StatusOr<ExprPtr> BindExpr(const ExprPtr& expr, const BatchSchema& schema);

// Rewrites bound column indices through `mapping` (old index -> new index);
// used when operators reorder/prune their input columns. mapping[i] == -1
// is an error surfaced at evaluation time.
ExprPtr RemapColumns(const ExprPtr& expr, const std::vector<int>& mapping);

// Evaluates a bound expression over `batch`; the result has batch.num_rows
// rows. Comparison/logical results are kBool vectors with SQL three-valued
// null semantics.
StatusOr<ColumnVector> EvalExpr(const Expr& expr, const Batch& batch);

// Evaluates a bound expression as a selection vector: row indices of
// `batch` where the (boolean) expression is true (nulls excluded).
StatusOr<std::vector<int64_t>> EvalPredicate(const Expr& expr,
                                             const Batch& batch);

// Verdicts of a single-column predicate for every payload value of its
// column: match[v - min] is the result for the non-null value (or dict
// token) v in [min, min + card), match[card] the result for NULL. Built by
// running the normal vectorized evaluator over a synthetic one-row-per-value
// batch, so the semantics are exactly EvalPredicate's; a filter then pays
// one table load per row or per run. `match` is padded with false to a
// power of two, so `(v - min) & mask()` stays inside it for any payload
// (stats bound every stored value, so no lookup ever lands in the padding).
struct VerdictTable {
  int64_t min = 0;
  int64_t card = 0;
  std::vector<uint8_t> match;  // size a power of two > card

  uint64_t mask() const { return match.size() - 1; }
  // Slot of the payload `v` (of a non-null row).
  uint64_t Slot(int64_t v) const {
    return (static_cast<uint64_t>(v) - static_cast<uint64_t>(min)) & mask();
  }
};

// Builds the verdict table of `expr` (a predicate referencing only column
// `column_index`, laid out like `proto`) over the values [min, min + card):
// dictionary tokens (min 0, card = dictionary size) or int/date/bool
// values.
StatusOr<VerdictTable> BuildVerdictTable(const Expr& expr, int column_index,
                                         const ColumnVector& proto,
                                         int64_t min, int64_t card);

// Evaluates `expr` (a predicate referencing only column `column_index`)
// once per run of run-encoded vector `cv`: out[i] is the verdict for
// cv.runs[i]. Null runs evaluate with a NULL input (exact three-valued
// semantics via the normal evaluator).
StatusOr<std::vector<uint8_t>> EvalPredicatePerRun(const Expr& expr,
                                                   int column_index,
                                                   const ColumnVector& cv);

}  // namespace vizq::tde

#endif  // VIZQUERY_TDE_EXEC_EXPRESSION_H_
