#include "src/tde/exec/expression.h"

#include <unordered_set>

#include "src/common/rng.h"
#include "src/common/str_util.h"

namespace vizq::tde {

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "and";
    case BinaryOp::kOr: return "or";
  }
  return "?";
}

const char* ScalarFuncToString(ScalarFunc f) {
  switch (f) {
    case ScalarFunc::kAbs: return "abs";
    case ScalarFunc::kLower: return "lower";
    case ScalarFunc::kUpper: return "upper";
    case ScalarFunc::kStrLen: return "strlen";
    case ScalarFunc::kSubstr: return "substr";
    case ScalarFunc::kYear: return "year";
    case ScalarFunc::kMonth: return "month";
    case ScalarFunc::kWeekday: return "weekday";
    case ScalarFunc::kIf: return "if";
  }
  return "?";
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kColumnRef:
      if (!column_name.empty()) return column_name;
      return "$" + std::to_string(column_index);
    case ExprKind::kLiteral:
      if (literal.is_string()) return "\"" + literal.ToString() + "\"";
      return literal.ToString();
    case ExprKind::kBinary:
      return "(" + std::string(BinaryOpToString(binary_op)) + " " +
             children[0]->ToString() + " " + children[1]->ToString() + ")";
    case ExprKind::kUnary:
      return std::string("(") + (unary_op == UnaryOp::kNot ? "not " : "neg ") +
             children[0]->ToString() + ")";
    case ExprKind::kFunc: {
      std::string out = "(";
      out += ScalarFuncToString(func);
      for (const ExprPtr& c : children) {
        out += " ";
        out += c->ToString();
      }
      out += ")";
      return out;
    }
    case ExprKind::kIn: {
      std::string out = "(in " + children[0]->ToString();
      for (const Value& v : in_set) {
        out += " ";
        out += v.is_string() ? "\"" + v.ToString() + "\"" : v.ToString();
      }
      out += ")";
      return out;
    }
    case ExprKind::kIsNull:
      return "(isnull " + children[0]->ToString() + ")";
  }
  return "?";
}

bool Expr::Equals(const Expr& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case ExprKind::kColumnRef:
      if (bound && other.bound) return column_index == other.column_index;
      return column_name == other.column_name &&
             column_index == other.column_index;
    case ExprKind::kLiteral:
      return literal.Equals(other.literal);
    case ExprKind::kBinary:
      if (binary_op != other.binary_op) return false;
      break;
    case ExprKind::kUnary:
      if (unary_op != other.unary_op) return false;
      break;
    case ExprKind::kFunc:
      if (func != other.func) return false;
      break;
    case ExprKind::kIn:
      if (in_set.size() != other.in_set.size()) return false;
      for (size_t i = 0; i < in_set.size(); ++i) {
        if (!in_set[i].Equals(other.in_set[i])) return false;
      }
      break;
    case ExprKind::kIsNull:
      break;
  }
  if (children.size() != other.children.size()) return false;
  for (size_t i = 0; i < children.size(); ++i) {
    if (!children[i]->Equals(*other.children[i])) return false;
  }
  return true;
}

uint64_t Expr::Hash() const {
  uint64_t h = static_cast<uint64_t>(kind) * 0x9e3779b97f4a7c15ULL;
  switch (kind) {
    case ExprKind::kColumnRef:
      h = HashCombine(h, bound ? static_cast<uint64_t>(column_index)
                               : CollatedHash(column_name, Collation::kBinary));
      break;
    case ExprKind::kLiteral:
      h = HashCombine(h, literal.Hash());
      break;
    case ExprKind::kBinary:
      h = HashCombine(h, static_cast<uint64_t>(binary_op));
      break;
    case ExprKind::kUnary:
      h = HashCombine(h, static_cast<uint64_t>(unary_op));
      break;
    case ExprKind::kFunc:
      h = HashCombine(h, static_cast<uint64_t>(func));
      break;
    case ExprKind::kIn:
      for (const Value& v : in_set) h = HashCombine(h, v.Hash());
      break;
    case ExprKind::kIsNull:
      break;
  }
  for (const ExprPtr& c : children) h = HashCombine(h, c->Hash());
  return h;
}

void Expr::CollectColumnIndices(std::vector<int>* out) const {
  if (kind == ExprKind::kColumnRef && column_index >= 0) {
    out->push_back(column_index);
  }
  for (const ExprPtr& c : children) c->CollectColumnIndices(out);
}

void Expr::CollectColumnNames(std::vector<std::string>* out) const {
  if (kind == ExprKind::kColumnRef && !column_name.empty()) {
    out->push_back(column_name);
  }
  for (const ExprPtr& c : children) c->CollectColumnNames(out);
}

// --- factories ---

namespace {
std::shared_ptr<Expr> NewExpr(ExprKind kind) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  return e;
}
}  // namespace

ExprPtr Col(std::string name) {
  auto e = NewExpr(ExprKind::kColumnRef);
  e->column_name = std::move(name);
  return e;
}

ExprPtr ColIdx(int index, DataType type) {
  auto e = NewExpr(ExprKind::kColumnRef);
  e->column_index = index;
  e->result_type = type;
  e->bound = true;
  return e;
}

ExprPtr Lit(Value v) {
  auto e = NewExpr(ExprKind::kLiteral);
  e->literal = std::move(v);
  return e;
}
ExprPtr Lit(int64_t v) { return Lit(Value(v)); }
ExprPtr Lit(double v) { return Lit(Value(v)); }
ExprPtr Lit(const char* v) { return Lit(Value(v)); }
ExprPtr Lit(bool v) { return Lit(Value(v)); }

ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = NewExpr(ExprKind::kBinary);
  e->binary_op = op;
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Eq(ExprPtr a, ExprPtr b) { return Binary(BinaryOp::kEq, std::move(a), std::move(b)); }
ExprPtr Ne(ExprPtr a, ExprPtr b) { return Binary(BinaryOp::kNe, std::move(a), std::move(b)); }
ExprPtr Lt(ExprPtr a, ExprPtr b) { return Binary(BinaryOp::kLt, std::move(a), std::move(b)); }
ExprPtr Le(ExprPtr a, ExprPtr b) { return Binary(BinaryOp::kLe, std::move(a), std::move(b)); }
ExprPtr Gt(ExprPtr a, ExprPtr b) { return Binary(BinaryOp::kGt, std::move(a), std::move(b)); }
ExprPtr Ge(ExprPtr a, ExprPtr b) { return Binary(BinaryOp::kGe, std::move(a), std::move(b)); }
ExprPtr And(ExprPtr a, ExprPtr b) { return Binary(BinaryOp::kAnd, std::move(a), std::move(b)); }
ExprPtr Or(ExprPtr a, ExprPtr b) { return Binary(BinaryOp::kOr, std::move(a), std::move(b)); }
ExprPtr Add(ExprPtr a, ExprPtr b) { return Binary(BinaryOp::kAdd, std::move(a), std::move(b)); }
ExprPtr Sub(ExprPtr a, ExprPtr b) { return Binary(BinaryOp::kSub, std::move(a), std::move(b)); }
ExprPtr Mul(ExprPtr a, ExprPtr b) { return Binary(BinaryOp::kMul, std::move(a), std::move(b)); }
ExprPtr Div(ExprPtr a, ExprPtr b) { return Binary(BinaryOp::kDiv, std::move(a), std::move(b)); }

ExprPtr Not(ExprPtr operand) {
  auto e = NewExpr(ExprKind::kUnary);
  e->unary_op = UnaryOp::kNot;
  e->children = {std::move(operand)};
  return e;
}

ExprPtr Func(ScalarFunc f, std::vector<ExprPtr> args) {
  auto e = NewExpr(ExprKind::kFunc);
  e->func = f;
  e->children = std::move(args);
  return e;
}

ExprPtr In(ExprPtr operand, std::vector<Value> set) {
  auto e = NewExpr(ExprKind::kIn);
  e->children = {std::move(operand)};
  e->in_set = std::move(set);
  return e;
}

ExprPtr IsNull(ExprPtr operand) {
  auto e = NewExpr(ExprKind::kIsNull);
  e->children = {std::move(operand)};
  return e;
}

// --- binding ---

namespace {

DataType LiteralType(const Value& v) {
  if (v.is_bool()) return DataType::Bool();
  if (v.is_double()) return DataType::Float64();
  if (v.is_string()) return DataType::String();
  return DataType::Int64();  // ints and nulls
}

bool KindsComparable(const DataType& a, const DataType& b) {
  if (a.is_numeric() && b.is_numeric()) return true;
  if (a.kind == TypeKind::kString && b.kind == TypeKind::kString) return true;
  // dates compare with dates and with ints (epoch-day literals)
  auto date_like = [](const DataType& t) {
    return t.kind == TypeKind::kDate || t.kind == TypeKind::kInt64;
  };
  if (date_like(a) && date_like(b)) return true;
  if (a.kind == TypeKind::kBool && b.kind == TypeKind::kBool) return true;
  return false;
}

Collation PickCollation(const DataType& a, const DataType& b) {
  if (a.kind == TypeKind::kString && a.collation != Collation::kBinary) {
    return a.collation;
  }
  if (b.kind == TypeKind::kString) return b.collation;
  return Collation::kBinary;
}

}  // namespace

StatusOr<ExprPtr> BindExpr(const ExprPtr& expr, const BatchSchema& schema) {
  auto out = std::make_shared<Expr>(*expr);
  out->children.clear();
  for (const ExprPtr& c : expr->children) {
    VIZQ_ASSIGN_OR_RETURN(ExprPtr bc, BindExpr(c, schema));
    out->children.push_back(std::move(bc));
  }
  switch (expr->kind) {
    case ExprKind::kColumnRef: {
      int idx = expr->column_index;
      if (idx < 0) {
        idx = schema.FindColumn(expr->column_name);
        if (idx < 0) {
          return NotFound("column '" + expr->column_name + "' not found");
        }
      }
      if (idx >= schema.num_columns()) {
        return InvalidArgument("column index out of range");
      }
      out->column_index = idx;
      out->result_type = schema.prototypes[idx].type;
      break;
    }
    case ExprKind::kLiteral:
      out->result_type = LiteralType(expr->literal);
      break;
    case ExprKind::kBinary: {
      const DataType& lt = out->children[0]->result_type;
      const DataType& rt = out->children[1]->result_type;
      switch (expr->binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
          if (!lt.is_numeric() || !rt.is_numeric()) {
            // Date arithmetic: date +- int stays a date.
            if ((lt.kind == TypeKind::kDate && rt.kind == TypeKind::kInt64) ||
                (rt.kind == TypeKind::kDate && lt.kind == TypeKind::kInt64)) {
              out->result_type = DataType::Date();
              break;
            }
            return InvalidArgument("arithmetic requires numeric operands: " +
                                   expr->ToString());
          }
          out->result_type = (lt.kind == TypeKind::kFloat64 ||
                              rt.kind == TypeKind::kFloat64)
                                 ? DataType::Float64()
                                 : DataType::Int64();
          break;
        case BinaryOp::kDiv:
          if (!lt.is_numeric() || !rt.is_numeric()) {
            return InvalidArgument("division requires numeric operands");
          }
          out->result_type = DataType::Float64();
          break;
        case BinaryOp::kMod:
          if (lt.kind != TypeKind::kInt64 || rt.kind != TypeKind::kInt64) {
            return InvalidArgument("mod requires integer operands");
          }
          out->result_type = DataType::Int64();
          break;
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          if (!KindsComparable(lt, rt)) {
            return InvalidArgument("incomparable operand types in " +
                                   expr->ToString());
          }
          out->result_type = DataType::Bool();
          break;
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          if (lt.kind != TypeKind::kBool || rt.kind != TypeKind::kBool) {
            return InvalidArgument("and/or require boolean operands");
          }
          out->result_type = DataType::Bool();
          break;
      }
      break;
    }
    case ExprKind::kUnary:
      if (expr->unary_op == UnaryOp::kNot) {
        if (out->children[0]->result_type.kind != TypeKind::kBool) {
          return InvalidArgument("not requires a boolean operand");
        }
        out->result_type = DataType::Bool();
      } else {
        if (!out->children[0]->result_type.is_numeric()) {
          return InvalidArgument("negation requires a numeric operand");
        }
        out->result_type = out->children[0]->result_type;
      }
      break;
    case ExprKind::kFunc: {
      auto arg_type = [&](size_t i) { return out->children[i]->result_type; };
      auto require_args = [&](size_t n) -> Status {
        if (out->children.size() != n) {
          return InvalidArgument(std::string(ScalarFuncToString(expr->func)) +
                                 " expects " + std::to_string(n) + " args");
        }
        return OkStatus();
      };
      switch (expr->func) {
        case ScalarFunc::kAbs:
          VIZQ_RETURN_IF_ERROR(require_args(1));
          if (!arg_type(0).is_numeric()) {
            return InvalidArgument("abs requires a numeric argument");
          }
          out->result_type = arg_type(0);
          break;
        case ScalarFunc::kLower:
        case ScalarFunc::kUpper:
          VIZQ_RETURN_IF_ERROR(require_args(1));
          if (!arg_type(0).is_string()) {
            return InvalidArgument("lower/upper require a string argument");
          }
          out->result_type = arg_type(0);
          break;
        case ScalarFunc::kStrLen:
          VIZQ_RETURN_IF_ERROR(require_args(1));
          if (!arg_type(0).is_string()) {
            return InvalidArgument("strlen requires a string argument");
          }
          out->result_type = DataType::Int64();
          break;
        case ScalarFunc::kSubstr:
          VIZQ_RETURN_IF_ERROR(require_args(3));
          if (!arg_type(0).is_string()) {
            return InvalidArgument("substr requires a string argument");
          }
          out->result_type = DataType::String(arg_type(0).collation);
          break;
        case ScalarFunc::kYear:
        case ScalarFunc::kMonth:
        case ScalarFunc::kWeekday:
          VIZQ_RETURN_IF_ERROR(require_args(1));
          if (arg_type(0).kind != TypeKind::kDate) {
            return InvalidArgument("date function requires a date argument");
          }
          out->result_type = DataType::Int64();
          break;
        case ScalarFunc::kIf: {
          VIZQ_RETURN_IF_ERROR(require_args(3));
          if (arg_type(0).kind != TypeKind::kBool) {
            return InvalidArgument("if() requires a boolean condition");
          }
          DataType a = arg_type(1);
          DataType b = arg_type(2);
          if (a.kind == b.kind) {
            out->result_type = a;
          } else if (a.is_numeric() && b.is_numeric()) {
            out->result_type = DataType::Float64();
          } else {
            return InvalidArgument("if() branches have incompatible types");
          }
          break;
        }
      }
      break;
    }
    case ExprKind::kIn:
      out->result_type = DataType::Bool();
      break;
    case ExprKind::kIsNull:
      out->result_type = DataType::Bool();
      break;
  }
  out->bound = true;
  return ExprPtr(out);
}

ExprPtr RemapColumns(const ExprPtr& expr, const std::vector<int>& mapping) {
  auto out = std::make_shared<Expr>(*expr);
  if (out->kind == ExprKind::kColumnRef && out->column_index >= 0 &&
      out->column_index < static_cast<int>(mapping.size())) {
    out->column_index = mapping[out->column_index];
  }
  out->children.clear();
  for (const ExprPtr& c : expr->children) {
    out->children.push_back(RemapColumns(c, mapping));
  }
  return out;
}

// --- evaluation ---

namespace {

// Null-aware fetch of operand row as double (numeric/bool/date payloads).
inline double NumAt(const ColumnVector& v, int64_t i) {
  return v.type.kind == TypeKind::kFloat64 ? v.doubles[i]
                                           : static_cast<double>(v.ints[i]);
}

inline int64_t IntAt(const ColumnVector& v, int64_t i) {
  return v.type.kind == TypeKind::kFloat64 ? static_cast<int64_t>(v.doubles[i])
                                           : v.ints[i];
}

StatusOr<ColumnVector> EvalBinary(const Expr& expr, const Batch& batch);
StatusOr<ColumnVector> EvalFunc(const Expr& expr, const Batch& batch);
StatusOr<ColumnVector> EvalIn(const Expr& expr, const Batch& batch);

}  // namespace

StatusOr<ColumnVector> EvalExpr(const Expr& expr, const Batch& batch) {
  if (!expr.bound) return Internal("evaluating unbound expression");
  switch (expr.kind) {
    case ExprKind::kColumnRef:
      return batch.columns[expr.column_index];
    case ExprKind::kLiteral: {
      ColumnVector out(expr.result_type);
      out.Reserve(batch.num_rows);
      for (int64_t i = 0; i < batch.num_rows; ++i) {
        out.AppendValue(expr.literal);
      }
      return out;
    }
    case ExprKind::kBinary:
      return EvalBinary(expr, batch);
    case ExprKind::kUnary: {
      VIZQ_ASSIGN_OR_RETURN(ColumnVector in, EvalExpr(*expr.children[0], batch));
      ColumnVector out(expr.result_type);
      out.Reserve(batch.num_rows);
      for (int64_t i = 0; i < batch.num_rows; ++i) {
        if (in.IsNull(i)) {
          out.AppendNull();
        } else if (expr.unary_op == UnaryOp::kNot) {
          out.AppendInt(in.ints[i] != 0 ? 0 : 1);
        } else if (expr.result_type.kind == TypeKind::kFloat64) {
          out.AppendDouble(-in.doubles[i]);
        } else {
          out.AppendInt(-in.ints[i]);
        }
      }
      return out;
    }
    case ExprKind::kFunc:
      return EvalFunc(expr, batch);
    case ExprKind::kIn:
      return EvalIn(expr, batch);
    case ExprKind::kIsNull: {
      VIZQ_ASSIGN_OR_RETURN(ColumnVector in, EvalExpr(*expr.children[0], batch));
      ColumnVector out(DataType::Bool());
      out.Reserve(batch.num_rows);
      for (int64_t i = 0; i < batch.num_rows; ++i) {
        out.AppendInt(in.IsNull(i) ? 1 : 0);
      }
      return out;
    }
  }
  return Internal("unhandled expression kind");
}

namespace {

StatusOr<ColumnVector> EvalBinary(const Expr& expr, const Batch& batch) {
  VIZQ_ASSIGN_OR_RETURN(ColumnVector lhs, EvalExpr(*expr.children[0], batch));
  VIZQ_ASSIGN_OR_RETURN(ColumnVector rhs, EvalExpr(*expr.children[1], batch));
  int64_t n = batch.num_rows;
  ColumnVector out(expr.result_type);
  out.Reserve(n);

  BinaryOp op = expr.binary_op;
  // Logical ops use Kleene three-valued logic; everything else propagates
  // nulls.
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    for (int64_t i = 0; i < n; ++i) {
      bool ln = lhs.IsNull(i);
      bool rn = rhs.IsNull(i);
      bool lv = !ln && lhs.ints[i] != 0;
      bool rv = !rn && rhs.ints[i] != 0;
      if (op == BinaryOp::kAnd) {
        if ((!ln && !lv) || (!rn && !rv)) {
          out.AppendInt(0);
        } else if (ln || rn) {
          out.AppendNull();
        } else {
          out.AppendInt(1);
        }
      } else {
        if ((!ln && lv) || (!rn && rv)) {
          out.AppendInt(1);
        } else if (ln || rn) {
          out.AppendNull();
        } else {
          out.AppendInt(0);
        }
      }
    }
    return out;
  }

  bool is_comparison = op == BinaryOp::kEq || op == BinaryOp::kNe ||
                       op == BinaryOp::kLt || op == BinaryOp::kLe ||
                       op == BinaryOp::kGt || op == BinaryOp::kGe;

  if (is_comparison) {
    bool strings = lhs.type.kind == TypeKind::kString;
    Collation collation = PickCollation(lhs.type, rhs.type);
    // Token fast path for equality over the same dictionary.
    bool token_eq = strings && lhs.dict != nullptr && lhs.dict == rhs.dict &&
                    (op == BinaryOp::kEq || op == BinaryOp::kNe);
    for (int64_t i = 0; i < n; ++i) {
      if (lhs.IsNull(i) || rhs.IsNull(i)) {
        out.AppendNull();
        continue;
      }
      int cmp;
      if (token_eq) {
        cmp = lhs.ints[i] == rhs.ints[i] ? 0 : 1;
        if (op == BinaryOp::kEq) {
          out.AppendInt(cmp == 0 ? 1 : 0);
        } else {
          out.AppendInt(cmp == 0 ? 0 : 1);
        }
        continue;
      }
      if (strings) {
        cmp = CollatedCompare(lhs.GetStringView(i), rhs.GetStringView(i),
                              collation);
      } else if (lhs.type.kind != TypeKind::kFloat64 &&
                 rhs.type.kind != TypeKind::kFloat64) {
        int64_t a = lhs.ints[i];
        int64_t b = rhs.ints[i];
        cmp = a < b ? -1 : (a > b ? 1 : 0);
      } else {
        double a = NumAt(lhs, i);
        double b = NumAt(rhs, i);
        cmp = a < b ? -1 : (a > b ? 1 : 0);
      }
      bool result = false;
      switch (op) {
        case BinaryOp::kEq: result = cmp == 0; break;
        case BinaryOp::kNe: result = cmp != 0; break;
        case BinaryOp::kLt: result = cmp < 0; break;
        case BinaryOp::kLe: result = cmp <= 0; break;
        case BinaryOp::kGt: result = cmp > 0; break;
        case BinaryOp::kGe: result = cmp >= 0; break;
        default: break;
      }
      out.AppendInt(result ? 1 : 0);
    }
    return out;
  }

  // Arithmetic.
  bool float_result = expr.result_type.kind == TypeKind::kFloat64;
  for (int64_t i = 0; i < n; ++i) {
    if (lhs.IsNull(i) || rhs.IsNull(i)) {
      out.AppendNull();
      continue;
    }
    if (float_result) {
      double a = NumAt(lhs, i);
      double b = NumAt(rhs, i);
      double r = 0;
      switch (op) {
        case BinaryOp::kAdd: r = a + b; break;
        case BinaryOp::kSub: r = a - b; break;
        case BinaryOp::kMul: r = a * b; break;
        case BinaryOp::kDiv:
          if (b == 0) {
            out.AppendNull();
            continue;
          }
          r = a / b;
          break;
        default: break;
      }
      out.AppendDouble(r);
    } else {
      int64_t a = IntAt(lhs, i);
      int64_t b = IntAt(rhs, i);
      int64_t r = 0;
      switch (op) {
        case BinaryOp::kAdd: r = a + b; break;
        case BinaryOp::kSub: r = a - b; break;
        case BinaryOp::kMul: r = a * b; break;
        case BinaryOp::kMod:
          if (b == 0) {
            out.AppendNull();
            continue;
          }
          r = a % b;
          break;
        default: break;
      }
      out.AppendInt(r);
    }
  }
  return out;
}

StatusOr<ColumnVector> EvalFunc(const Expr& expr, const Batch& batch) {
  int64_t n = batch.num_rows;
  ColumnVector out(expr.result_type);
  out.Reserve(n);

  if (expr.func == ScalarFunc::kIf) {
    VIZQ_ASSIGN_OR_RETURN(ColumnVector cond, EvalExpr(*expr.children[0], batch));
    VIZQ_ASSIGN_OR_RETURN(ColumnVector then_v, EvalExpr(*expr.children[1], batch));
    VIZQ_ASSIGN_OR_RETURN(ColumnVector else_v, EvalExpr(*expr.children[2], batch));
    for (int64_t i = 0; i < n; ++i) {
      if (cond.IsNull(i)) {
        out.AppendNull();
        continue;
      }
      const ColumnVector& src = cond.ints[i] != 0 ? then_v : else_v;
      if (src.IsNull(i)) {
        out.AppendNull();
      } else if (expr.result_type.kind == TypeKind::kFloat64) {
        out.AppendDouble(NumAt(src, i));
      } else if (expr.result_type.kind == TypeKind::kString) {
        out.AppendValue(src.GetValue(i));
      } else {
        out.AppendInt(src.ints[i]);
      }
    }
    return out;
  }

  VIZQ_ASSIGN_OR_RETURN(ColumnVector a, EvalExpr(*expr.children[0], batch));
  ColumnVector b, c;
  if (expr.children.size() > 1) {
    VIZQ_ASSIGN_OR_RETURN(b, EvalExpr(*expr.children[1], batch));
  }
  if (expr.children.size() > 2) {
    VIZQ_ASSIGN_OR_RETURN(c, EvalExpr(*expr.children[2], batch));
  }

  for (int64_t i = 0; i < n; ++i) {
    if (a.IsNull(i)) {
      out.AppendNull();
      continue;
    }
    switch (expr.func) {
      case ScalarFunc::kAbs:
        if (expr.result_type.kind == TypeKind::kFloat64) {
          out.AppendDouble(a.doubles[i] < 0 ? -a.doubles[i] : a.doubles[i]);
        } else {
          out.AppendInt(a.ints[i] < 0 ? -a.ints[i] : a.ints[i]);
        }
        break;
      case ScalarFunc::kLower: {
        std::string s(a.GetStringView(i));
        for (char& ch : s) {
          if (ch >= 'A' && ch <= 'Z') ch = static_cast<char>(ch - 'A' + 'a');
        }
        out.AppendValue(Value(std::move(s)));
        break;
      }
      case ScalarFunc::kUpper: {
        std::string s(a.GetStringView(i));
        for (char& ch : s) {
          if (ch >= 'a' && ch <= 'z') ch = static_cast<char>(ch - 'a' + 'A');
        }
        out.AppendValue(Value(std::move(s)));
        break;
      }
      case ScalarFunc::kStrLen:
        out.AppendInt(static_cast<int64_t>(a.GetStringView(i).size()));
        break;
      case ScalarFunc::kSubstr: {
        if (b.IsNull(i) || c.IsNull(i)) {
          out.AppendNull();
          break;
        }
        std::string_view s = a.GetStringView(i);
        int64_t start = b.ints[i] - 1;  // 1-based
        int64_t len = c.ints[i];
        if (start < 0) start = 0;
        if (start > static_cast<int64_t>(s.size())) start = s.size();
        if (len < 0) len = 0;
        out.AppendValue(Value(std::string(s.substr(start, len))));
        break;
      }
      case ScalarFunc::kYear: {
        std::string d = FormatDateDays(a.ints[i]);
        out.AppendInt(*ParseInt64(std::string_view(d).substr(0, 4)));
        break;
      }
      case ScalarFunc::kMonth: {
        std::string d = FormatDateDays(a.ints[i]);
        out.AppendInt(*ParseInt64(std::string_view(d).substr(5, 2)));
        break;
      }
      case ScalarFunc::kWeekday:
        out.AppendInt(DayOfWeek(a.ints[i]));
        break;
      case ScalarFunc::kIf:
        break;  // handled above
    }
  }
  return out;
}

StatusOr<ColumnVector> EvalIn(const Expr& expr, const Batch& batch) {
  VIZQ_ASSIGN_OR_RETURN(ColumnVector in, EvalExpr(*expr.children[0], batch));
  int64_t n = batch.num_rows;
  ColumnVector out(DataType::Bool());
  out.Reserve(n);

  if (in.type.kind == TypeKind::kString) {
    if (in.dict != nullptr) {
      // Token fast path: translate the literal set once.
      std::unordered_set<int64_t> tokens;
      for (const Value& v : expr.in_set) {
        if (!v.is_string()) continue;
        int64_t t = in.dict->Find(v.string_value());
        if (t >= 0) tokens.insert(t);
      }
      for (int64_t i = 0; i < n; ++i) {
        if (in.IsNull(i)) {
          out.AppendNull();
        } else {
          out.AppendInt(tokens.count(in.ints[i]) != 0 ? 1 : 0);
        }
      }
      return out;
    }
    std::unordered_set<std::string> keys;
    for (const Value& v : expr.in_set) {
      if (v.is_string()) {
        keys.insert(CollationKey(v.string_value(), in.type.collation));
      }
    }
    for (int64_t i = 0; i < n; ++i) {
      if (in.IsNull(i)) {
        out.AppendNull();
      } else {
        out.AppendInt(
            keys.count(CollationKey(in.GetStringView(i), in.type.collation)) !=
                    0
                ? 1
                : 0);
      }
    }
    return out;
  }

  // Numeric membership via double widening (safe for this domain's ranges).
  std::unordered_set<int64_t> int_set;
  std::unordered_set<double> dbl_set;
  bool all_int = in.type.kind != TypeKind::kFloat64;
  for (const Value& v : expr.in_set) {
    if (v.is_null() || v.is_string()) continue;
    if (all_int && v.is_int()) {
      int_set.insert(v.int_value());
    } else {
      all_int = false;
    }
    dbl_set.insert(v.AsDouble());
  }
  for (int64_t i = 0; i < n; ++i) {
    if (in.IsNull(i)) {
      out.AppendNull();
      continue;
    }
    bool member = all_int ? int_set.count(in.ints[i]) != 0
                          : dbl_set.count(NumAt(in, i)) != 0;
    out.AppendInt(member ? 1 : 0);
  }
  return out;
}

}  // namespace

StatusOr<std::vector<int64_t>> EvalPredicate(const Expr& expr,
                                             const Batch& batch) {
  VIZQ_ASSIGN_OR_RETURN(ColumnVector v, EvalExpr(expr, batch));
  if (v.type.kind != TypeKind::kBool) {
    return Internal("predicate did not evaluate to a boolean");
  }
  std::vector<int64_t> selected;
  selected.reserve(batch.num_rows);
  for (int64_t i = 0; i < batch.num_rows; ++i) {
    if (!v.IsNull(i) && v.ints[i] != 0) selected.push_back(i);
  }
  return selected;
}

StatusOr<VerdictTable> BuildVerdictTable(const Expr& expr, int column_index,
                                         const ColumnVector& proto,
                                         int64_t min, int64_t card) {
  if (card < 0 || proto.type.kind == TypeKind::kFloat64 ||
      (proto.type.kind == TypeKind::kString && proto.dict == nullptr)) {
    return Internal("verdict table requires a token or integer column");
  }
  VerdictTable out;
  out.min = min;
  out.card = card;
  size_t slots = 1;
  while (slots <= static_cast<size_t>(card)) slots <<= 1;
  out.match.assign(slots, 0);

  // One synthetic row per value, then one NULL row for the null verdict
  // (IS NULL predicates etc.).
  Batch values;
  values.columns.resize(column_index + 1);
  ColumnVector cv = ColumnVector::LayoutLike(proto);
  cv.Reserve(card + 1);
  for (int64_t v = 0; v < card; ++v) cv.ints.push_back(min + v);
  cv.AppendNull();
  values.columns[column_index] = std::move(cv);
  values.num_rows = card + 1;
  VIZQ_ASSIGN_OR_RETURN(std::vector<int64_t> sel, EvalPredicate(expr, values));
  for (int64_t row : sel) out.match[row] = 1;
  return out;
}

StatusOr<std::vector<uint8_t>> EvalPredicatePerRun(const Expr& expr,
                                                   int column_index,
                                                   const ColumnVector& cv) {
  if (!cv.is_run_encoded()) {
    return Internal("per-run predicate requires a run-encoded vector");
  }
  int64_t n = static_cast<int64_t>(cv.runs.size());
  // One synthetic row per run. Runs never straddle a null/non-null boundary
  // (storage invariant), so the run's first row carries its null status.
  Batch synth;
  synth.columns.resize(column_index + 1);
  ColumnVector one(cv.type);
  one.dict = cv.dict;
  one.Reserve(n);
  for (const RleRun& r : cv.runs) {
    if (cv.IsNull(r.start)) {
      one.AppendNull();
    } else if (cv.type.kind == TypeKind::kFloat64) {
      one.AppendDouble(cv.DoubleAt(r.start));
    } else if (one.dict != nullptr) {
      one.AppendToken(r.value);
    } else {
      one.AppendInt(r.value);
    }
  }
  synth.columns[column_index] = std::move(one);
  synth.num_rows = n;
  VIZQ_ASSIGN_OR_RETURN(std::vector<int64_t> sel, EvalPredicate(expr, synth));
  std::vector<uint8_t> verdicts(n, 0);
  for (int64_t row : sel) verdicts[row] = 1;
  return verdicts;
}

}  // namespace vizq::tde
