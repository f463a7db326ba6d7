#include "src/ifc/an/intervals.h"

#include <algorithm>
#include <optional>
#include <span>

#include "src/ifc/an/driver.h"

namespace ifc {
namespace {

using ril::Expr;
using ril::TokKind;
using Bound = Interval::Bound;

Bound Saturate(Bound v) {
  return std::clamp(v, Interval::kNegInf, Interval::kPosInf);
}

// Arithmetic on the extended integer line: infinities absorb. Finite bounds
// lie strictly inside ±2^100, so a finite sum cannot leave 128 bits.
Bound SatAdd(Bound a, Bound b) {
  if (a == Interval::kNegInf || b == Interval::kNegInf) {
    return Interval::kNegInf;
  }
  if (a == Interval::kPosInf || b == Interval::kPosInf) {
    return Interval::kPosInf;
  }
  return Saturate(a + b);
}

Bound SatMul(Bound a, Bound b) {
  if (a == 0 || b == 0) {
    return 0;
  }
  Bound out = 0;
  if (__builtin_mul_overflow(a, b, &out)) {
    return (a < 0) != (b < 0) ? Interval::kNegInf : Interval::kPosInf;
  }
  return Saturate(out);
}

std::string BoundString(Bound v) {
  if (v < 0) {
    return "-" + BoundString(-v);
  }
  return (v >= 10 ? BoundString(v / 10) : "") +
         static_cast<char>('0' + static_cast<int>(v % 10));
}

}  // namespace

Interval Interval::Join(const Interval& o) const {
  if (IsBottom()) {
    return o;
  }
  if (o.IsBottom()) {
    return *this;
  }
  return Interval{std::min(lo, o.lo), std::max(hi, o.hi)};
}

Interval Interval::Meet(const Interval& o) const {
  const Interval out{std::max(lo, o.lo), std::min(hi, o.hi)};
  return IsBottom() || o.IsBottom() || out.IsBottom() ? Bottom() : out;
}

Interval Interval::Widen(const Interval& next) const {
  if (IsBottom()) {
    return next;
  }
  if (next.IsBottom()) {
    return *this;
  }
  return Interval{next.lo < lo ? kNegInf : lo, next.hi > hi ? kPosInf : hi};
}

Interval Interval::Add(const Interval& o) const {
  if (IsBottom() || o.IsBottom()) {
    return Bottom();
  }
  return Interval{SatAdd(lo, o.lo), SatAdd(hi, o.hi)};
}

Interval Interval::Sub(const Interval& o) const {
  return Add(o.Neg());
}

Interval Interval::Neg() const {
  if (IsBottom()) {
    return Bottom();
  }
  return Interval{-hi, -lo};  // the infinities are symmetric
}

Interval Interval::Mul(const Interval& o) const {
  if (IsBottom() || o.IsBottom()) {
    return Bottom();
  }
  const Bound products[4] = {SatMul(lo, o.lo), SatMul(lo, o.hi),
                             SatMul(hi, o.lo), SatMul(hi, o.hi)};
  return Interval{*std::min_element(products, products + 4),
                  *std::max_element(products, products + 4)};
}

std::string Interval::ToString() const {
  if (IsBottom()) {
    return "[empty]";
  }
  return "[" + (lo == kNegInf ? std::string("-inf") : BoundString(lo)) +
         ", " + (hi == kPosInf ? std::string("+inf") : BoundString(hi)) +
         "]";
}

namespace {

struct NoCtx {};

// Intervals as a driver domain: one interval per int cell, Int64() for
// anything unknown. An operation whose result leaves int64 traps at run
// time, so every result is clipped to int64: the runs that go on hold a
// value in the clipped range, and a range wholly outside int64 is Bottom
// (no run gets past it).
class RangeWalk : public Driver<RangeWalk, Interval, NoCtx> {
 public:
  // Code after a return is unreachable; only branches that fall through
  // reach the join (this is what makes early-return clamps provable).
  static constexpr bool kReturnEndsPath = true;
  // Absent cells are unknown, not unreachable: Bottom here would be unsound.
  static Interval Absent() { return Interval::Int64(); }
  static Interval Widen(const Interval& a, const Interval& b) {
    return Clip(a.Widen(b));
  }

  using Driver::Driver;

  bool Run() {
    const ril::FnDecl* main_fn = program_->FindFunction("main");
    if (main_fn == nullptr) {
      diags_->Error(ril::Phase::kIfc, 0, 0,
                    "no 'main' function to range-verify");
      return false;
    }
    const std::size_t before = diags_->count();
    Env env;
    (void)AnalyzeBody(*main_fn, env, NoCtx{}, 0);
    return diags_->count() == before;
  }

  // ---- Transfer functions ------------------------------------------------

  Interval Literal(const Expr& expr) {
    if (const auto* lit = expr.As<ril::IntLit>()) {
      return Interval::Const(lit->value);
    }
    return Interval::Range(0, 1);  // bool
  }

  Interval Unary(const Expr&, TokKind op, const Interval& v) {
    return op == TokKind::kMinus ? Clip(v.Neg()) : Interval::Range(0, 1);
  }

  Interval Binary(const Expr& expr, TokKind op, const Interval& lhs,
                  const Interval& rhs) {
    switch (op) {
      case TokKind::kPlus:
        return Clip(lhs.Add(rhs));
      case TokKind::kMinus:
        return Clip(lhs.Sub(rhs));
      case TokKind::kStar:
        return Clip(lhs.Mul(rhs));
      case TokKind::kSlash:
      case TokKind::kPercent:
        if (lhs.IsBottom() || rhs.IsBottom()) {
          return Interval::Bottom();
        }
        if (rhs.Contains(0)) {
          Report(expr.line, expr.col,
                 "cannot prove divisor nonzero: divisor range is " +
                     rhs.ToString());
        }
        // Precise division intervals are fiddly; any int64 is sound.
        return Interval::Int64();
      default:
        return Interval::Range(0, 1);  // comparisons / logic
    }
  }

  Interval Index(const Interval&, const Interval&) {
    return Interval::Int64();  // vec elements are not tracked
  }

  Interval Builtin(const Expr& expr, const ril::CallExpr& call,
                   std::span<const Interval> args, Env&, NoCtx) {
    if (call.callee == "len") {
      return Interval::Range(0, Interval::Int64().hi);
    }
    if (call.callee != "check_range") {
      return Interval::Int64();
    }
    const std::optional<Bound> lo = LiteralValue(*call.args[1]);
    const std::optional<Bound> hi = LiteralValue(*call.args[2]);
    if (!lo.has_value() || !hi.has_value()) {
      Report(expr.line, expr.col,
             "check_range bounds must be integer literals");
      return args[0];
    }
    const Interval bound = Interval::Range(*lo, *hi);
    if (!args[0].Within(bound)) {
      Report(expr.line, expr.col,
             "cannot prove range: value is in " + args[0].ToString() +
                 ", required " + bound.ToString());
    }
    // Past the check, the value is in bounds (a failing check traps).
    return args[0].Meet(bound);
  }

  // Refines `env` assuming `cond` evaluated to `truth`. Sound, best-effort:
  // unhandled shapes refine nothing, and neither does a comparison that a
  // call may have invalidated. `env` is the state after the whole condition
  // ran, so a comparison is refined only when it and every operand after it
  // are call-free: then the places it read still hold what it saw.
  void Assume(const Expr& cond, bool truth, Env& env) {
    const auto* bin = cond.As<ril::BinaryExpr>();
    if (bin == nullptr) {
      const auto* un = cond.As<ril::UnaryExpr>();
      if (un != nullptr && un->op == TokKind::kBang) {
        Assume(*un->operand, !truth, env);
      }
      return;
    }
    if (bin->op == TokKind::kAndAnd || bin->op == TokKind::kOrOr) {
      // a && b true, or a || b false: both operands took `truth`.
      if (truth == (bin->op == TokKind::kAndAnd)) {
        if (!ContainsCall(*bin->rhs)) {
          Assume(*bin->lhs, truth, env);
        }
        Assume(*bin->rhs, truth, env);
      }
      return;
    }
    TokKind op = bin->op;
    if ((op != TokKind::kLt && op != TokKind::kLe && op != TokKind::kGt &&
         op != TokKind::kGe && op != TokKind::kEq && op != TokKind::kNe) ||
        ContainsCall(cond)) {
      return;
    }
    // Call-free operands leave `env` alone; their diagnostics came out when
    // the condition was evaluated.
    const bool outer_report = report_;
    report_ = false;
    const Interval lhs = Eval(*bin->lhs, env, NoCtx{}, 0);
    const Interval rhs = Eval(*bin->rhs, env, NoCtx{}, 0);
    report_ = outer_report;
    if (!truth) {
      op = Negate(op);
    }
    RefinePlace(*bin->lhs, op, rhs, env);
    RefinePlace(*bin->rhs, Flip(op), lhs, env);
  }

 private:
  static Interval Clip(const Interval& v) { return v.Meet(Interval::Int64()); }

  // Literal or negated literal; nullopt otherwise.
  static std::optional<Bound> LiteralValue(const Expr& expr) {
    if (const auto* lit = expr.As<ril::IntLit>()) {
      return lit->value;
    }
    if (const auto* un = expr.As<ril::UnaryExpr>()) {
      if (un->op == TokKind::kMinus) {
        if (const auto* lit = un->operand->As<ril::IntLit>()) {
          return -Bound(lit->value);
        }
      }
    }
    return std::nullopt;
  }

  // Narrows an int place so that `place op other` holds.
  void RefinePlace(const Expr& place, TokKind op, const Interval& other,
                   Env& env) {
    if (place.type.base != ril::BaseType::kInt ||
        !(place.Is<ril::VarRef>() || place.Is<ril::FieldAccess>())) {
      return;
    }
    const Interval current = ReadPlace(place, env);
    Interval constraint = Interval::Top();
    switch (op) {
      case TokKind::kLt:
        constraint = Interval::Range(Interval::kNegInf, SatAdd(other.hi, -1));
        break;
      case TokKind::kLe:
        constraint = Interval::Range(Interval::kNegInf, other.hi);
        break;
      case TokKind::kGt:
        constraint = Interval::Range(SatAdd(other.lo, 1), Interval::kPosInf);
        break;
      case TokKind::kGe:
        constraint = Interval::Range(other.lo, Interval::kPosInf);
        break;
      case TokKind::kEq:
        constraint = other;
        break;
      case TokKind::kNe:
        // Only a singleton excludes anything from an interval, and only at
        // the edges (intervals cannot represent holes).
        if (other.IsBottom() || other.lo != other.hi) {
          return;
        }
        if (current.lo == other.lo) {
          constraint = Interval::Range(SatAdd(other.lo, 1), Interval::kPosInf);
        } else if (current.hi == other.lo) {
          constraint = Interval::Range(Interval::kNegInf, SatAdd(other.lo, -1));
        } else {
          return;
        }
        break;
      default:
        return;
    }
    WritePlace(place, current.Meet(constraint), env);
  }

  // a op b == b Flip(op) a.
  static TokKind Flip(TokKind op) {
    switch (op) {
      case TokKind::kLt:
        return TokKind::kGt;
      case TokKind::kLe:
        return TokKind::kGe;
      case TokKind::kGt:
        return TokKind::kLt;
      case TokKind::kGe:
        return TokKind::kLe;
      default:
        return op;
    }
  }

  // !(a op b) == a Negate(op) b.
  static TokKind Negate(TokKind op) {
    switch (op) {
      case TokKind::kLt:
        return TokKind::kGe;
      case TokKind::kLe:
        return TokKind::kGt;
      case TokKind::kGt:
        return TokKind::kLe;
      case TokKind::kGe:
        return TokKind::kLt;
      case TokKind::kEq:
        return TokKind::kNe;
      case TokKind::kNe:
        return TokKind::kEq;
      default:
        return op;
    }
  }
};

}  // namespace

bool VerifyRanges(const ril::Program& program, ril::Diagnostics* diags) {
  return RangeWalk(&program, diags).Run();
}

}  // namespace ifc
