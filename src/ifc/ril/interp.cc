#include "src/ifc/ril/interp.h"

#include <limits>
#include <string>
#include <utility>

#include "src/ifc/ril/types.h"
#include "src/util/panic.h"

namespace ril {
namespace {

// Joins `label` into a value's taint, including aggregate members.
void ApplyTaint(Value& value, const ifc::Label& label) {
  value.taint.JoinWith(label);
  if (auto* s = std::get_if<StructV>(&value.v)) {
    for (auto& [fname, fvalue] : s->fields) {
      fvalue.taint.JoinWith(label);
    }
  }
}

// Taint of a value as observed when reading the whole thing.
ifc::Label ObservedTaint(const Value& value) {
  ifc::Label label = value.taint;
  if (const auto* s = std::get_if<StructV>(&value.v)) {
    for (const auto& [fname, fvalue] : s->fields) {
      label.JoinWith(fvalue.taint);
    }
  }
  return label;
}

// RIL ints are int64 with Rust's debug-build semantics: an operation whose
// result does not fit (including INT64_MIN / -1 and INT64_MIN % -1) traps.
std::int64_t Arith(const Expr& expr, TokKind op, std::int64_t a,
                   std::int64_t b) {
  std::int64_t out = 0;
  bool overflow = false;
  switch (op) {
    case TokKind::kPlus:
      overflow = __builtin_add_overflow(a, b, &out);
      break;
    case TokKind::kMinus:
      overflow = __builtin_sub_overflow(a, b, &out);
      break;
    case TokKind::kStar:
      overflow = __builtin_mul_overflow(a, b, &out);
      break;
    default:  // kSlash, kPercent
      if (b == 0) {
        throw RuntimeError(expr.line, expr.col, "division by zero");
      }
      overflow = a == std::numeric_limits<std::int64_t>::min() && b == -1;
      if (!overflow) {
        out = op == TokKind::kSlash ? a / b : a % b;
      }
      break;
  }
  if (overflow) {
    throw RuntimeError(expr.line, expr.col,
                       "integer overflow: " + std::to_string(a) + " " +
                           std::string(TokKindName(op)) + " " +
                           std::to_string(b));
  }
  return out;
}

}  // namespace

bool Interpreter::Run() {
  const FnDecl* main_fn = program_->FindFunction("main");
  if (main_fn == nullptr) {
    diags_->Error(Phase::kRuntime, 0, 0, "no 'main' function to run");
    return false;
  }
  for (const SinkDecl& sink : program_->sinks) {
    (void)tags_.LabelOf(sink.tags);
  }
  scopes_.clear();
  outputs_.clear();
  steps_ = 0;
  try {
    CallFunction(*main_fn, {}, {});
    return true;
  } catch (const RuntimeError& e) {
    diags_->Error(Phase::kRuntime, e.line(), e.col(), e.what());
    return false;
  }
}

Value Interpreter::CallFunction(const FnDecl& fn,
                                std::vector<Value> by_value_args,
                                std::vector<Value*> ref_args) {
  // Build the callee frame. Frames are isolated by saving/restoring the
  // whole scope stack: RIL has no closures, so the callee can only see its
  // parameters (references reach the caller's storage via RefV pointers,
  // which stay valid because the caller's scopes are preserved underneath).
  std::vector<Scope> saved = std::move(scopes_);
  scopes_.clear();
  scopes_.emplace_back();

  std::size_t value_index = 0;
  std::size_t ref_index = 0;
  for (const Param& p : fn.params) {
    if (p.type.ref != RefKind::kNone) {
      LINSYS_ASSERT(ref_index < ref_args.size(), "ref argument missing");
      Value ref;
      ref.v = RefV{ref_args[ref_index++], p.type.ref == RefKind::kMut};
      scopes_.back()[p.name] = std::move(ref);
    } else {
      LINSYS_ASSERT(value_index < by_value_args.size(),
                    "by-value argument missing");
      scopes_.back()[p.name] = std::move(by_value_args[value_index++]);
    }
  }

  Flow flow = ExecBlock(fn.body, ifc::Label::Bottom());
  scopes_ = std::move(saved);
  return flow.returned ? std::move(flow.value) : Value();
}

Interpreter::Flow Interpreter::ExecBlock(const Block& block, ifc::Label pc) {
  scopes_.emplace_back();
  for (const StmtPtr& stmt : block.stmts) {
    Flow flow = ExecStmt(*stmt, pc);
    if (flow.returned) {
      scopes_.pop_back();
      return flow;
    }
  }
  scopes_.pop_back();
  return Flow{};
}

Value* Interpreter::LookupVar(const std::string& name, int line, int col) {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    auto found = it->find(name);
    if (found != it->end()) {
      return &found->second;
    }
  }
  throw RuntimeError(line, col, "unknown variable '" + name + "'");
}

Value* Interpreter::ResolvePlace(const Expr& place) {
  if (const auto* var = place.As<VarRef>()) {
    Value* v = LookupVar(var->name, place.line, place.col);
    if (const auto* ref = std::get_if<RefV>(&v->v)) {
      return ref->target;
    }
    return v;
  }
  if (const auto* fa = place.As<FieldAccess>()) {
    Value* base = ResolvePlace(*fa->base);
    if (base->IsMoved()) {
      throw RuntimeError(place.line, place.col,
                         "field access on moved value");
    }
    auto* s = std::get_if<StructV>(&base->v);
    if (s == nullptr) {
      throw RuntimeError(place.line, place.col,
                         "field access on non-struct value");
    }
    Value* field = s->Find(fa->field);
    if (field == nullptr) {
      throw RuntimeError(place.line, place.col,
                         "no field '" + fa->field + "'");
    }
    return field;
  }
  throw RuntimeError(place.line, place.col, "expression is not a place");
}

Interpreter::Flow Interpreter::ExecStmt(const Stmt& stmt, ifc::Label pc) {
  Step(stmt.line, stmt.col);

  if (const auto* let = stmt.As<LetStmt>()) {
    Value v = EvalExpr(*let->init, pc);
    ApplyTaint(v, tags_.LabelOf(let->label_tags).Join(pc));
    scopes_.back()[let->name] = std::move(v);
    return Flow{};
  }
  if (const auto* assign = stmt.As<AssignStmt>()) {
    Value v = EvalExpr(*assign->value, pc);
    ApplyTaint(v, pc);
    if (const auto* ix = assign->place->As<IndexExpr>()) {
      // Element write: v must be an int; the vec's taint absorbs it.
      Value* base = ResolvePlace(*ix->base);
      Value idx = EvalExpr(*ix->index, pc);
      auto* vec = std::get_if<VecV>(&base->v);
      if (vec == nullptr) {
        throw RuntimeError(stmt.line, stmt.col, "indexing a non-vec");
      }
      const std::int64_t i = idx.AsInt();
      if (i < 0 || static_cast<std::size_t>(i) >= vec->size()) {
        throw RuntimeError(stmt.line, stmt.col,
                           "index " + std::to_string(i) +
                               " out of bounds (len " +
                               std::to_string(vec->size()) + ")");
      }
      (*vec)[static_cast<std::size_t>(i)] = v.AsInt();
      base->taint.JoinWith(v.taint.Join(idx.taint).Join(pc));
      return Flow{};
    }
    *ResolvePlace(*assign->place) = std::move(v);
    return Flow{};
  }
  if (const auto* es = stmt.As<ExprStmt>()) {
    (void)EvalExpr(*es->expr, pc);
    return Flow{};
  }
  if (const auto* ifs = stmt.As<IfStmt>()) {
    Value cond = EvalExpr(*ifs->cond, pc);
    const ifc::Label branch_pc = pc.Join(cond.taint);
    if (cond.AsBool()) {
      return ExecBlock(ifs->then_block, branch_pc);
    }
    if (ifs->else_block.has_value()) {
      return ExecBlock(*ifs->else_block, branch_pc);
    }
    return Flow{};
  }
  if (const auto* w = stmt.As<WhileStmt>()) {
    while (true) {
      Step(stmt.line, stmt.col);
      Value cond = EvalExpr(*w->cond, pc);
      if (!cond.AsBool()) {
        return Flow{};
      }
      Flow flow = ExecBlock(w->body, pc.Join(cond.taint));
      if (flow.returned) {
        return flow;
      }
    }
  }
  if (const auto* r = stmt.As<ReturnStmt>()) {
    Flow flow;
    flow.returned = true;
    if (r->value != nullptr) {
      flow.value = EvalExpr(*r->value, pc);
      ApplyTaint(flow.value, pc);
    }
    return flow;
  }
  if (const auto* a = stmt.As<AssertLabelStmt>()) {
    Value v = EvalForRead(*a->expr, pc);
    const ifc::Label bound = tags_.LabelOf(a->tags);
    if (!ObservedTaint(v).FlowsTo(bound)) {
      diags_->Error(Phase::kRuntime, stmt.line, stmt.col,
                    "runtime label assertion failed: value tainted " +
                        tags_.Render(ObservedTaint(v)) +
                        " exceeds bound " + tags_.Render(bound));
    }
    return Flow{};
  }
  if (const auto* e = stmt.As<EmitStmt>()) {
    Value v = EvalForRead(*e->value, pc);
    EmitRecord record;
    record.sink = e->sink;
    record.rendered = v.Render();
    record.taint = ObservedTaint(v).Join(pc);
    const SinkDecl* sink = program_->FindSink(e->sink);
    const ifc::Label bound =
        sink != nullptr ? tags_.LabelOf(sink->tags) : ifc::Label::Bottom();
    record.violation = !record.taint.FlowsTo(bound);
    if (record.violation) {
      diags_->Error(Phase::kRuntime, stmt.line, stmt.col,
                    "runtime IFC violation: emit to '" + e->sink +
                        "' carries taint " + tags_.Render(record.taint) +
                        " (bound " + tags_.Render(bound) + ")");
    }
    outputs_.push_back(std::move(record));
    return Flow{};
  }
  return Flow{};
}

Value Interpreter::EvalForRead(const Expr& expr, ifc::Label pc) {
  if (expr.Is<VarRef>() || expr.Is<FieldAccess>()) {
    Value* place = ResolvePlace(expr);
    if (place->IsMoved()) {
      throw RuntimeError(expr.line, expr.col, "use of moved value");
    }
    return *place;  // copy, do not consume
  }
  return EvalExpr(expr, pc);
}

Value Interpreter::EvalExpr(const Expr& expr, ifc::Label pc) {
  Step(expr.line, expr.col);

  if (const auto* lit = expr.As<IntLit>()) {
    return Value(lit->value);
  }
  if (const auto* lit = expr.As<BoolLit>()) {
    return Value(lit->value);
  }
  if (const auto* var = expr.As<VarRef>()) {
    Value* v = LookupVar(var->name, expr.line, expr.col);
    if (const auto* ref = std::get_if<RefV>(&v->v)) {
      v = ref->target;
    }
    if (v->IsMoved()) {
      throw RuntimeError(expr.line, expr.col,
                         "use of moved value '" + var->name + "'");
    }
    if (expr.type.IsCopy()) {
      return *v;  // copy types duplicate freely
    }
    return v->TakeOwnership();  // non-Copy read in value context = move
  }
  if (expr.Is<FieldAccess>()) {
    Value* field = ResolvePlace(expr);
    if (field->IsMoved()) {
      throw RuntimeError(expr.line, expr.col, "use of moved field");
    }
    return *field;  // fields are read by copy (moves out of fields are
                    // rejected statically; dynamic reads stay lenient)
  }
  if (const auto* ix = expr.As<IndexExpr>()) {
    Value* base = ResolvePlace(*ix->base);
    Value idx = EvalExpr(*ix->index, pc);
    const auto* vec = std::get_if<VecV>(&base->v);
    if (vec == nullptr) {
      throw RuntimeError(expr.line, expr.col, "indexing a non-vec");
    }
    const std::int64_t i = idx.AsInt();
    if (i < 0 || static_cast<std::size_t>(i) >= vec->size()) {
      throw RuntimeError(expr.line, expr.col,
                         "index " + std::to_string(i) +
                             " out of bounds (len " +
                             std::to_string(vec->size()) + ")");
    }
    Value out((*vec)[static_cast<std::size_t>(i)]);
    out.taint = base->taint.Join(idx.taint);
    return out;
  }
  if (const auto* un = expr.As<UnaryExpr>()) {
    Value v = EvalExpr(*un->operand, pc);
    if (un->op == TokKind::kMinus) {
      Value out(Arith(expr, TokKind::kMinus, 0, v.AsInt()));
      out.taint = v.taint;
      return out;
    }
    Value out(!v.AsBool());
    out.taint = v.taint;
    return out;
  }
  if (const auto* bin = expr.As<BinaryExpr>()) {
    // Short-circuit logical operators.
    if (bin->op == TokKind::kAndAnd || bin->op == TokKind::kOrOr) {
      Value lhs = EvalExpr(*bin->lhs, pc);
      const bool l = lhs.AsBool();
      if ((bin->op == TokKind::kAndAnd && !l) ||
          (bin->op == TokKind::kOrOr && l)) {
        return lhs;
      }
      Value rhs = EvalExpr(*bin->rhs, pc);
      Value out(rhs.AsBool());
      out.taint = lhs.taint.Join(rhs.taint);
      return out;
    }
    Value lhs = EvalExpr(*bin->lhs, pc);
    Value rhs = EvalExpr(*bin->rhs, pc);
    const ifc::Label taint = lhs.taint.Join(rhs.taint);
    Value out;
    switch (bin->op) {
      case TokKind::kPlus:
      case TokKind::kMinus:
      case TokKind::kStar:
      case TokKind::kSlash:
      case TokKind::kPercent:
        out = Value(Arith(expr, bin->op, lhs.AsInt(), rhs.AsInt()));
        break;
      case TokKind::kEq:
      case TokKind::kNe: {
        bool eq = false;
        if (std::holds_alternative<bool>(lhs.v)) {
          eq = lhs.AsBool() == rhs.AsBool();
        } else {
          eq = lhs.AsInt() == rhs.AsInt();
        }
        out = Value(bin->op == TokKind::kEq ? eq : !eq);
        break;
      }
      case TokKind::kLt:
        out = Value(lhs.AsInt() < rhs.AsInt());
        break;
      case TokKind::kLe:
        out = Value(lhs.AsInt() <= rhs.AsInt());
        break;
      case TokKind::kGt:
        out = Value(lhs.AsInt() > rhs.AsInt());
        break;
      case TokKind::kGe:
        out = Value(lhs.AsInt() >= rhs.AsInt());
        break;
      default:
        throw RuntimeError(expr.line, expr.col, "bad binary operator");
    }
    out.taint = taint;
    return out;
  }
  if (const auto* call = expr.As<CallExpr>()) {
    return EvalCall(expr, *call, pc);
  }
  if (const auto* vec = expr.As<VecLit>()) {
    Value out;
    VecV values;
    ifc::Label taint;
    for (const ExprPtr& element : vec->elements) {
      Value v = EvalExpr(*element, pc);
      values.push_back(v.AsInt());
      taint.JoinWith(v.taint);
    }
    out.v = std::move(values);
    out.taint = taint;
    return out;
  }
  if (const auto* lit = expr.As<StructLit>()) {
    Value out;
    StructV s;
    for (const auto& [fname, fexpr] : lit->fields) {
      s.fields.emplace_back(fname, EvalExpr(*fexpr, pc));
    }
    out.v = std::move(s);
    return out;
  }
  if (const auto* borrow = expr.As<BorrowExpr>()) {
    Value out;
    out.v = RefV{ResolvePlace(*borrow->place), borrow->is_mut};
    return out;
  }
  throw RuntimeError(expr.line, expr.col, "unsupported expression");
}

Value Interpreter::EvalCall(const Expr& expr, const CallExpr& call,
                            ifc::Label pc) {
  if (TypeChecker::IsBuiltin(call.callee)) {
    if (call.callee == "check_range") {
      Value v = EvalExpr(*call.args[0], pc);
      Value lo = EvalExpr(*call.args[1], pc);
      Value hi = EvalExpr(*call.args[2], pc);
      if (v.AsInt() < lo.AsInt() || v.AsInt() > hi.AsInt()) {
        throw RuntimeError(expr.line, expr.col,
                           "check_range failed: " + std::to_string(v.AsInt()) +
                               " not in [" + std::to_string(lo.AsInt()) +
                               ", " + std::to_string(hi.AsInt()) + "]");
      }
      Value out(v.AsInt());
      out.taint = v.taint.Join(lo.taint).Join(hi.taint);
      return out;
    }
    auto resolve_vec = [&](const Expr& arg) -> Value* {
      const auto* borrow = arg.As<BorrowExpr>();
      Value* place =
          borrow != nullptr ? ResolvePlace(*borrow->place) : ResolvePlace(arg);
      if (place->IsMoved()) {
        throw RuntimeError(arg.line, arg.col, "use of moved vec");
      }
      if (!std::holds_alternative<VecV>(place->v)) {
        throw RuntimeError(arg.line, arg.col,
                           "'" + call.callee + "' needs a vec");
      }
      return place;
    };
    if (call.callee == "push") {
      Value* target = resolve_vec(*call.args[0]);
      Value v = EvalExpr(*call.args[1], pc);
      target->AsVec().push_back(v.AsInt());
      target->taint.JoinWith(v.taint.Join(pc));
      return Value();
    }
    if (call.callee == "append") {
      Value* target = resolve_vec(*call.args[0]);
      Value src = EvalExpr(*call.args[1], pc);  // moves the source vec
      VecV& dst = target->AsVec();
      // The paper's Buffer::append fast path: an empty buffer *takes* the
      // incoming vector (this is what creates the alias in conventional
      // languages; with moves it is just a transfer).
      if (dst.empty()) {
        dst = std::move(src.AsVec());
      } else {
        dst.insert(dst.end(), src.AsVec().begin(), src.AsVec().end());
      }
      target->taint.JoinWith(src.taint.Join(pc));
      return Value();
    }
    if (call.callee == "len") {
      Value* target = resolve_vec(*call.args[0]);
      Value out(static_cast<std::int64_t>(target->AsVec().size()));
      out.taint = target->taint;
      return out;
    }
    // clone
    Value* target = resolve_vec(*call.args[0]);
    Value out;
    out.v = target->AsVec();  // deep copy
    out.taint = target->taint;
    return out;
  }

  const FnDecl* fn = program_->FindFunction(call.callee);
  if (fn == nullptr) {
    throw RuntimeError(expr.line, expr.col,
                       "unknown function '" + call.callee + "'");
  }
  std::vector<Value> by_value;
  std::vector<Value*> refs;
  for (std::size_t i = 0; i < call.args.size(); ++i) {
    const Expr& arg = *call.args[i];
    if (i < fn->params.size() && fn->params[i].type.ref != RefKind::kNone) {
      const auto* borrow = arg.As<BorrowExpr>();
      if (borrow == nullptr) {
        throw RuntimeError(arg.line, arg.col,
                           "expected a borrow argument (&place)");
      }
      refs.push_back(ResolvePlace(*borrow->place));
    } else {
      Value v = EvalExpr(arg, pc);
      ApplyTaint(v, pc);
      by_value.push_back(std::move(v));
    }
  }
  return CallFunction(*fn, std::move(by_value), std::move(refs));
}

}  // namespace ril
