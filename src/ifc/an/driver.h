// One abstract interpreter for RIL, shared by the IFC analysis (§4) and the
// interval verifier (§6).
//
// Both analyses rest on the same argument: RIL has no aliasing (single
// ownership, borrows die with the call), so every write to a variable or a
// field is a *strong update*. Driver<D, Value, Ctx> owns everything that
// argument touches:
//   * statement dispatch and expression structure (the rhs of a `&&` or
//     `||` that calls a function is a branch on the lhs: it may not run);
//   * the branch join and the loop fixpoint (unroll, then widen through the
//     domain), with diagnostics suppressed while a loop iterates and one
//     reporting pass at the fixpoint;
//   * the place layer: one cell per variable ("x") or struct field ("x.f");
//     a whole-struct read joins the field cells, a whole-struct write sets
//     them all, and a struct move copies them field by field;
//   * call binding: by-value and borrowed parameters, &mut copy-back from
//     the state the callee leaves with (joined over its returns), and the
//     inline depth limit.
//
// The domain D (CRTP) supplies the lattice and the transfer functions:
//   static Value Absent();            value of a cell never written
//   static Value Widen(a, b);         (Value::Join and Value::Bottom are used
//                                     directly)
//   static constexpr bool kReturnEndsPath;  whether a return stops the path
//   Value Literal(const Expr&);
//   Value Unary(const Expr&, TokKind, Value);
//   Value Binary(const Expr&, TokKind, Value, Value);
//   Value Index(Value base, Value index);
//   Value Builtin(const Expr&, const CallExpr&, std::span<const Value> args,
//                 Env&, const Ctx&);
// and may override the defaults below: Call (inline), Branch and Assume
// (branch context), Labelled and Written (what a write, or a return,
// carries), Emit and Assert.
#ifndef LINSYS_SRC_IFC_AN_DRIVER_H_
#define LINSYS_SRC_IFC_AN_DRIVER_H_

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/ifc/ril/ast.h"
#include "src/ifc/ril/diag.h"
#include "src/ifc/ril/types.h"

namespace ifc {

template <typename D, typename Value, typename Ctx>
class Driver {
 public:
  using Env = std::map<std::string, Value>;

  Driver(const ril::Program* program, ril::Diagnostics* diags)
      : program_(program), diags_(diags) {}

  // Analyzes `fn`'s body from `env` (its parameter cells) and returns the
  // join of the values it returns. When `fn` takes a &mut parameter, `env`
  // ends as the state the body leaves with, which the &mut copy-back reads:
  // the join of the states at its returns and, if it falls through, at its
  // end (not just the state at its last statement).
  Value AnalyzeBody(const ril::FnDecl& fn, Env& env, const Ctx& ctx,
                    int depth) {
    Exit exit;
    exit.want_state = std::ranges::any_of(fn.params, [](const ril::Param& p) {
      return p.type.ref == ril::RefKind::kMut;
    });
    const bool falls = ExecBlock(fn.body, env, ctx, depth, &exit);
    if (exit.state.has_value()) {
      env = falls ? JoinEnv(*exit.state, env, /*widen=*/false)
                  : std::move(*exit.state);
    }
    return exit.value;
  }

  // ---- Defaults a domain may override ------------------------------------

  Value Call(const ril::Expr& expr, const ril::CallExpr& call,
             const ril::FnDecl& fn, const std::vector<Value>& args, Env& env,
             const Ctx& ctx, int depth) {
    return Inline(expr, call, fn, args, env, ctx, depth);
  }
  // Context inside a branch on a condition of value `cond`.
  Ctx Branch(const Ctx& ctx, const Value& /*cond*/) { return ctx; }
  // Narrows `env` to the states where `cond` evaluated to `truth`.
  void Assume(const ril::Expr& /*cond*/, bool /*truth*/, Env& /*env*/) {}
  // Context for the cells a let writes.
  Ctx Labelled(const Ctx& ctx, const ril::LetStmt& /*let*/) { return ctx; }
  // What a write (or a return) of `v` under `ctx` stores.
  Value Written(const Value& v, const Ctx& /*ctx*/) { return v; }
  void Emit(const ril::Stmt&, const ril::EmitStmt&, const Value&,
            const Ctx&) {}
  void Assert(const ril::Stmt&, const ril::AssertLabelStmt&, const Value&,
              const Ctx&) {}

 protected:
  static constexpr int kMaxInlineDepth = 64;
  static constexpr int kUnrollBeforeWiden = 3;

  // What leaves a function body: the join of the values it returns and, if
  // wanted, of the states at its returns.
  struct Exit {
    Value value = Value::Bottom();
    bool want_state = false;
    std::optional<Env> state;
  };

  D& self() { return static_cast<D&>(*this); }

  void Report(int line, int col, std::string message) {
    if (report_) {
      diags_->Error(ril::Phase::kIfc, line, col, std::move(message));
    }
  }

  // ---- Place layer -------------------------------------------------------

  const ril::StructDecl* StructOf(const ril::Type& type) const {
    return type.base == ril::BaseType::kStruct
               ? program_->FindStruct(type.struct_name)
               : nullptr;
  }

  static Value Read(const Env& env, const std::string& key) {
    auto it = env.find(key);
    return it == env.end() ? D::Absent() : it->second;
  }

  // The whole value of variable `name`: a struct joins its field cells.
  Value ReadVar(const std::string& name, const ril::Type& type,
                const Env& env) const {
    if (const ril::StructDecl* decl = StructOf(type)) {
      Value joined = Value::Bottom();
      for (const auto& [fname, ftype] : decl->fields) {
        joined = joined.Join(Read(env, name + "." + fname));
      }
      return joined;
    }
    return Read(env, name);
  }

  // Sets every cell of variable `name` to `v`.
  void Seed(const std::string& name, const ril::Type& type, const Value& v,
            Env& env) const {
    if (const ril::StructDecl* decl = StructOf(type)) {
      for (const auto& [fname, ftype] : decl->fields) {
        env[name + "." + fname] = v;
      }
      return;
    }
    env[name] = v;
  }

  // Copies struct `from`'s field cells in `src` to struct `to`'s in `dst`.
  void CopyFields(const ril::Type& type, const std::string& from,
                  const Env& src, const std::string& to, Env& dst) const {
    for (const auto& [fname, ftype] : StructOf(type)->fields) {
      dst[to + "." + fname] = Read(src, from + "." + fname);
    }
  }

  Value ReadPlace(const ril::Expr& place, const Env& env) const {
    if (const auto* var = place.As<ril::VarRef>()) {
      return ReadVar(var->name, place.type, env);
    }
    if (const auto* fa = place.As<ril::FieldAccess>()) {
      return Read(env, FieldKey(*fa));
    }
    if (const auto* ix = place.As<ril::IndexExpr>()) {
      return ReadPlace(*ix->base, env);  // the index joins in Eval
    }
    return D::Absent();
  }

  void WritePlace(const ril::Expr& place, const Value& v, Env& env) {
    if (const auto* var = place.As<ril::VarRef>()) {
      Seed(var->name, place.type, v, env);  // strong update
    } else if (const auto* fa = place.As<ril::FieldAccess>()) {
      env[FieldKey(*fa)] = v;
    } else if (const auto* ix = place.As<ril::IndexExpr>()) {
      // One element of the vec: a weak update, the others keep their data.
      JoinPlace(*ix->base, v, env);
    }
  }

  // A weak update: the place keeps its data and gains `v`. Only vec places
  // (a variable or a field) are joined into: an element write or a push.
  void JoinPlace(const ril::Expr& place, const Value& v, Env& env) {
    const auto* fa = place.As<ril::FieldAccess>();
    auto [it, fresh] = env.try_emplace(
        fa != nullptr ? FieldKey(*fa) : place.As<ril::VarRef>()->name,
        D::Absent());
    it->second = it->second.Join(v);
  }

  // Writes `init`'s value to variable `name`. A struct literal or a struct
  // variable (a move) keeps one cell per field; anything else is one value.
  void Define(const std::string& name, const ril::Type& type,
              const ril::Expr& init, Env& env, const Ctx& ctx,
              const Ctx& write_ctx, int depth) {
    if (const ril::StructDecl* decl = StructOf(type)) {
      if (const auto* lit = init.As<ril::StructLit>()) {
        // Every field is evaluated before any is written: a field's
        // expression may read the old value of the variable (`s = P { v: 1,
        // w: s.v }`).
        std::vector<Value> values;
        values.reserve(lit->fields.size());
        for (const auto& [fname, fexpr] : lit->fields) {
          values.push_back(Eval(*fexpr, env, ctx, depth));
        }
        for (std::size_t i = 0; i < values.size(); ++i) {
          env[name + "." + lit->fields[i].first] =
              self().Written(values[i], write_ctx);
        }
        return;
      }
      if (const auto* var = init.As<ril::VarRef>()) {
        for (const auto& [fname, ftype] : decl->fields) {
          env[name + "." + fname] =
              self().Written(Read(env, var->name + "." + fname), write_ctx);
        }
        return;
      }
    }
    Value v = Eval(init, env, ctx, depth);
    Seed(name, type, self().Written(v, write_ctx), env);
  }

  // ---- Statements ----------------------------------------------------------

  // Returns false when no path reaches the next statement.
  bool ExecBlock(const ril::Block& block, Env& env, const Ctx& ctx,
                 int depth, Exit* exit) {
    for (const ril::StmtPtr& stmt : block.stmts) {
      if (!Exec(*stmt, env, ctx, depth, exit)) {
        return false;
      }
    }
    return true;
  }

  bool Exec(const ril::Stmt& stmt, Env& env, const Ctx& ctx, int depth,
            Exit* exit) {
    if (const auto* let = stmt.As<ril::LetStmt>()) {
      Define(let->name, let->init->type, *let->init, env, ctx,
             self().Labelled(ctx, *let), depth);
    } else if (const auto* assign = stmt.As<ril::AssignStmt>()) {
      const ril::Expr& place = *assign->place;
      if (const auto* var = place.As<ril::VarRef>()) {
        Define(var->name, place.type, *assign->value, env, ctx, ctx, depth);
      } else {
        Value v = Eval(*assign->value, env, ctx, depth);
        WritePlace(place, self().Written(v, ctx), env);
      }
    } else if (const auto* es = stmt.As<ril::ExprStmt>()) {
      (void)Eval(*es->expr, env, ctx, depth);
    } else if (const auto* ifs = stmt.As<ril::IfStmt>()) {
      return ExecIf(*ifs, env, ctx, depth, exit);
    } else if (const auto* w = stmt.As<ril::WhileStmt>()) {
      ExecWhile(*w, env, ctx, depth, exit);
    } else if (const auto* r = stmt.As<ril::ReturnStmt>()) {
      if (r->value != nullptr) {
        Value v = Eval(*r->value, env, ctx, depth);
        exit->value = exit->value.Join(self().Written(v, ctx));
      }
      if (exit->want_state) {
        exit->state = exit->state.has_value()
                          ? JoinEnv(*exit->state, env, /*widen=*/false)
                          : env;
      }
      return !D::kReturnEndsPath;
    } else if (const auto* a = stmt.As<ril::AssertLabelStmt>()) {
      Value v = Eval(*a->expr, env, ctx, depth);
      self().Assert(stmt, *a, v, ctx);
    } else if (const auto* e = stmt.As<ril::EmitStmt>()) {
      Value v = Eval(*e->value, env, ctx, depth);
      self().Emit(stmt, *e, v, ctx);
    }
    return true;
  }

  bool ExecIf(const ril::IfStmt& ifs, Env& env, const Ctx& ctx, int depth,
              Exit* exit) {
    Value cond = Eval(*ifs.cond, env, ctx, depth);
    const Ctx branch = self().Branch(ctx, cond);
    Env then_env = env;
    self().Assume(*ifs.cond, true, then_env);
    const bool then_falls =
        ExecBlock(ifs.then_block, then_env, branch, depth, exit);
    self().Assume(*ifs.cond, false, env);
    const bool else_falls =
        !ifs.else_block.has_value() ||
        ExecBlock(*ifs.else_block, env, branch, depth, exit);
    // Only branches that fall through reach the join. (A domain whose
    // returns do not end the path joins both.)
    if (then_falls && else_falls) {
      env = JoinEnv(then_env, env, /*widen=*/false);
    } else if (then_falls) {
      env = std::move(then_env);
    }
    return then_falls || else_falls;
  }

  // Iterates the body from the loop-head state until it is stable, joining
  // for kUnrollBeforeWiden rounds and widening after. Diagnostics stay off
  // until the fixpoint; then one pass over the body reports with the stable
  // state, and the loop exits with its condition false.
  void ExecWhile(const ril::WhileStmt& w, Env& env, const Ctx& ctx, int depth,
                 Exit* exit) {
    const bool outer_report = report_;
    report_ = false;
    for (int iter = 0;; ++iter) {
      Env body = env;
      if (!ExecBody(w, body, ctx, depth, exit)) {
        break;  // every path through the body returns
      }
      Env next = JoinEnv(env, body, iter >= kUnrollBeforeWiden);
      if (next == env) {
        break;
      }
      env = std::move(next);
    }
    report_ = outer_report;
    Env body = env;
    ExecBody(w, body, ctx, depth, exit);
    // The exit test: its diagnostics came out in the pass above.
    report_ = false;
    (void)Eval(*w.cond, env, ctx, depth);
    report_ = outer_report;
    self().Assume(*w.cond, false, env);
  }

  bool ExecBody(const ril::WhileStmt& w, Env& env, const Ctx& ctx, int depth,
                Exit* exit) {
    Value cond = Eval(*w.cond, env, ctx, depth);
    self().Assume(*w.cond, true, env);
    return ExecBlock(w.body, env, self().Branch(ctx, cond), depth, exit);
  }

  // Cell-wise join (or widening of `a` toward `b`). A cell missing on one
  // side holds D::Absent() there.
  static Env JoinEnv(const Env& a, const Env& b, bool widen) {
    auto merge = [widen](const Value& x, const Value& y) {
      return widen ? D::Widen(x, y) : x.Join(y);
    };
    Env out;
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() || ib != b.end()) {
      if (ib == b.end() || (ia != a.end() && ia->first < ib->first)) {
        out.emplace_hint(out.end(), ia->first, merge(ia->second, D::Absent()));
        ++ia;
      } else if (ia == a.end() || ib->first < ia->first) {
        out.emplace_hint(out.end(), ib->first, merge(D::Absent(), ib->second));
        ++ib;
      } else {
        out.emplace_hint(out.end(), ia->first, merge(ia->second, ib->second));
        ++ia;
        ++ib;
      }
    }
    return out;
  }

  // ---- Expressions ---------------------------------------------------------

  Value Eval(const ril::Expr& expr, Env& env, const Ctx& ctx, int depth) {
    if (expr.Is<ril::IntLit>() || expr.Is<ril::BoolLit>()) {
      return self().Literal(expr);
    }
    if (expr.Is<ril::VarRef>() || expr.Is<ril::FieldAccess>()) {
      return ReadPlace(expr, env);
    }
    if (const auto* ix = expr.As<ril::IndexExpr>()) {
      Value base = ReadPlace(*ix->base, env);
      return self().Index(base, Eval(*ix->index, env, ctx, depth));
    }
    if (const auto* un = expr.As<ril::UnaryExpr>()) {
      return self().Unary(expr, un->op, Eval(*un->operand, env, ctx, depth));
    }
    if (const auto* bin = expr.As<ril::BinaryExpr>()) {
      Value lhs = Eval(*bin->lhs, env, ctx, depth);
      Value rhs = (bin->op == ril::TokKind::kAndAnd ||
                   bin->op == ril::TokKind::kOrOr) &&
                          ContainsCall(*bin->rhs)
                      ? EvalSkippable(*bin->rhs, lhs, env, ctx, depth)
                      : Eval(*bin->rhs, env, ctx, depth);
      return self().Binary(expr, bin->op, lhs, rhs);
    }
    if (const auto* call = expr.As<ril::CallExpr>()) {
      return EvalCall(expr, *call, env, ctx, depth);
    }
    if (const auto* vec = expr.As<ril::VecLit>()) {
      Value v = Value::Bottom();
      for (const ril::ExprPtr& element : vec->elements) {
        v = v.Join(Eval(*element, env, ctx, depth));
      }
      return v;
    }
    if (const auto* lit = expr.As<ril::StructLit>()) {
      Value v = Value::Bottom();
      for (const auto& [fname, fexpr] : lit->fields) {
        v = v.Join(Eval(*fexpr, env, ctx, depth));
      }
      return v;
    }
    if (const auto* borrow = expr.As<ril::BorrowExpr>()) {
      return ReadPlace(*borrow->place, env);
    }
    return D::Absent();
  }

  // The rhs of a `&&` or `||` that may call a function. It runs only when
  // the lhs lets it: a branch on the lhs whose state joins the state that
  // skipped it. (Out of line: Eval recurses, and its frame stays small.)
  [[gnu::noinline]] Value EvalSkippable(const ril::Expr& rhs, const Value& lhs,
                                        Env& env, const Ctx& ctx, int depth) {
    Env skipped = env;
    Value v = Eval(rhs, env, self().Branch(ctx, lhs), depth);
    env = JoinEnv(skipped, env, /*widen=*/false);
    return v;
  }

  Value EvalCall(const ril::Expr& expr, const ril::CallExpr& call, Env& env,
                 const Ctx& ctx, int depth) {
    if (ril::TypeChecker::IsBuiltin(call.callee)) {
      // A builtin takes at most three arguments (check_range's).
      std::array<Value, 3> args;
      const std::size_t n = std::min(call.args.size(), args.size());
      for (std::size_t i = 0; i < n; ++i) {
        args[i] = Eval(*call.args[i], env, ctx, depth);
      }
      return self().Builtin(expr, call, std::span<const Value>(args.data(), n),
                            env, ctx);
    }
    const ril::FnDecl* fn = program_->FindFunction(call.callee);
    if (fn == nullptr) {
      return D::Absent();
    }
    std::vector<Value> args;
    args.reserve(call.args.size());
    for (const ril::ExprPtr& arg : call.args) {
      args.push_back(Eval(*arg, env, ctx, depth));
    }
    return self().Call(expr, call, *fn, args, env, ctx, depth);
  }

  // ---- Calls ---------------------------------------------------------------

  // Analyzes `fn`'s body at this call site. A struct argument that names a
  // variable (moved, or borrowed) copies its cells field by field; any
  // other parameter takes its argument's value. &mut parameters are copied
  // back to the caller's place afterwards.
  Value Inline(const ril::Expr& expr, const ril::CallExpr& call,
               const ril::FnDecl& fn, const std::vector<Value>& args,
               Env& env, const Ctx& ctx, int depth) {
    if (depth >= kMaxInlineDepth) {
      Report(expr.line, expr.col,
             "call depth exceeds " + std::to_string(kMaxInlineDepth) +
                 " while inlining '" + call.callee +
                 "' (recursion is not supported)");
      return D::Absent();
    }
    Env callee;
    const std::size_t n = std::min(fn.params.size(), call.args.size());
    for (std::size_t i = 0; i < n; ++i) {
      const ril::Param& p = fn.params[i];
      const ril::Type pointee = Pointee(p.type);
      if (const std::string* var = StructVar(*call.args[i], pointee)) {
        CopyFields(pointee, *var, env, p.name, callee);
      } else {
        Seed(p.name, pointee, args[i], callee);
      }
    }
    Value ret = AnalyzeBody(fn, callee, ctx, depth + 1);
    for (std::size_t i = 0; i < n; ++i) {
      const ril::Param& p = fn.params[i];
      const auto* borrow = call.args[i]->As<ril::BorrowExpr>();
      if (p.type.ref != ril::RefKind::kMut || borrow == nullptr) {
        continue;
      }
      const ril::Type pointee = Pointee(p.type);
      if (const std::string* var = StructVar(*borrow->place, pointee)) {
        CopyFields(pointee, p.name, callee, *var, env);
      } else {
        WritePlace(*borrow->place, Read(callee, p.name), env);
      }
    }
    return ret;
  }

  static ril::Type Pointee(ril::Type type) {
    type.ref = ril::RefKind::kNone;
    return type;
  }

  // The struct variable an argument of struct type `type` names, moved or
  // borrowed; null for any other argument.
  const std::string* StructVar(const ril::Expr& arg,
                               const ril::Type& type) const {
    const auto* borrow = arg.As<ril::BorrowExpr>();
    const auto* var =
        (borrow != nullptr ? *borrow->place : arg).As<ril::VarRef>();
    return var != nullptr && StructOf(type) != nullptr ? &var->name : nullptr;
  }

  // Whether evaluating the int or bool expression `expr` may call a
  // function (and so write a place or emit); a call-free one leaves the env
  // as it found it. A vec or struct literal appears in one only as a call
  // argument.
  static bool ContainsCall(const ril::Expr& expr) {
    if (expr.Is<ril::CallExpr>()) {
      return true;
    }
    if (const auto* ix = expr.As<ril::IndexExpr>()) {
      return ContainsCall(*ix->index);
    }
    if (const auto* un = expr.As<ril::UnaryExpr>()) {
      return ContainsCall(*un->operand);
    }
    if (const auto* bin = expr.As<ril::BinaryExpr>()) {
      return ContainsCall(*bin->lhs) || ContainsCall(*bin->rhs);
    }
    return false;
  }

  static std::string FieldKey(const ril::FieldAccess& fa) {
    return fa.base->As<ril::VarRef>()->name + "." + fa.field;
  }

  const ril::Program* program_;
  ril::Diagnostics* diags_;
  // Off while a loop iterates toward its fixpoint.
  bool report_ = true;
};

}  // namespace ifc

#endif  // LINSYS_SRC_IFC_AN_DRIVER_H_
