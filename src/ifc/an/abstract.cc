#include "src/ifc/an/abstract.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "src/ifc/an/driver.h"

namespace ifc {

using ril::Expr;
using ril::FnDecl;
using ril::RefKind;

// The label lattice as a driver domain. The context is the pc label: a
// branch raises it by its condition's label and every write joins it.
class IfcAnalyzer::Walk : public Driver<IfcAnalyzer::Walk, Label, Label> {
 public:
  // A return does not end the path: joining the env of a branch that
  // returned is what records the implicit flow of the early return.
  static constexpr bool kReturnEndsPath = false;
  static Label Absent() { return Label::Bottom(); }
  // The lattice is finite, so plain joins reach the fixpoint.
  static Label Widen(const Label& a, const Label& b) { return a.Join(b); }

  explicit Walk(IfcAnalyzer* analyzer)
      : Driver(analyzer->program_, analyzer->diags_), a_(analyzer) {}

  // ---- Transfer functions ------------------------------------------------

  Label Literal(const Expr&) { return Label::Bottom(); }
  Label Unary(const Expr&, ril::TokKind, const Label& v) { return v; }
  Label Binary(const Expr&, ril::TokKind, const Label& lhs,
               const Label& rhs) {
    return lhs.Join(rhs);
  }
  Label Index(const Label& base, const Label& index) {
    return base.Join(index);
  }
  Label Branch(const Label& pc, const Label& cond) { return pc.Join(cond); }
  Label Labelled(const Label& pc, const ril::LetStmt& let) {
    return pc.Join(a_->tags_.LabelOf(let.label_tags));
  }
  Label Written(const Label& v, const Label& pc) { return v.Join(pc); }

  Label Builtin(const Expr&, const ril::CallExpr& call,
                std::span<const Label> args, Env& env, const Label& pc) {
    if (call.callee == "push" || call.callee == "append") {
      const Expr& target = *call.args[0];
      const auto* borrow = target.As<ril::BorrowExpr>();
      JoinPlace(borrow != nullptr ? *borrow->place : target, args[1].Join(pc),
                env);
      return Label::Bottom();
    }
    if (call.callee == "check_range") {
      // The checked value flows through; literal bounds are public.
      Label l;
      for (const Label& arg : args) {
        l.JoinWith(arg);
      }
      return l;
    }
    return args[0];  // len / clone: the label of the source vec
  }

  void Emit(const ril::Stmt& stmt, const ril::EmitStmt& e, const Label& v,
            const Label& pc) {
    const Label l = v.Join(pc);
    const Label bound = SinkBound(e.sink);
    if (Summarizing()) {
      Defer(Obligation{l, bound, stmt.line, stmt.col,
                       "emit to sink '" + e.sink + "'"});
    } else if (!l.FlowsTo(bound)) {
      Report(stmt.line, stmt.col,
             "emit to sink '" + e.sink + "' leaks data labeled " +
                 a_->tags_.Render(l) + " (channel bound " +
                 a_->tags_.Render(bound) + ")");
    }
  }

  void Assert(const ril::Stmt& stmt, const ril::AssertLabelStmt& a,
              const Label& v, const Label&) {
    const Label bound = a_->tags_.LabelOf(a.tags);
    if (Summarizing()) {
      Defer(Obligation{v, bound, stmt.line, stmt.col,
                       "assert_label in '" + summary_stack_.back() + "'"});
    } else if (!v.FlowsTo(bound)) {
      Report(stmt.line, stmt.col,
             "assert_label failed: expression has label " +
                 a_->tags_.Render(v) + " which does not flow to " +
                 a_->tags_.Render(bound));
    }
  }

  // Whole-program mode inlines; summary mode substitutes the argument
  // labels into the callee's summary.
  Label Call(const Expr& expr, const ril::CallExpr& call, const FnDecl& fn,
             const std::vector<Label>& args, Env& env, const Label& pc,
             int depth) {
    if (a_->mode_ != Mode::kSummaries) {
      return Inline(expr, call, fn, args, env, pc, depth);
    }
    const FnSummary& summary = SummaryOf(fn);
    // Check the callee's deferred emit/assert obligations at this site.
    // (Copy: a recursive summary may append to this very vector.)
    const std::vector<Obligation> obligations = summary.obligations;
    for (const Obligation& ob : obligations) {
      const Label actual = Substitute(ob.label, args).Join(pc);
      if (Summarizing()) {
        Defer(Obligation{actual, ob.bound, ob.line, ob.col, ob.what});
      } else if (!actual.FlowsTo(ob.bound)) {
        Report(ob.line, ob.col,
               ob.what + " leaks data labeled " + a_->tags_.Render(actual) +
                   " (channel bound " + a_->tags_.Render(ob.bound) +
                   ") [via call to '" + call.callee + "']");
      }
    }
    // Apply &mut effects.
    for (std::size_t i = 0; i < fn.params.size() && i < call.args.size() &&
                            i < summary.param_out.size();
         ++i) {
      const auto* borrow = call.args[i]->As<ril::BorrowExpr>();
      if (fn.params[i].type.ref == RefKind::kMut && borrow != nullptr) {
        WritePlace(*borrow->place,
                   Substitute(summary.param_out[i], args).Join(pc), env);
      }
    }
    return Substitute(summary.return_label, args);
  }

 private:
  // While a summary is computed, channel checks become obligations.
  bool Summarizing() const { return !summary_stack_.empty(); }
  void Defer(Obligation ob) {
    if (report_) {  // the loop fixpoint's reporting pass records it
      a_->summaries_[summary_stack_.back()].obligations.push_back(
          std::move(ob));
    }
  }

  Label SinkBound(const std::string& sink) {
    const ril::SinkDecl* decl = a_->program_->FindSink(sink);
    if (decl == nullptr) {
      return Label::Bottom();  // implicit stdout: public
    }
    return a_->tags_.LabelOf(decl->tags);
  }

  // Substitutes actual argument labels for parameter atoms.
  static Label Substitute(const Label& symbolic,
                          const std::vector<Label>& args) {
    Label out;
    out.tags = symbolic.tags;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (symbolic.params & (1ULL << i)) {
        out.JoinWith(args[i]);
      }
    }
    return out;
  }

  const FnSummary& SummaryOf(const FnDecl& fn) {
    auto& summaries = a_->summaries_;
    auto it = summaries.find(fn.name);
    const bool in_progress = std::ranges::count(summary_stack_, fn.name) > 0;
    if (it != summaries.end() && !in_progress) {
      return it->second;
    }
    if (in_progress) {
      diags_->Error(ril::Phase::kIfc, fn.line, 0,
                    "recursive function '" + fn.name +
                        "' is not supported by the IFC analyzer");
      return it->second;
    }
    summary_stack_.push_back(fn.name);
    summaries[fn.name] = FnSummary{};

    // Analyze with symbolic parameter atoms. A summary holds for every call
    // site, so it records its obligations even when the first call to it
    // sits in a loop that is still iterating.
    const bool outer_report = report_;
    report_ = true;
    Env env;
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
      Seed(fn.params[i].name, Pointee(fn.params[i].type),
           Label::OfParam(static_cast<int>(i)), env);
    }
    const Label ret = AnalyzeBody(fn, env, Label::Bottom(), 0);
    report_ = outer_report;

    FnSummary& summary = summaries[fn.name];
    summary.return_label = ret;
    summary.param_out.clear();
    for (const ril::Param& p : fn.params) {
      // Post-state of the parameter's pointee (join of field cells).
      summary.param_out.push_back(ReadVar(p.name, Pointee(p.type), env));
    }
    summary_stack_.pop_back();
    return summary;
  }

  IfcAnalyzer* a_;
  // Summaries in progress, innermost last (a name on it again is recursion).
  std::vector<std::string> summary_stack_;
};

bool IfcAnalyzer::Verify() {
  const FnDecl* main_fn = program_->FindFunction("main");
  if (main_fn == nullptr) {
    diags_->Error(ril::Phase::kIfc, 0, 0, "no 'main' function to verify");
    return false;
  }
  if (!main_fn->params.empty()) {
    diags_->Error(ril::Phase::kIfc, main_fn->line, 0,
                  "'main' must take no parameters");
    return false;
  }
  // Intern every sink's principals first so diagnostics render stably.
  for (const ril::SinkDecl& sink : program_->sinks) {
    (void)tags_.LabelOf(sink.tags);
  }
  const std::size_t errors_before = diags_->count();
  Walk::Env env;
  (void)Walk(this).AnalyzeBody(*main_fn, env, Label::Bottom(), 0);
  return diags_->count() == errors_before;
}

}  // namespace ifc
