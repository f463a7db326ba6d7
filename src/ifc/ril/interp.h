// Concrete RIL interpreter with a runtime IFC monitor.
//
// Executes a type-checked program's main(). Move semantics are enforced
// dynamically (reading a moved value is a runtime error), taint labels flow
// with values, and every emit is checked against its sink bound at runtime.
// The §4 experiments use it to (a) actually *run* the secure-store programs
// and (b) differential-test the static analyzer: a statically-clean program
// must never produce a runtime IFC violation on any input, while the
// converse does not hold for implicit flows (see ifc_differential_test).
#ifndef LINSYS_SRC_IFC_RIL_INTERP_H_
#define LINSYS_SRC_IFC_RIL_INTERP_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/ifc/an/label.h"
#include "src/ifc/ril/ast.h"
#include "src/ifc/ril/diag.h"
#include "src/ifc/ril/value.h"

namespace ril {

// One emit's worth of observable output.
struct EmitRecord {
  std::string sink;
  std::string rendered;
  ifc::Label taint;
  bool violation = false;  // taint exceeded the sink bound at runtime
};

// Thrown for runtime faults: use of moved value, index out of bounds,
// division by zero, integer overflow, step-limit exceeded.
class RuntimeError : public std::exception {
 public:
  RuntimeError(int line, int col, std::string message)
      : line_(line), col_(col), message_(std::move(message)) {}
  const char* what() const noexcept override { return message_.c_str(); }
  int line() const { return line_; }
  int col() const { return col_; }

 private:
  int line_;
  int col_;
  std::string message_;
};

class Interpreter {
 public:
  Interpreter(const Program* program, Diagnostics* diags)
      : program_(program), diags_(diags) {}

  // Runs main(). Returns false if a runtime error occurred (also recorded
  // as a Phase::kRuntime diagnostic).
  bool Run();

  const std::vector<EmitRecord>& outputs() const { return outputs_; }
  std::uint64_t steps() const { return steps_; }
  ifc::TagTable& tags() { return tags_; }

  // Safety valve against runaway loops in generated programs.
  void set_step_limit(std::uint64_t limit) { step_limit_ = limit; }

 private:
  struct Flow {  // statement outcome
    bool returned = false;
    Value value;
  };
  using Scope = std::map<std::string, Value>;

  Value CallFunction(const FnDecl& fn, std::vector<Value> by_value_args,
                     std::vector<Value*> ref_args);
  Flow ExecBlock(const Block& block, ifc::Label pc);
  Flow ExecStmt(const Stmt& stmt, ifc::Label pc);
  Value EvalExpr(const Expr& expr, ifc::Label pc);
  // Non-consuming evaluation for emit/assert: reading a place copies
  // instead of moving (printing borrows, it does not consume).
  Value EvalForRead(const Expr& expr, ifc::Label pc);
  Value EvalCall(const Expr& expr, const CallExpr& call, ifc::Label pc);
  // Resolves a place to storage, following RefV in parameter roots.
  Value* ResolvePlace(const Expr& place);
  Value* LookupVar(const std::string& name, int line, int col);

  void Step(int line, int col) {
    if (++steps_ > step_limit_) {
      throw RuntimeError(line, col, "step limit exceeded (runaway loop?)");
    }
  }

  const Program* program_;
  Diagnostics* diags_;
  ifc::TagTable tags_;
  std::vector<Scope> scopes_;
  std::vector<EmitRecord> outputs_;
  std::uint64_t steps_ = 0;
  std::uint64_t step_limit_ = 10'000'000;
};

}  // namespace ril

#endif  // LINSYS_SRC_IFC_RIL_INTERP_H_
