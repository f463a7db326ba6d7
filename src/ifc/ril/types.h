// RIL type checker. Annotates every expression with its type in place and
// reports errors through Diagnostics. Later phases (ownership, IFC, the
// interpreter) assume a type-correct program.
//
// Builtins (all vec arguments pass by explicit borrow, as in Rust):
//   push(&mut v, x: int)        append one element
//   append(&mut a, b: vec)      move b's contents into a (consumes b)
//   len(&v) -> int              element count
//   clone(&v) -> vec            deep copy (the escape hatch the security
//                               type system of §4 would force everywhere;
//                               in RIL it is optional, which is the point)
//
// Restrictions (diagnosed, not UB): references only in function parameters
// and borrow arguments; no variable shadowing; field access one level deep;
// no recursion (enforced by the analyses: the inline depth limit in
// an/driver.h, the summary recursion check in an/abstract.cc).
#ifndef LINSYS_SRC_IFC_RIL_TYPES_H_
#define LINSYS_SRC_IFC_RIL_TYPES_H_

#include <map>
#include <string>
#include <vector>

#include "src/ifc/ril/ast.h"
#include "src/ifc/ril/diag.h"

namespace ril {

class TypeChecker {
 public:
  TypeChecker(Program* program, Diagnostics* diags)
      : program_(program), diags_(diags) {}

  // Returns true when the program type-checks cleanly.
  bool Check();

  // True if `name` is a builtin function.
  static bool IsBuiltin(const std::string& name);

 private:
  struct VarInfo {
    Type type;
    bool is_mut = false;
  };
  using Scope = std::map<std::string, VarInfo>;

  void CheckFunction(FnDecl& fn);
  void CheckBlock(Block& block, const FnDecl& fn);
  void CheckStmt(Stmt& stmt, const FnDecl& fn);
  // Infers and annotates the type of `expr`.
  Type CheckExpr(Expr& expr);
  Type CheckCall(Expr& expr, CallExpr& call);
  Type CheckBuiltin(Expr& expr, CallExpr& call);
  // A "place" is a variable, a field of a struct variable, or an indexed
  // vec place. Returns the place's type; diagnoses non-places.
  Type CheckPlace(Expr& expr, bool* is_mutable);

  VarInfo* Lookup(const std::string& name);
  void Declare(const std::string& name, Type type, bool is_mut, int line,
               int col);
  void Error(int line, int col, std::string message) {
    diags_->Error(Phase::kType, line, col, std::move(message));
  }

  Program* program_;
  Diagnostics* diags_;
  std::vector<Scope> scopes_;
};

}  // namespace ril

#endif  // LINSYS_SRC_IFC_RIL_TYPES_H_
