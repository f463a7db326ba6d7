// IFC as verification of an abstract interpretation (§4).
//
// "We represent the value of each variable in the abstract domain by its
// security label. Input variables are initialized with user-provided labels.
// Arithmetic expressions over secure values are abstracted by computing the
// upper bound of their arguments. An auxiliary program counter variable is
// introduced to track the flow of information via branching on labeled
// variables. We verify the resulting abstract program to ensure that labels
// written to output channels do not exceed user-provided channel bounds."
//
// Because RIL has no aliasing (single ownership, borrows die with the call),
// every write is a *strong update* — the precision the paper says aliasing
// destroys in conventional languages. Struct labels are per-field; whole-
// struct reads join the fields.
//
// Two analysis modes (the §4 scalability discussion):
//   * kWholeProgram — user calls are inlined (recursion rejected);
//   * kSummaries   — each function is analyzed once with symbolic parameter
//     atoms; call sites substitute actual argument labels into the summary.
//     "the effect of every function on security labels is confined to its
//     input arguments and can be summarized by analyzing the code of the
//     function in isolation" — exact here, not an approximation, because the
//     abstract semantics is a join-semilattice morphism in its inputs.
#ifndef LINSYS_SRC_IFC_AN_ABSTRACT_H_
#define LINSYS_SRC_IFC_AN_ABSTRACT_H_

#include <map>
#include <string>
#include <vector>

#include "src/ifc/an/label.h"
#include "src/ifc/ril/ast.h"
#include "src/ifc/ril/diag.h"

namespace ifc {

enum class Mode {
  kWholeProgram,
  kSummaries,
};

// A deferred channel check discovered while summarizing a function: an emit
// or assert whose label is symbolic in the function's parameters. Call sites
// substitute actual argument labels and check against `bound`.
struct Obligation {
  Label label;
  Label bound;
  int line = 0;
  int col = 0;
  std::string what;
};

// Per-function summary: output labels as joins over parameter atoms and
// concrete tags.
struct FnSummary {
  Label return_label;
  // For each parameter index: the label its pointee holds after the call
  // (meaningful for &mut params; identity for others).
  std::vector<Label> param_out;
  // Emits/asserts inside the function, deferred to call sites.
  std::vector<Obligation> obligations;
};

class IfcAnalyzer {
 public:
  IfcAnalyzer(const ril::Program* program, ril::Diagnostics* diags,
              Mode mode = Mode::kWholeProgram)
      : program_(program), diags_(diags), mode_(mode) {}

  // Verifies main(): propagates labels from #[label] annotations, checks
  // every emit against its sink bound and every assert_label. Returns true
  // when no violation was found. Requires a type-annotated AST.
  bool Verify();

  // Exposed for tests: the summary computed for `name` (kSummaries mode).
  const FnSummary* SummaryFor(const std::string& name) const {
    auto it = summaries_.find(name);
    return it == summaries_.end() ? nullptr : &it->second;
  }

  TagTable& tags() { return tags_; }

 private:
  // The label domain over the shared driver (driver.h); one per Verify().
  class Walk;

  const ril::Program* program_;
  ril::Diagnostics* diags_;
  Mode mode_;
  TagTable tags_;
  std::map<std::string, FnSummary> summaries_;
};

}  // namespace ifc

#endif  // LINSYS_SRC_IFC_AN_ABSTRACT_H_
