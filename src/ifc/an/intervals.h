// Interval (value-range) verification for RIL — the §6 future-work
// direction made concrete: "by lifting the burden of resolving memory
// aliasing from the verifier, Rust enables faster and more accurate
// verification ... ranging from verified kernel extensions to ..."
//
// The same alias-free property the IFC analysis exploits (every write is a
// strong update) makes a classic interval abstract interpretation exact on
// straight-line code: no pointer can change an integer behind the
// analyzer's back. The verifier proves:
//   * check_range(x, lo, hi) builtin calls — x ∈ [lo, hi] on every path;
//   * absence of division by zero (the divisor's interval excludes 0).
// RIL ints are int64 and an operation that overflows traps (as in Rust debug
// builds), so a proof covers every run that reaches the check; a run may
// still stop earlier on an overflow or an out-of-bounds index. Loops unroll
// a few iterations and then widen. The traversal is the one the IFC
// analysis uses (driver.h).
#ifndef LINSYS_SRC_IFC_AN_INTERVALS_H_
#define LINSYS_SRC_IFC_AN_INTERVALS_H_

#include <cstdint>
#include <limits>
#include <string>

#include "src/ifc/ril/ast.h"
#include "src/ifc/ril/diag.h"

namespace ifc {

// A (possibly unbounded, possibly empty) integer interval. Bounds are held
// in 128 bits with the infinities far outside int64, so every int64 value,
// INT64_MAX included, is finite. The algebra computes on the extended
// integer line, saturating at the infinities; the verifier clips each
// result to int64 (see Int64()).
struct Interval {
  __extension__ typedef __int128 Bound;
  static constexpr Bound kNegInf = -(Bound(1) << 100);
  static constexpr Bound kPosInf = Bound(1) << 100;

  Bound lo = kNegInf;
  Bound hi = kPosInf;

  static Interval Top() { return Interval{}; }
  static Interval Bottom() { return Interval{1, 0}; }  // empty (lo > hi)
  static Interval Const(Bound c) { return Interval{c, c}; }
  static Interval Range(Bound lo, Bound hi) { return Interval{lo, hi}; }
  // Every value a RIL int can hold.
  static Interval Int64() {
    return Interval{std::numeric_limits<std::int64_t>::min(),
                    std::numeric_limits<std::int64_t>::max()};
  }

  bool IsBottom() const { return lo > hi; }
  bool IsTop() const { return lo == kNegInf && hi == kPosInf; }
  bool Contains(Bound v) const { return lo <= v && v <= hi; }
  bool Within(const Interval& bound) const {
    return IsBottom() || (lo >= bound.lo && hi <= bound.hi);
  }
  bool operator==(const Interval&) const = default;

  Interval Join(const Interval& o) const;   // convex hull
  Interval Meet(const Interval& o) const;   // intersection
  Interval Widen(const Interval& next) const;

  Interval Add(const Interval& o) const;
  Interval Sub(const Interval& o) const;
  Interval Mul(const Interval& o) const;
  Interval Neg() const;

  std::string ToString() const;
};

// Verifies main() (whole-program, calls inlined). Emits Phase::kIfc
// diagnostics for unprovable check_range calls and possible divisions by
// zero. Returns true when everything was proved. Requires a type-annotated
// AST (run TypeChecker first).
bool VerifyRanges(const ril::Program& program, ril::Diagnostics* diags);

}  // namespace ifc

#endif  // LINSYS_SRC_IFC_AN_INTERVALS_H_
