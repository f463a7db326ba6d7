// IFC abstract interpretation (§4): label propagation, implicit flows via
// the pc label, channel bounds, assertions, loops, and the two analysis
// modes — including the paper's buffer listing and the secure data store
// with the seeded access-control bug.
#include "src/ifc/an/abstract.h"

#include <gtest/gtest.h>

#include "src/ifc/checker.h"

namespace ifc {
namespace {

using ril::Phase;

AnalysisResult Analyze(std::string_view src,
                       Mode mode = Mode::kWholeProgram) {
  AnalysisResult result = AnalyzeSource(src, mode);
  EXPECT_TRUE(result.parse_ok) << result.diags.ToString();
  EXPECT_TRUE(result.type_ok) << result.diags.ToString();
  return result;
}

// ---- The paper's §4 buffer listing -------------------------------------

constexpr std::string_view kPaperBufferListing = R"(
sink terminal: {};
struct Buffer { data: vec }

fn append_buf(buf: &mut Buffer, v: vec) {
  append(&mut buf.data, v);
}

fn main() {
  let mut buf = Buffer { data: vec![] };
  #[label()]
  let nonsec = vec![1, 2, 3];
  #[label(secret)]
  let sec = vec![4, 5, 6];
  append_buf(&mut buf, nonsec);
  append_buf(&mut buf, sec);       // buf now contains secret data
  emit(terminal, buf.data);        // ERROR: leaks secret data
  emit(terminal, nonsec);          // ERROR (ownership): nonsec was moved
}
)";

TEST(IfcPaper, BufferListingLine16LeakDetected) {
  // Run without the ownership phase to reach IFC for line 17 analysis; the
  // full pipeline stops at ownership. First: full pipeline fails at
  // ownership (the line-17 exploit).
  AnalysisResult full = Analyze(kPaperBufferListing);
  EXPECT_FALSE(full.ownership_ok);
  EXPECT_TRUE(full.diags.Contains(Phase::kOwnership,
                                  "use of moved value 'nonsec'"))
      << full.diags.ToString();

  // Second: the IFC phase alone flags the line-16 leak. (Strip line 18 so
  // ownership passes.)
  std::string no_line17(kPaperBufferListing);
  no_line17.replace(no_line17.find("emit(terminal, nonsec);"),
                    std::string("emit(terminal, nonsec);").size(), "");
  AnalysisResult ifc_only = Analyze(no_line17);
  EXPECT_TRUE(ifc_only.ownership_ok) << ifc_only.diags.ToString();
  EXPECT_FALSE(ifc_only.ifc_ok);
  EXPECT_TRUE(ifc_only.diags.Contains(Phase::kIfc, "leaks data labeled"))
      << ifc_only.diags.ToString();
  EXPECT_TRUE(ifc_only.diags.Contains(Phase::kIfc, "secret"));
}

TEST(IfcPaper, NonSecretOnlyBufferIsClean) {
  AnalysisResult r = Analyze(R"(
    sink terminal: {};
    struct Buffer { data: vec }
    fn append_buf(buf: &mut Buffer, v: vec) {
      append(&mut buf.data, v);
    }
    fn main() {
      let mut buf = Buffer { data: vec![] };
      #[label()]
      let nonsec = vec![1, 2, 3];
      append_buf(&mut buf, nonsec);
      emit(terminal, buf.data);
    }
  )");
  EXPECT_TRUE(r.AllOk()) << r.diags.ToString();
}

// ---- Core label propagation ---------------------------------------------

TEST(Ifc, ExplicitFlowThroughArithmetic) {
  AnalysisResult r = Analyze(R"(
    fn main() {
      #[label(secret)]
      let s = 42;
      let derived = s * 2 + 1;
      emit(stdout, derived);
    }
  )");
  EXPECT_FALSE(r.ifc_ok);
  EXPECT_TRUE(r.diags.Contains(Phase::kIfc, "secret"));
}

TEST(Ifc, ImplicitFlowThroughBranch) {
  // The classic: no secret *data* reaches the sink, but the branch on the
  // secret taints everything written under it (the pc label).
  AnalysisResult r = Analyze(R"(
    fn main() {
      #[label(secret)]
      let s = 1;
      let mut leak = 0;
      if s == 1 { leak = 1; } else { leak = 0; }
      emit(stdout, leak);
    }
  )");
  EXPECT_FALSE(r.ifc_ok) << "pc label must catch the implicit flow";
  EXPECT_TRUE(r.diags.Contains(Phase::kIfc, "secret"));
}

TEST(Ifc, ImplicitFlowThroughLoopCondition) {
  AnalysisResult r = Analyze(R"(
    fn main() {
      #[label(secret)]
      let s = 3;
      let mut count = 0;
      let mut i = 0;
      while i < s {
        count = count + 1;
        i = i + 1;
      }
      emit(stdout, count);
    }
  )");
  EXPECT_FALSE(r.ifc_ok);
}

TEST(Ifc, PcDoesNotStickAfterBranch) {
  AnalysisResult r = Analyze(R"(
    fn main() {
      #[label(secret)]
      let s = 1;
      let mut x = 0;
      if s == 1 { x = 1; }
      let y = 7;        // written after the branch, public pc
      emit(stdout, y);
    }
  )");
  EXPECT_TRUE(r.ifc_ok)
      << "only writes under the secret branch are tainted: "
      << r.diags.ToString();
}

TEST(Ifc, VecOperationsPropagate) {
  AnalysisResult r = Analyze(R"(
    fn main() {
      #[label(secret)]
      let s = 9;
      let mut v = vec![1, 2];
      push(&mut v, s);
      emit(stdout, v);
    }
  )");
  EXPECT_FALSE(r.ifc_ok);

  AnalysisResult idx = Analyze(R"(
    fn main() {
      #[label(secret)]
      let s = 0;
      let v = vec![10, 20];
      emit(stdout, v[s]);
    }
  )");
  EXPECT_FALSE(idx.ifc_ok) << "the index itself is secret-dependent";
}

TEST(Ifc, PerFieldStructPrecision) {
  // One secret field must not taint the whole struct's other fields.
  AnalysisResult r = Analyze(R"(
    struct Mixed { pub_data: vec, sec_data: vec }
    fn main() {
      #[label(secret)]
      let s = vec![1];
      let p = vec![2];
      let m = Mixed { pub_data: p, sec_data: s };
      emit(stdout, m.pub_data);
    }
  )");
  EXPECT_TRUE(r.ifc_ok) << "field-sensitive labels: " << r.diags.ToString();

  AnalysisResult leak = Analyze(R"(
    struct Mixed { pub_data: vec, sec_data: vec }
    fn main() {
      #[label(secret)]
      let s = vec![1];
      let p = vec![2];
      let m = Mixed { pub_data: p, sec_data: s };
      emit(stdout, m.sec_data);
    }
  )");
  EXPECT_FALSE(leak.ifc_ok);
}

TEST(Ifc, WholeStructReadJoinsFields) {
  AnalysisResult r = Analyze(R"(
    struct Mixed { pub_data: vec, sec_data: vec }
    fn show(m: Mixed) { emit(stdout, m.sec_data); }
    fn main() {
      #[label(secret)]
      let s = vec![1];
      let m = Mixed { pub_data: vec![2], sec_data: s };
      show(m);
    }
  )");
  EXPECT_FALSE(r.ifc_ok);
}

TEST(Ifc, SinkBoundsArePartialOrder) {
  AnalysisResult r = Analyze(R"(
    sink alice_out: {alice};
    sink admin_out: {alice, bob};
    fn main() {
      #[label(alice)]
      let a = vec![1];
      #[label(bob)]
      let b = vec![2];
      emit(alice_out, a);   // ok: {alice} <= {alice}
      emit(admin_out, a);   // ok: {alice} <= {alice,bob}
      emit(admin_out, b);   // ok
      emit(alice_out, b);   // ERROR: {bob} not<= {alice}
    }
  )");
  EXPECT_FALSE(r.ifc_ok);
  // Exactly one violation.
  std::size_t ifc_errors = 0;
  for (const auto& d : r.diags.all()) {
    ifc_errors += d.phase == Phase::kIfc;
  }
  EXPECT_EQ(ifc_errors, 1u) << r.diags.ToString();
}

TEST(Ifc, AssertLabelChecks) {
  AnalysisResult ok = Analyze(R"(
    fn main() {
      #[label(alice)]
      let a = 1;
      assert_label(a, {alice, bob});
    }
  )");
  EXPECT_TRUE(ok.ifc_ok) << ok.diags.ToString();

  AnalysisResult bad = Analyze(R"(
    fn main() {
      #[label(alice, bob)]
      let a = 1;
      assert_label(a, {alice});
    }
  )");
  EXPECT_FALSE(bad.ifc_ok);
  EXPECT_TRUE(bad.diags.Contains(Phase::kIfc, "assert_label failed"));
}

TEST(Ifc, LabelsCanChangeAtRuntime) {
  // The paper: Rust "allow[s] for security labels to change at run-time" —
  // unlike security type systems, a variable's label is its *current*
  // contents' label. Overwriting with public data clears it (strong
  // update).
  AnalysisResult r = Analyze(R"(
    fn main() {
      #[label(secret)]
      let mut x = 5;
      x = 1;              // now public again (strong update, no aliasing)
      emit(stdout, x);
    }
  )");
  EXPECT_TRUE(r.ifc_ok) << r.diags.ToString();
}

TEST(Ifc, LoopFixpointTerminatesAndTaints) {
  AnalysisResult r = Analyze(R"(
    fn main() {
      #[label(secret)]
      let s = 1;
      let mut a = 0;
      let mut b = 0;
      let mut i = 0;
      while i < 10 {
        a = b;            // second iteration: b already carries secret
        b = s;
        i = i + 1;
      }
      emit(stdout, a);
    }
  )");
  EXPECT_FALSE(r.ifc_ok)
      << "needs a fixpoint: taint reaches `a` only on iteration 2";
}

// ---- Function calls: whole-program vs summaries --------------------------

constexpr std::string_view kInterproceduralLeak = R"(
  fn launder(x: int) -> int {
    let y = x + 0;
    return y;
  }
  fn main() {
    #[label(secret)]
    let s = 7;
    emit(stdout, launder(s));
  }
)";

TEST(Ifc, InterproceduralFlowWholeProgram) {
  AnalysisResult r = Analyze(kInterproceduralLeak, Mode::kWholeProgram);
  EXPECT_FALSE(r.ifc_ok);
}

TEST(Ifc, InterproceduralFlowSummaries) {
  AnalysisResult r = Analyze(kInterproceduralLeak, Mode::kSummaries);
  EXPECT_FALSE(r.ifc_ok);
}

TEST(Ifc, MutParamEffectThroughCallBothModes) {
  constexpr std::string_view src = R"(
    fn taint_it(v: &mut vec, s: int) {
      push(&mut v, s);
    }
    fn main() {
      #[label(secret)]
      let s = 1;
      let mut v = vec![];
      taint_it(&mut v, s);
      emit(stdout, v);
    }
  )";
  EXPECT_FALSE(Analyze(src, Mode::kWholeProgram).ifc_ok);
  EXPECT_FALSE(Analyze(src, Mode::kSummaries).ifc_ok);
}

TEST(Ifc, EmitInsideCalleeCheckedPerCallSite) {
  // The callee emits its parameter; one call site passes public data (fine),
  // the other secret (violation). Summary mode must localize the check.
  constexpr std::string_view src = R"(
    fn show(x: int) { emit(stdout, x); }
    fn main() {
      let p = 1;
      show(p);
      #[label(secret)]
      let s = 2;
      show(s);
    }
  )";
  AnalysisResult whole = Analyze(src, Mode::kWholeProgram);
  EXPECT_FALSE(whole.ifc_ok);
  AnalysisResult sums = Analyze(src, Mode::kSummaries);
  EXPECT_FALSE(sums.ifc_ok);
  std::size_t violations = 0;
  for (const auto& d : sums.diags.all()) {
    violations += d.phase == Phase::kIfc;
  }
  EXPECT_EQ(violations, 1u)
      << "only the secret call site violates: " << sums.diags.ToString();
}

TEST(Ifc, SummaryComputedOncePerFunction) {
  AnalysisResult r = Analyze(R"(
    fn helper(x: int) -> int { return x + 1; }
    fn main() {
      let a = helper(1);
      let b = helper(2);
      let c = helper(3);
      emit(stdout, a + b + c);
    }
  )",
                             Mode::kSummaries);
  EXPECT_TRUE(r.ifc_ok) << r.diags.ToString();
}

TEST(Ifc, RecursionRejectedBothModes) {
  constexpr std::string_view src = R"(
    fn rec(x: int) -> int { return rec(x - 1); }
    fn main() { emit(stdout, rec(5)); }
  )";
  AnalysisResult whole = Analyze(src, Mode::kWholeProgram);
  EXPECT_FALSE(whole.ifc_ok);
  EXPECT_TRUE(whole.diags.Contains(Phase::kIfc, "recursion"))
      << whole.diags.ToString();
  AnalysisResult sums = Analyze(src, Mode::kSummaries);
  EXPECT_TRUE(sums.diags.Contains(Phase::kIfc, "recursive"))
      << sums.diags.ToString();
}

TEST(Ifc, NestedCallsPropagateObligations) {
  // Two levels deep: main -> outer -> inner(emit). Summary mode must carry
  // inner's obligation through outer's summary to main's call site.
  constexpr std::string_view src = R"(
    fn inner(x: int) { emit(stdout, x); }
    fn outer(y: int) { inner(y + 1); }
    fn main() {
      #[label(secret)]
      let s = 1;
      outer(s);
    }
  )";
  EXPECT_FALSE(Analyze(src, Mode::kWholeProgram).ifc_ok);
  EXPECT_FALSE(Analyze(src, Mode::kSummaries).ifc_ok);
}

// An early return under a secret guard: reaching the emit reveals the
// guard. The join of the returning branch's env is what records that flow.
TEST(Ifc, EarlyReturnUnderSecretGuardFlaggedBothModes) {
  constexpr std::string_view src = R"(
    fn leak(s: int) -> int {
      let mut y = 0;
      if s > 0 {
        y = 1;
        return 7;
      }
      emit(stdout, y);
      return 0;
    }
    fn main() {
      #[label(alice)]
      let s = 1;
      let r = leak(s);
    }
  )";
  AnalysisResult whole = Analyze(src, Mode::kWholeProgram);
  EXPECT_FALSE(whole.ifc_ok);
  EXPECT_TRUE(whole.diags.Contains(Phase::kIfc, "alice"))
      << whole.diags.ToString();
  AnalysisResult sums = Analyze(src, Mode::kSummaries);
  EXPECT_FALSE(sums.ifc_ok);
  EXPECT_TRUE(sums.diags.Contains(Phase::kIfc, "alice"))
      << sums.diags.ToString();
}

// Runs `src` in both modes and expects each to flag a flow of alice's data.
void ExpectAliceLeakBothModes(std::string_view src) {
  for (Mode mode : {Mode::kWholeProgram, Mode::kSummaries}) {
    AnalysisResult r = Analyze(src, mode);
    EXPECT_FALSE(r.ifc_ok) << "mode " << static_cast<int>(mode);
    EXPECT_TRUE(r.diags.Contains(Phase::kIfc, "alice")) << r.diags.ToString();
  }
}

// The run takes the early return, so x keeps alice's label: the write after
// the return must not replace it in the &mut copy-back.
TEST(Ifc, MutArgumentKeptByAnEarlyReturnFlaggedBothModes) {
  ExpectAliceLeakBothModes(R"(
    fn clear(p: &mut int, c: int) {
      if c > 0 {
        return;
      }
      p = 0;
    }
    fn main() {
      #[label(alice)]
      let mut x = 1;
      clear(&mut x, 1);
      emit(stdout, x);
    }
  )");
}

// `&&` skips its rhs here, so the call that would clear x does not run.
TEST(Ifc, ShortCircuitedCallFlaggedBothModes) {
  ExpectAliceLeakBothModes(R"(
    fn clear(p: &mut int) -> int { p = 0; return 1; }
    fn main() {
      #[label(alice)]
      let mut x = 1;
      let z = 0;
      let b = z > 100 && clear(&mut x) > 0;
      emit(stdout, x);
    }
  )");
}

// Every field of the literal is evaluated before any is written: `w` takes
// the old `s.v`, alice's.
TEST(Ifc, StructLiteralReadsTheOldFieldFlaggedBothModes) {
  ExpectAliceLeakBothModes(R"(
    struct P { v: int, w: int }
    fn main() {
      #[label(alice)]
      let mut s = P { v: 1, w: 2 };
      s = P { v: 0, w: s.v };
      emit(stdout, s.w);
    }
  )");
}

// ---- Mode agreement (differential property) ------------------------------

class IfcModeAgreement : public ::testing::TestWithParam<const char*> {};

TEST_P(IfcModeAgreement, BothModesAgreeOnVerdict) {
  AnalysisResult whole = AnalyzeSource(GetParam(), Mode::kWholeProgram);
  AnalysisResult sums = AnalyzeSource(GetParam(), Mode::kSummaries);
  ASSERT_TRUE(whole.ownership_ok) << whole.diags.ToString();
  EXPECT_EQ(whole.ifc_ok, sums.ifc_ok)
      << "whole-program and summary modes disagree:\nwhole: "
      << whole.diags.ToString() << "\nsums: " << sums.diags.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Programs, IfcModeAgreement,
    ::testing::Values(
        // clean: arithmetic only
        "fn f(x: int) -> int { return x * 2; }"
        "fn main() { emit(stdout, f(21)); }",
        // leak through return
        "fn f(x: int) -> int { return x; }"
        "fn main() { #[label(a)] let s = 1; emit(stdout, f(s)); }",
        // leak through &mut
        "fn f(v: &mut vec, x: int) { push(&mut v, x); }"
        "fn main() { #[label(a)] let s = 1; let mut v = vec![];"
        "  f(&mut v, s); emit(stdout, v); }",
        // clean: secret stays internal
        "fn f(x: int) -> int { return 0; }"
        "fn main() { #[label(a)] let s = 1; emit(stdout, f(s)); }",
        // implicit flow inside callee
        "fn f(x: int) -> int { let mut r = 0; if x > 0 { r = 1; } return r; }"
        "fn main() { #[label(a)] let s = 1; emit(stdout, f(s)); }",
        // callee emits under caller-secret pc
        "fn shout() { emit(stdout, 1); }"
        "fn main() { #[label(a)] let s = 1; if s > 0 { shout(); } }"));

// ---- Degenerate programs --------------------------------------------------

TEST(Ifc, MissingMainDiagnosed) {
  AnalysisResult r = AnalyzeSource("fn not_main() { }");
  EXPECT_FALSE(r.ifc_ok);
  EXPECT_TRUE(r.diags.Contains(Phase::kIfc, "no 'main'"));
}

TEST(Ifc, MainWithParamsDiagnosed) {
  AnalysisResult r = AnalyzeSource("fn main(x: int) { }");
  EXPECT_FALSE(r.ifc_ok);
  EXPECT_TRUE(r.diags.Contains(Phase::kIfc, "no parameters"));
}

}  // namespace
}  // namespace ifc
