// The concrete RIL interpreter: execution semantics, dynamic move
// enforcement, the runtime taint monitor, and the differential property
// against the static analyzer (static-clean => no runtime violation; the
// converse fails for implicit flows, as §4 predicts).
#include "src/ifc/ril/interp.h"

#include <gtest/gtest.h>

#include "src/ifc/checker.h"

namespace ril {
namespace {

struct RunResult {
  ifc::AnalysisResult analysis;
  Diagnostics run_diags;
  std::vector<EmitRecord> outputs;
  bool ran_ok = false;
};

// Parses + type checks + runs (skipping ownership/IFC gates so that
// deliberately-buggy programs can still execute for the dynamic tests).
RunResult RunProgram(std::string_view src) {
  RunResult r;
  r.analysis = ifc::AnalyzeSource(src);
  EXPECT_TRUE(r.analysis.parse_ok) << r.analysis.diags.ToString();
  EXPECT_TRUE(r.analysis.type_ok) << r.analysis.diags.ToString();
  Interpreter interp(&r.analysis.program, &r.run_diags);
  r.ran_ok = interp.Run();
  r.outputs = interp.outputs();
  return r;
}

TEST(Interp, ArithmeticAndPrint) {
  RunResult r = RunProgram(R"(
    fn main() {
      let x = 2 + 3 * 4;
      emit(stdout, x);
      emit(stdout, x % 5);
      emit(stdout, 0 - 7);
    }
  )");
  ASSERT_TRUE(r.ran_ok) << r.run_diags.ToString();
  ASSERT_EQ(r.outputs.size(), 3u);
  EXPECT_EQ(r.outputs[0].rendered, "14");
  EXPECT_EQ(r.outputs[1].rendered, "4");
  EXPECT_EQ(r.outputs[2].rendered, "-7");
}

TEST(Interp, VecBuiltins) {
  RunResult r = RunProgram(R"(
    fn main() {
      let mut v = vec![1, 2];
      push(&mut v, 3);
      let mut w = vec![4, 5];
      append(&mut w, clone(&v));
      emit(stdout, w);
      emit(stdout, len(&w));
      emit(stdout, w[0] + w[4]);
    }
  )");
  ASSERT_TRUE(r.ran_ok) << r.run_diags.ToString();
  EXPECT_EQ(r.outputs[0].rendered, "[4, 5, 1, 2, 3]");
  EXPECT_EQ(r.outputs[1].rendered, "5");
  EXPECT_EQ(r.outputs[2].rendered, "7");
}

TEST(Interp, ControlFlow) {
  RunResult r = RunProgram(R"(
    fn main() {
      let mut total = 0;
      let mut i = 1;
      while i <= 10 {
        if i % 2 == 0 { total = total + i; }
        i = i + 1;
      }
      emit(stdout, total);
    }
  )");
  ASSERT_TRUE(r.ran_ok);
  EXPECT_EQ(r.outputs[0].rendered, "30");
}

TEST(Interp, FunctionsAndMutRefs) {
  RunResult r = RunProgram(R"(
    struct Counter { n: int }
    fn bump(c: &mut Counter, by: int) -> int {
      c.n = c.n + by;
      return c.n;
    }
    fn main() {
      let mut c = Counter { n: 10 };
      let a = bump(&mut c, 5);
      let b = bump(&mut c, 1);
      emit(stdout, a);
      emit(stdout, b);
      emit(stdout, c.n);
    }
  )");
  ASSERT_TRUE(r.ran_ok) << r.run_diags.ToString();
  EXPECT_EQ(r.outputs[0].rendered, "15");
  EXPECT_EQ(r.outputs[1].rendered, "16");
  EXPECT_EQ(r.outputs[2].rendered, "16");
}

TEST(Interp, StructRendering) {
  RunResult r = RunProgram(R"(
    struct P { x: int, flag: bool }
    fn main() {
      let p = P { x: 3, flag: true };
      emit(stdout, p);
    }
  )");
  ASSERT_TRUE(r.ran_ok);
  EXPECT_EQ(r.outputs[0].rendered, "{x: 3, flag: true}");
}

TEST(Interp, ShortCircuitEvaluation) {
  RunResult r = RunProgram(R"(
    fn main() {
      let v = vec![1];
      let safe = len(&v) == 0 || v[0] == 1;  // rhs only if len > 0
      let skip = len(&v) == 0 && v[99] == 1; // rhs must not run
      emit(stdout, safe);
      emit(stdout, skip);
    }
  )");
  ASSERT_TRUE(r.ran_ok) << r.run_diags.ToString();
  EXPECT_EQ(r.outputs[0].rendered, "true");
  EXPECT_EQ(r.outputs[1].rendered, "false");
}

TEST(Interp, RuntimeMoveEnforcement) {
  // This program fails the static ownership check; running it anyway shows
  // the dynamic tombstone catching the same bug.
  RunResult r = RunProgram(R"(
    fn take(v: vec) { }
    fn main() {
      let v = vec![1];
      take(v);
      emit(stdout, v);
    }
  )");
  EXPECT_FALSE(r.analysis.ownership_ok);
  EXPECT_FALSE(r.ran_ok);
  EXPECT_TRUE(r.run_diags.Contains(Phase::kRuntime, "use of moved value"));
}

TEST(Interp, IndexOutOfBoundsIsRuntimeError) {
  RunResult r = RunProgram("fn main() { let v = vec![1]; emit(stdout, v[5]); }");
  EXPECT_FALSE(r.ran_ok);
  EXPECT_TRUE(r.run_diags.Contains(Phase::kRuntime, "out of bounds"));
}

TEST(Interp, DivisionByZeroIsRuntimeError) {
  RunResult r = RunProgram("fn main() { let x = 1 / 0; }");
  EXPECT_FALSE(r.ran_ok);
  EXPECT_TRUE(r.run_diags.Contains(Phase::kRuntime, "division by zero"));
}

// RIL ints are int64 with Rust debug-build semantics: overflow traps.
TEST(Interp, SignedOverflowIsRuntimeError) {
  // ROADMAP item 6: the product wraps to INT64_MIN on host arithmetic; the
  // run must stop at the overflow, not at the check.
  RunResult big = RunProgram(R"(
    fn main() {
      let big = 4611686018427387904;
      let x = big * 2;
      let z = check_range(x, 1, 9223372036854775807);
      emit(stdout, z);
    }
  )");
  EXPECT_FALSE(big.ran_ok);
  EXPECT_TRUE(big.run_diags.Contains(Phase::kRuntime, "integer overflow"))
      << big.run_diags.ToString();
  EXPECT_FALSE(big.run_diags.Contains(Phase::kRuntime, "check_range"));
  EXPECT_TRUE(big.outputs.empty());

  const char* kMin = "(0 - 9223372036854775807 - 1)";
  for (const std::string& e :
       {std::string("9223372036854775807 + 1"), std::string(kMin) + " - 1",
        std::string("4611686018427387904 * 2"),
        std::string(kMin) + " / (0 - 1)", std::string(kMin) + " % (0 - 1)",
        "-" + std::string(kMin)}) {
    RunResult r = RunProgram("fn main() { let x = " + e + "; }");
    EXPECT_FALSE(r.ran_ok) << e;
    EXPECT_TRUE(r.run_diags.Contains(Phase::kRuntime, "integer overflow"))
        << e << ": " << r.run_diags.ToString();
  }
  RunResult edge = RunProgram(
      std::string("fn main() { emit(stdout, ") + kMin + "); emit(stdout, " +
      kMin + " / 2); emit(stdout, 9223372036854775807 - 1); }");
  ASSERT_TRUE(edge.ran_ok) << edge.run_diags.ToString();
  EXPECT_EQ(edge.outputs[0].rendered, "-9223372036854775808");
  EXPECT_EQ(edge.outputs[1].rendered, "-4611686018427387904");
  EXPECT_EQ(edge.outputs[2].rendered, "9223372036854775806");
}

TEST(Interp, StepLimitStopsRunawayLoops) {
  Diagnostics diags;
  ifc::AnalysisResult a = ifc::AnalyzeSource(
      "fn main() { let mut i = 0; while i == 0 { i = 0; } }");
  ASSERT_TRUE(a.type_ok);
  Interpreter interp(&a.program, &diags);
  interp.set_step_limit(10'000);
  EXPECT_FALSE(interp.Run());
  EXPECT_TRUE(diags.Contains(Phase::kRuntime, "step limit"));
}

// ---- Runtime taint monitor ------------------------------------------------

TEST(InterpTaint, ExplicitFlowCaughtAtRuntime) {
  RunResult r = RunProgram(R"(
    fn main() {
      #[label(secret)]
      let s = 5;
      emit(stdout, s + 1);
    }
  )");
  ASSERT_TRUE(r.ran_ok);
  ASSERT_EQ(r.outputs.size(), 1u);
  EXPECT_TRUE(r.outputs[0].violation);
  EXPECT_TRUE(r.run_diags.Contains(Phase::kRuntime, "runtime IFC violation"));
}

TEST(InterpTaint, SinkBoundsRespected) {
  RunResult r = RunProgram(R"(
    sink alice_out: {alice};
    fn main() {
      #[label(alice)]
      let a = 1;
      emit(alice_out, a);
    }
  )");
  ASSERT_TRUE(r.ran_ok);
  EXPECT_FALSE(r.outputs[0].violation) << r.run_diags.ToString();
}

TEST(InterpTaint, TaintFlowsThroughVecsAndCalls) {
  RunResult r = RunProgram(R"(
    fn stash(v: &mut vec, x: int) { push(&mut v, x); }
    fn main() {
      #[label(secret)]
      let s = 3;
      let mut v = vec![];
      stash(&mut v, s);
      emit(stdout, len(&v));
    }
  )");
  ASSERT_TRUE(r.ran_ok);
  EXPECT_TRUE(r.outputs[0].violation)
      << "len() of a tainted vec is tainted";
}

TEST(InterpTaint, TakenImplicitBranchCaught) {
  RunResult r = RunProgram(R"(
    fn main() {
      #[label(secret)]
      let s = 1;
      let mut leak = 0;
      if s == 1 { leak = 1; }
      emit(stdout, leak);
    }
  )");
  ASSERT_TRUE(r.ran_ok);
  EXPECT_TRUE(r.outputs[0].violation)
      << "the write happened under a tainted pc";
}

// The paper's core argument for *static* checking: "to prevent leaks arising
// from the program paths not taken at run time". The monitor misses this
// leak (s==2, so no tainted write executes, yet `leak` still reveals that s
// != 1); the static analyzer catches it.
TEST(InterpTaint, UntakenPathLeakMissedDynamicallyCaughtStatically) {
  constexpr std::string_view src = R"(
    fn main() {
      #[label(secret)]
      let s = 2;
      let mut leak = 0;
      if s == 1 { leak = 1; }
      emit(stdout, leak);
    }
  )";
  RunResult r = RunProgram(src);
  ASSERT_TRUE(r.ran_ok);
  EXPECT_FALSE(r.outputs[0].violation)
      << "dynamic monitor is blind to the untaken branch";
  EXPECT_FALSE(r.analysis.ifc_ok)
      << "static analysis must flag it regardless of the input";
}

// Differential property: a statically-clean program never produces a
// runtime violation.
class StaticCleanImpliesRuntimeClean
    : public ::testing::TestWithParam<const char*> {};

TEST_P(StaticCleanImpliesRuntimeClean, Holds) {
  RunResult r = RunProgram(GetParam());
  ASSERT_TRUE(r.analysis.AllOk()) << r.analysis.diags.ToString();
  ASSERT_TRUE(r.ran_ok) << r.run_diags.ToString();
  for (const EmitRecord& out : r.outputs) {
    EXPECT_FALSE(out.violation) << out.sink << " <- " << out.rendered;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, StaticCleanImpliesRuntimeClean,
    ::testing::Values(
        "fn main() { emit(stdout, 1 + 2); }",
        "sink s_out: {secret};"
        "fn main() { #[label(secret)] let s = 1; emit(s_out, s); }",
        "fn main() { #[label(secret)] let mut s = 1; s = 0;"
        "  emit(stdout, s); }",
        "fn double(x: int) -> int { return x * 2; }"
        "fn main() { emit(stdout, double(4)); }",
        "struct M { p: vec, q: vec }"
        "fn main() { #[label(t)] let sec = vec![1];"
        "  let m = M { p: vec![2], q: sec }; emit(stdout, m.p); }"));

}  // namespace
}  // namespace ril
