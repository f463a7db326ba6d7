// Robustness: the RIL front end must never crash, hang, or accept-and-UB on
// garbage — it terminates with diagnostics on arbitrary byte soup and
// arbitrary token soup (randomized, seeded, hundreds of cases). Then a
// seeded differential test holds the analyses to the interpreter on
// well-typed generated programs.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/ifc/an/intervals.h"
#include "src/ifc/checker.h"
#include "src/ifc/ril/interp.h"
#include "src/util/rng.h"

namespace ril {
namespace {

class FuzzBytes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzBytes, RandomBytesNeverCrash) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    std::string soup;
    const std::size_t len = rng.Below(200);
    for (std::size_t i = 0; i < len; ++i) {
      soup.push_back(static_cast<char>(rng.Below(96) + 32));  // printable
    }
    ifc::AnalysisResult result = ifc::AnalyzeSource(soup);
    // Whatever happened, it terminated and produced a coherent verdict:
    // non-programs must not reach the IFC phase claiming success.
    if (result.AllOk()) {
      // It parsed as a valid program by chance (e.g. empty string is a
      // valid empty program missing main -> ifc fails, so AllOk means a
      // real main existed — astronomically unlikely but not wrong).
      SUCCEED();
    }
  }
}

TEST_P(FuzzBytes, RandomTokenSoupNeverCrashes) {
  static const char* kTokens[] = {
      "fn",   "let",  "mut",    "struct", "sink", "if",    "else",
      "while", "return", "true", "false",  "vec!", "emit",  "assert_label",
      "{",    "}",    "(",      ")",      "[",    "]",     ",",
      ";",    ":",    "->",     ".",      "&",    "=",     "==",
      "!=",   "<",    "<=",     ">",      ">=",   "+",     "-",
      "*",    "/",    "%",      "&&",     "||",   "!",     "#[label",
      "x",    "y",    "main",   "int",    "vec",  "42",    "0",
  };
  util::Rng rng(GetParam() * 7919);
  for (int round = 0; round < 200; ++round) {
    std::string soup;
    const std::size_t len = rng.Below(120);
    for (std::size_t i = 0; i < len; ++i) {
      soup += kTokens[rng.Below(std::size(kTokens))];
      soup += ' ';
    }
    (void)ifc::AnalyzeSource(soup);  // must terminate without crashing
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzBytes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Nasty specific inputs that have bitten real parsers.
TEST(FuzzRegression, PathologicalInputs) {
  const char* cases[] = {
      "",
      ";",
      "fn",
      "fn main(",
      "fn main() {",
      "fn main() { let x = ; }",
      "fn main() { ((((((((((1)))))))))); }",
      "fn main() { let x = 1 + + 2; }",
      "struct S { }",
      "struct S { x: }",
      "sink s: {;",
      "#[label(",
      "fn main() { #[label(a)] }",
      "fn main() { vec![vec![vec![]]]; }",
      "fn main() { x.y.z.w; }",
      "fn main() { 1 = 2; }",
      "fn f(x: &mut &mut int) { }",
      "fn main() { emit(, 1); }",
      "fn main() { } fn main() { }",
      "// only a comment",
  };
  for (const char* src : cases) {
    (void)ifc::AnalyzeSource(src);  // terminate, no crash
  }
  SUCCEED();
}

// Deep nesting must not blow the stack unreasonably (parser recursion is
// proportional to nesting depth; 500 parens is far beyond real programs).
TEST(FuzzRegression, DeepNestingTerminates) {
  std::string deep = "fn main() { let x = ";
  for (int i = 0; i < 500; ++i) {
    deep += "(";
  }
  deep += "1";
  for (int i = 0; i < 500; ++i) {
    deep += ")";
  }
  deep += "; }";
  ifc::AnalysisResult result = ifc::AnalyzeSource(deep);
  EXPECT_TRUE(result.parse_ok);
}

// ---- Seeded differential test: the interpreter is the oracle ---------------
//
// KRust's point: an executable semantics should be the oracle for the
// analyses. RilGen writes well-typed, ownership-clean RIL programs: straight
// line code, if/else with early returns, bounded while loops, calls passing
// int and struct params by value, by & and by &mut, #[label] lets, and
// constants near +-2^62 and +-INT64_MAX. Each program goes through the
// interval verifier, the IFC analyzer in both modes, and the interpreter.
class RilGen {
 public:
  explicit RilGen(std::uint64_t seed) : rng_(seed) {}

  std::string Program() {
    out_ = "sink alice_out: {alice};\nstruct P { v: int, w: int }\n";
    Function("f0", "a: int, b: int", "int", {Int("a", false), Int("b", false)});
    Function("f1", "p: &mut int, a: int", "",
             {Int("p", true), Int("a", false)});
    Function("f2", "q: &P, a: int", "int",
             {Struct("q", false), Int("a", false)});
    Function("f3", "q: &mut P, a: int", "",
             {Struct("q", true), Int("a", false)});
    Function("f4", "s: P", "int", {Struct("s", true, /*owned=*/true)});
    Function("f5", "p: &int", "int", {Int("p", false)});
    Function("f6", "p: &mut int, a: int", "int",
             {Int("p", true), Int("a", false)});
    Function("main", "", "", {});
    return out_;
  }

 private:
  struct Var {
    std::string name;
    bool is_struct = false;
    bool is_mut = false;    // assignable: `let mut` or a &mut parameter
    bool owned = false;     // a struct the function owns (may be moved)
    bool moved = false;
    bool counter = false;   // loop counter: the body only reads it
  };
  static Var Int(std::string name, bool is_mut) {
    return Var{std::move(name), false, is_mut};
  }
  static Var Struct(std::string name, bool is_mut, bool owned = false) {
    return Var{std::move(name), true, is_mut, owned};
  }

  void Function(const std::string& name, const std::string& params,
                const std::string& ret, std::vector<Var> vars) {
    vars_ = std::move(vars);
    returns_int_ = ret == "int";
    next_name_ = 0;
    loop_depth_ = 0;
    out_ += "fn " + name + "(" + params + ")" +
            (ret.empty() ? "" : " -> " + ret) + " {\n";
    Block(name == "main" ? 3 + rng_.Below(5) : 1 + rng_.Below(3), 0);
    if (returns_int_) {
      out_ += "return " + IntExpr(2, "") + ";\n";
    }
    out_ += "}\n";
    callable_.push_back(name);
  }

  void Block(std::uint64_t n, int depth) {
    const std::size_t scope = vars_.size();
    for (std::uint64_t i = 0; i < n; ++i) {
      Stmt(depth);
    }
    vars_.resize(scope);
  }

  std::string Fresh(const char* prefix) {
    return prefix + std::to_string(next_name_++);
  }

  bool Chance(std::uint64_t percent) { return rng_.Below(100) < percent; }

  // Picks a live variable matching `pred`, or nullptr.
  template <typename Pred>
  Var* Pick(Pred pred) {
    std::vector<Var*> live;
    for (Var& v : vars_) {
      if (!v.moved && pred(v)) {
        live.push_back(&v);
      }
    }
    return live.empty() ? nullptr : live[rng_.Below(live.size())];
  }

  // An int place (`x` or `s.f`) whose root is not `excl`.
  std::string IntPlace(bool want_mut, const std::string& excl) {
    Var* v = Pick([&](const Var& c) {
      return c.name != excl && (!want_mut || (c.is_mut && !c.counter));
    });
    if (v == nullptr) {
      return "";
    }
    return v->is_struct ? v->name + (Chance(50) ? ".v" : ".w") : v->name;
  }

  bool Callable(const char* fn) const {
    for (const std::string& c : callable_) {
      if (c == fn) {
        return true;
      }
    }
    return false;
  }

  std::string Literal() {
    static const char* kEdges[] = {
        "4611686018427387904",  "4611686018427387903",
        "9223372036854775807",  "9223372036854775806",
        "-4611686018427387904", "-9223372036854775807",
        "(0 - 9223372036854775807)",
    };
    if (Chance(12)) {
      return kEdges[rng_.Below(std::size(kEdges))];
    }
    return std::to_string(static_cast<int>(rng_.Below(16)) - 3);
  }

  std::string IntExpr(int depth, const std::string& excl) {
    const std::uint64_t pick = depth <= 0 ? rng_.Below(2) : rng_.Below(10);
    switch (pick) {
      case 0:
        return Literal();
      case 1: {
        std::string place = IntPlace(false, excl);
        return place.empty() ? Literal() : place;
      }
      case 2:
      case 3:
      case 4: {
        static const char* kOps[] = {" + ", " - ", " * ", " + ", " - ",
                                     " * ", " + ", " / ", " % "};
        std::string lhs = IntExpr(depth - 1, excl);
        const char* op = kOps[rng_.Below(std::size(kOps))];
        return "(" + lhs + op + IntExpr(depth - 1, excl) + ")";
      }
      case 5:
        return "(-(" + IntExpr(depth - 1, excl) + "))";
      case 6:
        return Chance(40) ? CheckRange(depth - 1, excl) : Literal();
      default:
        return CallExpr(depth - 1, excl);
    }
  }

  std::string StructLit(int depth, const std::string& excl) {
    std::string v = IntExpr(depth, excl);
    return "P { v: " + v + ", w: " + IntExpr(depth, excl) + " }";
  }

  std::string CheckRange(int depth, const std::string& excl) {
    static const char* kBounds[][2] = {
        {"0", "10"},
        {"-10", "10"},
        {"0", "100"},
        {"1", "1000"},
        {"0", "9223372036854775807"},
        {"1", "9223372036854775807"},
        {"-9223372036854775807", "9223372036854775807"},
        {"9223372036854775806", "9223372036854775807"},
        {"9223372036854775807", "9223372036854775807"},
        {"-4611686018427387904", "4611686018427387904"},
        {"-4611686018427387904", "4611686018427387904"},
        {"-9223372036854775807", "9223372036854775807"},
        {"-9223372036854775807", "9223372036854775807"},
    };
    std::string lo;
    std::string hi;
    if (Chance(20)) {
      const int c = static_cast<int>(rng_.Below(16)) - 3;
      const int width = static_cast<int>(rng_.Below(4));
      lo = std::to_string(c);
      hi = std::to_string(c + width);
    } else {
      const auto& b = kBounds[rng_.Below(std::size(kBounds))];
      lo = b[0];
      hi = b[1];
    }
    return "check_range(" + IntExpr(depth, excl) + ", " + lo + ", " + hi + ")";
  }

  // A call returning int, or a fallback expression when none applies. Calls
  // to f6 write through &mut from inside an expression, so a condition may
  // hold one in an operand that && or || skips.
  std::string CallExpr(int depth, const std::string& excl) {
    switch (rng_.Below(5)) {
      case 0:
        if (Callable("f0")) {
          std::string a = IntExpr(depth, excl);
          return "f0(" + a + ", " + IntExpr(depth, excl) + ")";
        }
        break;
      case 1:
        if (Callable("f2")) {
          if (Var* s = Pick([&](const Var& c) {
                return c.is_struct && c.name != excl;
              })) {
            return "f2(&" + s->name + ", " + IntExpr(depth, s->name) + ")";
          }
        }
        break;
      case 2:
        if (Callable("f4")) {
          if (Var* s = Pick([&](const Var& c) {
                return c.owned && c.name != excl;
              });
              s != nullptr && loop_depth_ == 0 && Chance(30)) {
            s->moved = true;
            return "f4(" + s->name + ")";
          }
          return "f4(" + StructLit(depth, excl) + ")";
        }
        break;
      case 3:
        if (Callable("f5")) {
          std::string place = IntPlace(false, excl);
          if (!place.empty()) {
            return "f5(&" + place + ")";
          }
        }
        break;
      default:
        if (Callable("f6")) {
          std::string place = IntPlace(true, excl);
          if (!place.empty()) {
            const std::string root = place.substr(0, place.find('.'));
            return "f6(&mut " + place + ", " + IntExpr(depth, root) + ")";
          }
        }
        break;
    }
    return IntExpr(depth, excl);
  }

  std::string Cond(int depth) {
    static const char* kCmp[] = {" < ", " <= ", " > ", " >= ", " == ", " != "};
    switch (depth <= 0 ? 0 : rng_.Below(6)) {
      case 4: {
        std::string lhs = Cond(depth - 1);
        const char* op = Chance(50) ? " && " : " || ";
        return "(" + lhs + op + Cond(depth - 1) + ")";
      }
      case 5:
        return "!(" + Cond(depth - 1) + ")";
      default: {
        std::string lhs = IntExpr(1, "");
        const char* op = kCmp[rng_.Below(std::size(kCmp))];
        return "(" + lhs + op + IntExpr(1, "") + ")";
      }
    }
  }

  void Stmt(int depth) {
    switch (rng_.Below(14)) {
      case 0:
      case 1:
        break;  // an int let, below
      case 2: {
        // The value first: it may move a struct the place then names.
        std::string value = IntExpr(2, "");
        std::string place = IntPlace(true, "");
        if (!place.empty()) {
          out_ += place + " = " + value + ";\n";
          return;
        }
        break;
      }
      case 3:
        StructStmt();
        return;
      case 4: {
        const char* sink = Chance(50) ? "stdout" : "alice_out";
        out_ += "emit(" + std::string(sink) + ", " + IntExpr(2, "") + ");\n";
        return;
      }
      case 5: {
        std::string name = Fresh("c");
        out_ += "let " + name + " = " + CheckRange(2, "") + ";\n";
        vars_.push_back(Int(name, false));
        return;
      }
      case 6:
        if (CallStmt()) {
          return;
        }
        break;
      case 7:
        if (depth > 0) {
          out_ += returns_int_ ? "return " + IntExpr(2, "") + ";\n"
                               : std::string("return;\n");
          return;
        }
        break;
      case 8:
      case 9:
      case 10:
        if (depth < 2) {
          out_ += "if " + Cond(2) + " {\n";
          Block(1 + rng_.Below(2), depth + 1);
          if (Chance(50)) {
            out_ += "} else {\n";
            Block(1 + rng_.Below(2), depth + 1);
          }
          out_ += "}\n";
          return;
        }
        break;
      default:
        if (loop_depth_ == 0) {
          std::string i = Fresh("i");
          out_ += "let mut " + i + " = 0;\nwhile " + i + " < " +
                  std::to_string(1 + rng_.Below(4)) + " {\n";
          Var counter = Int(i, true);
          counter.counter = true;
          vars_.push_back(counter);
          ++loop_depth_;
          Block(1 + rng_.Below(2), depth + 1);
          --loop_depth_;
          out_ += i + " = " + i + " + 1;\n}\n";
          return;
        }
        break;
    }
    if (Chance(20)) {
      out_ += "#[label(alice)]\n";
    }
    const bool is_mut = Chance(70);
    std::string name = Fresh("x");
    out_ += std::string("let ") + (is_mut ? "mut " : "") + name + " = " +
            IntExpr(2, "") + ";\n";
    vars_.push_back(Int(name, is_mut));
  }

  // A struct let, a whole-struct reassignment, or a struct move.
  void StructStmt() {
    if (Chance(50)) {
      std::string value = StructLit(2, "");
      if (Var* s = Pick([](const Var& c) { return c.is_struct && c.is_mut; })) {
        out_ += s->name + " = " + value + ";\n";
        return;
      }
    }
    std::string name = Fresh("s");
    if (Var* s = Pick([](const Var& c) { return c.owned; });
        s != nullptr && loop_depth_ == 0 && Chance(30)) {
      s->moved = true;
      out_ += "let mut " + name + " = " + s->name + ";\n";
    } else {
      if (Chance(20)) {
        out_ += "#[label(alice)]\n";
      }
      out_ += "let mut " + name + " = " + StructLit(2, "") + ";\n";
    }
    vars_.push_back(Struct(name, true, /*owned=*/true));
  }

  // f1(&mut int place, a) or f3(&mut struct, a); false when neither fits.
  bool CallStmt() {
    if (Callable("f1") && Chance(50)) {
      std::string place = IntPlace(true, "");
      if (!place.empty()) {
        const std::string root = place.substr(0, place.find('.'));
        out_ += "f1(&mut " + place + ", " + IntExpr(2, root) + ");\n";
        return true;
      }
    }
    if (Callable("f3")) {
      if (Var* s = Pick([](const Var& c) { return c.is_struct && c.is_mut; })) {
        out_ += "f3(&mut " + s->name + ", " + IntExpr(2, s->name) + ");\n";
        return true;
      }
    }
    return false;
  }

  util::Rng rng_;
  std::string out_;
  std::vector<Var> vars_;
  std::vector<std::string> callable_;
  bool returns_int_ = false;
  int next_name_ = 0;
  int loop_depth_ = 0;
};

// Two properties over a few thousand generated programs:
//   * every check_range and divisor the interval verifier proves holds in
//     every run that reaches it (a run stops at its first runtime error, so
//     a failing check_range or division is unsound iff the verifier raised
//     no diagnostic at that position);
//   * every program IfcAnalyzer accepts, in either mode, emits nothing the
//     interpreter's taint monitor flags.
TEST(Differential, AnalysesAgreeWithTheInterpreter) {
  constexpr int kPrograms = 3000;
  int runs_trapped = 0;
  int range_checks_failed = 0;
  int ifc_accepted = 0;
  int unsound_ranges = 0;
  int unsound_ifc = 0;
  std::string first_unsound;
  util::Rng seeds(0x5eed);
  for (int n = 0; n < kPrograms; ++n) {
    const std::string src = RilGen(seeds.Next()).Program();
    ifc::AnalysisResult whole = ifc::AnalyzeSource(src);
    ASSERT_TRUE(whole.ownership_ok)
        << "generator wrote an ill-formed program:\n"
        << src << whole.diags.ToString();
    Diagnostics sum_diags;
    const bool sums_ok =
        ifc::IfcAnalyzer(&whole.program, &sum_diags, ifc::Mode::kSummaries)
            .Verify();
    Diagnostics range_diags;
    (void)ifc::VerifyRanges(whole.program, &range_diags);

    Diagnostics run_diags;
    Interpreter interp(&whole.program, &run_diags);
    if (!interp.Run()) {
      ++runs_trapped;
      const Diag& trap = run_diags.all().back();
      if (trap.message.find("check_range failed") != std::string::npos ||
          trap.message.find("division by zero") != std::string::npos) {
        ++range_checks_failed;
        bool flagged = false;
        for (const Diag& d : range_diags.all()) {
          flagged |= d.line == trap.line && d.col == trap.col;
        }
        if (!flagged) {
          ++unsound_ranges;
          if (first_unsound.empty()) {
            first_unsound = "range verifier proved " + trap.ToString() +
                            "\n" + src;
          }
        }
      }
    }
    if (whole.ifc_ok || sums_ok) {
      ++ifc_accepted;
      for (const EmitRecord& out : interp.outputs()) {
        if (out.violation) {
          ++unsound_ifc;
          if (first_unsound.empty()) {
            first_unsound = std::string("IFC accepted (") +
                            (whole.ifc_ok ? "whole-program" : "summaries") +
                            ") a run that leaks to " + out.sink + "\n" + src;
          }
          break;
        }
      }
    }
  }
  std::printf(
      "differential: %d programs, %d runs trapped, %d on a check_range or "
      "divisor, %d IFC-accepted; unsound: %d range, %d IFC\n",
      kPrograms, runs_trapped, range_checks_failed, ifc_accepted,
      unsound_ranges, unsound_ifc);
  EXPECT_EQ(unsound_ranges, 0) << first_unsound;
  EXPECT_EQ(unsound_ifc, 0) << first_unsound;
}

}  // namespace
}  // namespace ril
