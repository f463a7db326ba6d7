// ifc_verify: a single-thread closed loop over a fixed corpus of RIL
// programs, each analysed end to end (parse → types → ownership → IFC).
// Analysis times are the analysing thread's CPU time (ThreadCpuNs): the work
// is one thread's computation, and on a shared host the wall clock also
// counts the stretches in which the hypervisor ran another guest on its
// vCPU.
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/bench_util.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/ifc/an/abstract.h"
#include "src/ifc/checker.h"
#include "src/ifc/programs.h"
#include "src/ifc/ril/ownership.h"
#include "src/ifc/ril/parser.h"
#include "src/ifc/ril/types.h"

namespace perfbench {
namespace {

constexpr std::size_t kSetupReps = 51;  // timed corpus loads per CPU
// The analysing thread moves to the next allowed CPU every slice.
constexpr std::uint64_t kSliceNs = 250'000'000;

// The verdict the checker must reach on a corpus program.
enum class Verdict {
  kVerifies,          // every phase passes
  kIfcRejected,       // parses, types, owns; the IFC phase rejects it
  kOwnershipRejected  // parses and types; the ownership phase rejects it
};

struct Program {
  std::string name;
  std::string source;
  ifc::Mode mode;
  Verdict expect;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// Corpus load: the repository's example programs plus the generated ones.
bool LoadCorpus(const std::string& root, std::vector<Program>* corpus,
                std::string* error) {
  corpus->clear();
  corpus->push_back({"secure_store", std::string(ifc::kSecureStoreSource),
                     ifc::Mode::kWholeProgram, Verdict::kVerifies});
  corpus->push_back({"seeded_bug", std::string(ifc::kSecureStoreSeededBug),
                     ifc::Mode::kWholeProgram, Verdict::kIfcRejected});
  for (int depth = 10; depth <= 12; ++depth) {
    const std::string src = ifc::GenerateLayeredProgram(depth, 2);
    const std::string d = std::to_string(depth);
    corpus->push_back({"layered_d" + d + "_whole", src,
                       ifc::Mode::kWholeProgram, Verdict::kVerifies});
    corpus->push_back({"layered_d" + d + "_summaries", src,
                       ifc::Mode::kSummaries, Verdict::kVerifies});
  }
  const struct {
    const char* file;
    Verdict expect;
  } files[] = {
      {"buffer_leak.ril", Verdict::kOwnershipRejected},
      {"secure_store.ril", Verdict::kVerifies},
      {"seeded_bug.ril", Verdict::kIfcRejected},
      {"verified_clamp.ril", Verdict::kVerifies},
  };
  for (const auto& f : files) {
    Program p{f.file, "", ifc::Mode::kWholeProgram, f.expect};
    const std::string path = root + "/examples/ril/" + f.file;
    if (!ReadFile(path, &p.source)) {
      *error = "cannot read " + path;
      return false;
    }
    corpus->push_back(std::move(p));
  }
  return true;
}

bool Matches(Verdict expect, bool parse, bool types, bool own, bool flow) {
  switch (expect) {
    case Verdict::kVerifies:
      return parse && types && own && flow;
    case Verdict::kIfcRejected:
      return parse && types && own && !flow;
    case Verdict::kOwnershipRejected:
      return parse && types && !own;
  }
  return false;
}

struct Pass {
  double parse_ns = 0;
  double types_ns = 0;
  double ownership_ns = 0;
  double analyze_ns = 0;
};

// The traced path: AnalyzeSource's phases called one by one, each in a span.
bool AnalyzeTraced(const Program& p, Tracer* tracer,
                   const std::uint16_t names[5], Pass* pass) {
  SpanScope whole(tracer, names[0], 0, 1);
  auto timed = [&](std::uint16_t name, double* acc, auto&& fn) {
    const std::uint64_t t = ThreadCpuNs();
    bool ok;
    {
      SpanScope span(tracer, name, 0, 1);
      ok = fn();
    }
    *acc += static_cast<double>(ThreadCpuNs() - t);
    return ok;
  };
  ril::Diagnostics diags;
  ril::Program program;
  const bool parse = timed(names[1], &pass->parse_ns, [&] {
    program = ril::Parser::Parse(p.source, &diags);
    return !diags.HasErrors();
  });
  const bool types = parse && timed(names[2], &pass->types_ns, [&] {
    ril::TypeChecker checker(&program, &diags);
    return checker.Check();
  });
  const bool own = types && timed(names[3], &pass->ownership_ns, [&] {
    ril::OwnershipChecker checker(&program, &diags);
    return checker.Check();
  });
  const bool flow = own && timed(names[4], &pass->analyze_ns, [&] {
    ifc::IfcAnalyzer analyzer(&program, &diags, p.mode);
    return analyzer.Verify();
  });
  return Matches(p.expect, parse, types, own, flow);
}

struct IfcRun {
  RunResult result;
  double setup_s = 0;
  std::uint64_t programs = 0;
  // Per full corpus pass (a window): programs per CPU second, and the median
  // and p99 of the programs' analysis times.
  std::vector<double> rate;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<Pass> passes;  // traced: phase totals per pass
  std::uint64_t dropped_spans = 0;
};

IfcRun Measure(const RunOptions& opt, double seconds, bool traced) {
  IfcRun run;
  std::vector<Program> corpus;
  std::string error;
  bool loaded = true;
  run.setup_s = FastestCpuMedianSeconds(
      kSetupReps,
      [&] { loaded = LoadCorpus(opt.repo_root, &corpus, &error) && loaded; },
      [] {});
  if (!loaded) {
    run.result.Fail(error);
    return run;
  }

  std::unique_ptr<Tracer> tracer;
  std::uint16_t names[5] = {};
  if (traced) {
    tracer = std::make_unique<Tracer>(1, std::size_t{1} << 18);
    const char* phases[5] = {"ifc.program", "ifc.parse", "ifc.types",
                             "ifc.ownership", "ifc.analyze"};
    for (int i = 0; i < 5; ++i) {
      names[i] = tracer->Name(phases[i]);
    }
  }
  // The corpus runs in a seed-dependent rotation, so runs with different
  // seeds interleave the programs differently.
  const std::size_t offset = static_cast<std::size_t>(Mix64(opt.seed) %
                                                      corpus.size());
  // The thread visits every allowed CPU in turn, a slice on each. On a shared
  // host one vCPU can run slower than the others for minutes; the run
  // reports its best decile of passes, which then comes from the CPUs that
  // were not. The first pass after each move warms the caches and is not
  // counted.
  const std::vector<int> cpus = AllowedCpus();
  std::size_t slice = 0;
  PinThisThread({cpus[0]});
  const std::uint64_t t0 = NowNs();
  std::uint64_t slice_end = t0 + kSliceNs;
  bool warming = true;
  const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  Pass pass;
  std::vector<double> program_us;
  std::uint64_t pass_start = ThreadCpuNs();
  while (NowNs() < end) {
    const Program& p = corpus[(offset + run.programs) % corpus.size()];
    const std::uint64_t t = ThreadCpuNs();
    bool ok;
    if (traced) {
      ok = AnalyzeTraced(p, tracer.get(), names, &pass);
    } else {
      const ifc::AnalysisResult a = ifc::AnalyzeSource(p.source, p.mode);
      ok = Matches(p.expect, a.parse_ok, a.type_ok, a.ownership_ok, a.ifc_ok);
    }
    program_us.push_back(static_cast<double>(ThreadCpuNs() - t) / 1e3);
    ++run.programs;
    if (!ok) {
      ++run.result.failed;
      run.result.Fail("wrong verdict on " + p.name);
    }
    if (program_us.size() == corpus.size()) {
      if (!warming) {
        run.rate.push_back(static_cast<double>(corpus.size()) * 1e9 /
                           static_cast<double>(ThreadCpuNs() - pass_start));
        run.p50_us.push_back(Quantile(program_us, 0.5));
        run.p99_us.push_back(Quantile(program_us, 0.99));
        run.passes.push_back(pass);
      }
      program_us.clear();
      pass = Pass{};
      warming = false;
      if (NowNs() >= slice_end) {
        PinThisThread({cpus[++slice % cpus.size()]});
        slice_end = NowNs() + kSliceNs;
        warming = true;
      }
      pass_start = ThreadCpuNs();
    }
  }
  PinThisThread(cpus);
  run.result.attempted = run.programs;
  if (run.rate.empty()) {
    run.result.Fail("no full corpus pass completed");
  }
  if (traced) {
    run.dropped_spans = tracer->dropped();
  }
  if (traced && !opt.span_dir.empty()) {
    const std::string path = opt.span_dir + "/spans-ifc_verify.tsv";
    if (!tracer->WriteTsv(path)) {
      run.result.notes.push_back("could not write " + path);
    }
  }
  return run;
}

}  // namespace

RunResult RunIfcWorkload(const RunOptions& opt) {
  if (!opt.trace) {
    IfcRun run = Measure(opt, opt.seconds, false);
    RunResult r = std::move(run.result);
    r.end_to_end = {
        {"setup_s", run.setup_s, "s", kSetupReps},
        {"throughput_per_s", BestDecileOfRates(run.rate), "1/s",
         run.rate.size()},
        {"latency_p50_us", BestDecileOfTimes(run.p50_us), "us",
         run.programs},
        {"peak_rss_mb", PeakRssMb(), "MB", 1},
    };
    return r;
  }
  IfcRun plain = Measure(opt, opt.seconds / 2, false);
  IfcRun traced = Measure(opt, opt.seconds / 2, true);
  RunResult r = std::move(traced.result);
  for (std::string& e : plain.result.errors) {
    r.Fail("untraced half: " + e);
  }
  r.attempted += plain.result.attempted;
  r.failed += plain.result.failed;
  std::vector<double> parse;
  std::vector<double> types;
  std::vector<double> own;
  std::vector<double> analyze;
  for (const Pass& p : traced.passes) {
    parse.push_back(p.parse_ns / 1e6);
    types.push_back(p.types_ns / 1e6);
    own.push_back(p.ownership_ns / 1e6);
    analyze.push_back(p.analyze_ns / 1e6);
  }
  const std::uint64_t n = traced.passes.size();
  r.layers = {
      {"ifc.parse_ms", Median(parse), "ms", n},
      {"ifc.types_ms", Median(types), "ms", n},
      {"ifc.ownership_ms", Median(own), "ms", n},
      {"ifc.analyze_ms", Median(analyze), "ms", n},
      {"latency.p99_us", BestDecileOfTimes(plain.p99_us), "us",
       plain.programs},
      {"trace.overhead_frac",
       plain.rate.empty() || traced.rate.empty()
           ? 0.0
           : 1.0 - BestDecileOfRates(traced.rate) /
                       BestDecileOfRates(plain.rate),
       "ratio", 2},
      {"trace.dropped_spans", static_cast<double>(traced.dropped_spans),
       "count", 1},
  };
  return r;
}

}  // namespace perfbench
