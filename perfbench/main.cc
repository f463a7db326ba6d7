// perfbench: runs one benchmark workload against the linsys library and
// prints its metrics. Usually started through run.py, which builds it:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--span-dir <dir>] [--repo-root <dir>] [--label key=value]...
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// workload's end-to-end set, with --trace 1 its per-layer set; run.py checks
// them against BENCHMARK.json. Any failed correctness check makes the exit
// code non-zero.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/bench_util.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

// Metrics must be finite to be written as JSON numbers.
void CheckFinite(std::vector<Metric>* metrics, RunResult* r) {
  for (Metric& m : *metrics) {
    if (!std::isfinite(m.value)) {
      r->Fail("metric not finite: " + m.name);
      m.value = 0.0;
    }
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fwd_min|nf_chain|ckpt_live|"
               "ifc_verify> --seed <n> --seconds <s> --trace <0|1> "
               "[--span-dir <dir>] [--repo-root <dir>] [--label k=v]...\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions opt;
  std::string workload;
  std::vector<std::pair<std::string, std::string>> labels;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = val == "1";
    } else if (arg == "--span-dir") {
      opt.span_dir = val;
    } else if (arg == "--repo-root") {
      opt.repo_root = val;
    } else if (arg == "--label") {
      const std::size_t eq = val.find('=');
      if (eq == std::string::npos) {
        return Usage();
      }
      labels.emplace_back(val.substr(0, eq), val.substr(eq + 1));
    } else {
      return Usage();
    }
  }
  if (!(opt.seconds > 0)) {
    return Usage();
  }
  RunResult r;
  if (IsPacketWorkload(workload)) {
    r = RunPacketWorkload(workload, opt);
  } else if (workload == "ifc_verify") {
    r = RunIfcWorkload(opt);
  } else {
    return Usage();
  }
  std::vector<Metric> metrics = opt.trace ? r.layers : r.end_to_end;
  CheckFinite(&metrics, &r);

  for (const std::string& n : r.notes) {
    std::printf("note: %s\n", n.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %16.6g %-6s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const std::string& e : r.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  labels.insert(labels.begin(),
                {{"workload", workload},
                 {"seed", std::to_string(opt.seed)},
                 {"seconds", JsonNumber(opt.seconds)},
                 {"trace", opt.trace ? "1" : "0"},
                 {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
                 {"cpu_model", CpuModel()},
                 {"build_type", PERFBENCH_BUILD_TYPE},
                 {"linsys_checked", PERFBENCH_CHECKED ? "ON" : "OFF"}});
  std::string lj = "{\"labels\": {";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    lj += (i ? ", " : "") + JsonString(labels[i].first) + ": " +
          JsonString(labels[i].second);
  }
  std::printf("%s}}\n", lj.c_str());

  std::string out = "{\"correct\": ";
  out += r.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
