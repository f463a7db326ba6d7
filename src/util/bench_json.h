// Machine-readable bench output.
//
// Every self-timing bench harness prints a human table AND writes a
// BENCH_<name>.json file next to it, so the perf trajectory accumulates
// across commits instead of living in scrollback. The file carries the git
// revision the build was configured from, the build flags that matter for
// comparability (checked-ownership mode), free-form labels, and a metrics
// map whose values are either scalars or full util::Samples summaries.
// Every report carries a host_cores label (std::thread::hardware_concurrency,
// 0 when unknown): thread-scaling numbers mean nothing without it.
//
// Shape:
//   {
//     "bench": "fig2_isolation",
//     "git_rev": "f720f9e",
//     "labels": {"host_cores": "4", "checked": "1", ...},
//     "metrics": {
//       "overhead_per_call_b32": 95.3,
//       "isolated_cycles_b32": {"n":2000,"mean":...,"p50":...,...}
//     }
//   }
#ifndef LINSYS_SRC_UTIL_BENCH_JSON_H_
#define LINSYS_SRC_UTIL_BENCH_JSON_H_

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/util/stats.h"

namespace util {

class BenchReport {
 public:
  // `name` is the bench's short name ("fig2_isolation"); the output file is
  // BENCH_<name>.json in the current working directory.
  explicit BenchReport(std::string name);

  void AddLabel(std::string key, std::string value);
  void AddScalar(std::string metric, double value);
  void AddSamples(std::string metric, const Samples& samples);

  std::string ToJson() const;

  // Writes BENCH_<name>.json; returns false (and warns on stderr) on I/O
  // failure so a read-only CWD never fails a bench run.
  bool WriteFile() const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> labels_;
  // metric name -> pre-rendered JSON value (number or object).
  std::vector<std::pair<std::string, std::string>> metrics_;
};

// True when LINSYS_BENCH_QUICK is set in the environment: benches shrink
// their round counts so CI can afford to run them for the JSON artifacts.
inline bool BenchQuickMode() {
  const char* e = std::getenv("LINSYS_BENCH_QUICK");
  return e != nullptr && *e != '\0' && *e != '0';
}

// Captures the ownership-check build mode of the *including* translation
// unit (the macro is a per-target compile definition, so util cannot record
// it on the benches' behalf).
inline const char* BenchCheckedLabel() {
#if defined(LINSYS_CHECKED_OWNERSHIP)
  return LINSYS_CHECKED_OWNERSHIP ? "1" : "0";
#else
  return "default";
#endif
}

}  // namespace util

#endif  // LINSYS_SRC_UTIL_BENCH_JSON_H_
