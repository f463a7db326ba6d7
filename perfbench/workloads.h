// The benchmark's workloads. Each takes its seed and run length, builds its
// inputs from the seed, drives the library through its public API, checks the
// outputs, and fills in a RunResult.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/bench_util.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_dir;  // where the traced run writes its spans ("" = none)
  std::string repo_root = ".";  // for examples/ril
};

bool IsPacketWorkload(const std::string& name);
RunResult RunPacketWorkload(const std::string& name, const RunOptions& opt);
RunResult RunIfcWorkload(const RunOptions& opt);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
