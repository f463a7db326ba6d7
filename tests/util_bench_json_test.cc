#include "src/util/bench_json.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>

namespace util {
namespace {

// The core count rides in every report's labels without the bench asking,
// so a thread-scaling number is never read without the host that made it.
TEST(BenchReport, LabelsCarryHostCores) {
  BenchReport report("probe");
  report.AddLabel("checked", "1");
  report.AddScalar("x", 1.5);
  const std::string json = report.ToJson();
  const std::string tail =
      "\"labels\":{\"host_cores\":\"" +
      std::to_string(std::thread::hardware_concurrency()) +
      "\",\"checked\":\"1\"},\"metrics\":{\"x\":1.5000}}";
  EXPECT_EQ(json.rfind("{\"bench\":\"probe\",\"git_rev\":\"", 0), 0u) << json;
  ASSERT_GE(json.size(), tail.size());
  EXPECT_EQ(json.substr(json.size() - tail.size()), tail) << json;
}

}  // namespace
}  // namespace util
