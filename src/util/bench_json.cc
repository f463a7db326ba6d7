#include "src/util/bench_json.h"

#include <cstdio>
#include <thread>

#ifndef LINSYS_GIT_REV
#define LINSYS_GIT_REV "unknown"
#endif

namespace util {

namespace {

// Minimal string escaping for the label values we emit (names and flags;
// no control characters expected, but don't produce broken JSON if any
// appear).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {
  AddLabel("host_cores", std::to_string(std::thread::hardware_concurrency()));
}

void BenchReport::AddLabel(std::string key, std::string value) {
  labels_.emplace_back(std::move(key), std::move(value));
}

void BenchReport::AddScalar(std::string metric, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4f", value);
  metrics_.emplace_back(std::move(metric), buf);
}

void BenchReport::AddSamples(std::string metric, const Samples& samples) {
  metrics_.emplace_back(std::move(metric), samples.ToJson());
}

std::string BenchReport::ToJson() const {
  std::string out = "{\"bench\":\"" + JsonEscape(name_) + "\",";
  out += "\"git_rev\":\"" + JsonEscape(LINSYS_GIT_REV) + "\",";
  out += "\"labels\":{";
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += "\"" + JsonEscape(labels_[i].first) + "\":\"" +
           JsonEscape(labels_[i].second) + "\"";
  }
  out += "},\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += "\"" + JsonEscape(metrics_[i].first) + "\":" + metrics_[i].second;
  }
  out += "}}";
  return out;
}

bool BenchReport::WriteFile() const {
  const std::string path = "BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_json: cannot write %s\n", path.c_str());
    return false;
  }
  const std::string json = ToJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    std::fprintf(stderr, "bench_json: short write to %s\n", path.c_str());
    return false;
  }
  std::printf("[bench_json] wrote %s\n", path.c_str());
  return true;
}

}  // namespace util
