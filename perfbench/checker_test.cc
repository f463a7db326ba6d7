// The benchmark's own test of its correctness checks: real frames pass
// through the sink, and a clean run must pass while a duplicated, a missing
// and a reordered descriptor must each fail. run.py runs it before every
// benchmark run; a non-zero exit stops the run.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/bench_util.h"
#include "perfbench/sink.h"
#include "src/net/mempool.h"
#include "src/net/packet.h"
#include "src/net/pktgen.h"

namespace perfbench {
namespace {

constexpr std::size_t kFlows = 4;
constexpr std::uint64_t kDescriptors = 64;

// Delivers `order` (descriptor indices) through a fresh sink in one batch
// per 8 descriptors, then balances the ledger as if the runtime had sent
// `runtime_packets` packets out of `kDescriptors` offered with no drops.
RunResult Deliver(const std::vector<std::uint64_t>& order) {
  net::FlowSampler sampler(kFlows, 0.0, 7);
  FlowDraw draw(kFlows, 0.0, 7);
  SinkConfig cfg;
  cfg.shape = Shape::kForward;
  cfg.workers = 1;
  cfg.batch = 8;
  cfg.batch_period_ns = 1000.0;
  for (std::size_t i = 0; i < kFlows; ++i) {
    cfg.flows.push_back(sampler.FlowAt(i));
    cfg.blocked.push_back(false);
  }
  SinkShared sink(cfg, &draw);
  sink.SetSchedule(NowNs(), NowNs(), 1);
  sink.Issue(kDescriptors);
  sink.BeginMeasurement(0);
  net::Mempool pool(64, 2048);
  for (std::size_t i = 0; i < order.size(); i += 8) {
    net::PacketBatch batch;
    for (std::size_t j = i; j < order.size() && j < i + 8; ++j) {
      net::PacketBuf pkt = net::PacketBuf::Alloc(&pool, 64);
      net::BuildFrame(pkt, cfg.flows[draw.FlowOf(order[j])]);
      std::memcpy(pkt.payload(), &order[j], net::kFlowSeqBytes);
      batch.Push(std::move(pkt));
    }
    sink.Deliver(0, batch);
  }
  RunResult r;
  Ledger ledger;
  ledger.issued = kDescriptors;
  ledger.runtime_packets = order.size();
  CheckLedger(sink, ledger, &r);
  return r;
}

int Run() {
  std::vector<std::uint64_t> clean;
  for (std::uint64_t i = 0; i < kDescriptors; ++i) {
    clean.push_back(i);
  }
  // Two descriptors of one flow, for the reorder case.
  FlowDraw draw(kFlows, 0.0, 7);
  std::size_t a = 0;
  std::size_t b = 1;
  while (draw.FlowOf(b) != draw.FlowOf(a)) {
    ++b;
  }
  struct Case {
    const char* name;
    std::vector<std::uint64_t> order;
    bool must_pass;
  };
  std::vector<Case> cases;
  cases.push_back({"clean", clean, true});
  std::vector<std::uint64_t> dup = clean;
  dup.insert(dup.begin() + 20, dup[19]);
  cases.push_back({"duplicated", dup, false});
  std::vector<std::uint64_t> missing = clean;
  missing.erase(missing.begin() + 33);
  cases.push_back({"missing", missing, false});
  std::vector<std::uint64_t> reordered = clean;
  std::swap(reordered[a], reordered[b]);
  cases.push_back({"reordered", reordered, false});

  int failures = 0;
  for (const Case& c : cases) {
    const RunResult r = Deliver(c.order);
    const bool ok = r.correct() == c.must_pass;
    std::printf("checker_test %-10s %s (%zu check failures%s%s)\n", c.name,
                ok ? "ok" : "WRONG", r.errors.size(),
                r.errors.empty() ? "" : ": ",
                r.errors.empty() ? "" : r.errors.front().c_str());
    failures += ok ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main() { return perfbench::Run(); }
