// net::Runtime: sharded pipeline replicas, per-flow ordering across the
// descriptor handoff, fault containment per shard, and supervisor-driven
// recovery.
#include "src/net/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/operators/null_filter.h"
#include "src/net/pktgen.h"
#include "src/obs/trace.h"
#include "src/util/fault_injector.h"

namespace net {
namespace {

// Verifies, inside the pipeline, that (a) every packet of a flow arrives at
// the same worker replica and (b) per-flow sequence numbers are strictly
// increasing — the ordering guarantee RSS + FIFO channels must provide.
class OrderingCheck : public Operator {
 public:
  struct Shared {
    std::mutex mu;
    std::map<std::uint64_t, std::size_t> flow_owner;  // flow -> worker
    std::atomic<bool> affinity_violation{false};
    std::atomic<bool> ordering_violation{false};
  };

  OrderingCheck(std::size_t worker, Shared* shared)
      : worker_(worker), shared_(shared) {}

  PacketBatch Process(PacketBatch batch) override {
    for (PacketBuf& pkt : batch) {
      const std::uint64_t key = pkt.Tuple().Hash();
      const std::uint64_t seq = ReadFlowSeq(pkt);
      auto [it, inserted] = last_seq_.try_emplace(key, seq);
      if (!inserted) {
        if (seq <= it->second) {
          shared_->ordering_violation = true;
        }
        it->second = seq;
      }
      std::lock_guard<std::mutex> lock(shared_->mu);
      auto [oit, owned] = shared_->flow_owner.try_emplace(key, worker_);
      if (!owned && oit->second != worker_) {
        shared_->affinity_violation = true;
      }
    }
    return batch;
  }

  std::string_view name() const override { return "ordering-check"; }

 private:
  std::size_t worker_;
  Shared* shared_;
  std::map<std::uint64_t, std::uint64_t> last_seq_;  // per-replica state
};

TEST(Runtime, ProcessesEverythingAcrossShards) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kBatches = 200;
  constexpr std::size_t kBatchSize = 32;

  RuntimeConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_depth = 16;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  Runtime rt(cfg, spec);
  rt.Start();

  FlowSampler sampler(128, 0.0, 42);
  FlowFeeder feeder(&sampler);
  for (int i = 0; i < kBatches; ++i) {
    rt.Dispatch(feeder.Next(kBatchSize));
  }
  rt.Shutdown();

  const RuntimeStats stats = rt.Stats();
  EXPECT_EQ(stats.totals.packets, kBatches * kBatchSize);
  EXPECT_EQ(stats.totals.drops, 0u);
  EXPECT_EQ(stats.totals.faults, 0u);
  EXPECT_EQ(stats.dispatch_calls, static_cast<std::uint64_t>(kBatches));
  EXPECT_GE(stats.sub_batches, stats.dispatch_calls)
      << "fan-out produces at least one sub-batch per dispatched batch";
  EXPECT_EQ(stats.workers.size(), kWorkers);
  // 128 flows over 4 shards: every shard should see traffic.
  for (const WorkerTelemetry& w : stats.workers) {
    EXPECT_GT(w.packets, 0u) << "idle shard despite 128 flows";
  }
  EXPECT_FALSE(stats.Summary().empty());
}

TEST(Runtime, PerFlowOrderingAndAffinityHoldAcrossShards) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kBatches = 300;
  constexpr std::size_t kBatchSize = 16;

  OrderingCheck::Shared shared;
  RuntimeConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_depth = 8;
  std::vector<StageSpec> spec;
  spec.push_back({"ordering", [&shared](std::size_t worker) {
                    return std::make_unique<OrderingCheck>(worker, &shared);
                  }});
  Runtime rt(cfg, spec);
  rt.Start();

  FlowSampler sampler(64, 0.0, 7);
  FlowFeeder feeder(&sampler);
  for (int i = 0; i < kBatches; ++i) {
    rt.Dispatch(feeder.Next(kBatchSize));
  }
  rt.Shutdown();

  EXPECT_FALSE(shared.affinity_violation.load())
      << "a flow was processed by two different shards";
  EXPECT_FALSE(shared.ordering_violation.load())
      << "per-flow sequence numbers arrived out of order";
  const RuntimeStats stats = rt.Stats();
  EXPECT_EQ(stats.totals.packets, kBatches * kBatchSize);
  EXPECT_EQ(stats.totals.drops, 0u);
}

TEST(Runtime, FaultOnOneShardIsRecoveredWithoutStallingOthers) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kBatches = 400;
  constexpr std::size_t kBatchSize = 16;

  RuntimeConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_depth = 16;
  std::vector<StageSpec> spec;
  // Shard 0's replica panics every 3rd batch; all other replicas are clean.
  spec.push_back({"flaky-null", [](std::size_t worker) {
                    return std::make_unique<NullFilter>(
                        worker == 0 ? 3 : 0);
                  }});
  Runtime rt(cfg, spec);
  rt.Start();

  FlowSampler sampler(256, 0.0, 11);
  FlowFeeder feeder(&sampler);
  for (int i = 0; i < kBatches; ++i) {
    rt.Dispatch(feeder.Next(kBatchSize));
  }
  rt.Shutdown();

  const RuntimeStats stats = rt.Stats();
  ASSERT_EQ(stats.workers.size(), kWorkers);
  const WorkerTelemetry& faulty = stats.workers[0];
  EXPECT_GE(faulty.faults, 1u) << "injected panic never fired";
  EXPECT_GE(faulty.recoveries, 1u)
      << "supervisor never recovered the faulted stage";
  EXPECT_GT(faulty.packets, 0u)
      << "the faulted shard must keep processing after recovery";
  for (std::size_t w = 1; w < kWorkers; ++w) {
    EXPECT_EQ(stats.workers[w].faults, 0u) << "fault leaked to shard " << w;
    EXPECT_EQ(stats.workers[w].drops, 0u) << "healthy shard dropped traffic";
    EXPECT_GT(stats.workers[w].packets, 0u)
        << "healthy shard " << w << " stalled";
  }
  EXPECT_GE(stats.totals.recoveries, 1u)
      << "recovery count must surface in RuntimeStats";
  // Conservation: every materialized packet either left the pipeline or was
  // accounted as a drop when its batch died with the faulting stage.
  EXPECT_EQ(stats.totals.packets + stats.totals.drops,
            kBatches * kBatchSize);
}

TEST(Runtime, FlowPinningIsStable) {
  RuntimeConfig cfg;
  cfg.workers = 8;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  Runtime rt(cfg, spec);

  FlowSampler sampler(64, 0.0, 9);
  for (std::size_t i = 0; i < sampler.flow_count(); ++i) {
    const FiveTuple& t = sampler.FlowAt(i);
    EXPECT_EQ(rt.WorkerFor(t), rt.WorkerFor(t));
    EXPECT_LT(rt.WorkerFor(t), cfg.workers);
  }
  // Never started: construction + destruction alone must be clean.
}

TEST(Runtime, DispatchOutsideStartShutdownWindowIsRefused) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  Runtime rt(cfg, spec);

  FlowSampler sampler(16, 0.0, 5);
  FlowFeeder feeder(&sampler);

  // Before Start: refused, counted, nothing processed.
  EXPECT_FALSE(rt.Dispatch(feeder.Next(8)));

  rt.Start();
  EXPECT_TRUE(rt.Dispatch(feeder.Next(8)));
  rt.Shutdown();

  // After Shutdown: refused again, not a crash or a hang.
  EXPECT_FALSE(rt.Dispatch(feeder.Next(8)));
  EXPECT_FALSE(rt.Dispatch(feeder.Next(8)));

  const RuntimeStats stats = rt.Stats();
  EXPECT_EQ(stats.totals.packets, 8u);
  EXPECT_EQ(stats.rejected_dispatches, 3u);
  EXPECT_EQ(stats.dispatch_calls, 1u);
}

TEST(Runtime, StartAfterShutdownIsANoOp) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  Runtime rt(cfg, spec);
  rt.Start();
  rt.Shutdown();
  rt.Start();  // terminal shutdown: must not respawn threads

  FlowSampler sampler(8, 0.0, 2);
  FlowFeeder feeder(&sampler);
  EXPECT_FALSE(rt.Dispatch(feeder.Next(4)));
  EXPECT_EQ(rt.Stats().totals.packets, 0u);
}

TEST(Runtime, ConcurrentStartAndShutdownAreSerialized) {
  for (int round = 0; round < 10; ++round) {
    RuntimeConfig cfg;
    cfg.workers = 2;
    std::vector<StageSpec> spec;
    spec.push_back(
        {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
    Runtime rt(cfg, spec);

    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i) {
      threads.emplace_back([&rt] { rt.Start(); });
      threads.emplace_back([&rt] { rt.Shutdown(); });
    }
    for (auto& t : threads) {
      t.join();
    }
    rt.Shutdown();  // whatever interleaving happened, this must be clean
    EXPECT_EQ(rt.Stats().totals.faults, 0u);
  }
}

// Regression for the stats-aggregation race: Stats() and registry scrapes
// taken *while workers are processing* must be consistent snapshots —
// counters monotone across reads, histogram bucket sums equal to their
// counts — and the final post-shutdown totals must conserve packets.
TEST(Runtime, ScrapeUnderLoadIsConsistent) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kBatches = 400;
  constexpr std::size_t kBatchSize = 16;

  RuntimeConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_depth = 16;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  Runtime rt(cfg, spec);
  rt.Start();

  std::thread feeder_thread([&rt] {
    FlowSampler sampler(128, 0.0, 21);
    FlowFeeder feeder(&sampler);
    for (int i = 0; i < kBatches; ++i) {
      rt.Dispatch(feeder.Next(kBatchSize));
    }
  });

  std::uint64_t last_packets = 0;
  std::uint64_t last_batches = 0;
  std::uint64_t last_hist_count = 0;
  for (int scrape = 0; scrape < 100; ++scrape) {
    const RuntimeStats stats = rt.Stats();
    ASSERT_GE(stats.totals.packets, last_packets)
        << "packet counter went backwards at scrape " << scrape;
    ASSERT_GE(stats.totals.batches, last_batches)
        << "batch counter went backwards at scrape " << scrape;
    last_packets = stats.totals.packets;
    last_batches = stats.totals.batches;

    std::uint64_t bucket_total = 0;
    for (std::uint64_t b : stats.batch_cycles.buckets) {
      bucket_total += b;
    }
    ASSERT_EQ(bucket_total, stats.batch_cycles.count)
        << "torn batch_cycles histogram at scrape " << scrape;
    ASSERT_GE(stats.batch_cycles.count, last_hist_count)
        << "histogram count went backwards at scrape " << scrape;
    last_hist_count = stats.batch_cycles.count;

    // The exporters must stay usable mid-run too.
    if (scrape % 25 == 0) {
      EXPECT_NE(rt.ScrapePrometheus().find("runtime_packets_total"),
                std::string::npos);
      EXPECT_NE(rt.ScrapeJson().find("runtime.batch_cycles"),
                std::string::npos);
    }
  }

  feeder_thread.join();
  rt.Shutdown();

  const RuntimeStats stats = rt.Stats();
  EXPECT_EQ(stats.totals.packets, kBatches * kBatchSize);
  EXPECT_GE(stats.totals.packets, last_packets);
  EXPECT_EQ(stats.batch_cycles.count, stats.totals.batches)
      << "every executed sub-batch records exactly one batch_cycles sample";
  EXPECT_GT(stats.mempool_in_use_hwm, 0u);
  EXPECT_EQ(stats.mempool_in_use, 0u)
      << "all packets freed after shutdown";
  EXPECT_EQ(stats.mempool_alloc_failures, 0u);
}

TEST(Runtime, ShutdownIsIdempotent) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  Runtime rt(cfg, spec);
  rt.Start();
  rt.Shutdown();
  rt.Shutdown();  // second call is a no-op
  EXPECT_EQ(rt.Stats().totals.faults, 0u);
}

// Flow correlation end to end: with the tracer armed, a faulting run must
// produce async "flow" tracks whose events cover dispatch (driver thread),
// worker batch execution, and recovery (supervisor thread) — and the
// exported JSON must keep the 'b'/'e' pairing balanced.
TEST(Runtime, FlowCorrelatedTraceSpansDispatchWorkersAndRecovery) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Disarm();
  tracer.Reset();
  tracer.Arm(1 << 15);
  tracer.SetThreadName("flow-test-driver");

  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.queue_depth = 16;
  std::vector<StageSpec> spec;
  spec.push_back({"flaky-null", [](std::size_t worker) {
                    return std::make_unique<NullFilter>(
                        worker == 0 ? 3 : 0);
                  }});
  Runtime rt(cfg, spec);
  rt.Start();
  FlowSampler sampler(64, 0.0, 13);
  FlowFeeder feeder(&sampler);
  for (int i = 0; i < 200; ++i) {
    rt.Dispatch(feeder.Next(16));
  }
  rt.Shutdown();
  EXPECT_GE(rt.Stats().totals.recoveries, 1u);

  const std::string json = tracer.ExportChromeJson();
  tracer.Disarm();
  tracer.Reset();
  auto count_of = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  EXPECT_GT(count_of("\"name\":\"flow.dispatch\""), 0u);
  EXPECT_GT(count_of("\"name\":\"flow.batch\""), 0u);
  EXPECT_GT(count_of("\"name\":\"flow.recover\""), 0u);
  EXPECT_GT(count_of("\"cat\":\"flow\""), 0u);
  EXPECT_EQ(count_of("\"ph\":\"b\""), count_of("\"ph\":\"e\""))
      << "async begin/end pairing broke (see tools/trace_lint)";
}

// Cross-replica ordering + exactly-once recorder for the stealing tests.
// Unlike OrderingCheck it has no affinity assertion (flows legitimately
// migrate between replicas) — instead it checks the invariants stealing
// must preserve: per-flow sequence numbers arrive in increasing order
// *globally*, and no (flow, seq) pair is ever processed twice.
class GlobalSeqCheck : public Operator {
 public:
  struct Shared {
    std::mutex mu;
    std::map<std::uint64_t, std::uint64_t> last_seq;  // flow -> newest seq
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    std::atomic<bool> ordering_violation{false};
    std::atomic<bool> duplicate{false};
  };

  explicit GlobalSeqCheck(Shared* shared) : shared_(shared) {}

  PacketBatch Process(PacketBatch batch) override {
    std::lock_guard<std::mutex> lock(shared_->mu);
    for (PacketBuf& pkt : batch) {
      const std::uint64_t key = pkt.Tuple().Hash();
      const std::uint64_t seq = ReadFlowSeq(pkt);
      if (!shared_->seen.insert({key, seq}).second) {
        shared_->duplicate = true;
      }
      auto [it, fresh] = shared_->last_seq.try_emplace(key, seq);
      if (!fresh) {
        if (seq <= it->second) {
          shared_->ordering_violation = true;
        }
        it->second = seq;
      }
    }
    return batch;
  }

  std::string_view name() const override { return "global-seq-check"; }

 private:
  Shared* shared_;
};

// Flows that all hash-home to one worker — the adversarial skew for the
// stealing tests: every other worker can only ever get work by stealing.
std::vector<FiveTuple> FlowsPinnedTo(const Runtime& rt, std::size_t worker,
                                     std::size_t n) {
  std::vector<FiveTuple> flows;
  FiveTuple t;
  t.src_ip = 0x0a000001;
  t.dst_ip = 0x0a000002;
  t.dst_port = 80;
  for (std::uint32_t port = 1; flows.size() < n && port < 60000; ++port) {
    t.src_port = static_cast<std::uint16_t>(port);
    if (rt.WorkerFor(t) == worker) {
      flows.push_back(t);
    }
  }
  return flows;
}

// Burns wall-clock per batch on selected replicas so a dispatched backlog
// persists long enough for idle peers to steal it. With a `hold` latch, each
// batch first waits until the latch is set, so the backlog persists until
// the test releases it.
class SpinStage : public Operator {
 public:
  explicit SpinStage(std::chrono::microseconds per_batch,
                     const std::atomic<bool>* hold = nullptr)
      : per_batch_(per_batch), hold_(hold) {}

  PacketBatch Process(PacketBatch batch) override {
    while (hold_ != nullptr && !hold_->load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const auto until = std::chrono::steady_clock::now() + per_batch_;
    while (std::chrono::steady_clock::now() < until) {
    }
    return batch;
  }

  std::string_view name() const override { return "spin"; }

 private:
  std::chrono::microseconds per_batch_;
  const std::atomic<bool>* hold_;
};

// Deterministic feeder over a fixed flow list: each batch carries ONE
// flow's next n seqs (flows round-robin across batches). Single-flow
// sub-batches matter for the stealing tests — the victim's in-flight
// exclusion set is the flows of the sub-batch it is processing, so a
// feeder that mixed every flow into every batch would (correctly) make
// every flow off-limits and no steal could ever happen.
class PinnedFeeder {
 public:
  explicit PinnedFeeder(std::vector<FiveTuple> flows)
      : flows_(std::move(flows)), next_seq_(flows_.size(), 0) {}

  FlowBatch Next(std::size_t n) {
    FlowBatch batch(n);
    const std::size_t idx = cursor_++ % flows_.size();
    for (std::size_t i = 0; i < n; ++i) {
      batch.Push(FlowWork{flows_[idx], next_seq_[idx]++});
    }
    return batch;
  }

 private:
  std::vector<FiveTuple> flows_;
  std::vector<std::uint64_t> next_seq_;
  std::size_t cursor_ = 0;
};

// Work stealing end to end: all flows hash to worker 0, so workers 1..3
// only process anything by stealing — and per-flow ordering must survive
// every migration, with every item processed exactly once.
TEST(Runtime, StealingBalancesPinnedLoadAndPreservesPerFlowOrdering) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kBatches = 600;
  constexpr std::size_t kBatchSize = 32;

  GlobalSeqCheck::Shared shared;
  RuntimeConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_depth = 0;  // unbounded: the whole load lands before Shutdown
  cfg.stealing.enabled = true;
  cfg.stealing.min_victim_depth = 2;
  // Steal nudges ride the supervisor wake; tighten its cadence so several
  // land while the pinned backlog persists.
  cfg.supervision.watchdog_period_ms = 5;
  std::vector<StageSpec> spec;
  spec.push_back({"check", [&shared](std::size_t) {
                    return std::make_unique<GlobalSeqCheck>(&shared);
                  }});
  // Worker 0 (every flow's hash home) is deliberately slow, so the backlog
  // survives until the idle peers wake up and steal it.
  spec.push_back({"slow", [](std::size_t worker) -> std::unique_ptr<Operator> {
                    if (worker == 0) {
                      return std::make_unique<SpinStage>(
                          std::chrono::microseconds(50));
                    }
                    return std::make_unique<NullFilter>();
                  }});
  Runtime rt(cfg, spec);
  const std::vector<FiveTuple> flows = FlowsPinnedTo(rt, 0, 12);
  ASSERT_EQ(flows.size(), 12u);
  rt.Start();

  PinnedFeeder feeder(flows);
  for (int i = 0; i < kBatches; ++i) {
    rt.Dispatch(feeder.Next(kBatchSize));
  }
  // Drain while still accepting: Shutdown closes the queues, and a closed
  // queue is never stolen from — the steals must happen in this window.
  for (int i = 0; i < 5000; ++i) {
    if (rt.Stats().totals.packets >= kBatches * kBatchSize) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rt.Shutdown();

  const RuntimeStats stats = rt.Stats();
  EXPECT_FALSE(shared.ordering_violation.load())
      << "per-flow sequence numbers arrived out of order across a steal";
  EXPECT_FALSE(shared.duplicate.load())
      << "a (flow, seq) pair was processed twice";
  EXPECT_EQ(stats.totals.packets, kBatches * kBatchSize)
      << "stealing must not lose or strand work";
  EXPECT_EQ(stats.totals.drops, 0u);
  EXPECT_GE(stats.totals.steals, 1u)
      << "a fully pinned load on 4 workers must trigger stealing";
  EXPECT_GE(stats.totals.stolen_items, 1u);
  EXPECT_NE(stats.Summary().find("steals="), std::string::npos);
  // The thieves actually processed some of the load.
  std::uint64_t thief_packets = 0;
  for (std::size_t w = 1; w < kWorkers; ++w) {
    thief_packets += stats.workers[w].packets;
  }
  EXPECT_GE(thief_packets, stats.totals.stolen_items)
      << "stolen items are processed on the thief's replica";
}

// Steal under fault: the thief replicas panic on every batch and get
// quarantined (drop policy). A stolen sub-batch caught in that must be
// either processed or *counted* as dropped — never stranded, never run
// twice.
TEST(Runtime, StealUnderFaultNeitherStrandsNorDoubleProcesses) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kBatches = 600;
  constexpr std::size_t kBatchSize = 16;

  GlobalSeqCheck::Shared shared;
  RuntimeConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_depth = 0;  // unbounded: the whole load lands before Shutdown
  cfg.stealing.enabled = true;
  cfg.supervision.max_recovery_attempts = 2;
  cfg.supervision.watchdog_period_ms = 5;
  std::vector<StageSpec> spec;
  spec.push_back({"check", [&shared](std::size_t) {
                    return std::make_unique<GlobalSeqCheck>(&shared);
                  }});
  // Worker 0 (every flow's hash home) is slow so its backlog gets stolen;
  // the thief replicas (workers 1..3) then panic on every stolen batch.
  spec.push_back({"flaky", [](std::size_t worker) -> std::unique_ptr<Operator> {
                    if (worker == 0) {
                      return std::make_unique<SpinStage>(
                          std::chrono::microseconds(50));
                    }
                    return std::make_unique<NullFilter>(1);
                  }});
  Runtime rt(cfg, spec);
  const std::vector<FiveTuple> flows = FlowsPinnedTo(rt, 0, 12);
  ASSERT_EQ(flows.size(), 12u);
  rt.Start();

  PinnedFeeder feeder(flows);
  for (int i = 0; i < kBatches; ++i) {
    rt.Dispatch(feeder.Next(kBatchSize));
  }
  // Drain while still accepting, as above: steals only happen while the
  // victim's queue is open.
  for (int i = 0; i < 5000; ++i) {
    const RuntimeStats s = rt.Stats();
    if (s.totals.packets + s.totals.drops >= kBatches * kBatchSize) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rt.Shutdown();

  const RuntimeStats stats = rt.Stats();
  EXPECT_GE(stats.totals.steals, 1u) << "no steal happened; test is vacuous";
  EXPECT_GE(stats.totals.faults, 1u)
      << "a stolen batch must have hit the thief's faulting stage";
  EXPECT_FALSE(shared.duplicate.load())
      << "a faulted steal re-processed a (flow, seq) pair";
  EXPECT_FALSE(shared.ordering_violation.load());
  // Conservation is the no-stranding proof: every dispatched item either
  // left the pipeline or is accounted as a drop (faulted or quarantined).
  EXPECT_EQ(stats.totals.packets + stats.totals.drops,
            kBatches * kBatchSize)
      << "a stolen sub-batch was stranded by the fault";
}

// Adaptive gate, closed: stealing configured on but with a gain bar no
// backlog can clear must behave exactly like stealing disabled — zero
// steals, zero migrations, and the dispatch path producing identical
// per-worker counters (one steal would re-home flows and break equality).
TEST(Runtime, AdaptiveGateClosedMatchesStealingDisabled) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kBatches = 200;
  constexpr std::size_t kBatchSize = 16;

  auto run = [&](bool enabled, double min_gain_factor) {
    RuntimeConfig cfg;
    cfg.workers = kWorkers;
    cfg.queue_depth = 0;
    cfg.stealing.enabled = enabled;
    cfg.stealing.min_gain_factor = min_gain_factor;
    std::vector<StageSpec> spec;
    // Worker 0 is slow so a stealable backlog exists the whole run: the
    // gated run must *refuse* real opportunities, not merely never see one.
    spec.push_back(
        {"slow", [](std::size_t worker) -> std::unique_ptr<Operator> {
           if (worker == 0) {
             return std::make_unique<SpinStage>(std::chrono::microseconds(50));
           }
           return std::make_unique<NullFilter>();
         }});
    Runtime rt(cfg, spec);
    const std::vector<FiveTuple> flows = FlowsPinnedTo(rt, 0, 12);
    rt.Start();
    PinnedFeeder feeder(flows);
    for (int i = 0; i < kBatches; ++i) {
      rt.Dispatch(feeder.Next(kBatchSize));
    }
    for (int i = 0; i < 5000; ++i) {
      if (rt.Stats().totals.packets >= kBatches * kBatchSize) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    rt.Shutdown();
    return rt.Stats();
  };

  const RuntimeStats off = run(/*enabled=*/false, 2.0);
  // min_gain_factor so high no finite backlog opens the gate.
  const RuntimeStats gated = run(/*enabled=*/true, 1e9);

  EXPECT_EQ(gated.totals.steals, 0u) << "closed gate must suppress steals";
  EXPECT_EQ(gated.totals.stolen_items, 0u);
  EXPECT_EQ(gated.migrated_flows, 0u);
  ASSERT_EQ(off.workers.size(), gated.workers.size());
  for (std::size_t w = 0; w < off.workers.size(); ++w) {
    EXPECT_EQ(off.workers[w].packets, gated.workers[w].packets)
        << "worker " << w << ": gated dispatch routed differently than "
        << "stealing-off dispatch";
    EXPECT_EQ(off.workers[w].batches, gated.workers[w].batches)
        << "worker " << w << ": sub-batch fan-out differs";
  }
  EXPECT_EQ(off.totals.packets, gated.totals.packets);
  EXPECT_EQ(gated.totals.packets, kBatches * kBatchSize);
}

// Steal storm, suppressed: under near-uniform load with a closed gate, an
// idle worker keeps *finding* victims above min_victim_depth but must skip
// every one — the refusals land in steal_skipped_total and no work moves.
TEST(Runtime, UniformLoadWithClosedGateCountsSkippedSteals) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kBatches = 200;
  constexpr std::size_t kBatchSize = 16;

  RuntimeConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_depth = 0;
  cfg.stealing.enabled = true;
  cfg.stealing.min_gain_factor = 1e9;  // gate never opens
  cfg.supervision.watchdog_period_ms = 2;  // several nudges per backlog
  std::vector<StageSpec> spec;
  // Worker 0 is the fast one: it drains its share quickly, goes idle, and
  // then repeatedly sizes up its slow peers' backlogs. The slow peers are
  // held on a latch until it has done so at least once, so their backlogs
  // cannot drain before a nudge lands.
  std::atomic<bool> release{false};
  spec.push_back(
      {"uneven", [&release](std::size_t worker) -> std::unique_ptr<Operator> {
         if (worker == 0) {
           return std::make_unique<NullFilter>();
         }
         return std::make_unique<SpinStage>(std::chrono::microseconds(20),
                                            &release);
       }});
  Runtime rt(cfg, spec);
  rt.Start();

  FlowSampler sampler(64, 0.0, 17);  // uniform across all workers
  FlowFeeder feeder(&sampler);
  for (int i = 0; i < kBatches; ++i) {
    rt.Dispatch(feeder.Next(kBatchSize));
  }
  // Polled through the registry, not Stats(): Stats() takes every worker's
  // pipeline mutex, which a held worker keeps for as long as it waits. The
  // wait is bounded; if it runs out, the steals_skipped check below fails.
  const obs::Counter* skipped =
      rt.registry().GetCounter("runtime.steal_skipped_total", kWorkers);
  for (int i = 0; i < 5000 && skipped->Value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.store(true, std::memory_order_release);
  for (int i = 0; i < 5000; ++i) {
    if (rt.Stats().totals.packets >= kBatches * kBatchSize) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rt.Shutdown();

  const RuntimeStats stats = rt.Stats();
  EXPECT_EQ(stats.totals.packets, kBatches * kBatchSize)
      << "skipped steals must not lose work";
  EXPECT_EQ(stats.totals.steals, 0u);
  EXPECT_EQ(stats.migrated_flows, 0u);
  EXPECT_GE(stats.totals.steals_skipped, 1u)
      << "an idle worker staring at deep peers must record its refusals";
  EXPECT_NE(stats.Summary().find("steals_skipped="), std::string::npos);
}

// Paced rx: the rx thread must keep every queue at/below the high-water
// mark instead of blocking inside a full channel, and still deliver its
// whole quota. Runs two quotas to cover rx-thread reuse.
TEST(Runtime, PacedRxHoldsQueuesAtHighWaterAndDeliversQuota) {
  constexpr std::size_t kWorkers = 2;
  constexpr std::uint64_t kQuota = 40;

  RuntimeConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_depth = 16;
  cfg.paced_rx.enabled = true;
  cfg.paced_rx.burst = 16;
  cfg.paced_rx.high_water_frac = 0.5;  // mark = 8 sub-batches
  cfg.paced_rx.pause_us = 5;
  std::vector<StageSpec> spec;
  // A deliberately slow stage so the queues actually fill.
  spec.push_back({"spin", [](std::size_t) {
                    class Spin : public Operator {
                     public:
                      PacketBatch Process(PacketBatch batch) override {
                        const auto until = std::chrono::steady_clock::now() +
                                           std::chrono::microseconds(200);
                        while (std::chrono::steady_clock::now() < until) {
                        }
                        return batch;
                      }
                      std::string_view name() const override { return "spin"; }
                    };
                    return std::make_unique<Spin>();
                  }});
  Runtime rt(cfg, spec);
  rt.Start();

  FlowSampler sampler(64, 0.0, 23);
  FlowFeeder feeder(&sampler);
  rt.StartPacedRx(&feeder, kQuota);
  rt.WaitRxIdle();
  rt.StartPacedRx(&feeder, kQuota);  // second quota reuses the rx slot
  rt.WaitRxIdle();
  rt.Shutdown();

  const RuntimeStats stats = rt.Stats();
  EXPECT_EQ(stats.rx_batches, 2 * kQuota) << "rx must deliver its quota";
  EXPECT_EQ(stats.totals.packets, 2 * kQuota * cfg.paced_rx.burst);
  EXPECT_EQ(stats.totals.drops, 0u);
  // Pacing invariant: rx only dispatches while every queue is below the
  // mark, and one dispatch adds at most one sub-batch per queue.
  EXPECT_LE(stats.totals.queue_hwm, 8u)
      << "rx pushed a queue past the high-water mark";
  EXPECT_GE(stats.rx_pauses, 1u)
      << "with a slow stage the rx thread must have paused at least once";
}

// An injected channel.send fault surfaces as a failed Dispatch on the
// driver thread — counted, contained, and the runtime keeps accepting.
TEST(Runtime, ChannelSendFaultIsContainedAtDispatch) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  Runtime rt(cfg, spec);
  rt.Start();
  FlowSampler sampler(64, 0.0, 17);
  FlowFeeder feeder(&sampler);
  ASSERT_TRUE(rt.Dispatch(feeder.Next(8)));

  util::FaultInjector::Global().ArmOneShot("channel.send",
                                           util::PanicKind::kExplicit);
  EXPECT_FALSE(rt.Dispatch(feeder.Next(8)))
      << "faulted dispatch must report failure, not throw";
  EXPECT_EQ(
      rt.registry().GetCounter("runtime.dispatch_faults_total")->Value(), 1u);

  EXPECT_TRUE(rt.Dispatch(feeder.Next(8)));  // one-shot consumed, flow resumes
  rt.Shutdown();
  util::FaultInjector::Global().Reset();
  const RuntimeStats stats = rt.Stats();
  EXPECT_GT(stats.totals.packets, 0u);
  EXPECT_EQ(stats.totals.faults, 0u) << "fault never reached a worker";
}

}  // namespace
}  // namespace net
