// RSS dispatcher: flow-to-worker affinity, item conservation across the
// zero-copy handoff, counter semantics, backpressure, shutdown, work
// stealing, and a real multi-threaded run with per-worker NFs.
#include "src/net/rss.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/net/mempool.h"
#include "src/net/operators/nat.h"
#include "src/net/packet.h"
#include "src/net/pktgen.h"
#include "src/net/runtime.h"  // FlowFeeder
#include "src/util/panic.h"

namespace net {
namespace {

// `n` flow descriptors drawn uniformly from `flows` flows.
FlowBatch Traffic(std::uint64_t seed, std::size_t n, std::size_t flows = 64) {
  FlowSampler sampler(flows, 0.0, seed);
  FlowFeeder feeder(&sampler);
  return feeder.Next(n);
}

TEST(Rss, AllPacketsReachExactlyOneWorker) {
  RssDispatcher rss(4, /*queue_depth=*/0);
  rss.Dispatch(Traffic(1, 256));
  rss.Shutdown();

  std::size_t total = 0;
  for (std::size_t w = 0; w < rss.worker_count(); ++w) {
    while (auto handle = rss.queue(w).TryRecv()) {
      const FlowBatch batch = (*handle).Take();
      for (const FlowWork& fw : batch) {
        EXPECT_EQ(rss.WorkerForTuple(fw.tuple), w) << "item on a foreign queue";
      }
      total += batch.size();
    }
  }
  EXPECT_EQ(total, 256u) << "conservation across the handoff";
}

TEST(Rss, FlowAffinityIsStable) {
  RssDispatcher rss(8);
  // The same flow must map to the same worker on every item.
  const FlowBatch batch = Traffic(2, 512);
  std::map<std::uint64_t, std::size_t> flow_to_worker;
  for (const FlowWork& fw : batch) {
    const std::size_t worker = rss.WorkerForTuple(fw.tuple);
    auto [it, inserted] = flow_to_worker.emplace(rss.FlowKey(fw.tuple), worker);
    if (!inserted) {
      EXPECT_EQ(it->second, worker) << "flow split across workers";
    }
  }
  // And with 64 flows over 8 workers, more than one worker is used.
  std::set<std::size_t> used;
  for (const auto& [flow, worker] : flow_to_worker) {
    used.insert(worker);
  }
  EXPECT_GT(used.size(), 3u) << "hash spreads flows";
}

TEST(Rss, DispatcherCannotTouchSteeredBatches) {
  RssDispatcher rss(1, 0);
  FlowBatch batch = Traffic(3, 8);
  rss.Dispatch(std::move(batch));
  // The moved-from batch is empty; the items now belong to the worker.
  EXPECT_EQ(batch.size(), 0u);
  auto received = rss.queue(0).TryRecv();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ((*received).Borrow()->size(), 8u);
}

TEST(Rss, BatchesSteeredCountsDispatchCallsNotSubBatches) {
  RssDispatcher rss(4, /*queue_depth=*/0);
  // One input batch with many flows fans out into up to 4 sub-batches; the
  // input-batch counter must still read 1 (it used to over-report by
  // counting the fan-out).
  rss.Dispatch(Traffic(7, 128));
  EXPECT_EQ(rss.batches_steered(), 1u);
  EXPECT_GE(rss.sub_batches_steered(), 1u);
  EXPECT_LE(rss.sub_batches_steered(), 4u);
  std::uint64_t per_worker_sum = 0;
  for (std::size_t w = 0; w < rss.worker_count(); ++w) {
    per_worker_sum += rss.steered_to(w);
  }
  EXPECT_EQ(per_worker_sum, rss.sub_batches_steered());

  rss.Dispatch(Traffic(8, 128));
  EXPECT_EQ(rss.batches_steered(), 2u);

  rss.Shutdown();
  for (std::size_t w = 0; w < rss.worker_count(); ++w) {
    while (rss.queue(w).TryRecv()) {
    }
  }
}

TEST(Rss, ConcurrentDispatchKeepsAffinityAndExactCounters) {
  // Two producers steer flow descriptors concurrently (descriptors, not
  // buffers: mempools are single-owner, so only a bufferless batch
  // legitimately admits multi-producer dispatch).
  constexpr std::size_t kWorkers = 4;
  constexpr int kBatchesPerProducer = 100;
  constexpr std::size_t kBatchSize = 32;

  RssDispatcher rss(kWorkers, /*queue_depth=*/0);

  std::atomic<std::size_t> received{0};
  std::atomic<bool> misrouted{false};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&rss, &received, &misrouted, w] {
      while (auto handle = rss.queue(w).Recv()) {
        FlowBatch batch = handle->Take();
        for (const FlowWork& fw : batch) {
          if (rss.WorkerForTuple(fw.tuple) != w) {
            misrouted = true;
          }
        }
        received += batch.size();
      }
    });
  }

  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&rss, p] {
      FlowSampler sampler(64, 0.0, 1000 + static_cast<std::uint64_t>(p));
      FlowFeeder feeder(&sampler);
      for (int i = 0; i < kBatchesPerProducer; ++i) {
        rss.Dispatch(feeder.Next(kBatchSize));
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  rss.Shutdown();
  for (auto& worker : workers) {
    worker.join();
  }

  EXPECT_FALSE(misrouted.load()) << "flow steered to the wrong worker";
  EXPECT_EQ(received.load(), 2u * kBatchesPerProducer * kBatchSize);
  EXPECT_EQ(rss.batches_steered(), 2u * kBatchesPerProducer)
      << "dispatch-call counter must be exact under concurrent producers";
  std::uint64_t per_worker_sum = 0;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    per_worker_sum += rss.steered_to(w);
  }
  EXPECT_EQ(per_worker_sum, rss.sub_batches_steered());
}

TEST(Rss, BackpressureBlocksDispatchAtQueueDepth) {
  // One worker, depth 2, nobody draining: the first two dispatches fill the
  // ring, the third must block until a slot frees up.
  RssDispatcher rss(1, /*queue_depth=*/2);
  FlowSampler sampler(8, 0.0, 5);
  FlowFeeder feeder(&sampler);
  rss.Dispatch(feeder.Next(4));
  rss.Dispatch(feeder.Next(4));
  ASSERT_EQ(rss.queue(0).size(), 2u);

  std::atomic<bool> third_done{false};
  std::thread producer([&] {
    rss.Dispatch(feeder.Next(4));
    third_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_done.load()) << "dispatch must block on a full queue";

  ASSERT_TRUE(rss.queue(0).Recv().has_value());  // free one slot
  producer.join();
  EXPECT_TRUE(third_done.load());
  rss.Shutdown();
  while (rss.queue(0).TryRecv()) {
  }
}

TEST(Rss, ShutdownWakesWorkersBlockedInReceive) {
  constexpr std::size_t kWorkers = 3;
  RssDispatcher rss(kWorkers, /*queue_depth=*/4);
  std::atomic<std::size_t> exited{0};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&rss, &exited, w] {
      // Nothing is ever dispatched: every worker parks inside Recv().
      while (rss.queue(w).Recv()) {
      }
      ++exited;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(exited.load(), 0u) << "workers should be blocked in Recv";
  rss.Shutdown();
  for (auto& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(exited.load(), kWorkers) << "close must wake and release all";
}

TEST(Rss, MultiThreadedWorkersProcessEverything) {
  constexpr std::size_t kWorkers = 3;
  constexpr int kBatches = 50;
  constexpr std::size_t kBatchSize = 32;

  RssDispatcher rss(kWorkers, /*queue_depth=*/16);

  // Each worker materializes frames from its own pool on its own thread
  // (mempool.h's single-owner contract, as in net::Runtime) and runs them
  // through its own NF replica.
  std::atomic<std::size_t> processed{0};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&rss, &processed, w] {
      Mempool pool(64, 2048);
      NatRewrite nat(0x05050505);  // per-worker state: no locks needed
      while (auto handle = rss.queue(w).Recv()) {
        const FlowBatch flows = handle->Take();
        PacketBatch batch(flows.size());
        for (const FlowWork& fw : flows) {
          PacketBuf pkt = PacketBuf::Alloc(&pool, 64);
          BuildFrame(pkt, fw.tuple);
          batch.Push(std::move(pkt));
        }
        processed += nat.Process(std::move(batch)).size();
      }
    });
  }

  for (int i = 0; i < kBatches; ++i) {
    rss.Dispatch(Traffic(100 + static_cast<std::uint64_t>(i), kBatchSize));
  }
  rss.Shutdown();
  for (auto& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(processed.load(), kBatches * kBatchSize);
}

// Silent-loss bugfix: a sub-batch refused by a closed worker channel used
// to disappear without a trace (`sent < expected` was invisible). The
// refusal and its item count are now first-class counters.
TEST(Rss, DispatchAfterShutdownCountsRefusalsAndDroppedItems) {
  RssDispatcher rss(2, /*queue_depth=*/0);
  FlowSampler sampler(16, 0.0, 9);
  FlowFeeder feeder(&sampler);
  EXPECT_GE(rss.Dispatch(feeder.Next(32)), 1u);
  EXPECT_EQ(rss.refused_sub_batches(), 0u);
  EXPECT_EQ(rss.dropped_items(), 0u);

  rss.Shutdown();
  EXPECT_EQ(rss.Dispatch(feeder.Next(32)), 0u)
      << "closed channels refuse every sub-batch";
  EXPECT_GE(rss.refused_sub_batches(), 1u);
  EXPECT_LE(rss.refused_sub_batches(), 2u);
  EXPECT_EQ(rss.dropped_items(), 32u)
      << "every dropped item must be accounted";
  for (std::size_t w = 0; w < rss.worker_count(); ++w) {
    while (rss.queue(w).TryRecv()) {
    }
  }
}

// Work stealing: a steal moves whole flows (every queued item of each
// chosen flow, in order), repoints them in the migration table, and leaves
// nothing of a stolen flow behind on the victim.
TEST(Rss, StealMovesWholeFlowsRepointsHomeAndKeepsFifo) {
  RssDispatcher rss(2, /*queue_depth=*/0);
  FlowSampler sampler(32, 0.0, 11);
  FlowFeeder feeder(&sampler);
  std::size_t dispatched = 0;
  for (int i = 0; i < 8; ++i) {
    FlowBatch batch = feeder.Next(32);
    dispatched += batch.size();
    rss.Dispatch(std::move(batch));
  }

  std::unordered_set<std::uint64_t> committed_keys;
  auto result = rss.Steal(
      /*victim=*/0, /*thief=*/1,
      [] { return std::unordered_set<std::uint64_t>{}; },
      [&committed_keys](const auto& r) {
        committed_keys.insert(r.keys.begin(), r.keys.end());
      });
  ASSERT_GT(result.items, 0u) << "a loaded victim queue must yield a steal";
  const std::unordered_set<std::uint64_t> stolen_keys(result.keys.begin(),
                                                      result.keys.end());
  EXPECT_EQ(committed_keys, stolen_keys)
      << "commit must see the final key set while the locks are held";
  EXPECT_EQ(rss.migrated_flows(), stolen_keys.size());

  // Every stolen item belongs to a migrated flow, routes to the thief now,
  // and per-flow sequence numbers stay strictly increasing across slices.
  std::unordered_map<std::uint64_t, std::uint64_t> last_seq;
  std::size_t stolen_items = 0;
  for (const FlowBatch& slice : result.batches) {
    for (const FlowWork& fw : slice) {
      ++stolen_items;
      const std::uint64_t key = rss.FlowKey(fw.tuple);
      EXPECT_TRUE(stolen_keys.count(key) != 0);
      EXPECT_EQ(rss.WorkerForTuple(fw.tuple), 1u) << "flow must follow steal";
      auto [it, fresh] = last_seq.emplace(key, fw.seq);
      if (!fresh) {
        EXPECT_LT(it->second, fw.seq) << "per-flow FIFO broken by steal";
        it->second = fw.seq;
      }
    }
  }
  EXPECT_EQ(stolen_items, result.items);

  // Conservation: stolen + still-queued == dispatched, and the victim keeps
  // no item of any stolen flow (a leftover would break per-flow ordering).
  rss.Shutdown();
  std::size_t remaining = 0;
  for (std::size_t w = 0; w < rss.worker_count(); ++w) {
    while (auto handle = rss.queue(w).TryRecv()) {
      FlowBatch batch = (*handle).Take();
      for (const FlowWork& fw : batch) {
        if (w == 0) {
          EXPECT_EQ(stolen_keys.count(rss.FlowKey(fw.tuple)), 0u)
              << "victim kept an item of a stolen flow";
        }
      }
      remaining += batch.size();
    }
  }
  EXPECT_EQ(remaining + result.items, dispatched);
}

// The off-limits set (the victim's in-flight flows) is honoured: a steal
// never touches an excluded flow, and excluding everything yields nothing.
TEST(Rss, StealSkipsExcludedFlows) {
  RssDispatcher rss(2, /*queue_depth=*/0);
  FlowSampler sampler(32, 0.0, 13);
  FlowFeeder feeder(&sampler);
  for (int i = 0; i < 4; ++i) {
    rss.Dispatch(feeder.Next(32));
  }
  std::unordered_set<std::uint64_t> all_keys;
  for (std::size_t i = 0; i < sampler.flow_count(); ++i) {
    all_keys.insert(rss.FlowKey(sampler.FlowAt(i)));
  }
  bool committed = false;
  auto result = rss.Steal(
      0, 1, [&all_keys] { return all_keys; },
      [&committed](const auto&) { committed = true; });
  EXPECT_TRUE(result.batches.empty());
  EXPECT_EQ(result.items, 0u);
  EXPECT_FALSE(committed) << "an empty steal must not commit";
  EXPECT_EQ(rss.migrated_flows(), 0u);
  for (std::size_t i = 0; i < sampler.flow_count(); ++i) {
    const FiveTuple tuple = sampler.FlowAt(i);
    EXPECT_EQ(rss.WorkerForTuple(tuple),
              static_cast<std::size_t>(rss.FlowKey(tuple) % 2))
        << "no migration may happen when everything is off-limits";
  }
  rss.Shutdown();
  for (std::size_t w = 0; w < rss.worker_count(); ++w) {
    while (rss.queue(w).TryRecv()) {
    }
  }
}

// Migration-table lifecycle under flow churn: before eviction existed,
// every flow ever stolen kept its table entry forever (only a steal-back
// removed a key), so churning through fresh flows grew the table without
// bound. With epoch/TTL eviction the table holds only recently-stolen
// flows, and an evicted flow routes back to its hash home.
TEST(Rss, MigrationTableEvictsQuietFlows) {
  constexpr std::size_t kRounds = 8;
  constexpr std::size_t kFlowsPerRound = 16;
  constexpr std::uint64_t kTtl = 4;  // dispatches per round below
  RssDispatcher rss(2, /*queue_depth=*/0);

  auto drain = [&rss] {
    for (std::size_t w = 0; w < rss.worker_count(); ++w) {
      while (rss.queue(w).TryRecv().status == sfi::RecvStatus::kValue) {
      }
    }
  };

  std::size_t total_stolen_keys = 0;
  std::size_t peak_table = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    // A fresh flow population every round — the churn that used to leak.
    FlowSampler sampler(kFlowsPerRound, 0.0,
                        static_cast<std::uint64_t>(100 + round));
    FlowFeeder feeder(&sampler);
    for (int i = 0; i < 4; ++i) {
      rss.Dispatch(feeder.Next(kFlowsPerRound));
    }
    const auto result = rss.Steal(
        /*victim=*/0, /*thief=*/1,
        [] { return std::unordered_set<std::uint64_t>{}; },
        [](const auto&) {});
    total_stolen_keys += result.keys.size();
    drain();
    // The idle thief sweeps its own stale entries; this round's are too
    // young (epoch == now), earlier rounds' are >= kTtl dispatches old.
    rss.EvictStaleMigrations(/*home=*/1, kTtl);
    peak_table = std::max(peak_table, rss.migrated_flows());
  }
  ASSERT_GT(total_stolen_keys, kFlowsPerRound)
      << "churn must actually migrate flows across rounds";
  EXPECT_LE(peak_table, 2 * kFlowsPerRound)
      << "table must stay bounded by the live flow population, not by the "
         "cumulative churn";
  EXPECT_LT(rss.migrated_flows(), total_stolen_keys);
  EXPECT_GT(rss.migration_evictions(), 0u);

  // Age out the final round too: advance the epoch past the TTL with empty
  // dispatches, then sweep. The table must empty and every flow must route
  // by hash again.
  for (std::uint64_t i = 0; i < kTtl; ++i) {
    rss.Dispatch(FlowBatch{});
  }
  rss.EvictStaleMigrations(/*home=*/1, kTtl);
  EXPECT_EQ(rss.migrated_flows(), 0u);
  FlowSampler probe(kFlowsPerRound, 0.0, 100);  // round 0's population
  for (std::size_t i = 0; i < probe.flow_count(); ++i) {
    const FiveTuple tuple = probe.FlowAt(i);
    EXPECT_EQ(rss.WorkerForTuple(tuple),
              static_cast<std::size_t>(rss.FlowKey(tuple) % 2))
        << "evicted flow must fall back to its hash home";
  }
  rss.Shutdown();
}

TEST(Rss, ZeroWorkersRejected) {
  EXPECT_THROW(RssDispatcher rss(0), util::PanicError);
}

TEST(Rss, OutOfRangeQueuePanics) {
  RssDispatcher rss(2);
  EXPECT_THROW((void)rss.queue(5), util::PanicError);
}

}  // namespace
}  // namespace net
