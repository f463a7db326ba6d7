// Receive-side scaling (RSS): the NIC feature the DPDK simulator's users
// expect — hash each packet's 5-tuple and steer it to one of N worker
// queues, so one flow always lands on one worker (no cross-core flow state).
//
// The handoff uses sfi::Channel, i.e. it is a zero-copy ownership transfer:
// the dispatcher provably cannot touch a batch after steering it, which is
// what makes lock-free per-worker flow tables sound (§3's argument applied
// across threads instead of domains).
//
// BasicRssDispatcher is generic over the steered batch type: the classic
// instantiation (RssDispatcher) steers PacketBatch, while net::Runtime
// steers FlowBatch — flow *descriptors* rather than buffers — so that
// packet memory is always allocated and freed on the worker that owns the
// pool (see mempool.h's single-owner contract). Any batch type works if it
// is movable, iterable, and its items expose Tuple().
//
// Dispatch may be called from multiple producer threads concurrently
// (sfi::Channel is MPMC); the steering counters are relaxed atomics so the
// telemetry stays exact under concurrent dispatch.
//
// Work stealing (optional, ctor flag): an idle worker may move whole flows
// from a loaded peer's queue onto its own replica via Steal(). A
// steal-migration table (flow key -> new home) is consulted on every later
// dispatch of a stolen flow; a flow's queued items move wholesale and in
// order, so per-flow FIFO and single-home flow state both survive the
// migration (see DESIGN.md "Flow pinning vs. stealing").
//
// The table is published as an immutable sorted flat vector, republished by
// the writers (Steal, EvictStaleMigrations) only while no Dispatch is in
// flight — so the dispatch fast path reads it with no lock at all, and the
// no-migration case costs one relaxed load per routed item. Entries carry
// the dispatch epoch of their last steal and are evicted once stale and
// quiescent, keeping the table bounded under flow churn.
#ifndef LINSYS_SRC_NET_RSS_H_
#define LINSYS_SRC_NET_RSS_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/lin/own.h"
#include "src/net/batch.h"
#include "src/net/headers.h"
#include "src/sfi/channel.h"
#include "src/util/panic.h"

namespace net {

template <typename Batch>
class BasicRssDispatcher {
 public:
  // What one Steal() moved: per-source-sub-batch slices (oldest first, each
  // preserving its source's flow id), the distinct flow keys migrated, and
  // the item total.
  struct StealResult {
    std::vector<Batch> batches;
    std::vector<std::uint64_t> keys;
    std::size_t items = 0;
  };

  // `queue_depth` bounds each worker channel (backpressure, like NIC ring
  // sizes); 0 = unbounded. `stealing` arms the migration table and the
  // steal/dispatch gate; leave it off and the hash-only fast path is
  // unchanged.
  explicit BasicRssDispatcher(std::size_t workers, std::size_t queue_depth = 64,
                              bool stealing = false)
      : seed_(0x5ca1ab1eULL), stealing_(stealing), per_worker_steered_(workers) {
    LINSYS_ASSERT(workers > 0, "RSS needs at least one worker");
    for (std::size_t i = 0; i < workers; ++i) {
      queues_.push_back(std::make_unique<sfi::Channel<Batch>>(queue_depth));
    }
  }

  // Steers every item of `batch` to its worker queue, grouped into one
  // sub-batch per worker per call. Consumes the input batch. Returns the
  // number of sub-batches actually enqueued. A closed channel refuses its
  // sub-batch; the refusal and its item count are recorded in
  // refused_sub_batches()/dropped_items() — never lost silently.
  //
  // With stealing armed, routing must be atomic w.r.t. a Steal repointing a
  // flow (an item routed with the old table but enqueued after the steal
  // extracted the flow would land *behind* the migration and break per-flow
  // FIFO). Instead of a per-dispatch shared_mutex, Dispatch announces
  // itself in `active_dispatches_` and a Steal refuses to publish while any
  // dispatch is in flight; the announcement is one uncontended RMW pair per
  // *call*, and routing itself reads the published flat table lock-free.
  // Only when a steal is mid-publish does a dispatch fall back to the steer
  // lock and wait it out.
  std::size_t Dispatch(Batch batch) {
    dispatch_calls_.fetch_add(1, std::memory_order_relaxed);
    if (!stealing_) {
      return FanOut(std::move(batch));
    }
    // Dekker handshake with Steal: we announce, then check for a writer;
    // the writer announces, then checks for us. Both sides seq_cst, so
    // "both proceed" is impossible — either the steal sees our count and
    // aborts, or we see its flag and serialize behind the steer lock.
    active_dispatches_.fetch_add(1, std::memory_order_seq_cst);
    if (steal_in_progress_.load(std::memory_order_seq_cst)) {
      active_dispatches_.fetch_sub(1, std::memory_order_release);
      std::shared_lock<std::shared_mutex> lock(steer_mu_);
      return FanOut(std::move(batch));
    }
    struct Gate {
      std::atomic<std::uint64_t>* c;
      ~Gate() { c->fetch_sub(1, std::memory_order_release); }
    } gate{&active_dispatches_};
    return FanOut(std::move(batch));
  }

  // Which worker an item's flow maps to. Stable per flow between steals;
  // a Steal() repoints every migrated flow atomically w.r.t. Dispatch.
  // (Reads outside Dispatch take the steer lock when the table is
  // non-empty; the answer reflects the migration table at call time.)
  template <typename Item>
  std::size_t WorkerFor(const Item& item) const {
    return WorkerForTuple(item.Tuple());
  }
  std::size_t WorkerForTuple(const FiveTuple& tuple) const {
    const std::uint64_t key = FlowKey(tuple);
    if (stealing_ && migrated_count_.load(std::memory_order_relaxed) > 0) {
      std::shared_lock<std::shared_mutex> lock(steer_mu_);
      return RouteKey(key);
    }
    return HashHome(key);
  }

  // The flow key used by the migration table: the seeded 5-tuple hash. Two
  // tuples that collide on the full 64-bit hash share a key and therefore
  // co-migrate — conservative, never order-breaking.
  std::uint64_t FlowKey(const FiveTuple& tuple) const {
    return tuple.Hash(seed_);
  }

  // Per-item key on hot scan paths: items that carry a fan-out-stamped
  // cached key (FlowWork) hand it back for free; anything else falls back
  // to hashing the tuple. Every queued item passed through FanOut, so the
  // cache is always populated when present.
  template <typename Item>
  std::uint64_t ItemKey(const Item& item) const {
    if constexpr (requires { item.flow_key(); }) {
      return item.flow_key();
    } else {
      return FlowKey(item.Tuple());
    }
  }

  // Work stealing. Moves every queued item of a chosen flow set from
  // `victim`'s queue to the caller (worker `thief`) and repoints those flows
  // in the migration table, all atomically w.r.t. Dispatch (no dispatch in
  // flight, steer lock held exclusive) and the victim's own receive loop
  // (victim channel lock held).
  //
  // `excluded` is called under the victim's channel lock and must return
  // the flow keys that are OFF-LIMITS — the victim's in-flight work (popped
  // batch or a stolen chain it still holds). Stolen flows never overlap any
  // in-flight work, so the thief may process them immediately: older items
  // of those flows cannot exist anywhere else.
  //
  // `commit` is called with the StealResult while the locks are still held;
  // the thief uses it to publish the stolen keys as its own in-flight set
  // before anyone else can steal or route them.
  //
  // Flow choice: flows are accepted oldest-first (by first appearance in
  // the queue) until `max_fraction` of the victim's queued items are taken
  // — the steal quantum. Opportunistic only: a held steer lock or an
  // in-flight dispatch aborts the attempt (the thief parks and retries).
  template <typename ExcludedFn, typename CommitFn>
  StealResult Steal(std::size_t victim, std::size_t thief,
                    ExcludedFn&& excluded, CommitFn&& commit,
                    double max_fraction = 0.5) {
    StealResult result;
    LINSYS_ASSERT(stealing_, "Steal() on a dispatcher built without stealing");
    LINSYS_ASSERT(victim < queues_.size() && thief < queues_.size() &&
                      victim != thief,
                  "bad steal worker indices");
    // try_lock only: Dispatch's slow path holds the steer lock shared
    // across its (possibly blocking) Send fan-out, so a blocking exclusive
    // wait here can cycle — dispatcher waits on this worker's full queue
    // while this worker waits for the dispatcher to release the steer lock.
    std::unique_lock<std::shared_mutex> steer(steer_mu_, std::try_to_lock);
    if (!steer.owns_lock()) {
      return result;
    }
    WriterGate gate(this);
    if (!gate.clear()) {
      return result;  // a dispatch is mid-route; retry later
    }
    queues_[victim]->WithQueueLocked([&](std::deque<lin::Own<Batch>>& q) {
      if (q.empty()) {
        return;
      }
      const std::unordered_set<std::uint64_t> off = excluded();
      // Pass 1: per-flow queued item counts in first-seen (oldest) order.
      std::vector<std::pair<std::uint64_t, std::size_t>> flows;
      std::unordered_map<std::uint64_t, std::size_t> flow_index;
      std::size_t total_items = 0;
      for (const auto& own : q) {
        for (const auto& item : *own) {
          const std::uint64_t key = ItemKey(item);
          auto [it, fresh] = flow_index.try_emplace(key, flows.size());
          if (fresh) {
            flows.emplace_back(key, 0);
          }
          ++flows[it->second].second;
          ++total_items;
        }
      }
      // Choose stealable flows oldest-first up to the steal quantum.
      const std::size_t target = std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(total_items) *
                                      max_fraction));
      std::unordered_set<std::uint64_t> chosen;
      std::size_t chosen_items = 0;
      for (const auto& [key, count] : flows) {
        if (chosen_items >= target) {
          break;
        }
        if (off.count(key) != 0) {
          continue;
        }
        chosen.insert(key);
        chosen_items += count;
      }
      if (chosen.empty()) {
        return;
      }
      // Pass 2: extract the chosen flows' items from every sub-batch, in
      // queue order, preserving each slice's source flow id for tracing.
      std::deque<lin::Own<Batch>> rest;
      for (auto& own : q) {
        Batch source = own.Take();
        Batch keep;
        Batch take;
        if constexpr (requires { keep.set_flow_id(source.flow_id()); }) {
          keep.set_flow_id(source.flow_id());
          take.set_flow_id(source.flow_id());
        }
        // The dispatch-time SLO stamp migrates with the slice: a stolen
        // batch's delivery latency is still measured from its original
        // dispatch, so migration cost is inside the number, not hidden.
        if constexpr (requires { keep.set_dispatch_tsc(source.dispatch_tsc()); }) {
          keep.set_dispatch_tsc(source.dispatch_tsc());
          take.set_dispatch_tsc(source.dispatch_tsc());
        }
        // Accumulated decomposition stamps migrate too: a slice stolen
        // twice keeps the transit cycles of both legs, and a fence stall
        // survives a later migration.
        if constexpr (requires { keep.set_steal_cycles(source.steal_cycles()); }) {
          keep.set_steal_cycles(source.steal_cycles());
          take.set_steal_cycles(source.steal_cycles());
          keep.set_fence_cycles(source.fence_cycles());
          take.set_fence_cycles(source.fence_cycles());
        }
        for (auto& item : source) {
          if (chosen.count(ItemKey(item)) != 0) {
            take.Push(std::move(item));
          } else {
            keep.Push(std::move(item));
          }
        }
        result.items += take.size();
        if (!take.empty()) {
          result.batches.push_back(std::move(take));
        }
        if (!keep.empty()) {
          rest.push_back(lin::Own<Batch>::Make(std::move(keep)));
        }
      }
      q.swap(rest);
      result.keys.assign(chosen.begin(), chosen.end());
      // Repoint the migrated flows, stamped with the current dispatch epoch
      // for TTL eviction. A key whose hash home IS the thief just falls off
      // the table (steal-back cancels the migration entry).
      const std::uint64_t now = dispatch_calls_.load(std::memory_order_relaxed);
      for (const std::uint64_t key : chosen) {
        if (HashHome(key) == thief) {
          migrated_.erase(key);
        } else {
          migrated_[key] = Migration{thief, now};
        }
      }
      Republish();
      commit(result);
    });
    return result;
  }

  // Migration-table eviction: erases entries homed at `home` whose last
  // steal is at least `ttl` Dispatch() calls old, provided `home`'s queue is
  // currently empty. Caller contract: `home`'s worker is idle (it holds no
  // popped batch and no stolen chain) — in practice the worker itself calls
  // this from its idle loop. Safety: single-homing means an evicted flow's
  // items could only live in `home`'s queue or in-flight set; both are
  // empty and no dispatch is mid-route (writer gate), so the flow has no
  // work anywhere and future dispatches simply land back on the hash home.
  // Returns the number of entries evicted (0 on contention, a closed or
  // non-empty queue, or nothing stale). ttl == 0 disables eviction.
  std::size_t EvictStaleMigrations(std::size_t home, std::uint64_t ttl) {
    if (!stealing_ || ttl == 0 ||
        migrated_count_.load(std::memory_order_relaxed) == 0) {
      return 0;
    }
    LINSYS_ASSERT(home < queues_.size(), "worker index out of range");
    std::unique_lock<std::shared_mutex> steer(steer_mu_, std::try_to_lock);
    if (!steer.owns_lock()) {
      return 0;
    }
    WriterGate gate(this);
    if (!gate.clear()) {
      return 0;
    }
    const std::uint64_t now = dispatch_calls_.load(std::memory_order_relaxed);
    std::size_t evicted = 0;
    // Under the channel lock for the closed check: a draining queue at
    // shutdown belongs to its owner, and eviction there is pointless.
    queues_[home]->WithQueueLocked([&](std::deque<lin::Own<Batch>>& q) {
      if (!q.empty()) {
        return;
      }
      for (auto it = migrated_.begin(); it != migrated_.end();) {
        if (it->second.home == home && now - it->second.epoch >= ttl) {
          it = migrated_.erase(it);
          ++evicted;
        } else {
          ++it;
        }
      }
      if (evicted > 0) {
        Republish();
      }
    });
    if (evicted > 0) {
      evictions_.fetch_add(evicted, std::memory_order_relaxed);
    }
    return evicted;
  }

  // Failover re-home: moves every queued flow of `victim` (except the
  // `excluded` in-flight set) to the surviving workers and repoints the
  // migration table so later dispatches follow — the steering half of
  // net::Runtime::FailoverWorker. Flows whose hash home is another worker
  // simply return to it (their migration entry is erased); flows homed at
  // `victim` by hash round-robin across the survivors via new entries.
  //
  // Atomicity matches Steal: steer lock exclusive + clear writer gate, so no
  // dispatch can route between the extraction and the re-enqueue — per-flow
  // FIFO survives because a flow's queued items move wholesale, in order,
  // and nothing new can land behind them mid-move. Slices are *pushed* into
  // the survivors' queues under their channel locks (taken one at a time,
  // never nested) rather than Sent: a full queue must not block under the
  // steer lock, and the momentary overfill is bounded by the victim's queue.
  //
  // Returns the number of items re-homed, or nullopt on lock/gate
  // contention (retry). Items refused by a closed survivor channel are
  // counted in dropped_items() — the shutdown race stays loss-accounted.
  template <typename ExcludedFn>
  std::optional<std::size_t> RehomeWorker(std::size_t victim,
                                          ExcludedFn&& excluded) {
    LINSYS_ASSERT(stealing_,
                  "RehomeWorker() on a dispatcher built without the "
                  "migration table");
    LINSYS_ASSERT(victim < queues_.size(), "worker index out of range");
    LINSYS_ASSERT(queues_.size() > 1, "failover needs a surviving worker");
    std::unique_lock<std::shared_mutex> steer(steer_mu_, std::try_to_lock);
    if (!steer.owns_lock()) {
      return std::nullopt;
    }
    WriterGate gate(this);
    if (!gate.clear()) {
      return std::nullopt;
    }
    // Extraction under the victim's channel lock: per source sub-batch, one
    // slice per target worker (preserving the source's flow id for tracing),
    // in queue order. Excluded (in-flight) flows stay queued at the victim —
    // the victim itself still drains them, so they are never lost.
    std::vector<std::pair<std::size_t, Batch>> slices;
    std::unordered_map<std::uint64_t, std::size_t> flow_target;
    std::size_t moved_items = 0;
    std::size_t rr = 0;  // round-robin cursor over survivors
    const bool open = queues_[victim]->WithQueueLocked(
        [&](std::deque<lin::Own<Batch>>& q) {
          if (q.empty()) {
            return;
          }
          const std::unordered_set<std::uint64_t> off = excluded();
          std::deque<lin::Own<Batch>> rest;
          for (auto& own : q) {
            Batch source = own.Take();
            Batch keep;
            std::vector<Batch> take(queues_.size());
            if constexpr (requires { keep.set_flow_id(source.flow_id()); }) {
              keep.set_flow_id(source.flow_id());
              for (auto& t : take) {
                t.set_flow_id(source.flow_id());
              }
            }
            // Failover re-homes keep the original dispatch stamp too: the
            // survivor's delivery sample includes the resync detour.
            if constexpr (requires {
                            keep.set_dispatch_tsc(source.dispatch_tsc());
                          }) {
              keep.set_dispatch_tsc(source.dispatch_tsc());
              for (auto& t : take) {
                t.set_dispatch_tsc(source.dispatch_tsc());
              }
            }
            if constexpr (requires {
                            keep.set_steal_cycles(source.steal_cycles());
                          }) {
              keep.set_steal_cycles(source.steal_cycles());
              keep.set_fence_cycles(source.fence_cycles());
              for (auto& t : take) {
                t.set_steal_cycles(source.steal_cycles());
                t.set_fence_cycles(source.fence_cycles());
              }
            }
            for (auto& item : source) {
              const std::uint64_t key = ItemKey(item);
              if (off.count(key) != 0) {
                keep.Push(std::move(item));
                continue;
              }
              auto [it, fresh] = flow_target.try_emplace(key, 0);
              if (fresh) {
                const std::size_t home = HashHome(key);
                if (home != victim) {
                  it->second = home;  // flow falls back to its hash home
                } else {
                  it->second = (victim + 1 + rr) % queues_.size();
                  rr = (rr + 1) % (queues_.size() - 1);
                }
              }
              take[it->second].Push(std::move(item));
              ++moved_items;
            }
            for (std::size_t w = 0; w < take.size(); ++w) {
              if (!take[w].empty()) {
                slices.emplace_back(w, std::move(take[w]));
              }
            }
            if (!keep.empty()) {
              rest.push_back(lin::Own<Batch>::Make(std::move(keep)));
            }
          }
          q.swap(rest);
          // Repoint the table for every moved flow while the victim's lock
          // still excludes its receive loop.
          const std::uint64_t now =
              dispatch_calls_.load(std::memory_order_relaxed);
          for (const auto& [key, target] : flow_target) {
            if (HashHome(key) == target) {
              migrated_.erase(key);
            } else {
              migrated_[key] = Migration{target, now};
            }
          }
          Republish();
        });
    if (!open) {
      return 0;  // victim channel closed: shutdown owns the drain
    }
    // Re-enqueue phase, still under the steer lock + gate (no dispatch can
    // interleave, so nothing lands behind these slices). Channel locks are
    // taken strictly one at a time.
    for (auto& [w, slice] : slices) {
      const std::size_t items = slice.size();
      Batch* slot = &slice;
      const bool target_open = queues_[w]->WithQueueLocked(
          [slot](std::deque<lin::Own<Batch>>& q) {
            q.push_back(lin::Own<Batch>::Make(std::move(*slot)));
          });
      if (!target_open) {
        refused_sub_batches_.fetch_add(1, std::memory_order_relaxed);
        dropped_items_.fetch_add(items, std::memory_order_relaxed);
        moved_items -= items;
      }
    }
    return moved_items;
  }

  // Queue-depth spread across workers (max - min), the imbalance signal the
  // stealing loop and the obs gauge both read.
  std::size_t QueueImbalance() const {
    std::size_t min_depth = SIZE_MAX;
    std::size_t max_depth = 0;
    for (const auto& queue : queues_) {
      const std::size_t depth = queue->size();
      min_depth = depth < min_depth ? depth : min_depth;
      max_depth = depth > max_depth ? depth : max_depth;
    }
    return queues_.empty() ? 0 : max_depth - min_depth;
  }

  // The worker side: blocking receive of the next steered sub-batch.
  sfi::Channel<Batch>& queue(std::size_t worker) {
    LINSYS_ASSERT(worker < queues_.size(), "worker index out of range");
    return *queues_[worker];
  }

  void Shutdown() {
    for (auto& queue : queues_) {
      queue->Close();
    }
  }

  std::size_t worker_count() const { return queues_.size(); }

  // Number of Dispatch() calls — i.e. input batches steered. (This used to
  // count per-worker sub-batches, which over-reported by up to worker_count
  // per call; sub-batch counts live in sub_batches_steered() now.) Doubles
  // as the migration-table eviction epoch.
  std::uint64_t batches_steered() const {
    return dispatch_calls_.load(std::memory_order_relaxed);
  }
  // Total per-worker sub-batches enqueued across all Dispatch() calls.
  std::uint64_t sub_batches_steered() const {
    return sub_batches_steered_.load(std::memory_order_relaxed);
  }
  // Sub-batches enqueued to one specific worker.
  std::uint64_t steered_to(std::size_t worker) const {
    LINSYS_ASSERT(worker < per_worker_steered_.size(),
                  "worker index out of range");
    return per_worker_steered_[worker].load(std::memory_order_relaxed);
  }
  // Sub-batches refused by a closed worker channel, and the items those
  // refusals dropped. Nonzero only when Dispatch raced a Shutdown.
  std::uint64_t refused_sub_batches() const {
    return refused_sub_batches_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped_items() const {
    return dropped_items_.load(std::memory_order_relaxed);
  }
  // Live distinct flows currently homed away from their hash home.
  std::size_t migrated_flows() const {
    return migrated_count_.load(std::memory_order_relaxed);
  }
  // Migration entries erased by TTL eviction since construction.
  std::uint64_t migration_evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Migration {
    std::size_t home = 0;
    std::uint64_t epoch = 0;  // dispatch_calls_ at the stamping steal
  };
  struct FlatEntry {
    std::uint64_t key = 0;
    std::size_t home = 0;
  };

  // Writer-side half of the Dekker handshake (see Dispatch). Constructed
  // with the steer lock already held exclusive; clear() is true when no
  // dispatch is in flight, i.e. the table may be mutated and republished.
  class WriterGate {
   public:
    explicit WriterGate(BasicRssDispatcher* rss) : rss_(rss) {
      rss_->steal_in_progress_.store(true, std::memory_order_seq_cst);
      clear_ =
          rss_->active_dispatches_.load(std::memory_order_seq_cst) == 0;
    }
    ~WriterGate() {
      rss_->steal_in_progress_.store(false, std::memory_order_release);
    }
    bool clear() const { return clear_; }

   private:
    BasicRssDispatcher* rss_;
    bool clear_ = false;
  };

  std::size_t HashHome(std::uint64_t key) const {
    return static_cast<std::size_t>(key % queues_.size());
  }

  // Routes one flow key through the published flat table. Callers must hold
  // the steer lock OR be inside the dispatch gate (either excludes a
  // concurrent republish). The no-migration path is one relaxed load.
  std::size_t RouteKey(std::uint64_t key) const {
    if (migrated_count_.load(std::memory_order_relaxed) > 0) {
      const auto it = std::lower_bound(
          flat_.begin(), flat_.end(), key,
          [](const FlatEntry& e, std::uint64_t k) { return e.key < k; });
      if (it != flat_.end() && it->key == key) {
        return it->home;
      }
    }
    return HashHome(key);
  }

  // Rebuilds the published flat table from the authoritative map. Requires
  // the steer lock exclusive and a clear writer gate.
  void Republish() {
    flat_.clear();
    flat_.reserve(migrated_.size());
    for (const auto& [key, m] : migrated_) {
      flat_.push_back(FlatEntry{key, m.home});
    }
    std::sort(flat_.begin(), flat_.end(),
              [](const FlatEntry& a, const FlatEntry& b) {
                return a.key < b.key;
              });
    migrated_count_.store(flat_.size(), std::memory_order_release);
  }

  // Routing + enqueue fan-out shared by every Dispatch path. Safe whenever
  // a concurrent republish is excluded (stealing off, dispatch gate open,
  // or steer lock held shared).
  std::size_t FanOut(Batch batch) {
    std::vector<Batch> per_worker(queues_.size());
    for (auto& item : batch) {
      const std::uint64_t key = FlowKey(item.Tuple());
      // Cache the key on items that can carry it (FlowWork): the worker's
      // pop-time publish and the thief's queue scans reuse it instead of
      // re-hashing the tuple per item.
      if constexpr (requires { item.set_flow_key(key); }) {
        item.set_flow_key(key);
      }
      per_worker[RouteKey(key)].Push(std::move(item));
    }
    // Flow-id propagation: batch types carrying a dispatch-assigned flow id
    // (FlowBatch) stamp it onto every per-worker sub-batch, so the id
    // follows the work across the channel and the worker can re-enter the
    // flow's trace context. Batch types without one (PacketBatch) compile
    // this out.
    if constexpr (requires { per_worker[0].set_flow_id(batch.flow_id()); }) {
      for (auto& sub : per_worker) {
        sub.set_flow_id(batch.flow_id());
      }
    }
    // Same for the dispatch-time SLO stamp: every sub-batch inherits the
    // moment the whole batch entered the runtime.
    if constexpr (requires {
                    per_worker[0].set_dispatch_tsc(batch.dispatch_tsc());
                  }) {
      for (auto& sub : per_worker) {
        sub.set_dispatch_tsc(batch.dispatch_tsc());
      }
    }
    std::size_t sent = 0;
    for (std::size_t w = 0; w < queues_.size(); ++w) {
      if (per_worker[w].empty()) {
        continue;
      }
      const std::size_t items = per_worker[w].size();
      auto result =
          queues_[w]->Send(lin::Own<Batch>::Make(std::move(per_worker[w])));
      if (result.ok) {
        sub_batches_steered_.fetch_add(1, std::memory_order_relaxed);
        per_worker_steered_[w].fetch_add(1, std::memory_order_relaxed);
        ++sent;
      } else {
        refused_sub_batches_.fetch_add(1, std::memory_order_relaxed);
        dropped_items_.fetch_add(items, std::memory_order_relaxed);
      }
    }
    return sent;
  }

  std::uint64_t seed_;
  const bool stealing_;
  std::vector<std::unique_ptr<sfi::Channel<Batch>>> queues_;
  std::atomic<std::uint64_t> dispatch_calls_{0};
  std::atomic<std::uint64_t> sub_batches_steered_{0};
  std::atomic<std::uint64_t> refused_sub_batches_{0};
  std::atomic<std::uint64_t> dropped_items_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::vector<std::atomic<std::uint64_t>> per_worker_steered_;
  // Steal-migration state. `migrated_` (authoritative, with eviction
  // epochs) and `flat_` (the sorted snapshot the routing path reads) are
  // only written under steer_mu_ exclusive AND a clear writer gate, so
  // gate-protected dispatches read flat_ without any lock. migrated_count_
  // mirrors flat_.size(): the no-migrations routing path is one relaxed
  // load per item, and one uncontended RMW pair per Dispatch call for the
  // gate itself.
  mutable std::shared_mutex steer_mu_;
  std::unordered_map<std::uint64_t, Migration> migrated_;
  std::vector<FlatEntry> flat_;
  std::atomic<std::size_t> migrated_count_{0};
  std::atomic<std::uint64_t> active_dispatches_{0};
  std::atomic<bool> steal_in_progress_{false};
};

// The classic NIC-shaped instantiation: steer already-built packets.
using RssDispatcher = BasicRssDispatcher<PacketBatch>;

}  // namespace net

#endif  // LINSYS_SRC_NET_RSS_H_
