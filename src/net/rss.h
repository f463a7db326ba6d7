// Receive-side scaling (RSS): the NIC feature the DPDK simulator's users
// expect — hash each flow's 5-tuple and steer it to one of N worker queues,
// so one flow always lands on one worker (no cross-core flow state).
//
// RssDispatcher steers FlowBatch — flow *descriptors* rather than packet
// buffers — so packet memory is always allocated and freed on the worker
// that owns the pool (see mempool.h's single-owner contract). The handoff
// uses sfi::Channel, i.e. it is a zero-copy ownership transfer: the
// dispatcher provably cannot touch a batch after steering it, which is what
// makes lock-free per-worker flow tables sound (§3's argument applied
// across threads instead of domains).
//
// Dispatch may be called from multiple producer threads concurrently
// (sfi::Channel is MPMC); the steering counters are relaxed atomics so the
// telemetry stays exact under concurrent dispatch.
//
// Flow migration: an idle worker may move whole flows from a loaded peer's
// queue onto its own replica via Steal(), and failover moves a worker's
// queued flows to the survivors via RehomeWorker(). Both go through one
// extraction routine (MoveFlows) and record each moved flow in a migration
// table (flow key -> new home) that every later dispatch consults. A flow's
// queued items move wholesale and in order, so per-flow FIFO and single-home
// flow state both survive the migration (see DESIGN.md "Flow pinning vs.
// work stealing").
//
// The table is published as an immutable sorted flat vector, republished by
// the writers (Steal, RehomeWorker, EvictStaleMigrations) only while no
// Dispatch is in flight — so the dispatch path reads it with no lock at
// all, and the no-migration case costs one relaxed load per routed item.
// Entries carry the dispatch epoch of their last move and are evicted once
// stale and quiescent, keeping the table bounded under flow churn.
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
#include "src/net/headers.h"
#include "src/sfi/channel.h"
#include "src/util/panic.h"

namespace net {

// One unit of steered work: which flow, and its per-flow sequence number
// (stamped into the frame payload so per-flow ordering is observable end to
// end).
struct FlowWork {
  FiveTuple tuple;
  std::uint64_t seq = 0;
  // Seeded tuple hash, stamped once by the dispatcher's fan-out (which
  // computes it anyway to route the item). The worker's pop-time publish
  // and every queue scan reuse it instead of re-running FNV over the tuple
  // bytes per item on the hot path.
  std::uint64_t flow_key = 0;
};

// Batch of flow descriptors plus the stamps that follow it from dispatch to
// delivery.
class FlowBatch {
 public:
  FlowBatch() = default;
  explicit FlowBatch(std::size_t reserve) { work_.reserve(reserve); }

  // An empty batch carrying this batch's five stamps: how fan-out, steal
  // slices and failover re-homes start every batch they split off, so the
  // stamps follow the work wherever it moves.
  FlowBatch EmptyWithStamps() const {
    FlowBatch b;
    b.flow_id_ = flow_id_;
    b.dispatch_tsc_ = dispatch_tsc_;
    b.pop_tsc_ = pop_tsc_;
    b.steal_cycles_ = steal_cycles_;
    b.fence_cycles_ = fence_cycles_;
    return b;
  }

  void Push(FlowWork w) { work_.push_back(w); }
  std::size_t size() const { return work_.size(); }
  bool empty() const { return work_.empty(); }

  auto begin() { return work_.begin(); }
  auto end() { return work_.end(); }
  auto begin() const { return work_.begin(); }
  auto end() const { return work_.end(); }

  // Trace-correlation id assigned by Runtime::Dispatch (0 = unassigned).
  // Every per-worker sub-batch inherits it, so the whole fan-out shares one
  // async track.
  std::uint64_t flow_id() const { return flow_id_; }
  void set_flow_id(std::uint64_t id) { flow_id_ = id; }

  // Dispatch-time cycle stamp (0 = unstamped), carried through fan-out,
  // steal slices, and failover re-homing exactly like flow_id, so the
  // delivery-side read measures true end-to-end latency — including queue
  // wait and any migration the batch survived — not just pipeline time.
  std::uint64_t dispatch_tsc() const { return dispatch_tsc_; }
  void set_dispatch_tsc(std::uint64_t tsc) { dispatch_tsc_ = tsc; }

  // Pop-time cycle stamp (0 = unstamped): when the batch's final home took
  // it off a queue — handle->Take() on the owning worker, or steal
  // completion for a stolen slice. Splits delivery latency into its queue
  // (dispatch→pop) and service (pop→delivery) halves.
  std::uint64_t pop_tsc() const { return pop_tsc_; }
  void set_pop_tsc(std::uint64_t tsc) { pop_tsc_ = tsc; }

  // Accumulated cycles this batch spent in steal transit (victim-queue scan
  // + migration-table update + slice split) before its new home popped it.
  // Additive: a twice-migrated slice carries both legs.
  std::uint64_t steal_cycles() const { return steal_cycles_; }
  void add_steal_cycles(std::uint64_t c) { steal_cycles_ += c; }

  // Accumulated cycles the batch stalled behind a raised checkpoint fence
  // (the capture pause taken between its pop and its processing).
  std::uint64_t fence_cycles() const { return fence_cycles_; }
  void add_fence_cycles(std::uint64_t c) { fence_cycles_ += c; }

 private:
  std::vector<FlowWork> work_;
  std::uint64_t flow_id_ = 0;
  std::uint64_t dispatch_tsc_ = 0;
  std::uint64_t pop_tsc_ = 0;
  std::uint64_t steal_cycles_ = 0;
  std::uint64_t fence_cycles_ = 0;
};

class RssDispatcher {
 public:
  // What one Steal() or re-home took out of a queue: per-source-sub-batch
  // slices in queue order (oldest first, each keeping its source's stamps)
  // with the worker each one goes to, the distinct flow keys migrated, and
  // the item total.
  struct MoveResult {
    std::vector<FlowBatch> batches;
    std::vector<std::size_t> targets;  // batches[i] goes to worker targets[i]
    std::vector<std::uint64_t> keys;
    std::size_t items = 0;
  };

  // `queue_depth` bounds each worker channel (backpressure, like NIC ring
  // sizes); 0 = unbounded.
  explicit RssDispatcher(std::size_t workers, std::size_t queue_depth = 64)
      : seed_(0x5ca1ab1eULL), per_worker_steered_(workers) {
    LINSYS_ASSERT(workers > 0, "RSS needs at least one worker");
    for (std::size_t i = 0; i < workers; ++i) {
      queues_.push_back(std::make_unique<sfi::Channel<FlowBatch>>(queue_depth));
    }
  }

  // Steers every item of `batch` to its worker queue, grouped into one
  // sub-batch per worker per call. Consumes the input batch. Returns the
  // number of sub-batches actually enqueued. A closed channel refuses its
  // sub-batch; the refusal and its item count are recorded in
  // refused_sub_batches()/dropped_items() — never lost silently.
  //
  // Routing must be atomic w.r.t. a writer repointing a flow (an item
  // routed with the old table but enqueued after a steal extracted the flow
  // would land *behind* the migration and break per-flow FIFO). Instead of
  // a per-dispatch shared_mutex, Dispatch announces itself in
  // `active_dispatches_` and a writer refuses to publish while any dispatch
  // is in flight; the announcement is one uncontended RMW pair per *call*,
  // and routing itself reads the published flat table lock-free. Only when
  // a writer is mid-publish does a dispatch fall back to the steer lock and
  // wait it out.
  std::size_t Dispatch(FlowBatch batch) {
    dispatch_calls_.fetch_add(1, std::memory_order_relaxed);
    // Dekker handshake with the writers: we announce, then check for a
    // writer; the writer announces, then checks for us. Both sides seq_cst,
    // so "both proceed" is impossible — either the writer sees our count
    // and aborts, or we see its flag and serialize behind the steer lock.
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

  // Which worker a flow maps to. Stable per flow between migrations; the
  // answer reflects the migration table at call time (taking the steer lock
  // only while the table is non-empty).
  std::size_t WorkerForTuple(const FiveTuple& tuple) const {
    const std::uint64_t key = FlowKey(tuple);
    if (migrated_count_.load(std::memory_order_relaxed) == 0) {
      return HashHome(key);
    }
    std::shared_lock<std::shared_mutex> lock(steer_mu_);
    return RouteKey(key);
  }

  // The flow key used by the migration table: the seeded 5-tuple hash. Two
  // tuples that collide on the full 64-bit hash share a key and therefore
  // co-migrate — conservative, never order-breaking.
  std::uint64_t FlowKey(const FiveTuple& tuple) const {
    return tuple.Hash(seed_);
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
  // `commit` is called with the result while the locks are still held;
  // the thief uses it to publish the stolen keys as its own in-flight set
  // before anyone else can steal or route them.
  //
  // Flow choice: flows are accepted oldest-first (by first appearance in
  // the queue) until `max_fraction` of the victim's queued items are taken
  // — the steal quantum. Opportunistic only: a held steer lock or an
  // in-flight dispatch aborts the attempt (the thief parks and retries).
  template <typename ExcludedFn, typename CommitFn>
  MoveResult Steal(std::size_t victim, std::size_t thief,
                   ExcludedFn&& excluded, CommitFn&& commit,
                   double max_fraction = 0.5) {
    MoveResult result;
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
    queues_[victim]->WithQueueLocked([&](std::deque<lin::Own<FlowBatch>>& q) {
      if (q.empty()) {
        return;
      }
      const std::unordered_set<std::uint64_t> off = excluded();
      // Per-flow queued item counts in first-seen (oldest) order.
      std::vector<std::pair<std::uint64_t, std::size_t>> flows;
      std::unordered_map<std::uint64_t, std::size_t> flow_index;
      std::size_t total_items = 0;
      for (const auto& own : q) {
        for (const FlowWork& item : *own) {
          auto [it, fresh] = flow_index.try_emplace(item.flow_key, flows.size());
          if (fresh) {
            flows.emplace_back(item.flow_key, 0);
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
      // The dispatch-time SLO stamp migrates with each slice: a stolen
      // batch's delivery latency is still measured from its original
      // dispatch, so migration cost is inside the number, not hidden.
      result = MoveFlows(q, [&](std::uint64_t key) {
        return chosen.count(key) != 0 ? thief : kKeep;
      });
      commit(result);
    });
    return result;
  }

  // Migration-table eviction: erases entries homed at `home` whose last
  // move is at least `ttl` Dispatch() calls old, provided `home`'s queue is
  // currently empty. Caller contract: `home`'s worker is idle (it holds no
  // popped batch and no stolen chain) — in practice the worker itself calls
  // this from its idle loop. Safety: single-homing means an evicted flow's
  // items could only live in `home`'s queue or in-flight set; both are
  // empty and no dispatch is mid-route (writer gate), so the flow has no
  // work anywhere and future dispatches simply land back on the hash home.
  // Returns the number of entries evicted (0 on contention, a closed or
  // non-empty queue, or nothing stale). ttl == 0 disables eviction.
  std::size_t EvictStaleMigrations(std::size_t home, std::uint64_t ttl) {
    if (ttl == 0 || migrated_count_.load(std::memory_order_relaxed) == 0) {
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
    queues_[home]->WithQueueLocked([&](std::deque<lin::Own<FlowBatch>>& q) {
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
    // Extraction under the victim's channel lock. Excluded (in-flight)
    // flows stay queued at the victim — the victim itself still drains
    // them, so they are never lost. Re-homed slices keep the original
    // dispatch stamp: the survivor's delivery sample includes the detour.
    MoveResult moved;
    std::size_t rr = 0;  // round-robin cursor over survivors
    const bool open = queues_[victim]->WithQueueLocked(
        [&](std::deque<lin::Own<FlowBatch>>& q) {
          if (q.empty()) {
            return;
          }
          const std::unordered_set<std::uint64_t> off = excluded();
          moved = MoveFlows(q, [&](std::uint64_t key) {
            if (off.count(key) != 0) {
              return kKeep;
            }
            const std::size_t home = HashHome(key);
            if (home != victim) {
              return home;  // flow falls back to its hash home
            }
            const std::size_t survivor = (victim + 1 + rr) % queues_.size();
            rr = (rr + 1) % (queues_.size() - 1);
            return survivor;
          });
        });
    if (!open) {
      return 0;  // victim channel closed: shutdown owns the drain
    }
    // Re-enqueue phase, still under the steer lock + gate (no dispatch can
    // interleave, so nothing lands behind these slices). Channel locks are
    // taken strictly one at a time.
    std::size_t moved_items = moved.items;
    for (std::size_t i = 0; i < moved.batches.size(); ++i) {
      FlowBatch& slice = moved.batches[i];
      const std::size_t items = slice.size();
      const bool target_open = queues_[moved.targets[i]]->WithQueueLocked(
          [&slice](std::deque<lin::Own<FlowBatch>>& q) {
            q.push_back(lin::Own<FlowBatch>::Make(std::move(slice)));
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
  sfi::Channel<FlowBatch>& queue(std::size_t worker) {
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
  // MoveFlows route answer: leave the flow's items queued where they are.
  static constexpr std::size_t kKeep = SIZE_MAX;

  struct Migration {
    std::size_t home = 0;
    std::uint64_t epoch = 0;  // dispatch_calls_ at the stamping move
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
    explicit WriterGate(RssDispatcher* rss) : rss_(rss) {
      rss_->steal_in_progress_.store(true, std::memory_order_seq_cst);
      clear_ =
          rss_->active_dispatches_.load(std::memory_order_seq_cst) == 0;
    }
    ~WriterGate() {
      rss_->steal_in_progress_.store(false, std::memory_order_release);
    }
    bool clear() const { return clear_; }

   private:
    RssDispatcher* rss_;
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

  // The one extraction routine behind Steal and RehomeWorker. Splits the
  // locked queue `q` by a per-flow route: `route(key)` is asked once per
  // distinct flow, in first-seen (oldest) order, and names the worker the
  // flow moves to, or kKeep. Each source sub-batch yields at most one slice
  // per target, started from the source's stamps; kept items stay queued in
  // order. Every moved flow is then repointed in the migration table (a flow
  // moved to its hash home just drops its entry), stamped with the current
  // dispatch epoch for TTL eviction. Requires the steer lock exclusive, a
  // clear writer gate, and the queue's channel lock.
  template <typename RouteFn>
  MoveResult MoveFlows(std::deque<lin::Own<FlowBatch>>& q, RouteFn&& route) {
    MoveResult moved;
    std::unordered_map<std::uint64_t, std::size_t> routes;
    std::deque<lin::Own<FlowBatch>> rest;
    for (auto& own : q) {
      FlowBatch source = own.Take();
      FlowBatch keep = source.EmptyWithStamps();
      std::vector<FlowBatch> take(queues_.size(), keep);
      for (const FlowWork& item : source) {
        auto [it, fresh] = routes.try_emplace(item.flow_key, kKeep);
        if (fresh) {
          it->second = route(item.flow_key);
        }
        (it->second == kKeep ? keep : take[it->second]).Push(item);
      }
      for (std::size_t w = 0; w < take.size(); ++w) {
        if (!take[w].empty()) {
          moved.items += take[w].size();
          moved.batches.push_back(std::move(take[w]));
          moved.targets.push_back(w);
        }
      }
      if (!keep.empty()) {
        rest.push_back(lin::Own<FlowBatch>::Make(std::move(keep)));
      }
    }
    q.swap(rest);
    const std::uint64_t now = dispatch_calls_.load(std::memory_order_relaxed);
    for (const auto& [key, target] : routes) {
      if (target == kKeep) {
        continue;
      }
      moved.keys.push_back(key);
      if (HashHome(key) == target) {
        migrated_.erase(key);
      } else {
        migrated_[key] = Migration{target, now};
      }
    }
    Republish();
    return moved;
  }

  // Routing + enqueue fan-out shared by both Dispatch paths. Safe whenever
  // a concurrent republish is excluded (dispatch gate open, or steer lock
  // held shared). Every sub-batch starts from the input batch's stamps, so
  // the flow id and the dispatch-time SLO stamp follow the work across the
  // channel; only non-empty sub-batches are sent.
  std::size_t FanOut(FlowBatch batch) {
    std::vector<FlowBatch> per_worker(queues_.size(), batch.EmptyWithStamps());
    for (FlowWork& item : batch) {
      item.flow_key = FlowKey(item.tuple);
      per_worker[RouteKey(item.flow_key)].Push(item);
    }
    std::size_t sent = 0;
    for (std::size_t w = 0; w < queues_.size(); ++w) {
      if (per_worker[w].empty()) {
        continue;
      }
      const std::size_t items = per_worker[w].size();
      auto result = queues_[w]->Send(
          lin::Own<FlowBatch>::Make(std::move(per_worker[w])));
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
  std::vector<std::unique_ptr<sfi::Channel<FlowBatch>>> queues_;
  std::atomic<std::uint64_t> dispatch_calls_{0};
  std::atomic<std::uint64_t> sub_batches_steered_{0};
  std::atomic<std::uint64_t> refused_sub_batches_{0};
  std::atomic<std::uint64_t> dropped_items_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::vector<std::atomic<std::uint64_t>> per_worker_steered_;
  // Migration state. `migrated_` (authoritative, with eviction epochs) and
  // `flat_` (the sorted snapshot the routing path reads) are only written
  // under steer_mu_ exclusive AND a clear writer gate, so gate-protected
  // dispatches read flat_ without any lock. migrated_count_ mirrors
  // flat_.size(): the no-migrations routing path is one relaxed load per
  // item, and one uncontended RMW pair per Dispatch call for the gate
  // itself.
  mutable std::shared_mutex steer_mu_;
  std::unordered_map<std::uint64_t, Migration> migrated_;
  std::vector<FlatEntry> flat_;
  std::atomic<std::size_t> migrated_count_{0};
  std::atomic<std::uint64_t> active_dispatches_{0};
  std::atomic<bool> steal_in_progress_{false};
};

}  // namespace net

#endif  // LINSYS_SRC_NET_RSS_H_
