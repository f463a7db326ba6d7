// net::Runtime — N-worker sharded execution engine (the multi-core story).
//
// The paper's §3 argument is that zero-copy ownership transfer makes
// isolation nearly free; NetBricks scales by running one pipeline replica
// per core with RSS keeping each flow on one core. Runtime reproduces that
// shape in the simulator:
//
//   * Each worker thread owns a full replica of the pipeline — its own SFI
//     domains (one per stage, from its own DomainManager), its own Mempool,
//     and therefore its own flow state. Nothing is shared between workers
//     but the steering channels, so there are no locks on the packet path.
//   * A dispatcher (any producer thread) samples flows and steers *flow
//     descriptors* through a BasicRssDispatcher<FlowBatch>. Steering
//     descriptors instead of buffers is what makes the mempool single-owner
//     contract structural: frames are materialized from — and returned to —
//     the worker's own pool on the worker's own thread, so cross-thread
//     Free cannot be expressed. (This mirrors hardware RSS, where the NIC
//     hashes and steers before any buffer from the queue's pool is used.)
//   * A supervisor thread recovers faulted stage domains under a retry
//     policy with exponential backoff; a panic inside a recovery function is
//     contained and re-queued; a stage that accumulates
//     SupervisionConfig::max_recovery_attempts failed recoveries without an
//     intervening good batch is *quarantined* and its per-stage
//     DegradePolicy takes over (drop / passthrough / fail-fast). The
//     supervisor doubles as a watchdog: a worker stuck inside one batch for
//     longer than a watchdog period is flagged in telemetry.
//
// Telemetry is backed by a per-Runtime obs::Registry: every worker counter
// (packets, batches, drops, faults, recoveries, stalls) is a registry
// Counter sharded one-cell-per-worker, queue depth/high-water are Gauges,
// and per-sub-batch pipeline latency feeds a cycle Histogram — so
// RuntimeStats is a *consistent* scrape (counters monotone across scrapes,
// histogram buckets never torn; see src/obs/metrics.h) and the same data
// exports as Prometheus text or JSON via ScrapePrometheus()/ScrapeJson().
// Per-stage health (faults, recoveries, quarantine counters, MTTR cycle
// samples) stays under the worker mutex and is folded into the same
// snapshot — bench_parallel uses the load distribution, bench_recovery the
// MTTR column. The registry is per-instance so sequential Runtimes in one
// process (the test pattern) never bleed counts into each other.
#ifndef LINSYS_SRC_NET_RUNTIME_H_
#define LINSYS_SRC_NET_RUNTIME_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/ckpt/replicate.h"
#include "src/net/batch.h"
#include "src/net/headers.h"
#include "src/net/mempool.h"
#include "src/net/packet.h"
#include "src/net/pipeline.h"
#include "src/net/pktgen.h"
#include "src/net/rss.h"
#include "src/net/schedule.h"
#include "src/obs/metrics.h"
#include "src/obs/ops_server.h"
#include "src/obs/trace.h"
#include "src/sfi/manager.h"
#include "src/util/cycles.h"
#include "src/util/panic.h"
#include "src/util/stats.h"

namespace net {

// One unit of steered work: which flow, and its per-flow sequence number
// (stamped into the frame payload so per-flow ordering is observable end to
// end).
struct FlowWork {
  FiveTuple tuple;
  std::uint64_t seq = 0;
  // Seeded tuple hash, stamped once by the dispatcher's fan-out (which
  // computes it anyway to route the item). The worker's pop-time publish
  // and the thief's queue scans reuse it instead of re-running FNV over the
  // tuple bytes per item on the hot path.
  std::uint64_t cached_key = 0;

  const FiveTuple& Tuple() const { return tuple; }
  std::uint64_t flow_key() const { return cached_key; }
  void set_flow_key(std::uint64_t key) { cached_key = key; }
};

// Batch of flow descriptors — the Batch concept BasicRssDispatcher needs.
class FlowBatch {
 public:
  FlowBatch() = default;
  explicit FlowBatch(std::size_t reserve) { work_.reserve(reserve); }

  void Push(FlowWork w) { work_.push_back(w); }
  std::size_t size() const { return work_.size(); }
  bool empty() const { return work_.empty(); }

  auto begin() { return work_.begin(); }
  auto end() { return work_.end(); }
  auto begin() const { return work_.begin(); }
  auto end() const { return work_.end(); }

  // Trace-correlation id assigned by Runtime::Dispatch (0 = unassigned).
  // BasicRssDispatcher copies it onto every per-worker sub-batch, so the
  // whole fan-out shares one async track.
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
  void set_steal_cycles(std::uint64_t c) { steal_cycles_ = c; }
  void add_steal_cycles(std::uint64_t c) { steal_cycles_ += c; }

  // Accumulated cycles the batch stalled behind a raised checkpoint fence
  // (the capture pause taken between its pop and its processing).
  std::uint64_t fence_cycles() const { return fence_cycles_; }
  void set_fence_cycles(std::uint64_t c) { fence_cycles_ = c; }
  void add_fence_cycles(std::uint64_t c) { fence_cycles_ += c; }

 private:
  std::vector<FlowWork> work_;
  std::uint64_t flow_id_ = 0;
  std::uint64_t dispatch_tsc_ = 0;
  std::uint64_t pop_tsc_ = 0;
  std::uint64_t steal_cycles_ = 0;
  std::uint64_t fence_cycles_ = 0;
};

// Sequence numbers ride in the first 8 payload bytes (host order).
inline constexpr std::size_t kFlowSeqBytes = 8;

inline std::uint64_t ReadFlowSeq(const PacketBuf& pkt) {
  std::uint64_t seq = 0;
  std::memcpy(&seq, pkt.payload(), kFlowSeqBytes);
  return seq;
}

// Dispatcher-side sequencer: draws flows from a FlowSampler and stamps
// monotonically increasing per-flow sequence numbers.
class FlowFeeder {
 public:
  explicit FlowFeeder(FlowSampler* sampler)
      : sampler_(sampler), next_seq_(sampler->flow_count(), 0) {}

  FlowBatch Next(std::size_t n) {
    FlowBatch batch(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = sampler_->PickIndex();
      batch.Push(FlowWork{sampler_->FlowAt(idx), next_seq_[idx]++});
    }
    return batch;
  }

 private:
  FlowSampler* sampler_;
  std::vector<std::uint64_t> next_seq_;
};

// One pipeline stage of a Runtime spec. `make` is called once per worker
// (with the worker index) to build that worker's replica of the operator;
// it runs before the worker threads start and must not capture per-worker
// mutable state by reference. `degrade` is what the stage does to traffic
// once quarantined.
struct StageSpec {
  std::string name;
  std::function<std::unique_ptr<Operator>(std::size_t worker)> make;
  DegradePolicy degrade = DegradePolicy::kDrop;
  // Untrusted mark: this stage must keep its own protection domain — the
  // schedule (manual Fuse or Auto) never fuses it with a neighbour.
  // Typically a stateful/ckpt boundary, or an operator the caller does not
  // trust to share a fault domain.
  bool isolate = false;
};

// Supervisor policy knobs. The defaults favour fast recovery with a bounded
// crash-loop budget; tests tighten them for speed.
struct SupervisionConfig {
  // Recovery attempts a stage may accumulate without an intervening
  // successful batch before it is quarantined. 0 = never quarantine.
  std::size_t max_recovery_attempts = 8;
  // Exponential backoff between recovery passes while a recovery keeps
  // failing (its fn panicking): initial, multiplier, cap.
  std::uint32_t backoff_initial_us = 50;
  double backoff_factor = 2.0;
  std::uint32_t backoff_max_us = 2000;
  // Supervisor wake cadence; also the watchdog resolution — a worker busy on
  // one batch across a full period without a heartbeat is flagged stuck.
  std::uint32_t watchdog_period_ms = 25;
  // Quarantine probation: after this many degraded batches through a
  // quarantined stage, the supervisor grants one probe batch via a freshly
  // built domain — success un-quarantines, failure re-quarantines with the
  // cool-down doubled (capped at probation_cooldown_max). 0 = quarantine
  // stays terminal (the pre-probation behaviour).
  std::uint64_t probation_cooldown_batches = 0;
  std::uint64_t probation_cooldown_max = 1 << 20;
};

// Work-stealing knobs. Off by default: the hash-pinned fast path is then
// byte-for-byte the pre-stealing dispatcher.
struct StealConfig {
  bool enabled = false;
  // A victim queue must hold at least this many sub-batches to be worth
  // stealing from (below it, migration churn beats the balance gain) — and
  // for the supervisor to nudge an idle worker at all. Idle workers do not
  // poll for victims: they sleep in a plain blocking receive, and the
  // supervisor (on its watchdog cadence, SupervisionConfig::
  // watchdog_period_ms) wakes one with an empty "nudge" batch when a peer
  // queue is this deep. Steal latency is therefore bounded by the watchdog
  // period, and steal overhead on a balanced system is zero.
  std::size_t min_victim_depth = 2;
  // Adaptive enablement: a steal is only attempted when the chosen victim's
  // estimated stealable backlog — queue depth (the worker's share of the
  // runtime.queue_imbalance gauge; the thief is empty) × its EWMA per-sub-
  // batch service cycles × max_fraction — exceeds min_gain_factor × the
  // EWMA-estimated cost of one steal. Below that, stealing self-disables
  // and the attempt is counted in runtime.steal_skipped_total. 0 restores
  // unconditional stealing.
  double min_gain_factor = 2.0;
  // Seeds for the two EWMAs before their first real sample: the amortized
  // cost of one steal (the committed BENCH_parallel baseline put its p50 at
  // ~25.6k cycles) and a worker's per-sub-batch service time.
  std::uint64_t steal_cost_seed_cycles = 25000;
  std::uint64_t service_seed_cycles = 2000;
  // Steal quantum: the fraction of the victim's queued items one steal may
  // take. Half the queue (the original quantum) re-homes far more flows
  // than the imbalance warrants; a quarter keeps migration churn bounded.
  double max_fraction = 0.25;
  // Migration-table TTL in Dispatch() calls: an entry not refreshed by a
  // steal for this long is evicted once its home worker is idle with an
  // empty queue (the flow then simply re-homes to its hash slot on its next
  // dispatch). 0 = never evict.
  std::uint64_t migration_ttl_dispatches = 4096;
};

// Paced rx thread (RuntimeConfig::paced_rx): a dedicated producer that
// pulls from a FlowFeeder and paces Dispatch against per-queue high-water
// marks instead of blocking inside a full channel.
struct PacedRxConfig {
  bool enabled = false;
  std::size_t burst = 32;        // flow descriptors per Dispatch
  // Pause while any worker queue is at/above this fraction of queue_depth
  // (in sub-batches). With queue_depth == 0 (unbounded) the mark falls back
  // to 48 sub-batches.
  double high_water_frac = 0.75;
  std::uint32_t pause_us = 20;   // sleep quantum while above the mark
};

// Live checkpointing & failover (Runtime::CheckpointLive/FailoverWorker).
// Stage state is captured through each worker's protection domains.
// Arming it also arms the dispatcher's migration table (failover re-homes
// flows through it) even with stealing off.
struct CkptConfig {
  bool enabled = false;
  // Backup replicas behind the runtime snapshot (ckpt::ReplicatedState).
  std::size_t replicas = 1;
  // CheckpointLive gives every worker this long to reach a batch boundary
  // and deposit its capture before the epoch is abandoned (counted in
  // runtime.ckpt_epoch_failures_total; no state is installed).
  std::uint32_t quiesce_timeout_ms = 1000;
};

struct RuntimeConfig {
  std::size_t workers = 1;
  std::size_t queue_depth = 64;       // per-worker channel bound (0 = none)
  std::size_t pool_capacity = 4096;   // per-worker mempool slots
  std::size_t buf_size = 2048;
  std::uint16_t frame_len = 64;
  // How the stage chain maps onto protection domains (src/net/schedule.h).
  // Default: interpreted, one domain per stage. Resolved once against the
  // spec (honouring StageSpec::isolate marks) and applied to every worker's
  // replica before traffic. A fuse-all schedule runs the whole chain in one
  // domain: one crossing per batch, the near-direct cost point.
  PipelineSchedule schedule;
  SupervisionConfig supervision;
  StealConfig stealing;
  PacedRxConfig paced_rx;
  CkptConfig ckpt;
  // Live ops endpoint (obs::OpsServer): started with the runtime when
  // enabled, serving /metrics, /metrics/delta, /trace, /healthz from this
  // runtime's registry while it runs. Off by default — then no thread, no
  // socket, and no new dispatch-path work beyond the batch cycle stamp.
  obs::OpsServerConfig ops;
};

// One worker's slice of a runtime checkpoint: its pipeline's stage images,
// tagged with the worker index so failover can restore a single shard.
struct WorkerCkptImage {
  std::uint64_t index = 0;
  std::vector<StageImage> stages;
  LINSYS_CHECKPOINT_FIELDS(index, stages)
};

// The crash-consistent runtime snapshot CheckpointLive installs into a
// ckpt::ReplicatedState: every worker's stage state, captured at a per-flow
// batch boundary within one quiesce epoch.
struct RuntimeCkptImage {
  std::uint64_t epoch = 0;
  std::vector<WorkerCkptImage> workers;
  LINSYS_CHECKPOINT_FIELDS(epoch, workers)
};

// Snapshot of one worker's counters.
struct WorkerTelemetry {
  std::uint64_t batches = 0;     // sub-batches fully processed
  std::uint64_t packets = 0;     // packets out of the pipeline
  std::uint64_t drops = 0;       // pool-dry allocations + fault-lost packets
  std::uint64_t faults = 0;      // stage panics observed by this worker
  std::uint64_t recoveries = 0;  // stage domains re-exported for this worker
  std::uint64_t recovery_panics = 0;  // recovery fns contained mid-panic
  std::uint64_t stalls = 0;      // watchdog stuck-worker detections
  std::uint64_t steals = 0;          // successful steals by this worker
  std::uint64_t stolen_batches = 0;  // sub-batch slices it took
  std::uint64_t stolen_items = 0;    // flow descriptors it took
  std::uint64_t steals_skipped = 0;  // attempts the adaptive gate refused
  std::size_t quarantined = 0;   // stages currently quarantined on this shard
  std::size_t queue_hwm = 0;     // steering-queue depth high-water mark
};

// Cross-worker aggregate for one pipeline stage (summed over replicas).
struct StageTelemetry {
  std::string name;
  DegradePolicy policy = DegradePolicy::kDrop;
  std::size_t quarantined_replicas = 0;
  std::uint64_t faults = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t recovery_panics = 0;
  std::uint64_t quarantine_drop_pkts = 0;
  std::uint64_t passthrough_batches = 0;
  std::uint64_t failfast_batches = 0;
  // Quarantine probation (SupervisionConfig::probation_cooldown_batches).
  std::uint64_t probes = 0;          // probe batches granted
  std::uint64_t unquarantines = 0;   // probes that brought a replica back
  std::uint64_t requarantines = 0;   // probes that failed
  util::Samples mttr_cycles;  // pooled across replicas
};

struct RuntimeStats {
  std::vector<WorkerTelemetry> workers;
  WorkerTelemetry totals;              // summed; queue_hwm is the max
  std::vector<StageTelemetry> stages;  // per stage, summed over replicas
  std::uint64_t dispatch_calls = 0;    // input batches steered
  std::uint64_t sub_batches = 0;       // per-worker sub-batches enqueued
  std::uint64_t rejected_dispatches = 0;  // Dispatch() outside Start..Shutdown
  // Silent-loss accounting (bugfix): sub-batches a closed worker channel
  // refused at dispatch, and the flow descriptors dropped with them.
  std::uint64_t steer_refused_sub_batches = 0;
  std::uint64_t steer_dropped_items = 0;
  // Work stealing / paced rx.
  std::size_t migrated_flows = 0;      // flows homed away from their hash home
  std::uint64_t migration_evictions = 0;  // stale table entries TTL-evicted
  std::uint64_t rx_batches = 0;        // bursts dispatched by the rx thread
  std::uint64_t rx_pauses = 0;         // high-water pauses the rx thread took
  obs::HistogramSnapshot steal_cycles; // cost of each successful steal
  // Live checkpointing & failover.
  std::uint64_t ckpt_epochs = 0;          // snapshots installed
  std::uint64_t ckpt_epoch_failures = 0;  // epochs abandoned (timeout/fault)
  std::uint64_t failovers = 0;            // completed worker failovers
  std::uint64_t failover_failures = 0;    // failovers refused by a fault
  std::uint64_t failover_rehomed_items = 0;  // items moved off failed workers
  // Stage images a restore refused because they named a stage the pipeline
  // does not have (checkpoint taken under a different pipeline shape).
  std::uint64_t ckpt_restore_mismatches = 0;
  std::uint64_t unquarantines = 0;        // probation probes that succeeded
  std::uint64_t requarantines = 0;        // probation probes that failed
  obs::HistogramSnapshot ckpt_pause_cycles;      // per-worker quiesce pause
  obs::HistogramSnapshot failover_resync_cycles; // per FailoverWorker call
  util::Samples packets_per_worker;    // load distribution across shards
  // Pipeline latency per sub-batch, pooled over workers (consistent
  // histogram snapshot: sum(buckets) == count even while workers run).
  obs::HistogramSnapshot batch_cycles;
  // End-to-end delivery latency per sub-batch: dispatch-time stamp to
  // delivery, queue wait and any steal/failover migration included. This is
  // the client-visible SLO quantity the ops server windows per delta scrape.
  obs::HistogramSnapshot delivery_latency_cycles;
  // Additive decomposition of delivery latency, recorded per delivered
  // sub-batch (all four every time, zeros included, so the counts match and
  // queue + service + steal + fence == delivery exactly on the sums):
  // queue = dispatch→pop wait, service = pop→delivery minus fence, steal =
  // migration transit, fence = checkpoint-capture stall.
  obs::HistogramSnapshot latency_queue_cycles;
  obs::HistogramSnapshot latency_service_cycles;
  obs::HistogramSnapshot latency_steal_cycles;
  obs::HistogramSnapshot latency_fence_cycles;
  // Mempool occupancy across all worker pools at scrape time.
  std::uint64_t mempool_in_use = 0;
  std::uint64_t mempool_in_use_hwm = 0;  // max over workers
  std::uint64_t mempool_alloc_failures = 0;

  std::string Summary() const;
};

class Runtime {
 public:
  Runtime(RuntimeConfig config, std::vector<StageSpec> spec);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Spawns the worker and supervisor threads. Idempotent, safe to race with
  // Shutdown (lifecycle transitions are serialized); a no-op after Shutdown.
  void Start();

  // Steers a batch of flow descriptors to the workers. Blocks when a
  // worker's queue is at queue_depth (backpressure). Safe to call from
  // multiple producer threads, and defined at any lifecycle point: before
  // Start() and after Shutdown() the batch is refused — the call returns
  // false and RuntimeStats::rejected_dispatches counts it.
  bool Dispatch(FlowBatch batch) {
    if (!accepting_.load(std::memory_order_acquire)) {
      telemetry_.rejected_dispatches->Inc();
      return false;
    }
    LINSYS_TRACE_SPAN("runtime.dispatch");
    // Flow correlation starts here: one process-unique id per dispatched
    // batch, stamped onto the batch (and by RSS onto its per-worker
    // sub-batches) and opening the flow's async track. Cost when tracing
    // and net metrics are off: one relaxed RMW per *batch*.
    const std::uint64_t flow_id = obs::NextFlowId();
    batch.set_flow_id(flow_id);
    // SLO clock starts now: the stamp rides the batch (and its sub-batches,
    // steal slices, and failover re-homes) to delivery, where the always-on
    // runtime.delivery_latency_cycles histogram reads it. Cost here is one
    // cycle read + one plain store per dispatched *batch*.
    batch.set_dispatch_tsc(util::CycleStart());
    LINSYS_TRACE_ASYNC_SPAN("flow.dispatch", "flow", flow_id);
    const bool armed = obs::MetricsArmed(obs::MetricGroup::kNet);
    const std::uint64_t t0 = armed ? util::CycleStart() : 0;
    try {
      rss_.Dispatch(std::move(batch));
    } catch (const util::PanicError&) {
      // An injected channel.send fault: the not-yet-sent sub-batches died
      // with the unwind (flow descriptors only, no packet buffers) and the
      // worker queues are untouched — count it and refuse the batch.
      telemetry_.dispatch_faults->Inc();
      return false;
    }
    if (armed) {
      telemetry_.dispatch_cycles->RecordWithExemplar(util::CycleEnd() - t0,
                                                     flow_id);
    }
    return true;
  }

  // Which worker a flow is pinned to. Stable for the runtime's lifetime
  // when stealing is off; with stealing on, a steal may repoint a flow (the
  // answer reflects the migration table at call time).
  std::size_t WorkerFor(const FiveTuple& tuple) const {
    return rss_.WorkerForTuple(tuple);
  }

  // Starts the paced rx thread: it pulls `batches` bursts of
  // config.paced_rx.burst descriptors from `feeder` and dispatches each,
  // pausing while any worker queue sits at/above the high-water mark.
  // Requires paced_rx.enabled, a started runtime, and at most one rx thread
  // at a time. The thread also stops early at Shutdown.
  void StartPacedRx(FlowFeeder* feeder, std::uint64_t batches);
  // Blocks until the rx thread (if any) has dispatched its quota (or
  // stopped at shutdown) and exited.
  void WaitRxIdle();

  // Closes the steering queues, lets workers drain them, joins all
  // threads. Idempotent and safe to call concurrently (including with
  // Start); called by the destructor if needed. Shutdown is terminal: a
  // later Start() is a no-op.
  void Shutdown();

  // --- Live checkpointing & failover (CkptConfig) ------------------------
  //
  // CheckpointLive opens a quiesce epoch: every worker, at its next per-flow
  // batch boundary (between FlowBatches — never mid-batch), captures its
  // stage state and deposits it; once all workers have deposited, the
  // combined image is installed into the replicated runtime snapshot.
  // Dispatch keeps accepting throughout — queues absorb each worker's
  // capture pause (measured per worker in runtime.ckpt_pause_cycles, flow
  // exemplars attached) — and steals/migration-table mutations are fenced
  // for the duration of the epoch. Returns false (installing nothing, with
  // runtime.ckpt_epoch_failures_total counting it) when the quiesce times
  // out, a replica restore faults (injected ckpt.replica_restore), or the
  // runtime is not accepting. Serialized with FailoverWorker; safe to call
  // from any non-worker thread.
  bool CheckpointLive();

  // Fails worker `victim` over to the replicated snapshot: promotes a
  // replica (ckpt::ReplicatedState::Failover — the injectable
  // ckpt.failover_resync point fires inside), re-homes the victim's queued
  // flows to the survivors via the migration table, and restores the
  // victim's stage state from the promoted image. The victim thread keeps
  // running — "failure" here is the state-loss event, and the restored
  // replica state plus re-homed flows are the resync. Exactly-once holds
  // across the event: every dispatched item is either processed by a
  // survivor, still queued, or counted dropped. Returns false — counted in
  // runtime.failover_failures_total, with no Runtime state mutated — when no
  // snapshot exists yet or the resync faults (retryable). Requires
  // ckpt.enabled and at least 2 workers.
  bool FailoverWorker(std::size_t victim);

  // Copy of the current primary snapshot (empty image before the first
  // successful CheckpointLive) — test/diagnostic introspection.
  RuntimeCkptImage CheckpointImageCopy();

  RuntimeStats Stats() const;

  // This runtime's metric registry — the same data Stats() folds, in
  // exporter form. Safe to call from any thread while workers run.
  obs::Registry& registry() { return registry_; }

  // The live ops endpoint (nullptr unless RuntimeConfig::ops.enabled and
  // Start() managed to bind it). Valid until Shutdown returns.
  obs::OpsServer* ops_server() { return ops_server_.get(); }
  std::string ScrapePrometheus() const { return registry_.Scrape().ToPrometheus(); }
  std::string ScrapeJson() const { return registry_.Scrape().ToJson(); }

  std::size_t worker_count() const { return workers_.size(); }
  std::uint16_t frame_len() const { return config_.frame_len; }

 private:
  struct Worker {
    std::size_t index = 0;
    Mempool pool;
    sfi::DomainManager mgr;
    IsolatedPipeline pipeline{&mgr};
    // Serializes pipeline use (worker thread) against stage recovery and
    // health snapshots (supervisor thread, Stats). Uncontended on the fast
    // path: the supervisor only takes it on its periodic wakes.
    std::mutex mu;
    // Watchdog signals: busy is true while a sub-batch is being processed,
    // heartbeat increments once per completed sub-batch. Stuck = busy with
    // an unmoving heartbeat across a watchdog period. (All other worker
    // counters live in the runtime's registry, sharded by worker index.)
    std::atomic<bool> busy{false};
    std::atomic<std::uint64_t> heartbeat{0};
    // EWMA of this worker's per-sub-batch service time in cycles (0 until
    // the first completed batch). Written by the owning worker only, read
    // relaxed by idle peers scoring steal victims: a deep queue on a slow
    // replica is worth far more to a thief than the same depth on a fast
    // one. An estimator, so torn precision is acceptable; torn values are
    // not (hence the atomic).
    std::atomic<std::uint64_t> service_ewma_cycles{0};
    // In-flight flow registry: the flow keys of work this worker holds
    // *outside* its queue — the sub-batch it most recently popped (published
    // under the channel lock via the Recv on_pop hook) and any stolen chain
    // it has not finished. Thieves read the union (under the victim's
    // channel lock) and never steal an in-flight flow, which is what makes a
    // stolen flow's items processable immediately: no older items of that
    // flow can exist anywhere but the slices the thief now holds. See
    // DESIGN.md "Flow pinning vs. work stealing".
    //
    // Synchronization is asymmetric, tuned for the pop path: popped_flows is
    // a flat vector of fan-out-cached keys, rewritten wholesale at every pop
    // and serialized by the worker's *channel lock* (publish runs under it;
    // so does the thief's off-limits read, inside Steal's WithQueueLocked).
    // It is never cleared after a batch completes — stale entries are a
    // conservative superset, the next pop overwrites them. guard_mu covers
    // only stolen_flows, which a thief writes from its own thread while
    // other thieves read it under the victim's channel lock.
    std::mutex guard_mu;
    std::vector<std::uint64_t> popped_flows;
    std::unordered_set<std::uint64_t> stolen_flows;
    // Checkpoint-epoch cursor, touched only by the owning worker thread: the
    // last ckpt_gen_ this worker captured for. A mismatch at a batch
    // boundary triggers MaybeCaptureCheckpoint.
    std::uint64_t ckpt_seen_gen = 0;
    // Flow id of the most recent batch this worker processed — the exemplar
    // attached to its checkpoint pause sample (which flow paid the pause)
    // and to the failover counter (the failover driver reads it from its own
    // thread, hence the relaxed atomic: an estimator, not an invariant).
    std::atomic<std::uint64_t> last_flow_id{0};
    std::thread thread;

    Worker(std::size_t idx, const RuntimeConfig& cfg)
        : index(idx), pool(cfg.pool_capacity, cfg.buf_size) {}
  };

  // Cached registry handles: resolved once in the constructor, then the
  // packet path only touches its own worker's shard cell.
  struct Telemetry {
    obs::Counter* batches = nullptr;
    obs::Counter* packets = nullptr;
    obs::Counter* drops = nullptr;
    obs::Counter* faults = nullptr;
    obs::Counter* recoveries = nullptr;
    obs::Counter* stalls = nullptr;
    obs::Counter* rejected_dispatches = nullptr;
    obs::Counter* dispatch_faults = nullptr;
    obs::Counter* steals = nullptr;
    obs::Counter* stolen_batches = nullptr;
    obs::Counter* stolen_items = nullptr;
    obs::Counter* steal_skipped = nullptr;
    obs::Counter* migration_evictions = nullptr;
    obs::Counter* rx_batches = nullptr;
    obs::Counter* rx_pauses = nullptr;
    obs::Counter* ckpt_epochs = nullptr;
    obs::Counter* ckpt_epoch_failures = nullptr;
    obs::Counter* failovers = nullptr;
    obs::Counter* failover_failures = nullptr;
    obs::Counter* failover_rehomed_items = nullptr;
    obs::Counter* ckpt_restore_mismatches = nullptr;
    obs::Counter* unquarantines = nullptr;
    obs::Counter* requarantines = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* queue_hwm = nullptr;
    obs::Histogram* batch_cycles = nullptr;
    obs::Histogram* delivery_latency_cycles = nullptr;  // always-on (SLO)
    // Always-on decomposition of the SLO histogram (see RuntimeStats).
    obs::Histogram* latency_queue_cycles = nullptr;
    obs::Histogram* latency_service_cycles = nullptr;
    obs::Histogram* latency_steal_cycles = nullptr;
    obs::Histogram* latency_fence_cycles = nullptr;
    obs::Histogram* dispatch_cycles = nullptr;  // kNet-armed only
    obs::Histogram* steal_cycles = nullptr;
    obs::Histogram* ckpt_pause_cycles = nullptr;      // per-worker shards
    obs::Histogram* failover_resync_cycles = nullptr;
  };

  void WorkerMain(Worker& w);
  void ProcessFlows(Worker& w, FlowBatch flows);
  // Records delivery_latency_cycles plus its exact additive decomposition
  // (queue/service/steal/fence) for a delivered batch. No-op when the batch
  // carries no dispatch stamp.
  void RecordDelivery(Worker& w, const FlowBatch& flows);
  // Attempts one steal for idle worker `w`; processes the stolen slices
  // in order before returning. True if anything was stolen and processed.
  // Victim choice is service-time-weighted (depth × the victim's service
  // EWMA) and the attempt is skipped — counted in steal_skipped_total —
  // when the stealable backlog is not worth the EWMA-estimated steal cost.
  bool TrySteal(Worker& w);
  // Supervisor-side: wakes each idle worker with an empty nudge batch when
  // some peer queue reaches min_victim_depth; the worker then runs the
  // gated TrySteal on its own thread.
  void NudgeIdleThieves();
  void RxMain(FlowFeeder* feeder, std::uint64_t batches);
  std::size_t MaxQueueDepth();
  void SupervisorMain();
  void NotifyFault();
  // One supervisor recovery sweep over all workers; returns true while any
  // stage is still Failed (i.e. another pass is needed).
  bool RecoveryPass();
  // Worker-side half of the checkpoint epoch: called at every batch
  // boundary; when ckpt_gen_ has advanced past this worker's cursor, capture
  // its stage state (the measured pause) and deposit it for the driver.
  // Returns the pause in cycles (0 when no capture ran) so the caller can
  // charge the stall to the batch it delayed (latency_fence_cycles).
  std::uint64_t MaybeCaptureCheckpoint(Worker& w);
  // /healthz body for the ops server: lifecycle, quarantine census, and
  // checkpoint fence/epoch state. Runs on the server thread while workers
  // are live (per-stage health is read under each worker's mutex).
  std::string HealthzJson();

  RuntimeConfig config_;
  BasicRssDispatcher<FlowBatch> rss_;
  // EWMA of the measured cost of one successful steal, in cycles (0 until
  // the first steal; the gate then falls back to
  // StealConfig::steal_cost_seed_cycles). Updated racily by thieves — an
  // estimator, not an invariant.
  std::atomic<std::uint64_t> steal_cost_ewma_{0};
  // Declared before workers_ so worker threads (joined in ~Worker via
  // Shutdown) can never outlive the metrics they write to.
  obs::Registry registry_;
  Telemetry telemetry_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::string> stage_names_;
  std::vector<DegradePolicy> stage_policies_;
  std::thread supervisor_;
  // Live ops endpoint, started after the workers in Start() and stopped
  // first in Shutdown() (it reads registry_ and worker state, so it must
  // never outlive them). Guarded by lifecycle_mu_ for create/destroy.
  std::unique_ptr<obs::OpsServer> ops_server_;

  // Lifecycle: Start/Shutdown may be called from any threads in any order;
  // lifecycle_mu_ serializes the transitions, accepting_ gates Dispatch
  // without taking a lock on the steering path.
  std::mutex lifecycle_mu_;
  bool started_ = false;
  bool shut_down_ = false;
  std::atomic<bool> accepting_{false};

  std::mutex sup_mu_;
  std::condition_variable sup_cv_;
  bool sup_stop_ = false;
  bool fault_pending_ = false;

  // Paced rx thread state. rx_active_ gates StartPacedRx reentry; the
  // atomic stop flag lets Shutdown cut a pause short.
  std::mutex rx_mu_;
  std::condition_variable rx_cv_;
  bool rx_active_ = false;
  std::atomic<bool> rx_stop_{false};
  std::thread rx_thread_;

  // Live-checkpoint epoch state. ckpt_driver_mu_ serializes CheckpointLive
  // with FailoverWorker (one driver at a time). The epoch protocol itself:
  // the driver bumps ckpt_gen_ and raises ckpt_fence_; each worker compares
  // ckpt_gen_ to its thread-local cursor at batch boundaries, captures, and
  // deposits a (gen, image) pair into ckpt_pending_ under ckpt_mu_; the
  // driver collects until all workers deposited for the current gen or the
  // quiesce timeout passes. Deposits carry the gen so a straggler from an
  // abandoned epoch can never pollute the next one. ckpt_fence_ makes
  // TrySteal and migration eviction stand down during the epoch, so the
  // captured per-worker states and the migration table are mutually
  // consistent (no flow changes homes mid-epoch).
  std::mutex ckpt_driver_mu_;
  std::mutex ckpt_mu_;
  std::condition_variable ckpt_cv_;
  std::vector<std::pair<std::uint64_t, WorkerCkptImage>> ckpt_pending_;
  std::atomic<std::uint64_t> ckpt_gen_{0};
  std::atomic<bool> ckpt_fence_{false};
  std::uint64_t ckpt_epoch_seq_ = 0;  // under ckpt_driver_mu_
  // The replicated snapshot; created on the first successful epoch. Guarded
  // by ckpt_driver_mu_.
  std::unique_ptr<ckpt::ReplicatedState<RuntimeCkptImage>> ckpt_state_;
};

}  // namespace net

#endif  // LINSYS_SRC_NET_RUNTIME_H_
