#include "src/net/runtime.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "src/ckpt/obs.h"
#include "src/obs/profiler.h"
#include "src/util/cycles.h"
#include "src/util/fault_injector.h"
#include "src/util/panic.h"

namespace net {

std::string RuntimeStats::Summary() const {
  std::string s;
  s += "workers=" + std::to_string(workers.size());
  s += " packets=" + std::to_string(totals.packets);
  s += " batches=" + std::to_string(totals.batches);
  s += " drops=" + std::to_string(totals.drops);
  s += " faults=" + std::to_string(totals.faults);
  s += " recoveries=" + std::to_string(totals.recoveries);
  s += " recovery_panics=" + std::to_string(totals.recovery_panics);
  s += " quarantined=" + std::to_string(totals.quarantined);
  s += " stalls=" + std::to_string(totals.stalls);
  s += " queue_hwm=" + std::to_string(totals.queue_hwm);
  s += " dispatched=" + std::to_string(dispatch_calls);
  s += " sub_batches=" + std::to_string(sub_batches);
  if (rejected_dispatches > 0) {
    s += " rejected=" + std::to_string(rejected_dispatches);
  }
  if (steer_refused_sub_batches > 0 || steer_dropped_items > 0) {
    s += " steer_refused=" + std::to_string(steer_refused_sub_batches);
    s += " steer_dropped=" + std::to_string(steer_dropped_items);
  }
  if (totals.steals > 0 || totals.steals_skipped > 0 || migrated_flows > 0 ||
      migration_evictions > 0) {
    s += " steals=" + std::to_string(totals.steals);
    s += " steals_skipped=" + std::to_string(totals.steals_skipped);
    s += " stolen_batches=" + std::to_string(totals.stolen_batches);
    s += " stolen_items=" + std::to_string(totals.stolen_items);
    s += " migrated_flows=" + std::to_string(migrated_flows);
    s += " migration_evictions=" + std::to_string(migration_evictions);
  }
  if (rx_batches > 0) {
    s += " rx_batches=" + std::to_string(rx_batches);
    s += " rx_pauses=" + std::to_string(rx_pauses);
  }
  if (ckpt_epochs > 0 || ckpt_epoch_failures > 0 || failovers > 0 ||
      failover_failures > 0) {
    s += " ckpt_epochs=" + std::to_string(ckpt_epochs);
    s += " ckpt_failures=" + std::to_string(ckpt_epoch_failures);
    s += " failovers=" + std::to_string(failovers);
    s += " failover_failures=" + std::to_string(failover_failures);
    s += " rehomed_items=" + std::to_string(failover_rehomed_items);
    if (ckpt_restore_mismatches > 0) {
      s += " restore_mismatches=" + std::to_string(ckpt_restore_mismatches);
    }
    s += "\n  ckpt_pause_cycles: " + ckpt_pause_cycles.Summary();
  }
  if (unquarantines > 0 || requarantines > 0) {
    s += " unquarantines=" + std::to_string(unquarantines);
    s += " requarantines=" + std::to_string(requarantines);
  }
  s += " | load: " + packets_per_worker.Summary();
  s += "\n  batch_cycles: " + batch_cycles.Summary();
  s += "\n  delivery_latency_cycles: " + delivery_latency_cycles.Summary();
  if (latency_queue_cycles.count > 0) {
    s += "\n  latency_queue_cycles: " + latency_queue_cycles.Summary();
    s += "\n  latency_service_cycles: " + latency_service_cycles.Summary();
    s += "\n  latency_steal_cycles: " + latency_steal_cycles.Summary();
    s += "\n  latency_fence_cycles: " + latency_fence_cycles.Summary();
  }
  s += "\n  mempool: in_use=" + std::to_string(mempool_in_use);
  s += " hwm=" + std::to_string(mempool_in_use_hwm);
  s += " alloc_failures=" + std::to_string(mempool_alloc_failures);
  for (const StageTelemetry& st : stages) {
    s += "\n  stage[" + st.name + "] policy=";
    s += DegradePolicyName(st.policy);
    s += " faults=" + std::to_string(st.faults);
    s += " recoveries=" + std::to_string(st.recoveries);
    s += " recovery_panics=" + std::to_string(st.recovery_panics);
    s += " quarantined=" + std::to_string(st.quarantined_replicas);
    s += " qdrop_pkts=" + std::to_string(st.quarantine_drop_pkts);
    s += " passthrough=" + std::to_string(st.passthrough_batches);
    s += " failfast=" + std::to_string(st.failfast_batches);
    if (st.probes > 0) {
      s += " probes=" + std::to_string(st.probes);
      s += " unquarantines=" + std::to_string(st.unquarantines);
      s += " requarantines=" + std::to_string(st.requarantines);
    }
    s += " | mttr_cycles: " + st.mttr_cycles.Summary();
  }
  return s;
}

Runtime::Runtime(RuntimeConfig config, std::vector<StageSpec> spec)
    : config_(config), rss_(config.workers, config.queue_depth) {
  LINSYS_ASSERT(config_.frame_len >= kPayloadOffset + kFlowSeqBytes,
                "frame_len too small for the per-flow sequence stamp");
  // One shard per worker: worker w only ever touches cell w, so the packet
  // path is contention-free and Stats() can report per-worker values.
  const std::size_t shards = config_.workers;
  telemetry_.batches = registry_.GetCounter("runtime.batches_total", shards);
  telemetry_.packets = registry_.GetCounter("runtime.packets_total", shards);
  telemetry_.drops = registry_.GetCounter("runtime.drops_total", shards);
  telemetry_.faults = registry_.GetCounter("runtime.faults_total", shards);
  telemetry_.recoveries =
      registry_.GetCounter("runtime.recoveries_total", shards);
  telemetry_.stalls = registry_.GetCounter("runtime.stalls_total", shards);
  telemetry_.rejected_dispatches =
      registry_.GetCounter("runtime.rejected_dispatches_total");
  telemetry_.dispatch_faults =
      registry_.GetCounter("runtime.dispatch_faults_total");
  // Producer-side, so TLS-sharded rather than per-worker (any thread may
  // call Dispatch); only recorded while the net group is armed.
  telemetry_.dispatch_cycles =
      registry_.GetHistogram("runtime.dispatch_cycles", 4);
  telemetry_.queue_depth = registry_.GetGauge("runtime.queue_depth", shards);
  telemetry_.queue_hwm = registry_.GetGauge("runtime.queue_depth_hwm", shards);
  telemetry_.batch_cycles =
      registry_.GetHistogram("runtime.batch_cycles", shards);
  // Always-on SLO histogram: end-to-end dispatch→delivery latency per
  // sub-batch, queue wait and migrations included. This is what the ops
  // server windows into slo_p99/slo_p999 per /metrics/delta scrape, so it
  // cannot be gated on arming — a live operator must always see it.
  telemetry_.delivery_latency_cycles =
      registry_.GetHistogram("runtime.delivery_latency_cycles", shards);
  // Always-on decomposition of the SLO histogram. Every delivered sub-batch
  // records all four components (zeros included) so the counts match the
  // delivery histogram and the per-batch identity queue + service + steal +
  // fence == delivery holds exactly on the sums (RecordDeliverySplit clamps
  // to enforce it). The /metrics/delta SLO header breaks these out.
  telemetry_.latency_queue_cycles =
      registry_.GetHistogram("runtime.latency_queue_cycles", shards);
  telemetry_.latency_service_cycles =
      registry_.GetHistogram("runtime.latency_service_cycles", shards);
  telemetry_.latency_steal_cycles =
      registry_.GetHistogram("runtime.latency_steal_cycles", shards);
  telemetry_.latency_fence_cycles =
      registry_.GetHistogram("runtime.latency_fence_cycles", shards);
  telemetry_.steals = registry_.GetCounter("runtime.steals_total", shards);
  telemetry_.stolen_batches =
      registry_.GetCounter("runtime.stolen_sub_batches_total", shards);
  telemetry_.stolen_items =
      registry_.GetCounter("runtime.stolen_items_total", shards);
  telemetry_.steal_skipped =
      registry_.GetCounter("runtime.steal_skipped_total", shards);
  telemetry_.migration_evictions =
      registry_.GetCounter("runtime.migration_evictions_total", shards);
  telemetry_.rx_batches = registry_.GetCounter("runtime.rx_batches_total");
  telemetry_.rx_pauses = registry_.GetCounter("runtime.rx_pauses_total");
  telemetry_.steal_cycles =
      registry_.GetHistogram("runtime.steal_cycles", shards);
  telemetry_.ckpt_epochs = registry_.GetCounter("runtime.ckpt_epochs_total");
  telemetry_.ckpt_epoch_failures =
      registry_.GetCounter("runtime.ckpt_epoch_failures_total");
  telemetry_.failovers = registry_.GetCounter("runtime.failovers_total");
  telemetry_.failover_failures =
      registry_.GetCounter("runtime.failover_failures_total");
  telemetry_.failover_rehomed_items =
      registry_.GetCounter("runtime.failover_rehomed_items_total");
  telemetry_.ckpt_restore_mismatches =
      registry_.GetCounter("runtime.ckpt_restore_mismatches_total");
  telemetry_.unquarantines =
      registry_.GetCounter("runtime.unquarantines_total", shards);
  telemetry_.requarantines =
      registry_.GetCounter("runtime.requarantines_total", shards);
  // Always-on (like batch_cycles): the pause a checkpoint epoch imposes on
  // each worker is the headline robustness number, and epochs are rare.
  telemetry_.ckpt_pause_cycles =
      registry_.GetHistogram("runtime.ckpt_pause_cycles", shards);
  telemetry_.failover_resync_cycles =
      registry_.GetHistogram("runtime.failover_resync_cycles");
  // Imbalance is computed from live queue depths at scrape time — the same
  // signal the stealing loop's victim selection reads.
  registry_.RegisterGaugeFn("runtime.queue_imbalance", [this] {
    return static_cast<std::int64_t>(rss_.QueueImbalance());
  });
  // Mempool occupancy is evaluated at scrape time against the pools'
  // always-on counters (no extra bookkeeping on the packet path).
  registry_.RegisterGaugeFn("runtime.mempool_in_use", [this] {
    std::int64_t total = 0;
    for (const auto& w : workers_) {
      total += static_cast<std::int64_t>(w->pool.Counters().in_use);
    }
    return total;
  });
  registry_.RegisterGaugeFn("runtime.mempool_alloc_failures", [this] {
    std::int64_t total = 0;
    for (const auto& w : workers_) {
      total += static_cast<std::int64_t>(w->pool.Counters().alloc_failures);
    }
    return total;
  });
  for (const StageSpec& stage : spec) {
    stage_names_.push_back(stage.name);
    stage_policies_.push_back(stage.degrade);
  }
  // Resolve the schedule once against the spec; every worker replica gets
  // the same fusion-group shape. StageSpec::isolate marks are hard cuts.
  std::vector<bool> isolate_marks;
  isolate_marks.reserve(spec.size());
  for (const StageSpec& stage : spec) {
    isolate_marks.push_back(stage.isolate);
  }
  const std::vector<std::vector<std::size_t>> partition =
      ResolveSchedule(config_.schedule, spec.size(), isolate_marks);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    workers_.push_back(std::make_unique<Worker>(w, config_));
    Worker& worker = *workers_.back();
    for (const StageSpec& stage : spec) {
      // Every worker replica gets its own domain per stage; the name
      // carries the shard so fault logs identify the replica.
      worker.pipeline.AddStage(
          stage.name + "@w" + std::to_string(w),
          [make = stage.make, w] { return make(w); }, stage.degrade);
    }
    if (config_.schedule.fused()) {
      worker.pipeline.ApplySchedule(partition);
    }
    if (config_.supervision.probation_cooldown_batches > 0) {
      worker.pipeline.SetProbation(config_.supervision.probation_cooldown_batches,
                                   config_.supervision.probation_cooldown_max);
      // Probe outcomes land in per-worker counter shards; the per-stage
      // split comes from StageHealth in Stats().
      worker.pipeline.SetProbeObserver([this, w](bool ok) {
        if (ok) {
          telemetry_.unquarantines->Inc(w);
        } else {
          telemetry_.requarantines->Inc(w);
        }
      });
    }
  }
}

Runtime::~Runtime() { Shutdown(); }

void Runtime::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (started_ || shut_down_) {
    return;
  }
  started_ = true;
  supervisor_ = std::thread([this] { SupervisorMain(); });
  for (auto& w : workers_) {
    Worker* worker = w.get();
    worker->thread = std::thread([this, worker] { WorkerMain(*worker); });
  }
  accepting_.store(true, std::memory_order_release);
  if (config_.ops.enabled) {
    obs::OpsServer::Hooks hooks;
    hooks.registry = &registry_;
    hooks.global_registry = &obs::Registry::Global();
    hooks.tracer = &obs::Tracer::Global();
    hooks.profiler = &obs::Profiler::Global();
    hooks.healthz = [this] { return HealthzJson(); };
    ops_server_ = std::make_unique<obs::OpsServer>(config_.ops, hooks);
    std::string error;
    if (!ops_server_->Start(&error)) {
      // An unobservable runtime beats a dead one: the service keeps going,
      // the operator sees why the socket is missing.
      std::fprintf(stderr, "runtime: ops server failed to start: %s\n",
                   error.c_str());
      ops_server_.reset();
    }
  }
}

void Runtime::Shutdown() {
  // Held across the whole teardown: a concurrent Start or second Shutdown
  // blocks until the transition completes, then observes the settled state.
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (shut_down_) {
    return;
  }
  shut_down_ = true;
  accepting_.store(false, std::memory_order_release);
  rx_stop_.store(true, std::memory_order_relaxed);
  // The ops server goes first: it reads registry_ and per-worker state, so
  // it must be joined before anything it scrapes is torn down. A scrape in
  // flight finishes (Stop joins the serving thread); later connects are
  // refused once the socket is closed/unlinked.
  if (ops_server_) {
    ops_server_->Stop();
    ops_server_.reset();
  }
  if (!started_) {
    return;  // never ran; nothing to join — but Start is now refused too
  }
  // Closing the channels lets workers drain whatever is queued, then exit
  // (Channel::Recv returns nullopt only after close-and-drained). The
  // supervisor keeps running until after the join so in-flight faults are
  // still recovered during the drain. The rx thread (if any) sees rx_stop_
  // at its next pause/dispatch check; a Send it is blocked in is woken by
  // the close (and refused, which the steer counters record).
  rss_.Shutdown();
  for (auto& w : workers_) {
    if (w->thread.joinable()) {
      w->thread.join();
    }
  }
  if (rx_thread_.joinable()) {
    rx_thread_.join();
  }
  {
    std::lock_guard<std::mutex> lock(sup_mu_);
    sup_stop_ = true;
  }
  sup_cv_.notify_all();
  if (supervisor_.joinable()) {
    supervisor_.join();
  }
}

std::string Runtime::HealthzJson() {
  const bool accepting = accepting_.load(std::memory_order_acquire);
  std::size_t quarantined = 0;
  std::size_t failed = 0;
  for (const auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->mu);
    failed += w->pipeline.FailedStages();
    for (std::size_t i = 0; i < w->pipeline.length(); ++i) {
      quarantined += w->pipeline.health(i).quarantined ? 1 : 0;
    }
  }
  // "ok" degrades to "degraded" while any stage replica is quarantined or
  // awaiting recovery, and to "stopping" once Shutdown has begun — the
  // three states a liveness prober actually branches on.
  std::string out = "{\"status\":\"";
  out += !accepting ? "stopping" : (quarantined + failed > 0 ? "degraded" : "ok");
  out += "\",\"accepting\":";
  out += accepting ? "true" : "false";
  out += ",\"workers\":" + std::to_string(workers_.size());
  out += ",\"quarantined_stage_replicas\":" + std::to_string(quarantined);
  out += ",\"failed_stage_replicas\":" + std::to_string(failed);
  out += ",\"ckpt\":{\"fence\":";
  out += ckpt_fence_.load(std::memory_order_acquire) ? "true" : "false";
  out += ",\"gen\":" +
         std::to_string(ckpt_gen_.load(std::memory_order_acquire));
  out += ",\"epochs\":" + std::to_string(telemetry_.ckpt_epochs->Value());
  out += ",\"epoch_failures\":" +
         std::to_string(telemetry_.ckpt_epoch_failures->Value());
  out += ",\"failovers\":" + std::to_string(telemetry_.failovers->Value());
  out += ",\"failover_failures\":" +
         std::to_string(telemetry_.failover_failures->Value());
  out += "}}";
  return out;
}

void Runtime::NotifyFault() {
  {
    std::lock_guard<std::mutex> lock(sup_mu_);
    fault_pending_ = true;
  }
  sup_cv_.notify_one();
}

void Runtime::WorkerMain(Worker& w) {
  if (obs::Tracer::ArmedFast()) {
    obs::Tracer::Global().SetThreadName("worker" + std::to_string(w.index));
  }
  // Sampling-profiler identity: a /profile window attributes this thread's
  // CPU ticks to the phase scopes below. Unregistered again before exit —
  // a CPU-time timer must never outlive its thread.
  obs::Profiler::Global().RegisterThisThread("worker" +
                                             std::to_string(w.index));
  // Scope per-worker fault plans ("net.worker:<i>/<site>") to this thread.
  util::FaultInjector::SetThreadTag("net.worker:" + std::to_string(w.index));
  auto& queue = rss_.queue(w.index);
  // Runs under the channel lock at every dequeue: publishes the popped
  // sub-batch's fan-out-stamped flow keys as in flight *atomically with the
  // pop*, so a steal or failover re-home scanning this queue can never see
  // those flows as neither queued nor in flight. No guard_mu: the channel
  // lock alone serializes popped_flows (see Worker::popped_flows).
  auto publish = [&w](const FlowBatch& b) {
    w.popped_flows.clear();
    for (const FlowWork& fw : b) {
      w.popped_flows.push_back(fw.flow_key);
    }
  };
  // With or without stealing, a worker with nothing to do sleeps in a plain
  // blocking Recv — zero wakeups, zero polling. This is what makes stealing
  // free when it cannot win: the original poll-park loop (timed receives
  // plus a victim scan on every momentary queue drain) cost the Zipf bench
  // ~16% in pure context-switch churn even with ZERO steals executed. Steal
  // attempts are instead initiated by the supervisor, which wakes on its own
  // watchdog cadence anyway: when it finds this worker idle next to a deep
  // peer queue it enqueues an empty FlowBatch — a *steal nudge* — and the
  // ordinary Recv wakeup runs the gated TrySteal below.
  while (true) {
    const std::size_t depth = queue.size();
    telemetry_.queue_depth->Set(w.index, static_cast<std::int64_t>(depth));
    telemetry_.queue_hwm->SetMax(w.index, static_cast<std::int64_t>(depth));
    w.busy.store(false, std::memory_order_release);
    std::optional<lin::Own<FlowBatch>> handle;
    try {
      // Profile attribution: CPU burned taking the queue (lock, publish,
      // dequeue) is "pop"; a blocked Recv accrues no CPU time, so parked
      // waits do not pollute the pop bucket.
      obs::ScopedProfilerPhase pop_phase(obs::ProfilerPhase::kPop);
      handle = queue.Recv(publish);
    } catch (const util::PanicError&) {
      // An injected channel.recv fault fires before the dequeue, so the
      // message is still queued: count the fault and take it next iteration.
      telemetry_.faults->Inc(w.index);
      LINSYS_TRACE_INSTANT_ARG("runtime.recv_fault", w.index);
      continue;
    }
    if (!handle.has_value()) {
      break;  // closed and drained
    }
    FlowBatch batch = handle->Take();
    // The queue→service split point: everything before this stamp is queue
    // wait (or steal transit), everything after is service — except the
    // fence pause charged just below.
    batch.set_pop_tsc(util::CycleStart());
    // Batch boundary: service an open checkpoint epoch before processing
    // the popped batch (which then simply replays on top of the snapshot).
    // The measured capture pause stalled *this* batch's delivery, so it is
    // charged to its fence component rather than smeared into service.
    batch.add_fence_cycles(MaybeCaptureCheckpoint(w));
    if (batch.empty()) {
      // Supervisor steal nudge or checkpoint nudge (real sub-batches are
      // never empty: FanOut only enqueues non-empty per-worker groups). Not
      // counted as a batch, so the per-worker counters of a run whose steal
      // gate never opens match a stealing-off run's exactly.
      // Steals AND migration-table eviction stand down behind the
      // checkpoint fence: the captured states and the table must stay
      // mutually consistent for the epoch.
      if (config_.stealing.enabled &&
          !ckpt_fence_.load(std::memory_order_acquire)) {
        if (!TrySteal(w)) {
          // Nothing worth stealing: an idle beat is also the safe moment to
          // expire this worker's stale migration entries (its queue and
          // in-flight set are empty, so an evicted flow has no work here).
          const std::size_t evicted = rss_.EvictStaleMigrations(
              w.index, config_.stealing.migration_ttl_dispatches);
          if (evicted > 0) {
            telemetry_.migration_evictions->Add(w.index, evicted);
          }
        }
      }
      // popped_flows is already empty: popping the nudge ran publish on an
      // empty batch under the channel lock.
      continue;
    }
    w.busy.store(true, std::memory_order_release);
    ProcessFlows(w, std::move(batch));
    w.heartbeat.fetch_add(1, std::memory_order_release);
  }
  w.busy.store(false, std::memory_order_release);
  telemetry_.queue_depth->Set(w.index, 0);
  obs::Profiler::Global().UnregisterThisThread();
}

// Supervisor-side steal trigger: for every idle worker (empty queue, not
// mid-batch) with at least one peer queue at min_victim_depth, enqueue an
// empty FlowBatch as a steal nudge. The worker's ordinary blocking-Recv
// wakeup then runs the gated TrySteal on its own thread (the gate and the
// victim choice are re-evaluated there, with fresh depths). A worker whose
// queue is non-empty is skipped — that also naturally dedupes nudges, since
// an unconsumed nudge keeps the queue non-empty until the worker wakes.
void Runtime::NudgeIdleThieves() {
  const StealConfig& sc = config_.stealing;
  const std::size_t min_depth =
      sc.min_victim_depth == 0 ? 1 : sc.min_victim_depth;
  if (MaxQueueDepth() < min_depth) {
    return;
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = *workers_[i];
    if (w.busy.load(std::memory_order_acquire) ||
        rss_.queue(i).size() != 0) {
      continue;
    }
    Nudge(i);
  }
}

void Runtime::Nudge(std::size_t worker) {
  (void)rss_.queue(worker).Send(lin::Own<FlowBatch>::Make(FlowBatch{}));
}

std::unordered_set<std::uint64_t> Runtime::InFlightFlows(Worker& w) {
  std::unordered_set<std::uint64_t> off(w.popped_flows.begin(),
                                        w.popped_flows.end());
  std::lock_guard<std::mutex> lock(w.guard_mu);
  off.insert(w.stolen_flows.begin(), w.stolen_flows.end());
  return off;
}

bool Runtime::TrySteal(Worker& w) {
  if (ckpt_fence_.load(std::memory_order_acquire)) {
    return false;  // checkpoint epoch open: no flow may change homes
  }
  // Profile attribution: victim scoring, the steal itself, and the table
  // updates are "steal"; ProcessFlows below nests back into "execute".
  obs::ScopedProfilerPhase steal_phase(obs::ProfilerPhase::kSteal);
  const StealConfig& sc = config_.stealing;
  // Service-time-weighted victim selection: score each peer by estimated
  // backlog drain cycles (queue depth × that worker's per-sub-batch service
  // EWMA), not raw depth — depth 10 on a replica grinding 150k-cycle
  // batches is a far better steal than depth 30 on one doing 600-cycle
  // batches. Workers with no completed batch yet score on the config seed.
  std::size_t victim_idx = SIZE_MAX;
  double best_score = 0.0;
  const std::size_t min_depth =
      sc.min_victim_depth == 0 ? 1 : sc.min_victim_depth;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (i == w.index) {
      continue;
    }
    const std::size_t depth = rss_.queue(i).size();
    if (depth < min_depth) {
      continue;
    }
    const std::uint64_t service =
        workers_[i]->service_ewma_cycles.load(std::memory_order_relaxed);
    const double score =
        static_cast<double>(depth) *
        static_cast<double>(service == 0 ? sc.service_seed_cycles : service);
    if (score > best_score) {
      best_score = score;
      victim_idx = i;
    }
  }
  if (victim_idx == SIZE_MAX) {
    return false;
  }
  // Adaptive enablement: the thief is empty, so the victim's depth IS this
  // worker's share of the queue_imbalance gauge. Steal only when the
  // stealable slice of that backlog amortizes the measured cost of a steal
  // — otherwise stealing self-disables and the refusal is counted.
  const std::uint64_t cost_ewma =
      steal_cost_ewma_.load(std::memory_order_relaxed);
  const double steal_cost = static_cast<double>(
      cost_ewma == 0 ? sc.steal_cost_seed_cycles : cost_ewma);
  if (best_score * sc.max_fraction < sc.min_gain_factor * steal_cost) {
    telemetry_.steal_skipped->Inc(w.index);
    return false;
  }
  Worker& v = *workers_[victim_idx];
  const bool armed = obs::MetricsArmed(obs::MetricGroup::kNet);
  // Cycle the steal unconditionally: the cost EWMA needs every sample, not
  // just armed-phase ones; the histogram stays gated on arming.
  const std::uint64_t t0 = util::CycleStart();
  auto result = rss_.Steal(
      victim_idx, w.index,
      // Off-limits set: everything the victim holds outside its queue.
      [&v] { return InFlightFlows(v); },
      // Publish the stolen flows as OUR in-flight set before the steer
      // lock drops: from this instant they route to us, and nobody can
      // re-steal them until we finish the chain.
      [&w](const auto& r) {
        std::lock_guard<std::mutex> lock(w.guard_mu);
        w.stolen_flows.insert(r.keys.begin(), r.keys.end());
      },
      sc.max_fraction);
  if (result.batches.empty()) {
    return false;
  }
  const std::uint64_t steal_cycles = util::CycleEnd() - t0;
  // EWMA alpha 1/8; the racy read-modify-write only ever loses an update.
  const std::uint64_t prev = steal_cost_ewma_.load(std::memory_order_relaxed);
  steal_cost_ewma_.store(
      prev == 0 ? steal_cycles : prev - prev / 8 + steal_cycles / 8,
      std::memory_order_relaxed);
  // Counter exemplar: the interval scrape's steals_total delta points back
  // at one concrete flow track that actually migrated.
  telemetry_.steals->IncWithExemplar(w.index,
                                     result.batches.front().flow_id());
  telemetry_.stolen_batches->Add(w.index, result.batches.size());
  telemetry_.stolen_items->Add(w.index, result.items);
  if (armed) {
    telemetry_.steal_cycles->RecordWithExemplar(
        w.index, steal_cycles, result.batches.front().flow_id());
  }
  // Process the stolen slices in queue order, before touching our own
  // queue: any same-flow work dispatched after the migration sits behind
  // these slices by construction.
  for (FlowBatch& slice : result.batches) {
    // The slice keeps its source sub-batch's flow id, so the steal shows up
    // on the original dispatch's async track.
    LINSYS_TRACE_ASYNC_INSTANT("flow.steal", "flow", slice.flow_id());
    // Latency decomposition: the migration transit this slice survived goes
    // to its steal component (additive — a re-stolen slice keeps both
    // legs), and its queue time ends now: processing directly *is* the new
    // home's pop.
    slice.add_steal_cycles(steal_cycles);
    slice.set_pop_tsc(util::CycleEnd());
    w.busy.store(true, std::memory_order_release);
    ProcessFlows(w, std::move(slice));
    w.heartbeat.fetch_add(1, std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> lock(w.guard_mu);
    w.stolen_flows.clear();
  }
  return true;
}

std::size_t Runtime::MaxQueueDepth() {
  std::size_t max_depth = 0;
  for (std::size_t i = 0; i < rss_.worker_count(); ++i) {
    max_depth = std::max(max_depth, rss_.queue(i).size());
  }
  return max_depth;
}

void Runtime::StartPacedRx(FlowFeeder* feeder, std::uint64_t batches) {
  LINSYS_ASSERT(config_.paced_rx.enabled,
                "StartPacedRx needs RuntimeConfig::paced_rx.enabled");
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  LINSYS_ASSERT(started_ && !shut_down_,
                "StartPacedRx needs a started, un-shut-down runtime");
  {
    std::lock_guard<std::mutex> lock(rx_mu_);
    LINSYS_ASSERT(!rx_active_, "one paced rx thread at a time");
    rx_active_ = true;
  }
  rx_stop_.store(false, std::memory_order_relaxed);
  if (rx_thread_.joinable()) {
    rx_thread_.join();  // reap the previous run's exited thread
  }
  rx_thread_ =
      std::thread([this, feeder, batches] { RxMain(feeder, batches); });
}

void Runtime::WaitRxIdle() {
  std::unique_lock<std::mutex> lock(rx_mu_);
  rx_cv_.wait(lock, [this] { return !rx_active_; });
}

void Runtime::RxMain(FlowFeeder* feeder, std::uint64_t batches) {
  if (obs::Tracer::ArmedFast()) {
    obs::Tracer::Global().SetThreadName("rx");
  }
  obs::Profiler::Global().RegisterThisThread("rx");
  util::FaultInjector::SetThreadTag("net.rx");
  const PacedRxConfig& rx = config_.paced_rx;
  // High-water mark in sub-batches. Dispatch adds at most one sub-batch per
  // queue per burst, so queues never exceed mark+1 while rx is the sole
  // producer — pacing replaces blocking inside a full channel.
  const std::size_t mark =
      config_.queue_depth > 0
          ? std::max<std::size_t>(
                1, static_cast<std::size_t>(rx.high_water_frac *
                                            static_cast<double>(
                                                config_.queue_depth)))
          : 48;
  const auto pause = std::chrono::microseconds(rx.pause_us == 0 ? 1 : rx.pause_us);
  for (std::uint64_t i = 0; i < batches; ++i) {
    while (!rx_stop_.load(std::memory_order_relaxed) &&
           MaxQueueDepth() >= mark) {
      telemetry_.rx_pauses->Inc();
      std::this_thread::sleep_for(pause);
    }
    if (rx_stop_.load(std::memory_order_relaxed)) {
      break;
    }
    {
      // Profile attribution: rx's burst build + steer is execute work with
      // a stable pseudo-stage name; its pacing sleeps stay idle.
      obs::ScopedProfilerPhase rx_phase(obs::ProfilerPhase::kExecute);
      obs::ScopedProfilerStage rx_stage("rx.dispatch");
      if (!Dispatch(feeder->Next(rx.burst))) {
        break;  // runtime stopped accepting (shutdown)
      }
    }
    telemetry_.rx_batches->Inc();
  }
  {
    std::lock_guard<std::mutex> lock(rx_mu_);
    rx_active_ = false;
  }
  rx_cv_.notify_all();
  obs::Profiler::Global().UnregisterThisThread();
}

// Delivery-side terminus of the SLO clock: records the always-on
// dispatch→delivery histogram plus its four-way additive decomposition.
// The split is exact by construction — clamps defend against a missing pop
// stamp or cross-core TSC skew, and after them
//   queue + service + steal + fence == delivery
// holds per batch on the nose (the histograms' exact `sum` fields therefore
// decompose perfectly; quantiles inherit only bucketization error).
void Runtime::RecordDelivery(Worker& w, const FlowBatch& flows) {
  if (flows.dispatch_tsc() == 0) {
    return;  // unstamped (test-built batch): nothing to attribute
  }
  const std::uint64_t end = util::CycleEnd();
  const std::uint64_t dispatch = flows.dispatch_tsc();
  const std::uint64_t delivery = end > dispatch ? end - dispatch : 0;
  telemetry_.delivery_latency_cycles->RecordWithExemplar(w.index, delivery,
                                                         flows.flow_id());
  std::uint64_t pop = flows.pop_tsc();
  if (pop < dispatch) {
    pop = dispatch;  // also covers pop == 0 (batch delivered without Take)
  }
  if (pop > end) {
    pop = end;
  }
  std::uint64_t queue = pop - dispatch;
  std::uint64_t service = end - pop;
  std::uint64_t steal = std::min(flows.steal_cycles(), queue);
  queue -= steal;
  std::uint64_t fence = std::min(flows.fence_cycles(), service);
  service -= fence;
  telemetry_.latency_queue_cycles->Record(w.index, queue);
  telemetry_.latency_service_cycles->Record(w.index, service);
  telemetry_.latency_steal_cycles->Record(w.index, steal);
  telemetry_.latency_fence_cycles->Record(w.index, fence);
}

void Runtime::ProcessFlows(Worker& w, FlowBatch flows) {
  LINSYS_TRACE_SPAN("runtime.batch");
  // Re-enter the flow's context on this worker: instrumentation below here
  // (stage crossings, fault capture, exemplars) tags what it records with
  // the dispatch-assigned id, and the batch span joins the flow's track.
  obs::ScopedFlowId flow_scope(flows.flow_id());
  // Profile attribution: the batch's whole dynamic extent is "execute"
  // (per-stage refinement happens inside Pipeline::Run), tagged with the
  // flow id so profile exemplars correlate with trace tracks.
  obs::ScopedProfilerPhase exec_phase(obs::ProfilerPhase::kExecute);
  obs::Profiler::SetFlow(flows.flow_id());
  // Remembered as the exemplar on this worker's next checkpoint-pause
  // sample: the flow whose batch sat behind the capture.
  w.last_flow_id.store(flows.flow_id(), std::memory_order_relaxed);
  LINSYS_TRACE_ASYNC_SPAN("flow.batch", "flow", flows.flow_id());
  // Materialize frames from this worker's own pool, on this thread —
  // the whole buffer lifecycle (alloc, fault-unwind, drop) is shard-local.
  PacketBatch batch(flows.size());
  std::size_t materialize_drops = 0;
  try {
    for (const FlowWork& fw : flows) {
      PacketBuf pkt = PacketBuf::Alloc(&w.pool, config_.frame_len);
      if (!pkt.has_value()) {
        ++materialize_drops;
        continue;
      }
      BuildFrame(pkt, fw.tuple);
      std::memcpy(pkt.payload(), &fw.seq, kFlowSeqBytes);
      batch.Push(std::move(pkt));
    }
  } catch (const util::PanicError&) {
    // A panic outside any protection domain (e.g. an injected Mempool::Alloc
    // fault) is contained at the shard loop: the whole sub-batch is dropped
    // — partially built frames go back to this worker's pool as `batch`
    // unwinds on this thread — and the worker survives to take the next one.
    telemetry_.drops->Add(w.index, flows.size());
    telemetry_.faults->Inc(w.index);
    LINSYS_TRACE_INSTANT_ARG("runtime.materialize_fault", w.index);
    return;
  }
  telemetry_.drops->Add(w.index, materialize_drops);
  if (batch.empty()) {
    return;
  }
  const std::size_t n = batch.size();

  // Always-on latency sample: two cycle reads per *sub-batch*, amortized
  // over its packets — not on the per-call path Figure 2 measures.
  const std::uint64_t t0 = util::CycleStart();
  std::unique_lock<std::mutex> lock(w.mu);
  const std::uint64_t qdrop_before = w.pipeline.QuarantineDropPkts();
  auto result = w.pipeline.Run(std::move(batch));
  const std::uint64_t qdrop_delta =
      w.pipeline.QuarantineDropPkts() - qdrop_before;
  lock.unlock();
  const std::uint64_t batch_cycles = util::CycleEnd() - t0;
  telemetry_.batch_cycles->RecordWithExemplar(w.index, batch_cycles,
                                              flows.flow_id());
  // Feed the per-worker service estimate steal-victim scoring reads
  // (alpha 1/8; single writer — this worker).
  const std::uint64_t ewma =
      w.service_ewma_cycles.load(std::memory_order_relaxed);
  w.service_ewma_cycles.store(
      ewma == 0 ? batch_cycles : ewma - ewma / 8 + batch_cycles / 8,
      std::memory_order_relaxed);
  if (!result.ok()) {
    // The in-flight batch was reclaimed during unwinding (still on this
    // thread, still this worker's pool). kFault = a fresh panic, worth
    // waking the supervisor; kDomainFailed = still waiting on recovery;
    // kQuarantined = a fail-fast stage, nothing left to recover.
    telemetry_.drops->Add(w.index, n);
    if (result.error() == sfi::CallError::kFault) {
      telemetry_.faults->Inc(w.index);
      NotifyFault();
    }
    return;
  }
  PacketBatch out = std::move(result).value();
  // A quarantined kDrop stage returns Ok(empty): mirror its drop count
  // into the shard counter so conservation (packets + drops ==
  // materialized) still holds under degradation.
  if (qdrop_delta > 0) {
    telemetry_.drops->Add(w.index, qdrop_delta);
  }
  // Delivery: the SLO clock that started in Dispatch stops here. Always
  // on — queue wait, checkpoint pauses, and any steal/failover migration
  // this batch lived through are all inside this number, which is exactly
  // why it is the client-visible quantity. Recorded before the packet
  // count moves, so a scrape that waits on the count finds this batch's
  // samples in place (program order only: the counters are relaxed).
  RecordDelivery(w, flows);
  telemetry_.packets->Add(w.index, out.size());
  telemetry_.batches->Inc(w.index);
}

bool Runtime::RecoveryPass() {
  LINSYS_TRACE_SPAN("runtime.recovery_pass");
  obs::ScopedProfilerPhase recover_phase(obs::ProfilerPhase::kRecover);
  bool still_failed = false;
  for (auto& w : workers_) {
    // The worker's pipeline mutex serializes recovery against Run, so
    // rrefs are never replaced under a caller's feet.
    std::lock_guard<std::mutex> wlock(w->mu);
    const std::size_t recovered = w->pipeline.RecoverFailedStages(
        config_.supervision.max_recovery_attempts);
    if (recovered > 0) {
      telemetry_.recoveries->Add(w->index, recovered);
    }
    if (w->pipeline.FailedStages() > 0) {
      still_failed = true;  // a recovery fn panicked — re-queue for backoff
    }
  }
  return still_failed;
}

void Runtime::SupervisorMain() {
  if (obs::Tracer::ArmedFast()) {
    obs::Tracer::Global().SetThreadName("supervisor");
  }
  obs::Profiler::Global().RegisterThisThread("supervisor");
  util::FaultInjector::SetThreadTag("net.supervisor");
  using Clock = std::chrono::steady_clock;
  const SupervisionConfig& sup = config_.supervision;
  const auto period = std::chrono::milliseconds(sup.watchdog_period_ms);

  std::vector<std::uint64_t> last_beat(workers_.size(), 0);
  std::vector<bool> flagged(workers_.size(), false);
  std::uint32_t backoff_us = sup.backoff_initial_us;
  Clock::time_point next_retry = Clock::now();
  bool recover_requested = false;

  std::unique_lock<std::mutex> lock(sup_mu_);
  while (true) {
    // Sleep until the watchdog period elapses, a retry comes due, or a
    // worker reports a fresh fault.
    Clock::duration wait = period;
    if (recover_requested) {
      const auto now = Clock::now();
      wait = next_retry > now
                 ? std::min<Clock::duration>(period, next_retry - now)
                 : Clock::duration::zero();
    }
    sup_cv_.wait_for(lock, wait,
                     [this] { return sup_stop_ || fault_pending_; });
    if (sup_stop_) {
      // Shutdown stops the supervisor only after the workers drained, so a
      // fault raised during the drain may still be pending here (the wait
      // can wake to both flags at once). Recover it before exiting, as
      // Shutdown promises.
      if (fault_pending_ || recover_requested) {
        fault_pending_ = false;
        lock.unlock();
        (void)RecoveryPass();
      }
      break;
    }
    if (fault_pending_) {
      fault_pending_ = false;
      recover_requested = true;
    }
    lock.unlock();

    // Recovery sweep, gated by the backoff clock. While a recovery function
    // keeps panicking, passes run at backoff_initial * factor^k (capped);
    // the moment a pass leaves no stage Failed the backoff resets, so a
    // healthy fault hits recovery at full speed. Crash-loops whose recovery
    // *succeeds* but immediately re-faults are bounded separately, by the
    // per-stage attempts_since_success quarantine budget.
    if (recover_requested && Clock::now() >= next_retry) {
      const bool still_failed = RecoveryPass();
      if (still_failed) {
        next_retry = Clock::now() + std::chrono::microseconds(backoff_us);
        backoff_us = static_cast<std::uint32_t>(std::min<double>(
            static_cast<double>(backoff_us) * sup.backoff_factor,
            static_cast<double>(sup.backoff_max_us)));
        // recover_requested stays true: retry when the backoff expires.
      } else {
        recover_requested = false;
        backoff_us = sup.backoff_initial_us;
        next_retry = Clock::now();
      }
    }

    // Watchdog: a worker that is busy on the same sub-batch across an
    // entire period (heartbeat unmoved) is stuck — count the transition
    // once per incident and surface it in telemetry.
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Worker& w = *workers_[i];
      const std::uint64_t beat = w.heartbeat.load(std::memory_order_acquire);
      const bool busy = w.busy.load(std::memory_order_acquire);
      if (busy && beat == last_beat[i]) {
        if (!flagged[i]) {
          telemetry_.stalls->Inc(i);
          LINSYS_TRACE_INSTANT_ARG("runtime.watchdog_stall", i);
          flagged[i] = true;
        }
      } else {
        flagged[i] = false;
      }
      last_beat[i] = beat;
    }

    // Quarantine probation rides the supervisor cadence: a quarantined
    // stage whose cool-down has elapsed gets a fresh domain and one probe
    // batch; the probe's outcome (in Pipeline::Run) settles it.
    if (config_.supervision.probation_cooldown_batches > 0) {
      for (auto& w : workers_) {
        std::lock_guard<std::mutex> wlock(w->mu);
        (void)w->pipeline.ProbeQuarantined();
      }
    }

    // Steal nudges ride the same wake: stealing costs nothing while every
    // worker is busy or every queue is shallow, because nobody polls.
    if (config_.stealing.enabled) {
      NudgeIdleThieves();
    }

    lock.lock();
  }
  obs::Profiler::Global().UnregisterThisThread();
}

// Worker-side half of a checkpoint epoch, called at every batch boundary
// (right after a pop, before processing). One acquire load + compare on the
// no-epoch fast path; when the driver has advanced ckpt_gen_, capture this
// worker's stage state (the measured quiesce pause) and deposit it. The
// caller charges the returned pause to the batch the capture delayed.
std::uint64_t Runtime::MaybeCaptureCheckpoint(Worker& w) {
  if (!config_.ckpt.enabled) {
    return 0;
  }
  const std::uint64_t gen = ckpt_gen_.load(std::memory_order_acquire);
  if (gen == w.ckpt_seen_gen) {
    return 0;
  }
  // One capture per epoch even if the driver abandons it: the deposit
  // carries the gen, so a stale image can never pollute a later epoch.
  w.ckpt_seen_gen = gen;
  obs::ScopedProfilerPhase ckpt_phase(obs::ProfilerPhase::kCkptCapture);
  const std::uint64_t t0 = util::CycleStart();
  WorkerCkptImage img;
  img.index = w.index;
  {
    std::lock_guard<std::mutex> lock(w.mu);
    img.stages = w.pipeline.CheckpointStages();
  }
  const std::uint64_t pause = util::CycleEnd() - t0;
  // Always-on: the pause is the checkpoint's whole cost story, and epochs
  // are rare. The exemplar names the flow whose batch sat behind it.
  telemetry_.ckpt_pause_cycles->RecordWithExemplar(
      w.index, pause, w.last_flow_id.load(std::memory_order_relaxed));
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    ckpt_pending_.emplace_back(gen, std::move(img));
  }
  ckpt_cv_.notify_all();
  LINSYS_TRACE_INSTANT_ARG("runtime.ckpt_capture", w.index);
  return pause;
}

bool Runtime::CheckpointLive() {
  LINSYS_ASSERT(config_.ckpt.enabled,
                "CheckpointLive needs RuntimeConfig::ckpt.enabled");
  std::lock_guard<std::mutex> driver(ckpt_driver_mu_);
  if (!accepting_.load(std::memory_order_acquire)) {
    telemetry_.ckpt_epoch_failures->Inc();
    return false;
  }
  LINSYS_TRACE_SPAN("runtime.ckpt_epoch");
  const std::uint64_t t0 = util::CycleStart();
  // Fence first, then open the epoch: a worker that sees the new gen is
  // guaranteed to also see the fence, so no steal or migration eviction can
  // run between its capture and the epoch's close.
  ckpt_fence_.store(true, std::memory_order_release);
  const std::uint64_t gen =
      ckpt_gen_.fetch_add(1, std::memory_order_acq_rel) + 1;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(config_.ckpt.quiesce_timeout_ms);
  std::vector<bool> seen(workers_.size(), false);
  std::vector<WorkerCkptImage> images;
  bool complete = false;
  {
    std::unique_lock<std::mutex> lock(ckpt_mu_);
    while (true) {
      for (auto it = ckpt_pending_.begin(); it != ckpt_pending_.end();) {
        if (it->first == gen && !seen[it->second.index]) {
          seen[it->second.index] = true;
          images.push_back(std::move(it->second));
          it = ckpt_pending_.erase(it);
        } else if (it->first <= gen) {
          // Straggler from an abandoned epoch (or a duplicate): discard.
          it = ckpt_pending_.erase(it);
        } else {
          ++it;
        }
      }
      if (images.size() == workers_.size()) {
        complete = true;
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        break;
      }
      // Nudge workers that have not deposited and whose queue is empty:
      // those are parked in a blocking Recv and will never reach a batch
      // boundary on their own (an empty-queue Send cannot block; a busy
      // worker reaches its boundary naturally). Re-checked every iteration
      // — a queue that drains right after this scan gets the next nudge.
      lock.unlock();
      for (std::size_t i = 0; i < workers_.size(); ++i) {
        if (!seen[i] && rss_.queue(i).size() == 0) {
          Nudge(i);
        }
      }
      lock.lock();
      ckpt_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }
  ckpt_fence_.store(false, std::memory_order_release);
  if (!complete) {
    // Quiesce timed out (some worker never reached a boundary in time).
    // Nothing is installed; deposits for this gen are swept by the next
    // epoch's harvest.
    telemetry_.ckpt_epoch_failures->Inc();
    LINSYS_TRACE_INSTANT("runtime.ckpt_epoch_abandoned");
    return false;
  }
  std::sort(images.begin(), images.end(),
            [](const WorkerCkptImage& a, const WorkerCkptImage& b) {
              return a.index < b.index;
            });
  RuntimeCkptImage image;
  image.epoch = ckpt_epoch_seq_ + 1;
  image.workers = std::move(images);
  try {
    if (!ckpt_state_) {
      ckpt_state_ = std::make_unique<ckpt::ReplicatedState<RuntimeCkptImage>>(
          std::move(image), config_.ckpt.replicas);
    } else {
      ckpt_state_->Apply(
          [&image](RuntimeCkptImage& s) { s = std::move(image); });
    }
  } catch (const util::PanicError&) {
    // An injected ckpt.replica_restore fault mid-replication. The primary
    // may already hold the new image but a replica is stale — exactly the
    // state Failover's promote-then-resync is defined over, so nothing to
    // unwind; the epoch just doesn't count as installed.
    telemetry_.ckpt_epoch_failures->Inc();
    return false;
  }
  ++ckpt_epoch_seq_;
  telemetry_.ckpt_epochs->Inc();
  if (obs::MetricsArmed(obs::MetricGroup::kCkpt)) {
    ckpt::CkptObs::Get().runtime_epoch_cycles->Record(util::CycleEnd() - t0);
  }
  return true;
}

bool Runtime::FailoverWorker(std::size_t victim) {
  LINSYS_ASSERT(config_.ckpt.enabled,
                "FailoverWorker needs RuntimeConfig::ckpt.enabled");
  LINSYS_ASSERT(victim < workers_.size(), "victim out of range");
  LINSYS_ASSERT(workers_.size() > 1, "failover needs a surviving worker");
  std::lock_guard<std::mutex> driver(ckpt_driver_mu_);
  if (!ckpt_state_) {
    telemetry_.failover_failures->Inc();  // nothing to fail over to yet
    return false;
  }
  LINSYS_TRACE_SPAN("runtime.failover");
  const std::uint64_t t0 = util::CycleStart();
  try {
    // Promote replica 0 and resync the rest from it. The injectable
    // ckpt.failover_resync point fires inside; a panic there is contained
    // here — ReplicatedState holds valid snapshots on both sides of the
    // swap, so the failover is simply refused and retryable.
    ckpt_state_->Failover(0);
  } catch (const util::PanicError&) {
    telemetry_.failover_failures->Inc();
    LINSYS_TRACE_INSTANT_ARG("runtime.failover_fault", victim);
    return false;
  }
  // Re-home the victim's queued flows to the survivors. The exclusion set
  // is the victim's in-flight registry (same shape as a thief's off-limits
  // read, evaluated under the victim's channel lock): its current batch
  // finishes on the victim, so excluding it loses nothing. Contention with
  // a dispatch or steal just means retry; if every attempt loses the race,
  // the items simply stay queued at the victim — delayed, never lost.
  Worker& v = *workers_[victim];
  std::size_t rehomed = 0;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto moved =
        rss_.RehomeWorker(victim, [&v] { return InFlightFlows(v); });
    if (moved.has_value()) {
      rehomed = *moved;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // Restore the victim's stage state from its slice of the promoted image
  // (the "resync" half: the replica becomes the worker's live state).
  for (const WorkerCkptImage& wi : ckpt_state_->primary().workers) {
    if (wi.index == victim) {
      std::lock_guard<std::mutex> lock(v.mu);
      const std::uint64_t mismatches_before = v.pipeline.restore_mismatches();
      (void)v.pipeline.RestoreStages(wi.stages);
      // Name-keyed restore refuses (and counts) images whose stage the
      // pipeline does not have — surface that as a runtime counter so a
      // schedule/shape drift between checkpoint and restore is visible.
      const std::uint64_t refused =
          v.pipeline.restore_mismatches() - mismatches_before;
      if (refused > 0) {
        telemetry_.ckpt_restore_mismatches->Add(refused);
      }
      break;
    }
  }
  // Exemplar: the victim's most recent flow — the flow a scraper should
  // pull up to see what client work sat closest to the failover.
  telemetry_.failovers->IncWithExemplar(
      0, v.last_flow_id.load(std::memory_order_relaxed));
  if (rehomed > 0) {
    telemetry_.failover_rehomed_items->Add(rehomed);
  }
  telemetry_.failover_resync_cycles->Record(util::CycleEnd() - t0);
  LINSYS_TRACE_INSTANT_ARG("runtime.failover_done", victim);
  return true;
}

RuntimeCkptImage Runtime::CheckpointImageCopy() {
  std::lock_guard<std::mutex> driver(ckpt_driver_mu_);
  if (!ckpt_state_) {
    return RuntimeCkptImage{};
  }
  return ckpt_state_->primary();
}

RuntimeStats Runtime::Stats() const {
  RuntimeStats s;
  s.dispatch_calls = rss_.batches_steered();
  s.sub_batches = rss_.sub_batches_steered();
  s.rejected_dispatches = telemetry_.rejected_dispatches->Value();
  s.steer_refused_sub_batches = rss_.refused_sub_batches();
  s.steer_dropped_items = rss_.dropped_items();
  s.migrated_flows = rss_.migrated_flows();
  s.migration_evictions = rss_.migration_evictions();
  s.rx_batches = telemetry_.rx_batches->Value();
  s.rx_pauses = telemetry_.rx_pauses->Value();
  s.steal_cycles = telemetry_.steal_cycles->Snapshot();
  s.ckpt_epochs = telemetry_.ckpt_epochs->Value();
  s.ckpt_epoch_failures = telemetry_.ckpt_epoch_failures->Value();
  s.failovers = telemetry_.failovers->Value();
  s.failover_failures = telemetry_.failover_failures->Value();
  s.failover_rehomed_items = telemetry_.failover_rehomed_items->Value();
  s.ckpt_restore_mismatches = telemetry_.ckpt_restore_mismatches->Value();
  s.unquarantines = telemetry_.unquarantines->Value();
  s.requarantines = telemetry_.requarantines->Value();
  s.ckpt_pause_cycles = telemetry_.ckpt_pause_cycles->Snapshot();
  s.failover_resync_cycles = telemetry_.failover_resync_cycles->Snapshot();
  // One consistent histogram snapshot for the whole stats call: buckets are
  // never torn (sum(buckets) == count) even while workers keep recording.
  s.batch_cycles = telemetry_.batch_cycles->Snapshot();
  s.delivery_latency_cycles = telemetry_.delivery_latency_cycles->Snapshot();
  s.latency_queue_cycles = telemetry_.latency_queue_cycles->Snapshot();
  s.latency_service_cycles = telemetry_.latency_service_cycles->Snapshot();
  s.latency_steal_cycles = telemetry_.latency_steal_cycles->Snapshot();
  s.latency_fence_cycles = telemetry_.latency_fence_cycles->Snapshot();
  s.stages.resize(stage_names_.size());
  for (std::size_t i = 0; i < stage_names_.size(); ++i) {
    s.stages[i].name = stage_names_[i];
    s.stages[i].policy = stage_policies_[i];
  }
  for (const auto& w : workers_) {
    WorkerTelemetry t;
    // Per-worker counters are that worker's shard cell in the registry;
    // acquire loads keep each value monotone across successive scrapes.
    t.batches = telemetry_.batches->ShardValue(w->index);
    t.packets = telemetry_.packets->ShardValue(w->index);
    t.drops = telemetry_.drops->ShardValue(w->index);
    t.faults = telemetry_.faults->ShardValue(w->index);
    t.recoveries = telemetry_.recoveries->ShardValue(w->index);
    t.stalls = telemetry_.stalls->ShardValue(w->index);
    t.steals = telemetry_.steals->ShardValue(w->index);
    t.steals_skipped = telemetry_.steal_skipped->ShardValue(w->index);
    t.stolen_batches = telemetry_.stolen_batches->ShardValue(w->index);
    t.stolen_items = telemetry_.stolen_items->ShardValue(w->index);
    t.queue_hwm = static_cast<std::size_t>(
        telemetry_.queue_hwm->ShardValue(w->index));
    const Mempool::CountersView pool = w->pool.Counters();
    s.mempool_in_use += pool.in_use;
    s.mempool_in_use_hwm = std::max(s.mempool_in_use_hwm, pool.in_use_hwm);
    s.mempool_alloc_failures += pool.alloc_failures;
    {
      // Per-stage health lives behind the worker mutex (it is plain state
      // shared by Run and the supervisor).
      std::lock_guard<std::mutex> lock(w->mu);
      for (std::size_t i = 0; i < w->pipeline.length(); ++i) {
        const StageHealth h = w->pipeline.health(i);
        t.recovery_panics += h.recovery_panics;
        t.quarantined += h.quarantined ? 1 : 0;
        StageTelemetry& st = s.stages[i];
        st.quarantined_replicas += h.quarantined ? 1 : 0;
        st.faults += h.faults;
        st.recoveries += h.recoveries;
        st.recovery_panics += h.recovery_panics;
        st.quarantine_drop_pkts += h.quarantine_drop_pkts;
        st.passthrough_batches += h.passthrough_batches;
        st.failfast_batches += h.failfast_batches;
        st.probes += h.probes;
        st.unquarantines += h.unquarantines;
        st.requarantines += h.requarantines;
        for (double v : h.mttr_cycles.values()) {
          st.mttr_cycles.Add(v);
        }
      }
    }
    s.totals.batches += t.batches;
    s.totals.packets += t.packets;
    s.totals.drops += t.drops;
    s.totals.faults += t.faults;
    s.totals.recoveries += t.recoveries;
    s.totals.recovery_panics += t.recovery_panics;
    s.totals.stalls += t.stalls;
    s.totals.steals += t.steals;
    s.totals.steals_skipped += t.steals_skipped;
    s.totals.stolen_batches += t.stolen_batches;
    s.totals.stolen_items += t.stolen_items;
    s.totals.quarantined += t.quarantined;
    s.totals.queue_hwm = std::max(s.totals.queue_hwm, t.queue_hwm);
    s.packets_per_worker.Add(static_cast<double>(t.packets));
    s.workers.push_back(t);
  }
  return s;
}

}  // namespace net
