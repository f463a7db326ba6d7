// Packet workloads: fwd_min, nf_chain and ckpt_live. One generator thread
// feeds a two-worker net::Runtime; the benchmark's sink is the last stage.
// See README.md for why each workload exists and what it should move.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/bench_util.h"
#include "perfbench/sink.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/ckpt/snapshot.h"
#include "src/net/maglev.h"
#include "src/net/operators/conntrack.h"
#include "src/net/operators/firewall.h"
#include "src/net/operators/maglev_op.h"
#include "src/net/operators/nat.h"
#include "src/net/operators/null_filter.h"
#include "src/net/operators/ttl.h"
#include "src/net/pktgen.h"
#include "src/net/runtime.h"
#include "src/net/schedule.h"
#include "src/sfi/domain.h"
#include "src/util/cycles.h"

namespace perfbench {
namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kBatch = 32;
constexpr std::size_t kSetupReps = 3;  // timed set-ups per CPU
// Latency quantiles and Dispatch capacity are taken per window of about
// 0.1 s of the measured time (see BestDecileOfTimes). On a shared host the
// speed of every vCPU changed by up to 1.6x from one quarter second to the
// next; short windows let the best decile come from the quiet stretches.
constexpr double kWindowsPerSecond = 10.0;
constexpr std::size_t kMinWindows = 10;
// Traced run: worker-side spans are kept for one Dispatch batch in 8.
constexpr std::uint64_t kSampleEvery = 8;
constexpr std::size_t kSpanThreads = 8;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;

// Offered rates, in descriptors per second. Each workload stays at or below
// about half its saturated rate even when a shared host runs 3x slower than
// its best (README.md); ckpt_live runs below nf_chain, leaving the workers
// room for the capture pauses.
constexpr double kFwdRate = 0.6e6;
constexpr double kChainRate = 0.75e6;
constexpr double kCkptRate = 0.5e6;

constexpr std::uint32_t kPublicIp = 0xcb007101u;  // 203.0.113.1
constexpr std::uint16_t kPortBase = 1024;
constexpr std::uint16_t kPortSpan = 30000;
constexpr std::uint32_t kBackendBase = 0xac100001u;  // 172.16.0.1
constexpr std::size_t kBackends = 16;
constexpr std::uint32_t kBlockedPrefix = 0x0a800000u;  // 10.128.0.0/9
constexpr std::uint8_t kBlockedLen = 9;

constexpr std::uint64_t kCkptPeriodNs = 20'000'000;
constexpr std::uint64_t kScrapePeriodNs = 100'000'000;
constexpr std::uint64_t kFailoverEvery = 5;  // epochs
// ckpt_live's worker queues, in sub-batches: room for about 65 ms of a
// worker's traffic. A capture pauses a worker, and the default 64 (about
// 4 ms here) filled whenever a slow host stretched a pause. The one producer
// then blocked in Dispatch, so both workers' packets fell behind schedule;
// with 3 busy-loop processes beside the run the p50 latency went from 23 us
// to 2.7 ms. With the deeper queues it stayed at 23 us.
constexpr std::size_t kCkptQueueDepth = 1024;

struct WorkloadDef {
  Shape shape;
  std::size_t flows;
  double zipf_s;
  double rate;  // offered descriptors per second
};

bool Lookup(const std::string& name, WorkloadDef* def) {
  if (name == "fwd_min") {
    *def = {Shape::kForward, 1024, 0.0, kFwdRate};
  } else if (name == "nf_chain") {
    *def = {Shape::kChain, 65536, 1.0, kChainRate};
  } else if (name == "ckpt_live") {
    *def = {Shape::kCkpt, 16384, 1.0, kCkptRate};
  } else {
    return false;
  }
  return true;
}

// --- Traced-run decorators --------------------------------------------------

struct TraceCtx {
  Tracer* tracer = nullptr;
  std::vector<std::uint16_t> stage_names;  // span name per stage index
  std::atomic<bool> measure_image{false};
  std::atomic<std::uint64_t> image_bytes{0};
};

// The sub-batch the current worker thread is in, learned at stage 0.
thread_local std::uint64_t tl_batch = 0;
thread_local bool tl_sampled = false;

class SpanOp : public net::Operator {
 public:
  SpanOp(std::unique_ptr<net::Operator> inner, TraceCtx* ctx,
         std::size_t stage)
      : inner_(std::move(inner)), ctx_(ctx), stage_(stage) {}

  net::PacketBatch Process(net::PacketBatch batch) override {
    if (stage_ == 0 && !batch.empty()) {
      tl_batch = net::ReadFlowSeq(batch[0]) / kBatch * kBatch;
      tl_sampled = (tl_batch / kBatch) % kSampleEvery == 0;
    }
    if (!tl_sampled) {
      return inner_->Process(std::move(batch));
    }
    // The domain is the one the runtime actually runs this stage in, so
    // crossings are counted from what it did, not from the schedule.
    SpanScope span(ctx_->tracer, ctx_->stage_names[stage_], tl_batch,
                   static_cast<std::uint16_t>(batch.size()),
                   sfi::ScopedDomain::Current());
    return inner_->Process(std::move(batch));
  }
  std::string_view name() const override { return inner_->name(); }

 protected:
  std::unique_ptr<net::Operator> inner_;
  TraceCtx* ctx_;
  std::size_t stage_;
};

// Keeps a stateful operator checkpointable through the decorator, and in the
// final epoch also measures how many bytes its image takes.
class SpanCkptOp final : public SpanOp, public net::CkptStage {
 public:
  using SpanOp::SpanOp;

  void SaveState(ckpt::Writer& w) const override {
    Inner().SaveState(w);
    if (ctx_->measure_image.load(std::memory_order_acquire)) {
      ckpt::Writer probe(w.mode(), w.epoch());
      Inner().SaveState(probe);
      ctx_->image_bytes.fetch_add(probe.Finish().bytes.size(),
                                  std::memory_order_relaxed);
    }
  }
  void LoadState(ckpt::Reader& r) override {
    dynamic_cast<net::CkptStage&>(*inner_).LoadState(r);
  }

 private:
  const net::CkptStage& Inner() const {
    return dynamic_cast<const net::CkptStage&>(*inner_);
  }
};

std::unique_ptr<net::Operator> Decorate(TraceCtx* ctx, std::size_t stage,
                                        std::unique_ptr<net::Operator> op) {
  if (ctx == nullptr) {
    return op;
  }
  if (dynamic_cast<net::CkptStage*>(op.get()) != nullptr) {
    return std::make_unique<SpanCkptOp>(std::move(op), ctx, stage);
  }
  return std::make_unique<SpanOp>(std::move(op), ctx, stage);
}

// --- Pipelines ---------------------------------------------------------------

struct Pipeline {
  std::vector<net::StageSpec> spec;
  std::vector<std::string> layer;  // per stage: the op.* metric it feeds
  net::PipelineSchedule schedule;
};

net::Maglev MakeMaglev() {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kBackends; ++i) {
    names.push_back("be" + std::to_string(i));
  }
  return net::Maglev(std::move(names), 65537);
}

std::vector<std::uint32_t> BackendIps() {
  std::vector<std::uint32_t> ips;
  for (std::size_t i = 0; i < kBackends; ++i) {
    ips.push_back(kBackendBase + static_cast<std::uint32_t>(i));
  }
  return ips;
}

Pipeline BuildPipeline(Shape shape, SinkShared* sink, TraceCtx* ctx) {
  Pipeline p;
  auto add = [&](std::string name, std::string layer, auto make) {
    const std::size_t stage = p.spec.size();
    net::StageSpec s;
    s.name = std::move(name);
    s.make = [ctx, stage, make](std::size_t w) {
      return Decorate(ctx, stage, make(w));
    };
    p.spec.push_back(std::move(s));
    p.layer.push_back(std::move(layer));
  };
  switch (shape) {
    case Shape::kForward:
      for (int i = 0; i < 5; ++i) {
        add("null" + std::to_string(i), "op.null", [](std::size_t) {
          return std::make_unique<net::NullFilter>();
        });
      }
      break;
    case Shape::kChain:
      add("firewall", "op.firewall", [](std::size_t) {
        net::FirewallRule block;
        block.src_prefix = kBlockedPrefix;
        block.src_prefix_len = kBlockedLen;
        block.allow = false;
        return std::make_unique<net::FirewallNf>(
            std::vector<net::FirewallRule>{block});
      });
      add("ttl", "op.ttl",
          [](std::size_t) { return std::make_unique<net::TtlDecrement>(); });
      add("maglev", "op.maglev", [](std::size_t) {
        return std::make_unique<net::MaglevLb>(MakeMaglev(), BackendIps());
      });
      add("nat", "op.nat", [](std::size_t w) {
        return std::make_unique<net::NatRewrite>(
            kPublicIp, static_cast<std::uint16_t>(kPortBase + w * kPortSpan));
      });
      break;
    case Shape::kCkpt:
      add("nat", "op.nat", [](std::size_t w) {
        return std::make_unique<net::NatRewrite>(
            kPublicIp, static_cast<std::uint16_t>(kPortBase + w * kPortSpan));
      });
      add("conntrack", "op.conntrack", [](std::size_t) {
        return std::make_unique<net::MaglevConnTrack>(MakeMaglev(),
                                                      BackendIps());
      });
      break;
  }
  add("sink", "sink", [sink](std::size_t w) {
    return std::make_unique<SinkOp>(sink, w);
  });
  // The sink shares the last operator's domain, so it adds no crossing.
  const std::size_t n = p.spec.size();
  switch (shape) {
    case Shape::kForward:  // every null filter in its own domain
      p.schedule.Fuse(n - 2, n - 1);
      break;
    case Shape::kChain:  // the nf_pipeline default: Isolate(fw) + Fuse(ttl..)
      p.schedule.Isolate(0).Fuse(1, n - 1);
      break;
    case Shape::kCkpt:  // nat alone, conntrack + sink
      p.schedule.Fuse(n - 2, n - 1);
      break;
  }
  return p;
}

// --- Load -------------------------------------------------------------------

struct GenStats {
  LogHist lag_ns;       // dispatch start - due
  LogHist dispatch_ns;  // Dispatch call duration (traced run only)
  // Dispatch call durations per latency window of the measured time.
  std::vector<LogHist> window_dispatch_ns;
  std::uint64_t busy_ns = 0;
  std::uint64_t loop_ns = 0;
  std::uint64_t issued = 0;
  std::uint64_t refused = 0;
  std::uint64_t filtered = 0;
  std::uint64_t filtered_measured = 0;  // in the measured window
  std::uint64_t measure_begin_ns = 0;
};

// Sleeps while far from `due`, then spins; the spin yields so a worker that
// shares this CPU is not starved while the generator waits.
void WaitUntil(std::uint64_t due) {
  std::uint64_t now = NowNs();
  while (now < due) {
    if (due - now > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 100'000));
    } else {
      std::this_thread::yield();
    }
    now = NowNs();
  }
}

// One producer: 32-descriptor batches on a fixed schedule (open loop).
// Dispatch may still block on a full queue; the lag behind schedule is
// recorded.
void Generate(net::Runtime& rt, SinkShared& sink, const WorkloadDef& def,
              std::uint64_t t0, std::uint64_t warm_end, std::uint64_t end,
              Tracer* tracer, std::uint16_t dispatch_name, GenStats* out) {
  const FlowDraw& draw = sink.draw();
  const SinkConfig& cfg = sink.config();
  const double period = 1e9 * kBatch / def.rate;
  SpanBuffer* spans = tracer != nullptr ? tracer->Local() : nullptr;
  out->window_dispatch_ns.assign(cfg.windows, LogHist{});
  bool measuring = false;
  WaitUntil(t0);
  for (std::uint64_t b = 0;; ++b) {
    const std::uint64_t due =
        t0 + static_cast<std::uint64_t>(static_cast<double>(b) * period);
    if (due >= end) {
      break;
    }
    WaitUntil(due);
    const std::uint64_t start = NowNs();
    const std::uint64_t first = b * kBatch;
    if (!measuring && due >= warm_end) {
      measuring = true;
      out->measure_begin_ns = due;
      sink.BeginMeasurement(first);
    }
    out->lag_ns.Record(start - due);
    net::FlowBatch batch(kBatch);
    std::uint64_t blocked = 0;
    for (std::uint64_t i = first; i < first + kBatch; ++i) {
      const std::uint32_t f = draw.FlowOf(i);
      blocked += cfg.blocked[f] ? 1 : 0;
      batch.Push(net::FlowWork{cfg.flows[f], i});
    }
    sink.Issue(first + kBatch);
    out->issued = first + kBatch;
    const std::uint64_t call = NowNs();
    const bool ok = rt.Dispatch(std::move(batch));
    const std::uint64_t done = NowNs();
    out->busy_ns += done - call;
    if (measuring) {
      out->window_dispatch_ns[sink.WindowOf(due)].Record(done - call);
    }
    if (tracer != nullptr) {
      out->dispatch_ns.Record(done - call);
      if (spans != nullptr && b % kSampleEvery == 0) {
        spans->Add(dispatch_name, first, kBatch, call, done);
      }
    }
    if (ok) {
      out->filtered += blocked;
      out->filtered_measured += measuring ? blocked : 0;
    } else {
      out->refused += kBatch;
    }
  }
  out->loop_ns = NowNs() - t0;
}

// ckpt_live's control thread: a live checkpoint every 20 ms, a failover on
// alternating workers every 5th epoch, and a Prometheus scrape every 100 ms.
// Each period runs from the end of the previous call, so a capture that runs
// long on a slow host delays the next one instead of being followed by a
// burst of back-to-back catch-up captures that would stall the workers.
struct ControlStats {
  std::vector<double> epoch_ms;
  std::vector<double> failover_ms;
  std::vector<double> scrape_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;
};

class Control {
 public:
  Control(net::Runtime& rt, SinkShared& sink, Tracer* tracer,
          std::uint16_t epoch_name, std::uint16_t failover_name,
          std::uint16_t scrape_name)
      : rt_(rt),
        sink_(sink),
        tracer_(tracer),
        names_{epoch_name, failover_name, scrape_name} {}
  Control(const Control&) = delete;
  Control& operator=(const Control&) = delete;
  ~Control() { Stop(); }

  void Start(std::uint64_t t0) {
    thread_ = std::thread([this, t0] { Main(t0); });
  }
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  // One more checkpoint, timed like the others (the final epoch).
  void Epoch() {
    SpanScope span(tracer_, names_[0]);
    const std::uint64_t t = NowNs();
    const bool ok = rt_.CheckpointLive();
    stats_.epoch_ms.push_back(static_cast<double>(NowNs() - t) / 1e6);
    Count(ok, "CheckpointLive failed");
  }
  const ControlStats& stats() const { return stats_; }

 private:
  void Count(bool ok, const char* what) {
    ++stats_.attempted;
    if (!ok) {
      ++stats_.failed;
      if (stats_.error.empty()) {
        stats_.error = what;
      }
    }
  }

  void Main(std::uint64_t t0) {
    std::uint64_t next_epoch = t0 + kCkptPeriodNs;
    std::uint64_t next_scrape = t0 + kScrapePeriodNs;
    std::uint64_t epochs = 0;
    std::size_t victim = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        const std::uint64_t wake = std::min(next_epoch, next_scrape);
        const std::uint64_t now = NowNs();
        if (now < wake) {
          cv_.wait_for(lock, std::chrono::nanoseconds(wake - now),
                       [this] { return stop_; });
        }
        if (stop_) {
          return;
        }
      }
      const std::uint64_t now = NowNs();
      if (now >= next_epoch) {
        Epoch();
        ++epochs;
        if (epochs % kFailoverEvery == 0) {
          SpanScope span(tracer_, names_[1]);
          const std::uint64_t t = NowNs();
          sink_.BumpFailoverGen();
          const bool ok = rt_.FailoverWorker(victim);
          sink_.BumpFailoverGen();
          stats_.failover_ms.push_back(static_cast<double>(NowNs() - t) /
                                       1e6);
          Count(ok, "FailoverWorker failed");
          victim = (victim + 1) % kWorkers;
        }
        next_epoch = NowNs() + kCkptPeriodNs;
      }
      if (now >= next_scrape) {
        SpanScope span(tracer_, names_[2]);
        const std::uint64_t t = NowNs();
        const std::string text = rt_.ScrapePrometheus();
        stats_.scrape_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
        Count(text.find("runtime_") != std::string::npos,
              "Prometheus scrape has no runtime metrics");
        next_scrape = NowNs() + kScrapePeriodNs;
      }
    }
  }

  net::Runtime& rt_;
  SinkShared& sink_;
  Tracer* tracer_;
  std::uint16_t names_[3];
  ControlStats stats_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// Thread placement. With at least 4 CPUs the generator gets the fastest CPU
// to itself, and the runtime's threads share the next two: they inherit the
// affinity of the thread that calls Start. The main and control threads keep
// the rest. Unpinned, wake-up placement sometimes put a worker on the
// generator's CPU for a whole run, and fwd_min then ran at half rate while
// its Dispatch time stayed the same; a generator left on a slow vCPU cut the
// rate the same way.
struct Placement {
  std::vector<int> all;
  std::vector<int> main;
  std::vector<int> runtime;
  std::vector<int> generator;  // empty: no pinning
};

Placement PlanPlacement() {
  Placement p;
  p.all = AllowedCpus();
  if (p.all.size() >= kWorkers + 2) {
    const std::vector<int> order = CpusFastestFirst();
    p.generator = {order[0]};
    p.runtime.assign(order.begin() + 1, order.begin() + 1 + kWorkers);
    p.main.assign(order.begin() + 1 + kWorkers, order.end());
  }
  return p;
}

// --- One measured run ---------------------------------------------------------

struct PacketRun {
  RunResult result;  // errors, attempted, failed
  double setup_s = 0;
  double throughput = 0;  // descriptors per second of Dispatch time
  std::uint64_t measured = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t latency_samples = 0;
  double loss_frac = 0;
  std::vector<Metric> layers;
};

// Cycles per nanosecond of the runtime's cycle counter, for its
// cycle-valued histograms.
double CyclesPerNs() {
  const std::uint64_t c0 = util::CycleStart();
  const std::uint64_t t0 = NowNs();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::uint64_t c1 = util::CycleEnd();
  const std::uint64_t t1 = NowNs();
  return static_cast<double>(c1 - c0) / static_cast<double>(t1 - t0);
}

// Per-layer numbers from the spans of a traced run.
void AnalyzeSpans(const Tracer& tracer, const TraceCtx& ctx,
                  const Pipeline& pipe, std::uint16_t dispatch_name,
                  std::vector<Metric>* out) {
  const std::size_t n = pipe.spec.size();
  std::vector<int> stage_of(tracer.names().size(), -1);
  for (std::size_t s = 0; s < n; ++s) {
    stage_of[ctx.stage_names[s]] = static_cast<int>(s);
  }
  std::unordered_map<std::uint64_t, std::uint64_t> dispatch_end;
  for (std::size_t t = 0; t < tracer.claimed(); ++t) {
    for (const Span& s : tracer.buffer(t)) {
      if (s.name == dispatch_name) {
        dispatch_end[s.batch] = s.end_ns;
      }
    }
  }
  LogHist queue_ns;
  LogHist service_ns;
  LogHist gap_ns;        // stage exit -> next stage entry, across domains
  LogHist fused_gap_ns;  // the same inside one domain (a fused boundary)
  std::map<std::string, LogHist> per_pkt_ns;
  std::uint64_t sub_batches = 0;
  std::uint64_t crossings = 0;
  for (std::size_t t = 0; t < tracer.claimed(); ++t) {
    const Span* first = nullptr;  // stage-0 span of the current sub-batch
    const Span* prev = nullptr;
    for (const Span& s : tracer.buffer(t)) {
      const int stage = stage_of[s.name];
      if (stage < 0) {
        continue;
      }
      if (stage == 0) {
        first = &s;
        prev = nullptr;
        ++sub_batches;
        const auto it = dispatch_end.find(s.batch);
        if (it != dispatch_end.end()) {
          queue_ns.Record(s.start_ns > it->second ? s.start_ns - it->second
                                                  : 0);
        }
      }
      if (first == nullptr) {
        continue;
      }
      // A crossing is entry into a domain other than the one the previous
      // stage ran in; the worker itself starts in the root domain.
      const std::uint32_t from =
          prev != nullptr ? prev->domain : sfi::kRootDomain;
      if (s.domain != from) {
        ++crossings;
      }
      if (prev != nullptr) {
        (s.domain != from ? gap_ns : fused_gap_ns)
            .Record(s.start_ns - prev->end_ns);
      }
      if (s.items > 0) {
        per_pkt_ns[pipe.layer[stage]].Record((s.end_ns - s.start_ns) /
                                             s.items);
      }
      if (static_cast<std::size_t>(stage) == n - 1) {
        service_ns.Record(s.end_ns - first->start_ns);
        first = nullptr;
      }
      prev = &s;
    }
  }
  out->push_back({"runtime.queue_us_p50", queue_ns.Quantile(0.5) / 1e3, "us",
                  queue_ns.count()});
  out->push_back({"pipeline.service_us_p50", service_ns.Quantile(0.5) / 1e3,
                  "us", service_ns.count()});
  out->push_back({"sfi.gap_ns_p50", gap_ns.Quantile(0.5), "ns",
                  gap_ns.count()});
  out->push_back({"sfi.fused_gap_ns_p50", fused_gap_ns.Quantile(0.5), "ns",
                  fused_gap_ns.count()});
  out->push_back({"sfi.crossings_per_batch",
                  sub_batches == 0 ? 0.0
                                   : static_cast<double>(crossings) /
                                         static_cast<double>(sub_batches),
                  "count", sub_batches});
  for (const auto& [layer, hist] : per_pkt_ns) {
    out->push_back({layer + ".ns_p50", hist.Quantile(0.5), "ns",
                    hist.count()});
  }
}

PacketRun Measure(const std::string& name, const WorkloadDef& def,
                  const RunOptions& opt, double seconds, bool traced) {
  PacketRun run;
  // Inputs, all from the seed: the flow set and the descriptor → flow draw.
  net::FlowSampler sampler(def.flows, 0.0, opt.seed);
  FlowDraw draw(def.flows, def.zipf_s, opt.seed);
  SinkConfig cfg;
  cfg.shape = def.shape;
  cfg.workers = kWorkers;
  cfg.batch = kBatch;
  for (std::size_t i = 0; i < def.flows; ++i) {
    const net::FiveTuple& t = sampler.FlowAt(i);
    cfg.flows.push_back(t);
    cfg.blocked.push_back(def.shape == Shape::kChain &&
                          net::FirewallRule::MatchPrefix(
                              t.src_ip, kBlockedPrefix, kBlockedLen));
  }
  const double warm_s = std::min(1.0, 0.1 * seconds);
  cfg.windows = std::max(
      kMinWindows,
      static_cast<std::size_t>((seconds - warm_s) * kWindowsPerSecond));
  cfg.batch_period_ns = 1e9 * kBatch / def.rate;
  cfg.public_ip = kPublicIp;
  cfg.port_base = kPortBase;
  cfg.port_span = kPortSpan;
  cfg.backend_lo = kBackendBase;
  cfg.backend_hi = kBackendBase + kBackends - 1;

  std::unique_ptr<Tracer> tracer;
  TraceCtx ctx;
  if (traced) {
    tracer = std::make_unique<Tracer>(kSpanThreads, kSpanCapacity);
    ctx.tracer = tracer.get();
  }
  const std::uint16_t dispatch_name =
      traced ? tracer->Name("runtime.dispatch") : 0;

  const auto warm_ns = static_cast<std::uint64_t>(warm_s * 1e9);
  SinkShared sink(cfg, &draw);
  const Pipeline pipe =
      BuildPipeline(def.shape, &sink, traced ? &ctx : nullptr);
  if (traced) {
    for (const net::StageSpec& s : pipe.spec) {
      ctx.stage_names.push_back(tracer->Name("stage." + s.name));
    }
  }
  net::RuntimeConfig config;
  config.workers = kWorkers;
  config.schedule = pipe.schedule;
  config.ckpt.enabled = def.shape == Shape::kCkpt;
  if (def.shape == Shape::kCkpt) {
    config.queue_depth = kCkptQueueDepth;
  }

  // Set-up: Runtime construction + Start, timed several times in this
  // thread's CPU time (nearly all of it is construction on this thread).
  std::unique_ptr<net::Runtime> rt;
  run.setup_s = FastestCpuMedianSeconds(
      kSetupReps,
      [&] {
        rt = std::make_unique<net::Runtime>(config, pipe.spec);
        rt->Start();
      },
      [&] {
        rt->Shutdown();
        rt.reset();
      });
  // The runtime that runs: its threads inherit this thread's affinity.
  const Placement place = PlanPlacement();
  if (!place.generator.empty()) {
    PinThisThread(place.runtime);
  }
  rt = std::make_unique<net::Runtime>(config, pipe.spec);
  rt->Start();
  if (!place.generator.empty()) {
    PinThisThread(place.main);
  }

  const std::uint64_t t0 = NowNs() + 2'000'000;
  const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  sink.SetSchedule(t0, t0 + warm_ns, (end - t0 - warm_ns) / cfg.windows);

  std::unique_ptr<Control> control;
  if (def.shape == Shape::kCkpt) {
    const std::uint16_t e = traced ? tracer->Name("ckpt.epoch") : 0;
    const std::uint16_t f = traced ? tracer->Name("ckpt.failover") : 0;
    const std::uint16_t s = traced ? tracer->Name("obs.scrape") : 0;
    control = std::make_unique<Control>(*rt, sink, tracer.get(), e, f, s);
    control->Start(t0);
  }
  GenStats gen;
  std::thread generator([&] {
    if (!place.generator.empty()) {
      PinThisThread(place.generator);
    }
    Generate(*rt, sink, def, t0, t0 + warm_ns, end, tracer.get(),
             dispatch_name, &gen);
  });
  generator.join();
  if (control != nullptr) {
    control->Stop();
    // The final epoch, after the generator stopped: its image is the
    // measured ckpt.image_bytes.
    ctx.measure_image.store(true, std::memory_order_release);
    control->Epoch();
  }
  rt->Shutdown();
  PinThisThread(place.all);
  const net::RuntimeStats stats = rt->Stats();

  // Checks.
  RunResult& r = run.result;
  Ledger ledger;
  ledger.issued = gen.issued;
  ledger.refused = gen.refused;
  ledger.filtered = gen.filtered;
  ledger.runtime_packets = stats.totals.packets;
  ledger.runtime_drops = stats.totals.drops + stats.steer_dropped_items;
  const std::uint64_t delivered = CheckLedger(sink, ledger, &r);
  if (stats.totals.faults != 0 || stats.totals.quarantined != 0) {
    r.Fail("runtime reported " + std::to_string(stats.totals.faults) +
           " faults, " + std::to_string(stats.totals.quarantined) +
           " quarantined stages");
  }
  r.attempted = gen.issued;
  const std::uint64_t lost = gen.issued - std::min(gen.issued,
                                                   delivered + gen.filtered);
  r.failed = lost;
  run.loss_frac = gen.issued == 0 ? 0.0
                                  : static_cast<double>(lost) /
                                        static_cast<double>(gen.issued);
  if (control != nullptr) {
    const ControlStats& cs = control->stats();
    r.attempted += cs.attempted;
    r.failed += cs.failed;
    if (!cs.error.empty()) {
      r.notes.push_back("control: " + cs.error);
    }
  }

  // End-to-end numbers. A descriptor the firewall filtered is as complete
  // as a delivered one.
  std::uint64_t last_ns = 0;
  std::uint64_t remaps = 0;
  run.measured = gen.filtered_measured;
  for (const SinkWorkerState& st : sink.workers()) {
    run.measured += st.measured;
    last_ns = std::max(last_ns, st.last_ns);
    remaps += st.remaps;
  }
  if (run.measured == 0 || last_ns <= gen.measure_begin_ns) {
    r.Fail("no packet delivered in the measured window");
  }
  // Dispatch capacity: descriptors per second of a Dispatch call of median
  // duration (RSS fan-out, channel handoff, worker wake-up, and any wait on
  // a full worker queue), per window. It is the rate one producer could
  // sustain at this load's per-call cost, and it falls once the workers
  // cannot keep up, since most Dispatch calls then block.
  std::vector<double> capacity;
  for (const LogHist& h : gen.window_dispatch_ns) {
    if (h.count() > 0) {
      capacity.push_back(static_cast<double>(kBatch) * 1e9 / h.Quantile(0.5));
    }
  }
  run.throughput = BestDecileOfRates(capacity);
  std::vector<double> p50;
  std::vector<double> p99;
  for (std::size_t i = 0; i < cfg.windows; ++i) {
    LogHist h;
    for (const SinkWorkerState& st : sink.workers()) {
      h.Merge(st.latency_ns[i]);
    }
    p50.push_back(h.Quantile(0.5) / 1e3);
    p99.push_back(h.Quantile(0.99) / 1e3);
    run.latency_samples += h.count();
  }
  run.p50_us = BestDecileOfTimes(p50);
  run.p99_us = BestDecileOfTimes(p99);
  const double delivered_rate =
      last_ns > gen.measure_begin_ns
          ? static_cast<double>(run.measured) * 1e9 /
                static_cast<double>(last_ns - gen.measure_begin_ns)
          : 0.0;
  r.notes.push_back(name + (traced ? " traced" : "") + ": offered " +
                    std::to_string(gen.issued) + " at " +
                    std::to_string(def.rate) + "/s, completed " +
                    std::to_string(delivered_rate) +
                    "/s in the measured window, delivered " +
                    std::to_string(delivered) + ", filtered " +
                    std::to_string(gen.filtered) + ", refused " +
                    std::to_string(gen.refused) + ", dropped " +
                    std::to_string(ledger.runtime_drops) +
                    ", loss_frac " + std::to_string(run.loss_frac) +
                    ", nat/backend remaps across failover " +
                    std::to_string(remaps));

  if (!traced) {
    return run;
  }
  // Per-layer numbers.
  std::vector<Metric>& L = run.layers;
  L.push_back({"gen.lag_us_p99", gen.lag_ns.Quantile(0.99) / 1e3, "us",
               gen.lag_ns.count()});
  L.push_back({"runtime.dispatch_us_p50", gen.dispatch_ns.Quantile(0.5) / 1e3,
               "us", gen.dispatch_ns.count()});
  L.push_back({"runtime.dispatch_us_p99",
               gen.dispatch_ns.Quantile(0.99) / 1e3, "us",
               gen.dispatch_ns.count()});
  L.push_back({"runtime.dispatch_busy_frac",
               gen.loop_ns == 0 ? 0.0
                                : static_cast<double>(gen.busy_ns) /
                                      static_cast<double>(gen.loop_ns),
               "ratio", gen.dispatch_ns.count()});
  L.push_back({"rss.subbatches_per_dispatch",
               stats.dispatch_calls == 0
                   ? 0.0
                   : static_cast<double>(stats.sub_batches) /
                         static_cast<double>(stats.dispatch_calls),
               "count", stats.dispatch_calls});
  double share_max = 0.0;
  for (const net::WorkerTelemetry& w : stats.workers) {
    if (stats.totals.packets > 0) {
      share_max = std::max(share_max, static_cast<double>(w.packets) /
                                          static_cast<double>(
                                              stats.totals.packets));
    }
  }
  L.push_back({"rss.worker_share_max", share_max, "ratio",
               stats.totals.packets});
  AnalyzeSpans(*tracer, ctx, pipe, dispatch_name, &L);
  L.push_back({"mempool.alloc_failures",
               static_cast<double>(stats.mempool_alloc_failures), "count", 1});
  L.push_back({"mempool.in_use_hwm",
               static_cast<double>(stats.mempool_in_use_hwm), "count", 1});
  if (control != nullptr) {
    const double cpn = CyclesPerNs();
    const ControlStats& cs = control->stats();
    L.push_back({"ckpt.pause_us_p50",
                 stats.ckpt_pause_cycles.Percentile(50.0) / cpn / 1e3, "us",
                 stats.ckpt_pause_cycles.count});
    L.push_back({"ckpt.pause_us_p99",
                 stats.ckpt_pause_cycles.Percentile(99.0) / cpn / 1e3, "us",
                 stats.ckpt_pause_cycles.count});
    L.push_back({"ckpt.image_bytes",
                 static_cast<double>(ctx.image_bytes.load()), "B", 1});
    L.push_back({"ckpt.epoch_failures",
                 static_cast<double>(stats.ckpt_epoch_failures), "count",
                 cs.epoch_ms.size()});
    L.push_back({"ckpt.rehomed_items",
                 static_cast<double>(stats.failover_rehomed_items), "count",
                 cs.failover_ms.size()});
    L.push_back({"ckpt.epoch_ms_p50", Median(cs.epoch_ms), "ms",
                 cs.epoch_ms.size()});
    L.push_back({"ckpt.failover_ms_p50", Median(cs.failover_ms), "ms",
                 cs.failover_ms.size()});
    L.push_back({"obs.scrape_us_p50", Median(cs.scrape_us), "us",
                 cs.scrape_us.size()});
  }
  L.push_back({"trace.dropped_spans", static_cast<double>(tracer->dropped()),
               "count", 1});
  if (!opt.span_dir.empty()) {
    const std::string path = opt.span_dir + "/spans-" + name + ".tsv";
    if (!tracer->WriteTsv(path)) {
      r.notes.push_back("could not write " + path);
    }
  }
  return run;
}

}  // namespace

bool IsPacketWorkload(const std::string& name) {
  WorkloadDef def{};
  return Lookup(name, &def);
}

RunResult RunPacketWorkload(const std::string& name, const RunOptions& opt) {
  WorkloadDef def{};
  Lookup(name, &def);
  if (!opt.trace) {
    PacketRun run = Measure(name, def, opt, opt.seconds, false);
    RunResult r = std::move(run.result);
    r.end_to_end = {
        {"setup_s", run.setup_s, "s", kSetupReps},
        {"throughput_per_s", run.throughput, "1/s", run.measured},
        {"latency_p50_us", run.p50_us, "us", run.latency_samples},
        {"peak_rss_mb", PeakRssMb(), "MB", 1},
    };
    return r;
  }
  // Traced: the same workload untraced, then traced, each for half the
  // time; the layer numbers come from the second, the overhead from both.
  PacketRun plain = Measure(name, def, opt, opt.seconds / 2, false);
  PacketRun traced = Measure(name, def, opt, opt.seconds / 2, true);
  RunResult r = std::move(traced.result);
  for (std::string& e : plain.result.errors) {
    r.Fail("untraced half: " + e);
  }
  r.attempted += plain.result.attempted;
  r.failed += plain.result.failed;
  r.layers = std::move(traced.layers);
  // Overhead on the median latency (the rate is the offered one).
  const double overhead =
      plain.p50_us > 0 ? traced.p50_us / plain.p50_us - 1.0 : 0.0;
  r.layers.push_back({"trace.overhead_frac", overhead, "ratio", 2});
  // The tail of the untraced half. Not an end-to-end metric: on a shared
  // host it is set by vCPU wake-ups and varied tenfold between runs of one
  // build (README.md).
  r.layers.push_back({"latency.p99_us", plain.p99_us, "us",
                      plain.latency_samples});
  return r;
}

}  // namespace perfbench
