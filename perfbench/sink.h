// The benchmark's sink operator and the correctness checks it feeds.
//
// The sink is the last stage of every packet workload's spec. Each flow
// descriptor's seq is its global descriptor index, so from seq alone the sink
// recovers the packet's flow (FlowDraw is a pure function of the index), its
// due time, and its place in the flow's order — no per-packet record is kept:
//   * per-flow FIFO and no duplicates: the index must rise within a flow;
//   * exactly-once: CheckLedger balances what the sinks saw against what was
//     offered, filtered by policy, and counted dropped by the runtime;
//   * header rewrites: TTL, NAT source and port, and the Maglev destination.
#ifndef PERFBENCH_SINK_H_
#define PERFBENCH_SINK_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/bench_util.h"
#include "src/net/headers.h"
#include "src/net/pipeline.h"
#include "src/net/runtime.h"

namespace perfbench {

// Which rewrites the packets reaching the sink carry.
enum class Shape {
  kForward,  // null filters only: the frame arrives as built
  kChain,    // firewall → ttl → maglev → nat
  kCkpt,     // nat → maglev-conntrack, with live checkpoints and failover
};

struct SinkConfig {
  Shape shape = Shape::kForward;
  std::size_t workers = 2;
  std::size_t batch = 32;  // descriptors per Dispatch
  std::vector<net::FiveTuple> flows;  // flow index → tuple as generated
  std::vector<bool> blocked;          // flow index → firewall drops it
  std::uint8_t ttl_in = 64;
  // Descriptor batch b is due at t0_ns + b * batch_period_ns (open loop),
  // and the sink records each packet's latency from that due time.
  std::uint64_t t0_ns = 0;
  double batch_period_ns = 0.0;
  // Measured time is cut into windows: window i < windows holds the packets
  // due in [measure_ns + i * window_ns, measure_ns + (i + 1) * window_ns).
  std::uint64_t measure_ns = 0;
  std::uint64_t window_ns = 1;
  std::size_t windows = 1;
  // NAT: the public source address, and worker w's port range
  // [port_base + w * port_span, port_base + (w + 1) * port_span).
  std::uint32_t public_ip = 0;
  std::uint16_t port_base = 0;
  std::uint16_t port_span = 0;
  // Maglev: backend addresses are the contiguous range [backend_lo,
  // backend_hi].
  std::uint32_t backend_lo = 0;
  std::uint32_t backend_hi = 0;
};

// Counters and latencies one worker's sink accumulates. Written only by that
// worker's thread; read after the runtime has shut down.
struct alignas(64) SinkWorkerState {
  std::vector<LogHist> latency_ns;  // due → delivery per window, in ns
  std::uint64_t delivered = 0;
  std::uint64_t measured = 0;      // delivered with seq >= measure_from
  std::uint64_t last_ns = 0;       // latest delivery of a measured packet
  std::uint64_t duplicates = 0;    // seq equal to the flow's previous one
  std::uint64_t reordered = 0;     // seq below the flow's previous one
  std::uint64_t bad_seq = 0;       // seq never issued
  std::uint64_t bad_header = 0;    // tuple, TTL or checksum wrong
  std::uint64_t bad_filter = 0;    // a firewall-blocked flow got through
  std::uint64_t bad_nat = 0;       // wrong public IP or port outside range
  std::uint64_t bad_backend = 0;   // destination not a Maglev backend
  std::uint64_t unstable = 0;      // port/backend moved with no failover
  std::uint64_t remaps = 0;        // port/backend moved across a failover
  std::string first_error;
};

class SinkShared {
 public:
  SinkShared(SinkConfig config, const FlowDraw* draw)
      : config_(std::move(config)),
        draw_(draw),
        flow_state_(new FlowState[config_.flows.size()]),
        workers_(config_.workers) {
    for (SinkWorkerState& st : workers_) {
      st.latency_ns.resize(config_.windows);
    }
  }

  const SinkConfig& config() const { return config_; }
  const FlowDraw& draw() const { return *draw_; }
  const std::vector<SinkWorkerState>& workers() const { return workers_; }

  // The schedule start and the latency windows. Set before the generator
  // thread starts; sinks read them only for packets that thread dispatched.
  void SetSchedule(std::uint64_t t0_ns, std::uint64_t measure_ns,
                   std::uint64_t window_ns) {
    config_.t0_ns = t0_ns;
    config_.measure_ns = measure_ns;
    config_.window_ns = window_ns;
  }

  // Generator side. `issued` is published before the Dispatch that carries
  // the descriptors, so a sink never sees an index beyond it.
  void Issue(std::uint64_t end_index) {
    issued_.store(end_index, std::memory_order_release);
  }
  void BeginMeasurement(std::uint64_t first_index) {
    measure_from_.store(first_index, std::memory_order_release);
  }
  // Bumped to odd before a FailoverWorker call and to even after it: a
  // flow's NAT port and backend may change only across such a window.
  void BumpFailoverGen() {
    failover_gen_.fetch_add(1, std::memory_order_acq_rel);
  }

  // The latency window of a batch due at `due_ns`.
  std::size_t WindowOf(std::uint64_t due_ns) const {
    const std::uint64_t i = due_ns > config_.measure_ns
                                ? (due_ns - config_.measure_ns) /
                                      config_.window_ns
                                : 0;
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(i, config_.windows - 1));
  }

  // The sink's per-batch work, on worker `w`'s thread.
  void Deliver(std::size_t w, net::PacketBatch& batch);

 private:
  void Check(std::size_t w, SinkWorkerState& st, net::PacketBuf& pkt,
             std::uint32_t flow, std::uint64_t gen);
  static void Note(SinkWorkerState& st, std::uint64_t* counter,
                   std::string_view what, std::uint64_t seq);

  SinkConfig config_;
  const FlowDraw* draw_;
  // What the sink remembers per flow, in one 16-byte slot. A flow is on one
  // worker at a time; the atomics keep a runtime bug that breaks that a
  // failed check instead of a data race.
  struct FlowState {
    std::atomic<std::uint64_t> next_seq{0};  // 1 + last index (0 = none)
    // backend << 32 | nat port << 16 | failover gen (0 = unset)
    std::atomic<std::uint64_t> pinned{0};
  };
  std::unique_ptr<FlowState[]> flow_state_;
  std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> measure_from_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> failover_gen_{0};
  std::vector<SinkWorkerState> workers_;
};

inline void SinkShared::Note(SinkWorkerState& st, std::uint64_t* counter,
                             std::string_view what, std::uint64_t seq) {
  if (st.first_error.empty()) {
    st.first_error = std::string(what) + " at descriptor " + std::to_string(seq);
  }
  ++*counter;
}

inline void SinkShared::Check(std::size_t w, SinkWorkerState& st,
                              net::PacketBuf& pkt, std::uint32_t flow,
                              std::uint64_t gen) {
  const std::uint64_t seq = net::ReadFlowSeq(pkt);
  const net::FiveTuple want = config_.flows[flow];
  const net::Ipv4Hdr* ip = pkt.ipv4();
  if (net::InternetChecksum(ip, sizeof(net::Ipv4Hdr)) != 0) {
    Note(st, &st.bad_header, "bad IPv4 checksum", seq);
  }
  const net::FiveTuple got = pkt.Tuple();
  switch (config_.shape) {
    case Shape::kForward:
      if (!(got == want) || ip->ttl != config_.ttl_in) {
        Note(st, &st.bad_header, "frame does not match its descriptor", seq);
      }
      return;
    case Shape::kChain:
      if (config_.blocked[flow]) {
        Note(st, &st.bad_filter, "firewall-blocked flow delivered", seq);
      }
      if (ip->ttl != config_.ttl_in - 1) {
        Note(st, &st.bad_header, "TTL not decremented by one", seq);
      }
      break;
    case Shape::kCkpt:
      if (ip->ttl != config_.ttl_in) {
        Note(st, &st.bad_header, "TTL changed", seq);
      }
      break;
  }
  if (got.dst_port != want.dst_port || got.proto != want.proto) {
    Note(st, &st.bad_header, "destination port/protocol rewritten", seq);
  }
  const std::uint32_t lo =
      config_.port_base + static_cast<std::uint32_t>(w) * config_.port_span;
  if (got.src_ip != config_.public_ip || got.src_port < lo ||
      got.src_port >= lo + config_.port_span) {
    Note(st, &st.bad_nat, "NAT source not in this worker's public range", seq);
  }
  if (got.dst_ip < config_.backend_lo || got.dst_ip > config_.backend_hi) {
    Note(st, &st.bad_backend, "destination is not a Maglev backend", seq);
  }
  const std::uint64_t pin = (std::uint64_t{got.dst_ip} << 32) |
                            (std::uint64_t{got.src_port} << 16) |
                            (gen & 0xffff);
  const std::uint64_t old = flow_state_[flow].pinned.load(std::memory_order_relaxed);
  if (old == pin) {
    return;
  }
  if (old != 0 && (old >> 16) != (pin >> 16)) {
    // A flow keeps its NAT port and backend unless a failover ran between
    // the two packets (the restored NAT table may re-map a flow first seen
    // after the last checkpoint, and a re-homed flow takes its new worker's
    // port range; the conntrack backend follows the post-NAT tuple).
    const bool failover_between = (old & 0xffff) != (gen & 0xffff) ||
                                  (gen & 1) != 0;
    if (failover_between) {
      ++st.remaps;
    } else {
      Note(st, &st.unstable, "flow's NAT port or backend changed", seq);
    }
  }
  flow_state_[flow].pinned.store(pin, std::memory_order_relaxed);
}

inline void SinkShared::Deliver(std::size_t w, net::PacketBatch& batch) {
  SinkWorkerState& st = workers_[w];
  const std::uint64_t now = NowNs();
  const std::uint64_t issued = issued_.load(std::memory_order_acquire);
  const std::uint64_t measure_from =
      measure_from_.load(std::memory_order_acquire);
  const std::uint64_t gen = failover_gen_.load(std::memory_order_acquire);
  std::uint64_t run_batch = ~std::uint64_t{0};
  std::uint64_t run_len = 0;
  auto flush = [&] {
    if (run_len == 0) {
      return;
    }
    const std::uint64_t due =
        config_.t0_ns + static_cast<std::uint64_t>(
                            static_cast<double>(run_batch) *
                            config_.batch_period_ns);
    st.latency_ns[WindowOf(due)].Record(now > due ? now - due : 0, run_len);
    st.measured += run_len;
    st.last_ns = now;
    run_len = 0;
  };
  for (net::PacketBuf& pkt : batch) {
    const std::uint64_t seq = net::ReadFlowSeq(pkt);
    ++st.delivered;
    if (seq >= issued) {
      Note(st, &st.bad_seq, "descriptor index never issued", seq);
      continue;
    }
    const std::uint32_t flow = draw_->FlowOf(seq);
    const std::uint64_t prev =
        flow_state_[flow].next_seq.load(std::memory_order_relaxed);
    if (seq + 1 == prev) {
      Note(st, &st.duplicates, "duplicate delivery", seq);
    } else if (seq + 1 < prev) {
      Note(st, &st.reordered, "per-flow order violated", seq);
    } else {
      flow_state_[flow].next_seq.store(seq + 1, std::memory_order_relaxed);
    }
    Check(w, st, pkt, flow, gen);
    if (seq >= measure_from) {
      const std::uint64_t b = seq / config_.batch;
      if (b != run_batch) {
        flush();
        run_batch = b;
      }
      ++run_len;
    }
  }
  flush();
}

// The benchmark's last pipeline stage. Built once per worker replica (and
// again whenever the runtime rebuilds the replica), so all state lives in
// SinkShared.
class SinkOp : public net::Operator {
 public:
  SinkOp(SinkShared* shared, std::size_t worker)
      : shared_(shared), worker_(worker) {}

  net::PacketBatch Process(net::PacketBatch batch) override {
    shared_->Deliver(worker_, batch);
    return batch;
  }
  std::string_view name() const override { return "sink"; }

 private:
  SinkShared* shared_;
  std::size_t worker_;
};

// What the run offered and what the runtime says it did with it.
struct Ledger {
  std::uint64_t issued = 0;          // descriptors generated
  std::uint64_t refused = 0;         // in Dispatch calls that returned false
  std::uint64_t filtered = 0;        // accepted, but firewall-blocked flows
  std::uint64_t runtime_packets = 0;  // RuntimeStats totals.packets
  std::uint64_t runtime_drops = 0;   // totals.drops + steer_dropped_items
};

// Sums the sinks' counters and checks every offered descriptor is accounted
// for exactly once. Returns the number delivered.
inline std::uint64_t CheckLedger(const SinkShared& shared, const Ledger& l,
                                 RunResult* out) {
  std::uint64_t delivered = 0;
  for (std::size_t w = 0; w < shared.workers().size(); ++w) {
    const SinkWorkerState& st = shared.workers()[w];
    delivered += st.delivered;
    const std::uint64_t bad = st.duplicates + st.reordered + st.bad_seq +
                              st.bad_header + st.bad_filter + st.bad_nat +
                              st.bad_backend + st.unstable;
    if (bad != 0) {
      out->Fail("worker " + std::to_string(w) + ": " + std::to_string(bad) +
                " bad deliveries (dup " + std::to_string(st.duplicates) +
                ", reordered " + std::to_string(st.reordered) + ", seq " +
                std::to_string(st.bad_seq) + ", header " +
                std::to_string(st.bad_header) + ", filter " +
                std::to_string(st.bad_filter) + ", nat " +
                std::to_string(st.bad_nat) + ", backend " +
                std::to_string(st.bad_backend) + ", unstable " +
                std::to_string(st.unstable) + "); first: " + st.first_error);
    }
  }
  if (delivered != l.runtime_packets) {
    out->Fail("sinks saw " + std::to_string(delivered) +
              " packets, the runtime reports " +
              std::to_string(l.runtime_packets));
  }
  const std::uint64_t accepted = l.issued - l.refused;
  if (accepted != delivered + l.filtered + l.runtime_drops) {
    out->Fail("ledger: accepted " + std::to_string(accepted) +
              " != delivered " + std::to_string(delivered) + " + filtered " +
              std::to_string(l.filtered) + " + dropped " +
              std::to_string(l.runtime_drops));
  }
  return delivered;
}

}  // namespace perfbench

#endif  // PERFBENCH_SINK_H_
