// Shared pieces of the benchmark harness: the clocks, a log-linear latency
// histogram, the seeded flow draw, and the result record every workload
// fills in.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// CPU time of the calling thread. With paravirtual steal-time accounting
// (Linux guests on KVM) it leaves out the time the hypervisor ran something
// else on this vCPU, which the wall clock counts.
inline std::uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Log-linear histogram of non-negative integers: 64 linear sub-buckets per
// power of two, so a quantile is within ~1.6% of the recorded value. Fixed
// size, no allocation after construction: safe to keep one per thread on a
// packet path.
class LogHist {
 public:
  static constexpr unsigned kSubBits = 6;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  void Record(std::uint64_t v, std::uint64_t n = 1) {
    counts_[Index(v)] += n;
    count_ += n;
  }

  void Merge(const LogHist& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      counts_[i] += o.counts_[i];
    }
    count_ += o.count_;
  }

  std::uint64_t count() const { return count_; }

  // Quantile, linearly interpolated by rank inside its bucket; 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    const double target = std::max(q * static_cast<double>(count_), 1.0);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) {
        continue;
      }
      if (static_cast<double>(seen + counts_[i]) >= target) {
        const double frac = (target - static_cast<double>(seen)) /
                            static_cast<double>(counts_[i]);
        return Low(i) + frac * Width(i);
      }
      seen += counts_[i];
    }
    return Low(kBuckets - 1);
  }

 private:
  static std::size_t Index(std::uint64_t v) {
    if (v < kSub) {
      return static_cast<std::size_t>(v);
    }
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
    const unsigned shift = msb - kSubBits;
    const std::size_t sub = static_cast<std::size_t>(v >> shift) & (kSub - 1);
    return (shift + 1) * kSub + sub;
  }
  static double Width(std::size_t i) {
    return i < kSub ? 1.0 : std::ldexp(1.0, static_cast<int>(i / kSub - 1));
  }
  static double Low(std::size_t i) {
    if (i < kSub) {
      return static_cast<double>(i);
    }
    return static_cast<double>(kSub + i % kSub) * Width(i);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

// Exact quantile of a sample, linearly interpolated between order
// statistics; 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

// A run is cut into windows, and each window yields a rate or a latency
// quantile. Interference from a shared host (a busy hyperthread sibling, a
// descheduled vCPU) only ever makes a window slower, and on a 4-vCPU shared
// KVM guest it came and went within single runs by up to 2x. So a run
// reports its best decile of windows: the 10th percentile of times and the
// 90th of rates.
inline double BestDecileOfTimes(std::vector<double> v) {
  return Quantile(std::move(v), 0.1);
}
inline double BestDecileOfRates(std::vector<double> v) {
  return Quantile(std::move(v), 0.9);
}

inline std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The flow of descriptor `index`, as a pure function of (seed, index):
// uniform, or Zipf(s) through a Walker alias table. The generator and the
// sink's checker both call it, so the sink recovers each packet's flow from
// the descriptor index alone — even after NAT and Maglev have rewritten the
// headers — without any per-packet record.
class FlowDraw {
 public:
  FlowDraw(std::size_t flows, double zipf_s, std::uint64_t seed)
      : n_(flows), seed_(Mix64(seed ^ 0x5eed5eed5eed5eedULL)) {
    if (zipf_s <= 0.0) {
      return;
    }
    std::vector<double> p(n_);
    double total = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      p[i] = 1.0 / std::pow(static_cast<double>(i + 1), zipf_s);
      total += p[i];
    }
    // Vose's alias method. Column k keeps k when the low 32 random bits
    // fall below its threshold and takes its alias otherwise; a full column
    // is its own alias.
    table_.assign(n_, Column{0, 0});
    std::vector<std::uint32_t> small;
    std::vector<std::uint32_t> large;
    for (std::size_t i = 0; i < n_; ++i) {
      p[i] = p[i] * static_cast<double>(n_) / total;
      (p[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s = small.back();
      small.pop_back();
      const std::uint32_t l = large.back();
      table_[s] = Column{static_cast<std::uint32_t>(p[s] * 4294967295.0), l};
      p[l] = (p[l] + p[s]) - 1.0;
      if (p[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (const auto* rest : {&large, &small}) {
      for (std::uint32_t i : *rest) {
        table_[i] = Column{0xffffffffu, i};
      }
    }
  }

  std::uint32_t FlowOf(std::uint64_t index) const {
    const std::uint64_t r = Mix64(seed_ + index * 0x9e3779b97f4a7c15ULL);
    const auto k = static_cast<std::uint32_t>(((r >> 32) * n_) >> 32);
    if (table_.empty()) {
      return k;
    }
    const Column c = table_[k];
    return static_cast<std::uint32_t>(r) < c.threshold ? k : c.alias;
  }

 private:
  std::size_t n_;
  std::uint64_t seed_;
  struct Column {
    std::uint32_t threshold;
    std::uint32_t alias;
  };
  std::vector<Column> table_;  // empty = uniform
};

// The CPUs this process may run on.
inline std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
  return cpus;
}

// Restricts the calling thread to `cpus`; threads it creates inherit that.
// Best effort: placement only steadies the numbers, so a refusal is ignored.
inline void PinThisThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) {
    CPU_SET(c, &set);
  }
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// The allowed CPUs, fastest first, by the time a short fixed integer loop
// takes on each. The vCPUs of a shared host do not run at one speed: on a
// 4-vCPU shared KVM guest, one ran the loop 2x slower than the others for
// seconds at a time. Leaves the calling thread's affinity as it was.
inline std::vector<int> CpusFastestFirst() {
  const std::vector<int> cpus = AllowedCpus();
  std::vector<std::pair<std::uint64_t, int>> timed;
  for (int c : cpus) {
    PinThisThread({c});
    std::uint64_t best = ~std::uint64_t{0};
    for (int rep = 0; rep < 3; ++rep) {
      const std::uint64_t t = NowNs();
      std::uint64_t x = static_cast<std::uint64_t>(c) + 1;
      for (int i = 0; i < 200'000; ++i) {
        x = Mix64(x);
      }
      best = std::min(best, NowNs() - t + (x == 0 ? 1 : 0));
    }
    timed.emplace_back(best, c);
  }
  PinThisThread(cpus);
  std::sort(timed.begin(), timed.end());
  std::vector<int> order;
  for (const auto& [ns, c] : timed) {
    order.push_back(c);
  }
  return order;
}

// Set-up time: on each CPU this thread may use in turn, runs setup() once to
// warm the caches, then `reps` more times, each timed in this thread's CPU
// time, with teardown() untimed after each. Returns, in seconds, the median
// of the timed reps on the CPU where that median is lowest. On a shared host
// single vCPUs ran the same set-up 1.6x slower than the others, and which
// ones changed from run to run. Leaves the thread's affinity as it was.
template <typename Setup, typename Teardown>
double FastestCpuMedianSeconds(std::size_t reps, Setup&& setup,
                               Teardown&& teardown) {
  const std::vector<int> cpus = AllowedCpus();
  double best = 0.0;
  for (int c : cpus) {
    PinThisThread({c});
    setup();
    teardown();
    std::vector<double> v;
    for (std::size_t r = 0; r < reps; ++r) {
      const std::uint64_t t = ThreadCpuNs();
      setup();
      v.push_back(static_cast<double>(ThreadCpuNs() - t) / 1e9);
      teardown();
    }
    const double m = Median(v);
    if (best == 0.0 || m < best) {
      best = m;
    }
  }
  PinThisThread(cpus);
  return best;
}

// The process's peak resident set so far.
inline double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  // how many measurements the value rests on
};

// What one workload run reports. End-to-end metrics come from untraced
// runs only; layer metrics from the traced run.
struct RunResult {
  std::vector<std::string> errors;  // failed correctness checks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<std::string> notes;  // human-readable extras

  bool correct() const { return errors.empty(); }
  void Fail(std::string what) {
    if (errors.size() < 32) {
      errors.push_back(std::move(what));
    }
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
