// Span recording for the traced run. Each thread writes into its own buffer,
// taken from a pool allocated (and touched) before the run starts, so the
// packet path never allocates or shares a cache line with another thread.
// Spans are analysed and written out only after the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench_util.h"

namespace perfbench {

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t batch = 0;     // first descriptor index of the Dispatch
  std::uint32_t parent = kNoParent;  // enclosing span in the same buffer
  std::uint16_t name = 0;      // index into Tracer::names()
  std::uint16_t items = 0;     // packets (or programs) the span handled
  std::uint32_t domain = 0;    // sfi domain the span ran in (stage spans)
};

class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity)
      : spans_(new Span[capacity]()), capacity_(capacity) {}

  // Opens a span and makes it the parent of spans opened before it closes.
  // Returns kNoParent (and counts a drop) once the buffer is full.
  std::uint32_t Open(std::uint16_t name, std::uint64_t batch,
                     std::uint16_t items, std::uint32_t domain = 0) {
    if (size_ == capacity_) {
      ++dropped_;
      return kNoParent;
    }
    const auto idx = static_cast<std::uint32_t>(size_++);
    spans_[idx] = Span{NowNs(), 0, batch, open_, name, items, domain};
    open_ = idx;
    return idx;
  }
  void Close(std::uint32_t idx) {
    if (idx == kNoParent) {
      return;
    }
    spans_[idx].end_ns = NowNs();
    open_ = spans_[idx].parent;
  }
  // Records a span whose bounds the caller already timed.
  void Add(std::uint16_t name, std::uint64_t batch, std::uint16_t items,
           std::uint64_t start_ns, std::uint64_t end_ns) {
    if (size_ == capacity_) {
      ++dropped_;
      return;
    }
    spans_[size_++] = Span{start_ns, end_ns, batch, open_, name, items};
  }

  const Span* begin() const { return spans_.get(); }
  const Span* end() const { return spans_.get() + size_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::unique_ptr<Span[]> spans_;
  std::size_t capacity_;
  std::size_t size_ = 0;
  std::uint32_t open_ = kNoParent;
  std::uint64_t dropped_ = 0;
};

// One traced run's span store. Threads claim a buffer on their first span;
// a thread beyond the pool records nothing, and each span it opens through
// SpanScope counts as dropped.
class Tracer {
 public:
  Tracer(std::size_t threads, std::size_t capacity_per_thread)
      : id_(NextId()) {
    for (std::size_t i = 0; i < threads; ++i) {
      buffers_.push_back(std::make_unique<SpanBuffer>(capacity_per_thread));
    }
  }

  std::uint16_t Name(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) {
        return static_cast<std::uint16_t>(i);
      }
    }
    names_.push_back(name);
    return static_cast<std::uint16_t>(names_.size() - 1);
  }
  const std::vector<std::string>& names() const { return names_; }

  // This thread's buffer, or nullptr when the pool is exhausted.
  SpanBuffer* Local() {
    SpanBuffer* buf = Claim();
    if (buf == nullptr) {
      unbuffered_.fetch_add(1, std::memory_order_relaxed);
    }
    return buf;
  }

  std::size_t claimed() const {
    return std::min(next_.load(std::memory_order_relaxed), buffers_.size());
  }
  const SpanBuffer& buffer(std::size_t i) const { return *buffers_[i]; }
  std::uint64_t dropped() const {
    std::uint64_t d = unbuffered_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < claimed(); ++i) {
      d += buffers_[i]->dropped();
    }
    return d;
  }

  // Writes every span as one tab-separated line:
  // thread, name, start_ns, end_ns, parent, batch, items, domain.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f,
                 "thread\tname\tstart_ns\tend_ns\tparent\tbatch\titems\t"
                 "domain\n");
    for (std::size_t t = 0; t < claimed(); ++t) {
      for (const Span& s : *buffers_[t]) {
        std::fprintf(f, "%zu\t%s\t%llu\t%llu\t%lld\t%llu\t%u\t%u\n", t,
                     names_[s.name].c_str(),
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns),
                     s.parent == kNoParent ? -1LL
                                           : static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.batch),
                     static_cast<unsigned>(s.items),
                     static_cast<unsigned>(s.domain));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  SpanBuffer* Claim() {
    // Keyed by a process-unique id, not the address: a later Tracer may
    // reuse a destroyed one's storage.
    thread_local std::uint64_t owner = 0;
    thread_local SpanBuffer* buf = nullptr;
    if (owner != id_) {
      owner = id_;
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      buf = i < buffers_.size() ? buffers_[i].get() : nullptr;
    }
    return buf;
  }

  static std::uint64_t NextId() {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t id_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
  std::vector<std::string> names_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> unbuffered_{0};  // spans of threads without one
};

// Opens a span on this thread's buffer for the scope; inert without a
// tracer.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::uint16_t name, std::uint64_t batch = 0,
            std::uint16_t items = 0, std::uint32_t domain = 0)
      : buf_(tracer != nullptr ? tracer->Local() : nullptr) {
    if (buf_ != nullptr) {
      idx_ = buf_->Open(name, batch, items, domain);
    }
  }
  ~SpanScope() {
    if (buf_ != nullptr) {
      buf_->Close(idx_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanBuffer* buf_;
  std::uint32_t idx_ = kNoParent;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
