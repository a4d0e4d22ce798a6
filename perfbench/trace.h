// Measurement pieces of the benchmark, all living outside the program:
// raw latency samples with exact percentiles, in-memory spans, and a
// timing ProcIo decorator that the tools call through.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "svr4proc/procd/procd.h"
#include "svr4proc/tools/procio.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Fixed host workloads timed beside the program, with the same code and data
// in every run and every revision of the program. They track how fast the
// shared host runs at the moment, so the benchmark scales the intervals it
// measures by them (METRICS.md):
// - core: a small bytecode interpreter over 1 MiB of data, timed after an
//   untimed pass over its code and data, so whatever the program left in the
//   caches does not change it. It follows the core's speed (clock, a busy
//   sibling thread).
// - mem: a dependent walk through a random cycle over 32 MiB. It follows the
//   latency of the shared last-level cache and memory.
class HostRef {
 public:
  struct Sample {
    double core_ns = 0;  // per interpreter iteration
    double mem_ns = 0;   // per walk step
  };
  HostRef();
  Sample Measure();

 private:
  std::vector<uint32_t> data_;
  std::vector<uint8_t> code_;
  std::vector<uint32_t> ring_;
  uint32_t at_ = 0;  // the walk's position, kept across measurements
  uint32_t sink_ = 0;
};

// Raw per-op durations in nanoseconds. Percentiles are nearest-rank over
// the kept samples; `stride` keeps every stride-th sample so that very
// frequent events (single scheduler steps) stay bounded in memory. The
// samples grow with the window's op count, which is why peak_rss_mb is
// taken before the window starts.
class Samples {
 public:
  explicit Samples(uint32_t stride = 1) : stride_(stride) {}
  void Add(int64_t ns) {
    ++count_;
    sum_ += ns;
    if (count_ % stride_ == 0) {
      kept_.push_back(static_cast<uint32_t>(std::clamp<int64_t>(ns, 0, UINT32_MAX)));
    }
  }
  uint64_t count() const { return count_; }
  size_t kept() const { return kept_.size(); }
  int64_t sum() const { return sum_; }
  // Multiplies the kept samples from index `from` on by `f`.
  void Scale(size_t from, double f) {
    for (size_t i = from; i < kept_.size(); ++i) {
      kept_[i] = static_cast<uint32_t>(
          std::clamp<double>(std::round(kept_[i] * f), 0, static_cast<double>(UINT32_MAX)));
    }
  }
  // Nearest-rank quantile, q in (0, 1], over the kept samples with index in
  // [from, to); 0 when there are none.
  double Quantile(double q, size_t from = 0, size_t to = SIZE_MAX) const {
    to = std::min(to, kept_.size());
    if (from >= to) {
      return 0;
    }
    std::vector<uint32_t> v(kept_.begin() + static_cast<long>(from),
                            kept_.begin() + static_cast<long>(to));
    size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()) + 0.999999);
    rank = std::clamp<size_t>(rank, 1, v.size());
    std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1), v.end());
    return static_cast<double>(v[rank - 1]);
  }
  // Mean of the kept samples (from index `from` on) whose rank lies in
  // [lo, hi) of the sorted order, e.g. (0.25, 0.75) for the interquartile
  // mean; 0 when the range is empty.
  double MeanBetween(double lo, double hi, size_t from = 0) const {
    if (from >= kept_.size()) {
      return 0;
    }
    std::vector<uint32_t> v(kept_.begin() + static_cast<long>(from), kept_.end());
    std::sort(v.begin(), v.end());
    const size_t a = static_cast<size_t>(lo * static_cast<double>(v.size()));
    const size_t b = std::max(a + 1, static_cast<size_t>(hi * static_cast<double>(v.size())));
    double sum = 0;
    for (size_t i = a; i < b && i < v.size(); ++i) {
      sum += static_cast<double>(v[i]);
    }
    return b > a && a < v.size() ? sum / static_cast<double>(std::min(b, v.size()) - a) : 0;
  }

 private:
  uint32_t stride_;
  uint64_t count_ = 0;
  int64_t sum_ = 0;
  std::deque<uint32_t> kept_;
};

// Spans (name, start, end, parent, op id), kept in memory and written when
// the run ends. Recording stops at `cap` spans; the aggregate layer numbers
// never depend on the cap.
class SpanLog {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;
  struct Span {
    uint32_t name = 0;
    uint32_t parent = kNoParent;
    uint64_t op = 0;
    int64_t start = 0;
    int64_t end = 0;
  };

  explicit SpanLog(size_t cap) : cap_(cap) {}

  uint32_t Intern(const std::string& name) {
    auto [it, fresh] = ids_.emplace(name, static_cast<uint32_t>(names_.size()));
    if (fresh) {
      names_.push_back(name);
    }
    return it->second;
  }
  // Opens an op span; returns its index (kNoParent once full).
  uint32_t Open(uint32_t name, uint64_t op, int64_t start) {
    if (spans_.size() >= cap_) {
      return kNoParent;
    }
    spans_.push_back({name, kNoParent, op, start, start});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void Close(uint32_t idx, int64_t end) {
    if (idx != kNoParent) {
      spans_[idx].end = end;
    }
  }
  void Child(uint32_t parent, uint32_t name, int64_t start, int64_t end) {
    if (parent != kNoParent && spans_.size() < cap_) {
      spans_.push_back({name, parent, spans_[parent].op, start, end});
    }
  }

  // Self time per span name (duration minus what its children cover) over
  // every closed op span and its children. They add up to the op time by
  // construction, so they attribute time but check nothing.
  void SelfTimes(std::map<std::string, int64_t>* self, int64_t* op_total) const;
  // Tab-separated: id name parent op start_ns end_ns.
  bool Write(const std::string& path) const;

 private:
  size_t cap_;
  std::map<std::string, uint32_t> ids_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// Per-class accounting of the procio layer.
enum class IoClass { kCtl, kWait, kMem, kPsall };
inline constexpr int kIoClasses = 4;
const char* IoClassName(IoClass c);

struct IoStats {
  Samples lat[kIoClasses];
  uint64_t errors = 0;
  // procd deltas around remote calls (stats() and op_span() before and after
  // each call).
  uint64_t remote_calls = 0;
  int64_t remote_ns = 0;
  uint64_t pump_rounds = 0;
  uint64_t peer_scans = 0;
  uint64_t service_ns = 0;  // procd's own dequeue->reply time inside the calls
  // Calls whose procd service time exceeds the call time measured around
  // them: procd's clock and the benchmark's disagree about the call.
  uint64_t service_over_call = 0;
};

// Sum of procd's dequeue->reply times over every op slot (recorded while
// its spans are enabled).
uint64_t ProcdServiceNs(const svr4::ProcdServer& srv);

// A ProcIo that forwards every call to `inner` and, while enabled, times it,
// classifies it (ctl / wait / mem / psall), records a child span under the
// current op, and takes procd deltas around it. Disabled, it is a pure
// pass-through, so tools hold one set of descriptors in both modes.
class TimedProcIo : public svr4::ProcIo {
 public:
  TimedProcIo(svr4::ProcIo& inner, const svr4::ProcdServer* server)
      : inner_(&inner), server_(server) {}

  // Starts recording into `stats` and `spans` (may be null) under op span
  // `parent`; Disable() returns to pass-through.
  void Enable(IoStats* stats, SpanLog* spans, const uint32_t* parent) {
    stats_ = stats;
    spans_ = spans;
    parent_ = parent;
    for (int c = 0; spans != nullptr && c < kIoClasses; ++c) {
      span_name_[c] = spans->Intern(std::string("procio.") + IoClassName(static_cast<IoClass>(c)));
    }
  }
  void Disable() { stats_ = nullptr; }

  svr4::Result<int> Open(const std::string& path, int oflags) override;
  svr4::Result<void> Close(int fd) override;
  svr4::Result<int64_t> Read(int fd, void* buf, uint64_t n) override;
  svr4::Result<int64_t> Write(int fd, const void* buf, uint64_t n) override;
  svr4::Result<int64_t> Lseek(int fd, int64_t off, int whence) override;
  svr4::Result<int32_t> Ioctl(int fd, uint32_t op, void* arg) override;
  svr4::Result<std::vector<svr4::DirEnt>> ReadDir(const std::string& path) override;
  svr4::Result<size_t> ReadDirChunk(const std::string& path, uint64_t* cookie, size_t max,
                                    std::vector<svr4::DirEnt>* out) override;
  svr4::Result<svr4::VAttr> Stat(const std::string& path) override;
  svr4::Result<int> PollFds(std::span<svr4::PollFd> fds, int64_t timeout_ticks) override;
  svr4::Result<svr4::Pid> Spawn(const std::string& path, const std::vector<std::string>& argv,
                                const svr4::Creds& creds) override;
  svr4::Kernel* local_kernel() override { return inner_->local_kernel(); }
  svr4::Proc* local_proc() override { return inner_->local_proc(); }

 private:
  enum class FdKind { kMem, kCtl, kStatus };
  IoClass ClassOfWrite(int fd, const void* buf, uint64_t n) const;
  IoClass ClassOfFd(int fd) const;
  template <typename F>
  auto Timed(IoClass cls, F&& call) -> decltype(call());

  svr4::ProcIo* inner_;
  const svr4::ProcdServer* server_;
  IoStats* stats_ = nullptr;
  SpanLog* spans_ = nullptr;
  const uint32_t* parent_ = nullptr;
  uint32_t span_name_[kIoClasses] = {};
  std::map<int, FdKind> fds_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
