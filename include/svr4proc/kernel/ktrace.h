// Kernel event tracing and the metrics registry.
//
// KTrace is a bounded, overwriting ring of fixed-size typed records plus a
// registry of monotonic counters and log2-bucketed latency histograms. The
// ring answers "what just happened, in order"; the registry answers "how
// often and how long" without retaining individual events. Both are armed
// independently so the cost of each layer is measurable on its own, and
// both are served through /proc itself (/proc2/kernel/trace,
// /proc2/kernel/metrics, /proc2/<pid>/trace, PIOCKSTAT) — following the
// paper's position that the filesystem is the interface a performance
// monitor should sample.
//
// Cost when disarmed: every emission site is one load + one predicted
// branch (Emit returns immediately), the same discipline as the fault
// injector's null-pointer gates. Nothing is emitted per instruction:
// every event comes from a cold path both execution engines share, so
// neither hot loop carries tracing code and arming tracing does not change
// which engine runs.
//
// This header is self-contained (no kernel types) so the vm and fault
// layers can hold a KTrace pointer without a layering inversion.
#ifndef SVR4PROC_KERNEL_KTRACE_H_
#define SVR4PROC_KERNEL_KTRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace svr4 {

class FaultInjector;

// Stable on-the-wire event codes for /proc2/kernel/trace snapshots.
// Append-only; renumbering breaks the record ABI.
enum class KtEvent : uint32_t {
  kNone = 0,
  kSchedSwitch = 1,    // pid/lwpid = incoming; a0 = previous pid, a1 = run-queue depth
  kStop = 2,           // a0 = PrWhy, a1 = what (syscall/signal/fault number)
  kRun = 3,            // a0 = the stop why being cleared
  kSignalPost = 4,     // pid = target; a0 = sig, a1 = posting pid (0 = kernel)
  kSignalDeliver = 5,  // a0 = sig, a1 = handler address (0 = default action)
  kFault = 6,          // a0 = fault code, a1 = faulting vaddr
  kSyscallEntry = 7,   // a0 = syscall number, a1 = first argument
  kSyscallExit = 8,    // a0 = syscall | errno<<16, a1 = entry->exit latency (ticks)
  kCowBreak = 9,       // a0 = page vaddr whose copy-on-write broke
  kTlbFlush = 10,      // a0 = translation generation after the flush
  kFork = 11,          // pid = parent; a0 = child pid, a1 = 1 for vfork
  kExec = 12,          // a0 = new entry point
  kExit = 13,          // a0 = wait status
  kProcOpen = 14,      // pid = target; a0 = opener pid, a1 = 1 if writable
  kProcClose = 15,     // pid = target; a0 = opener pid, a1 = 1 if writable
  kFaultInject = 16,   // a0 = FaultSite, a1 = cumulative fires at that site
  kIpi = 17,           // cross-CPU interrupt charged: a0 = sending cpu,
                       // a1 = target cpu | pending-depth<<16 (smp.h)
};
inline constexpr uint32_t kKtEventCount = 18;

const char* KtEventName(KtEvent e);

// One trace record; the layout is the snapshot ABI. 32 bytes, fields in
// host byte order. kt_cpu (v2) occupies what was v1's always-zero pad
// word, so uniprocessor snapshots are byte-identical across the versions.
struct KtRec {
  uint64_t kt_tick;
  int32_t kt_pid;
  int32_t kt_lwpid;
  uint32_t kt_event;  // KtEvent
  uint32_t kt_a0;
  uint32_t kt_a1;
  uint32_t kt_cpu;    // CPU the kernel was executing for (0 = controller)
};
static_assert(sizeof(KtRec) == 32, "trace record ABI is 32 bytes");

// Snapshot header preceding the records in a /proc2/kernel/trace read.
struct KtSnapHeader {
  uint32_t kt_magic;    // kKtMagic
  uint32_t kt_version;  // kKtVersion (2: kt_pad became kt_cpu, kIpi added)
  uint32_t kt_recsize;  // sizeof(KtRec)
  uint32_t kt_nrec;     // records following this header
  uint64_t kt_total;    // records ever appended (>= kt_nrec before filtering)
  uint64_t kt_dropped;  // appended but overwritten before this snapshot
};
static_assert(sizeof(KtSnapHeader) == 32, "snapshot header ABI is 32 bytes");
inline constexpr uint32_t kKtMagic = 0x4B545243u;  // "CRTK" read LE = "KTRC"
inline constexpr uint32_t kKtVersion = 2;

inline constexpr size_t kKtDefaultCap = 4096;

// Syscall numbering headroom for the per-syscall stats (kMaxSyscall is 200;
// this is part of the PrKstat ABI so it is pinned independently).
inline constexpr int kKtMaxSyscall = 200;

// CPU headroom for the per-CPU scheduler-wait histograms. Mirrors
// smp.h's kMaxCpus without including it (this header stays free of
// kernel types).
inline constexpr int kKtMaxCpus = 64;

// Log2-bucketed histogram: bucket 0 counts zero-valued samples, bucket i>0
// counts samples in [2^(i-1), 2^i); the top bucket absorbs the tail.
struct KtHist {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::array<uint64_t, 32> bucket{};

  static uint32_t BucketOf(uint64_t v) {
    uint32_t b = 0;
    while (v != 0 && b < 31) {
      v >>= 1;
      ++b;
    }
    return b;
  }
  void Record(uint64_t v) {
    ++count;
    sum += v;
    if (v > max) {
      max = v;
    }
    ++bucket[BucketOf(v)];
  }
  double Mean() const { return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0; }

  // Upper bound of the bucket holding quantile q (0 <= q <= 1), capped by
  // the observed max. Log2 buckets bound the answer to within 2x, which is
  // what a latency-attribution readout needs.
  uint64_t Quantile(double q) const {
    if (count == 0) {
      return 0;
    }
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count - 1)) + 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < bucket.size(); ++i) {
      seen += bucket[i];
      if (seen >= rank) {
        uint64_t hi = i == 0 ? 0 : (uint64_t{1} << i) - 1;
        return hi < max ? hi : max;
      }
    }
    return max;
  }

  // Appends one "hist <name><tag> count=.. sum=.. max=.. mean=.. b<i>:<n>..."
  // line: the grammar of /proc2/kernel/metrics and /proc2/kernel/procd.
  void Render(std::string& out, const char* name, const std::string& tag) const;
};

struct KtSyscallStat {
  uint64_t calls = 0;
  uint64_t errors = 0;
  KtHist lat;  // entry->exit latency in ticks
};

class KTrace {
 public:
  // tick_src points at the kernel clock and cpu_src at the executing-CPU
  // slot so emission sites (including the vm layer, which has no notion of
  // time or topology) never pass either explicitly.
  explicit KTrace(const uint64_t* tick_src, const int* cpu_src = nullptr,
                  size_t cap = kKtDefaultCap);

  // Arming. The ring and the registry gate independently; Emit() is a
  // single predicted branch when both are off.
  void EnableRing(bool on) {
    ring_on_ = on;
    armed_ = ring_on_ || metrics_on_;
  }
  void EnableMetrics(bool on) {
    metrics_on_ = on;
    armed_ = ring_on_ || metrics_on_;
  }
  bool ring_on() const { return ring_on_; }
  bool metrics_on() const { return metrics_on_; }
  bool armed() const { return armed_; }

  // Appends a record (ring armed) and folds it into the registry (metrics
  // armed). Safe to call disarmed: it is a no-op.
  void Emit(KtEvent e, int32_t pid, int32_t lwpid, uint32_t a0 = 0, uint32_t a1 = 0);

  // Registry-only samples with no ring record.
  void RecordStopWait(uint64_t ticks) {
    if (metrics_on_) {
      stop_wait_.Record(ticks);
    }
  }

  // Scheduler wait accounting: per-CPU enqueue->first-dispatch waits and
  // enqueue->steal latencies, in ticks. Charged to the CPU that dispatched
  // (or stole) the lwp.
  void RecordRunqWait(int cpu, uint64_t ticks) {
    if (metrics_on_ && cpu >= 0 && cpu < kKtMaxCpus) {
      runq_wait_[cpu].Record(ticks);
    }
  }
  void RecordStealLat(int cpu, uint64_t ticks) {
    if (metrics_on_ && cpu >= 0 && cpu < kKtMaxCpus) {
      steal_lat_[cpu].Record(ticks);
    }
  }

  // Serialized snapshot: KtSnapHeader then oldest-first records, optionally
  // filtered to one pid. Returns an empty buffer (a 0-byte file read, not
  // an error) while nothing has ever been appended — a disabled ring reads
  // empty rather than ENOENT.
  std::vector<uint8_t> Snapshot(int32_t pid_filter = -1) const;

  // The registry rendered as text for /proc2/kernel/metrics, one
  // `name value...` line per counter/histogram. The fault injector's
  // per-site eval/fire counters are folded in (from their single home in
  // FaultInjector) so one sampler sees chaos activity too.
  std::string MetricsText(const FaultInjector* finj = nullptr) const;

  // Registry readouts (PIOCKSTAT is built from these).
  uint64_t total() const { return total_; }
  uint64_t dropped() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }
  size_t capacity() const { return ring_.size(); }
  uint64_t event_count(KtEvent e) const { return events_[static_cast<uint32_t>(e)]; }
  const KtSyscallStat& syscall_stat(int num) const { return sys_[num]; }
  const KtHist& stop_wait() const { return stop_wait_; }
  const KtHist& runq_depth() const { return runq_depth_; }
  const KtHist& runq_wait(int cpu) const { return runq_wait_[cpu]; }
  const KtHist& steal_lat(int cpu) const { return steal_lat_[cpu]; }

 private:
  const uint64_t* tick_;
  const int* cpu_;  // null = always CPU 0
  bool ring_on_ = false;
  bool metrics_on_ = false;
  bool armed_ = false;

  std::vector<KtRec> ring_;
  uint64_t total_ = 0;  // records ever appended; slot = total_ % cap

  std::array<uint64_t, kKtEventCount> events_{};
  std::array<KtSyscallStat, kKtMaxSyscall> sys_{};
  KtHist stop_wait_;   // PCSTOP request -> all lwps stopped, in ticks
  KtHist runq_depth_;  // sampled at every scheduler switch
  // Wait accounting, per dispatching CPU (kernel.cc stamps the enqueue
  // tick in RunqInsert and harvests it at first dispatch / steal).
  std::array<KtHist, kKtMaxCpus> runq_wait_{};
  std::array<KtHist, kKtMaxCpus> steal_lat_{};
};

}  // namespace svr4

#endif  // SVR4PROC_KERNEL_KTRACE_H_
