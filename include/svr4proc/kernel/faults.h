// Deterministic fault injection for the simulated kernel.
//
// A FaultPlan arms named injection sites — the error and lifecycle seams
// that real workloads almost never exercise — with a per-site seed, a fire
// probability expressed as a ratio, and a hit cap. The FaultInjector built
// from a plan makes every decision with a private splitmix64 stream, so a
// given (plan, workload) pair replays identically: every chaos failure is a
// reproducible test case. Sites are wired through the kernel, vm, and fs
// layers behind a branch on a null injector pointer, so a kernel with no
// plan set pays one predicted-not-taken branch per site.
//
// This header is self-contained (no kernel types) so the vm and fs layers
// can hold an injector pointer without a layering inversion.
#ifndef SVR4PROC_KERNEL_FAULTS_H_
#define SVR4PROC_KERNEL_FAULTS_H_

#include <array>
#include <cstdint>
#include <string>

namespace svr4 {

class KTrace;

// splitmix64: tiny, well-distributed, and stateful enough that every
// fault site, the chaos scheduler and every per-CPU steal stream get an
// independent, replayable sequence.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Named injection sites. Each maps to one seam:
//   kCopyin / kCopyout  user-memory copies fail with EFAULT
//   kVmMap              AddressSpace::Map fails with ENOMEM
//   kVmGrow             brk growth / automatic stack growth refused
//   kVfsResolve         path resolution fails with EIO
//   kVnodeRead          vnode read path (ReadCommon) fails with EIO
//   kVnodeWrite         vnode write path (WriteCommon) fails with EIO
//   kTlbFlush           whole-TLB invalidation forced before a quantum
//   kSpuriousWakeup     Wakeup(PollChan()) with nothing actually ready
//   kDelayedStop        issig() defers delivery of a pending stop directive
//   kIpiDelay           a CPU's pending cross-CPU interrupts go one more
//                       quantum unacknowledged (models slow IPI delivery;
//                       generation-based invalidation keeps it safe)
//   kPeerDisconnect     a procd peer's transport dies between frames: the
//                       daemon must close every descriptor the peer held
//                       (evaluated once per server pump; a firing severs
//                       one live peer chosen by Draw from the site's stream)
enum class FaultSite : int {
  kCopyin = 0,
  kCopyout,
  kVmMap,
  kVmGrow,
  kVfsResolve,
  kVnodeRead,
  kVnodeWrite,
  kTlbFlush,
  kSpuriousWakeup,
  kDelayedStop,
  kIpiDelay,
  kPeerDisconnect,
};
inline constexpr int kFaultSiteCount = 12;

const char* FaultSiteName(FaultSite s);

// How one site fires. Probability is the ratio num/den per evaluation;
// max_hits caps total fires so any armed plan eventually goes quiet and
// workloads terminate (kDelayedStop in particular must not defer forever).
struct FaultRule {
  uint64_t seed = 0;
  uint32_t num = 0;       // fire with probability num/den; 0 disarms
  uint32_t den = 1;
  uint64_t max_hits = 64;
};

class FaultPlan {
 public:
  FaultPlan& Arm(FaultSite s, const FaultRule& r) {
    rules_[static_cast<int>(s)] = r;
    return *this;
  }
  const FaultRule& rule(FaultSite s) const { return rules_[static_cast<int>(s)]; }

 private:
  std::array<FaultRule, kFaultSiteCount> rules_{};
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  // One deterministic decision for the site; counts the evaluation and, on
  // true, the fire. The caller applies the site's failure.
  bool Fire(FaultSite s);
  // A value in [0, n) from the site's own stream, for a site that picks its
  // victim among n candidates after it fires. Not an evaluation. n > 0.
  uint64_t Draw(FaultSite s, uint64_t n);

  const FaultPlan& plan() const { return plan_; }
  uint64_t evals(FaultSite s) const { return state_[static_cast<int>(s)].evals; }
  uint64_t fires(FaultSite s) const { return state_[static_cast<int>(s)].fires; }

  // Text rendering served by /proc2/kernel/faults: one line per armed site.
  std::string Describe() const;

  // Wires the kernel trace ring so every firing emits a FAULT_INJECT
  // record. The eval/fire counters themselves stay here (their single
  // home); the metrics registry renders them from this object.
  void SetKtrace(KTrace* kt) { kt_ = kt; }

 private:
  struct SiteState {
    uint64_t rng = 0;
    uint64_t evals = 0;
    uint64_t fires = 0;
  };

  FaultPlan plan_;
  std::array<SiteState, kFaultSiteCount> state_{};
  KTrace* kt_ = nullptr;
};

}  // namespace svr4

#endif  // SVR4PROC_KERNEL_FAULTS_H_
