// Simulated symmetric multiprocessing: per-CPU scheduler state, seeded work
// stealing, and the cross-CPU interrupt (IPI) protocol.
//
// The kernel models N CPUs. Each CPU owns a run queue (the same circular
// doubly-linked machinery the uniprocessor kernel used, one cursor per CPU)
// and a bank of every address space's software TLB. Correctness never
// depends on IPI delivery — translation and code staleness are prevented by
// the generation counters, which invalidate every bank at once — but the
// shootdown *protocol* is modeled faithfully and observably: whenever an
// address space's translations or cached code are invalidated, an IPI is
// charged to every other CPU whose last-dispatched address space matches,
// emitted as a KtEvent::kIpi trace record, and acknowledged at the target
// CPU's next quantum boundary. PIOCSTOP-style stop directives against an
// lwp homed on another CPU charge a reschedule IPI the same way. The
// invariant checker proves conservation: ipis_sent == ipis_received +
// ipi_pending, summed over CPUs.
//
// Two modes:
//  * kDeterministic (default): the quantum loop in Step() rotates over the
//    CPUs round-robin and executes one quantum at a time on the chosen CPU.
//    Fully deterministic and, at ncpus == 1, bit-identical to the
//    uniprocessor kernel (no extra PRNG draws, no IPIs, no trace changes).
//  * kFreeRun: Step() becomes a bulk-synchronous super-step that runs up to
//    ncpus lwps' *user* instructions on real std::thread workers, then
//    folds results and performs all kernel work serially. Used only when no
//    observation hooks are armed (fault injection, chaos, tracing force the
//    deterministic path, mirroring the block engine's fallback contract).
#ifndef SVR4PROC_KERNEL_SMP_H_
#define SVR4PROC_KERNEL_SMP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace svr4 {

struct Lwp;
class KTrace;

// Upper bound on simulated CPUs (SetNumCpus clamps). Small and fixed so
// per-pick scratch arrays live on the stack.
inline constexpr int kMaxCpus = 64;

enum class SmpMode {
  kDeterministic,  // round-robin CPU stepping from the quantum loop
  kFreeRun,        // std::thread workers execute user chunks in parallel
};

// Per-CPU accounting, exposed through /proc2/kernel/cpus.
struct CpuStats {
  uint64_t quanta = 0;         // quanta dispatched on this CPU
  uint64_t instructions = 0;   // user instructions retired on this CPU
  uint64_t steals = 0;         // lwps this CPU stole from a peer's queue
  uint64_t switches = 0;       // dispatches that changed the running lwp
  uint64_t ipis_sent = 0;      // IPIs charged to other CPUs by work here
  uint64_t ipis_received = 0;  // IPIs acknowledged at quantum boundaries
};

struct CpuState {
  int id = 0;

  // This CPU's run queue: circular doubly-linked list threaded on
  // Lwp::q_prev/q_next (Lwp::cpu names the owning queue), with the same
  // insert-before-cursor FIFO round-robin as the uniprocessor kernel.
  Lwp* runq_next = nullptr;  // rotation cursor; null iff the queue is empty
  size_t runq_len = 0;

  // The address space last dispatched on this CPU — the shootdown targeting
  // state. A real MMU holds live translations for this AS until the next
  // context switch, so invalidations elsewhere must interrupt this CPU.
  const void* cur_as = nullptr;

  // Per-CPU SCHED_SWITCH attribution (trace records) and switch counting
  // (stats; tracked separately so arming the trace ring mid-run cannot
  // change what records a previously-disarmed kernel would emit).
  int32_t last_pid = 0;
  int last_lwpid = 0;
  int32_t sw_pid = 0;
  int sw_lwpid = 0;

  // Seeded per-CPU splitmix64 stream driving victim choice when this CPU's
  // queue drains; reseeded deterministically by SmpState::Resize.
  uint64_t steal_rng = 0;

  // Outstanding cross-CPU interrupts charged to this CPU, acknowledged at
  // its next quantum boundary. Atomic because free-running workers poll it
  // to break out of a user chunk early.
  std::atomic<uint64_t> ipi_pending{0};

  CpuStats stats;

  CpuState() = default;
  CpuState(const CpuState& o) { *this = o; }
  CpuState& operator=(const CpuState& o) {
    id = o.id;
    runq_next = o.runq_next;
    runq_len = o.runq_len;
    cur_as = o.cur_as;
    last_pid = o.last_pid;
    last_lwpid = o.last_lwpid;
    sw_pid = o.sw_pid;
    sw_lwpid = o.sw_lwpid;
    steal_rng = o.steal_rng;
    ipi_pending.store(o.ipi_pending.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    stats = o.stats;
    return *this;
  }
};

// The kernel's CPU set. Owned by Kernel; address spaces hold a pointer so
// translation/code invalidations can charge shootdown IPIs without the VM
// layer seeing the kernel.
class SmpState {
 public:
  SmpState() { Resize(1); }

  int ncpus() const { return static_cast<int>(cpus_.size()); }
  CpuState& cpu(int i) { return cpus_[static_cast<size_t>(i)]; }
  const CpuState& cpu(int i) const { return cpus_[static_cast<size_t>(i)]; }

  SmpMode mode() const { return mode_; }
  void set_mode(SmpMode m) { mode_ = m; }

  // Trace ring for kIpi emission and the CPU the kernel is currently
  // executing a quantum for (0 in controller/idle context). Wired once at
  // kernel construction.
  void SetKtrace(KTrace* kt) { kt_ = kt; }
  void SetCpuSource(const int* src) { cur_cpu_src_ = src; }
  // Names the CPU whose chunk the calling free-running worker thread runs
  // (-1 once it is done). A shootdown the chunk's own stores cause is sent
  // by that CPU: the kernel's CPU source reads 0 while workers run.
  static void SetWorkerCpu(int cpu);

  // Resets to n CPUs with deterministically reseeded steal streams. Queue
  // migration is the kernel's job (it owns the lwps); callers must drain
  // and re-insert around this.
  void Resize(int n);

  // Charges a TLB/code shootdown IPI to every CPU other than the sending
  // one (the worker's CPU inside a free-running chunk, else the CPU the
  // kernel is executing for) whose last-dispatched address space is `as`.
  // No-op on a uniprocessor. `pid` stamps the trace record.
  void Shootdown(const void* as, int32_t pid);

  // Charges a reschedule IPI to `target_cpu` (stop directive against an lwp
  // homed there). No-op when target_cpu is the executing CPU.
  void ReschedIpi(int target_cpu, int32_t pid, int lwpid);

  // Acknowledges (and clears) the target CPU's pending IPIs; returns how
  // many were outstanding.
  uint64_t AckIpis(int cpu);

  // Forgets a dying address space wherever it is the shootdown target.
  // Heap reuse could otherwise hand a new space the old address and charge
  // IPIs whose presence depends on allocator layout — nondeterminism.
  void DropAs(const void* as) {
    for (CpuState& c : cpus_) {
      if (c.cur_as == as) {
        c.cur_as = nullptr;
      }
    }
  }

  // Next value of the thief CPU's seeded steal stream.
  uint64_t StealDraw(int cpu);

  uint64_t TotalIpisSent() const;
  uint64_t TotalIpisPending() const;

 private:
  int SendingCpu() const;

  std::vector<CpuState> cpus_;
  SmpMode mode_ = SmpMode::kDeterministic;
  KTrace* kt_ = nullptr;
  const int* cur_cpu_src_ = nullptr;
};

// Persistent worker pool for free-running mode. Threads are started lazily
// on the first dispatch and parked on a condition variable between
// super-steps; Dispatch(n, fn) runs fn(0..n-1) concurrently and returns when
// all have finished (the join is the happens-before edge that lets the
// serial fold read worker results without atomics).
class SmpWorkers {
 public:
  SmpWorkers() = default;
  ~SmpWorkers();

  SmpWorkers(const SmpWorkers&) = delete;
  SmpWorkers& operator=(const SmpWorkers&) = delete;

  void Dispatch(int n, const std::function<void(int)>& fn);

 private:
  void Ensure(int n);
  void WorkerMain(int idx);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* fn_ = nullptr;
  uint64_t seq_ = 0;   // dispatch generation; workers run when it advances
  int nwork_ = 0;      // workers participating in the current dispatch
  int active_ = 0;     // participants still running
  bool stop_ = false;
};

}  // namespace svr4

#endif  // SVR4PROC_KERNEL_SMP_H_
