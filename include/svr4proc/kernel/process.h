// The process model: processes (proc structures), lightweight processes
// (threads of control sharing an address space), tracing state, and stop
// bookkeeping. This is the state /proc exposes and manipulates.
#ifndef SVR4PROC_KERNEL_PROCESS_H_
#define SVR4PROC_KERNEL_PROCESS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "svr4proc/base/fixed_set.h"
#include "svr4proc/fs/cred.h"
#include "svr4proc/fs/vnode.h"
#include "svr4proc/isa/isa.h"
#include "svr4proc/kernel/signal.h"
#include "svr4proc/vm/vm.h"

namespace svr4 {

using Pid = int32_t;

// Why a process (lwp) stopped — prstatus pr_why values.
enum PrWhy : uint16_t {
  PR_REQUESTED = 1,  // /proc stop directive
  PR_SIGNALLED = 2,  // receipt of a traced signal
  PR_SYSENTRY = 3,   // entry to a traced system call
  PR_SYSEXIT = 4,    // exit from a traced system call
  PR_FAULTED = 5,    // a traced machine fault
  PR_JOBCONTROL = 6, // default action of a job-control stop signal
};

std::string_view PrWhyName(uint16_t why);

// prstatus pr_flags bits.
enum PrFlag : uint32_t {
  PR_STOPPED = 0x0001,  // process (lwp) is stopped
  PR_ISTOP = 0x0002,    // stopped on an event of interest (awaits PIOCRUN)
  PR_DSTOP = 0x0004,    // a stop directive is pending
  PR_ASLEEP = 0x0008,   // sleeping in an interruptible system call
  PR_FORK = 0x0010,     // inherit-on-fork is set
  PR_RLC = 0x0020,      // run-on-last-close is set
  PR_PTRACE = 0x0040,   // process is being traced via ptrace(2)
  PR_PCINVAL = 0x0080,  // pc does not address a valid instruction
  PR_ISSYS = 0x0100,    // system process (no user address space)
  PR_STEP = 0x0200,     // single-step directive in effect
};

enum class LwpState {
  kRunning,   // eligible to execute user instructions / syscall work
  kSleeping,  // blocked in a system call
  kStopped,   // stopped (events of interest, directives, job control)
  kDead,
};

// Phase of the in-progress system call for an lwp.
enum class SysPhase : uint8_t { kNone, kEntry, kExec, kExit };

struct SleepSpec {
  const void* chan = nullptr;  // wait channel; nullptr when purely timed
  uint64_t wake_tick = 0;      // absolute tick to auto-wake; 0 = no timeout
  bool interruptible = true;
};

struct Proc;

struct Lwp {
  // What a ps row and a status read take from the lwp (its state, cpu,
  // system call and stop) sits in the record's first cache line, with the
  // flags the quantum loop tests.
  int lwpid = 1;
  LwpState state = LwpState::kRunning;
  Proc* proc = nullptr;
  // Home CPU: names the per-CPU run queue this lwp enqueues on (and, while
  // running, the CPU executing it). Assigned round-robin at enroll, updated
  // by work stealing; always 0 on a uniprocessor kernel.
  int cpu = 0;

  // In-progress system call.
  uint16_t cur_syscall = 0;
  bool in_syscall = false;
  bool abort_syscall = false;  // PRSABORT: skip to syscall exit with EINTR
  bool interrupted = false;  // a signal arrived while sleeping
  SysPhase sys_phase = SysPhase::kNone;

  // Stop bookkeeping.
  uint16_t stop_why = 0;
  uint16_t stop_what = 0;
  bool istop = false;          // stopped on an event of interest
  bool stopped_while_asleep = false;  // PR_ASLEEP at stop time
  bool lwp_dstop = false;      // per-lwp stop directive (hierarchical lwpctl)

  // issig() progress flags (reset when the current signal is resolved).
  bool sig_reported = false;   // signalled stop already taken for cursig
  bool pt_reported = false;    // ptrace stop already taken for cursig

  // Scheduler queue linkage, owned by Kernel::LwpSetState: the run queue is
  // a circular doubly-linked list of runnable lwps; sleepers with a wait
  // channel hang off a chan-hashed bucket. q_where says which list (if any)
  // the links are threaded on so transitions unlink in O(1).
  enum QWhere : uint8_t { kQNone = 0, kQRun = 1, kQSleep = 2 };
  uint8_t q_where = kQNone;

  SleepSpec sleep;             // the sleep in progress (kSleeping)

  Lwp* q_prev = nullptr;
  Lwp* q_next = nullptr;

  Regs regs;
  FpRegs fpregs;

  std::array<uint32_t, 6> sysargs{};  // the system call's arguments
  SleepSpec saved_sleep;       // to resume the sleep undisturbed

  // Restartable-handler scratch state, cleared when the syscall finishes.
  uint64_t sys_deadline = 0;   // absolute wake tick for timed syscalls
  Pid vfork_child = 0;         // child being waited on by vfork

  // Tick at the trap into the current syscall; the exit trace record and
  // the per-syscall latency histogram measure from here.
  uint64_t sys_entry_tick = 0;

  // Tick+1 at which this lwp last became runnable (0 = not stamped).
  // Stamped by RunqInsert when the metrics registry is armed; harvested
  // into the per-CPU runq-wait histogram at first dispatch, or into the
  // steal-latency histogram when a thief claims the lwp first. The +1
  // bias distinguishes "stamped at tick 0" from "never stamped", same as
  // Proc::stop_req_tick.
  uint64_t runq_enq_tick = 0;
};

// A process's signal actions and the siginfo of each pending signal: two
// tables of SigSet::kMaxMember + 1 entries, about 6 KB. Allocated the first
// time the process needs them, by a sigaction or a posted signal, so a
// process that never sets an action or takes a signal (a pause() sleeper, a
// native controller) stays small (same discipline as TraceState::audit).
// fork copies the actions only if the parent has a table; zombie slimming
// releases it.
struct SigTables {
  std::array<SigInfo, SigSet::kMaxMember + 1> pending_info{};
  std::array<SigAction, SigSet::kMaxMember + 1> actions{};
};

// Process-level signal state. The hold mask and actions are process-wide,
// as in single-threaded SVR4.
struct SignalState {
  SigSet pending;
  SigSet hold;
  int cursig = 0;  // promoted from pending by issig(); at most one
  SigInfo cursig_info;
  // Null until first needed; a pending signal implies a table, since its
  // siginfo lives there (CheckInvariants).
  std::unique_ptr<SigTables> tables;

  // The action for `sig`; the default one when the process has no table.
  const SigAction& Action(int sig) const {
    static constexpr SigAction kDefault{};
    return tables != nullptr ? tables->actions[static_cast<size_t>(sig)] : kDefault;
  }
  // The tables, allocated on first use.
  SigTables& Tables() {
    if (tables == nullptr) {
      tables = std::make_unique<SigTables>();
    }
    return *tables;
  }
};

// One record of the per-process control audit ring: who issued which
// control operation, against which lwp, with what result. Appended by the
// shared control-plane core for every control (non-read-only) operation,
// whichever front-end — PIOC* ioctl or ctl-message write — carried it, so
// the ring doubles as an oracle for differential testing of the two
// encodings. Identified by canonical operation name, not wire code: the
// same script driven through either front-end produces identical records.
inline constexpr int kCtlAuditCap = 64;
struct CtlAuditRec {
  char pr_op[16] = {};    // canonical operation name ("PCRUN", "PCKILL", ...)
  Pid pr_caller = 0;      // controlling process; 0 if issued anonymously
  int32_t pr_lwpid = 0;   // lwp-scoped target; 0 = process scope
  int32_t pr_errno = 0;   // Errno result; 0 = success
  uint64_t pr_tick = 0;   // virtual time at completion
};

// /proc tracing state; persists when the process file is closed unless
// run-on-last-close is set.
struct TraceState {
  SigSet sigtrace;    // traced signals
  FltSet flttrace;    // traced machine faults
  SysSet sysentry;    // traced system call entries
  SysSet sysexit;     // traced system call exits
  bool inherit_on_fork = false;  // PR_FORK
  bool run_on_last_close = false;  // PR_RLC
  bool dstop_pending = false;    // a /proc stop directive is outstanding

  // A traced fault awaiting PIOCRUN; cleared by PRCFAULT, otherwise
  // converted to its signal on resume.
  int cur_fault = 0;
  uint32_t cur_fault_addr = 0;

  // Control audit ring (bounded; audit_total % kCtlAuditCap is the next
  // slot, so the ring and its drop count need no separate head pointer).
  // Allocated on first append: the ring is 2.5KB and the overwhelming
  // majority of a large population is never touched by a controller, so an
  // uncontrolled Proc stays small. audit_total > 0 implies audit != null.
  std::unique_ptr<std::array<CtlAuditRec, kCtlAuditCap>> audit;
  uint64_t audit_total = 0;  // records ever appended

  // Security bookkeeping. The live counters track descriptors of the
  // current generation only; when a set-id exec bumps `gen`, outstanding
  // counts move to the stale ledger so closes of invalidated descriptors
  // can never disturb a new controller's accounting or exclusivity.
  int writable_opens = 0;   // writable /proc descriptors outstanding
  int total_opens = 0;      // all /proc descriptors outstanding
  int stale_writable_opens = 0;  // invalidated writable descriptors not yet closed
  int stale_total_opens = 0;     // invalidated descriptors not yet closed
  bool excl = false;        // an O_EXCL writer exists
  uint64_t gen = 1;         // descriptor generation; bumped on set-id exec
};

struct WaitResult {
  Pid pid = 0;
  int status = 0;
};

// Deterministic sampling-profiler state, armed per process by PIOCPROF.
// The sampler is driven by the process's own retired-instruction count
// (utime): a sample fires every 2^period_log2 instructions and charges
// one hit to a pc bucket. Both execution engines feed it — the
// interpreter at exact-pc granularity, the block engine at
// block-entry-pc granularity (a run of N instructions advances utime by
// N and attributes every boundary crossed to the block's entry pc).
// Sampling writes only this side state, so an armed profiler cannot
// perturb scheduling, ticks, or chaos streams. Allocated lazily on the
// first PIOCPROF arm (same discipline as TraceState::audit); released by
// zombie slimming.
struct ProfState {
  bool on = false;
  uint32_t period_log2 = 0;
  uint64_t samples = 0;
  // Ordered so the /proc2/<pid>/prof folded dump renders deterministically.
  std::map<uint32_t, uint64_t> pc_hits;
};

// wait(2) status encoding helpers.
inline int WExitStatus(int code) { return (code & 0xFF) << 8; }
inline int WSignalStatus(int sig, bool core) { return (sig & 0x7F) | (core ? 0x80 : 0); }
inline int WStopStatus(int sig) { return 0x7F | (sig << 8); }
inline bool WIfExited(int st) { return (st & 0xFF) == 0; }
inline bool WIfStopped(int st) { return (st & 0xFF) == 0x7F; }
inline bool WIfSignaled(int st) { return !WIfExited(st) && !WIfStopped(st); }
inline int WExitCode(int st) { return (st >> 8) & 0xFF; }
inline int WStopSig(int st) { return (st >> 8) & 0xFF; }
inline int WTermSig(int st) { return st & 0x7F; }

struct Proc {
  // What a ps row (BuildPrPsinfo) reads comes first, so a row touches only
  // the record's first 192 bytes (DESIGN.md §12); a status read
  // (BuildPrStatus) takes the times that follow too.
  Pid pid = 0;
  Pid ppid = 0;
  Pid pgrp = 0;
  Pid sid = 0;
  int nice = 20;
  enum class State : uint8_t { kActive, kZombie } state = State::kActive;
  bool system_proc = false; // sched/pageout: no user address space
  bool native = false;      // host-driven controller; never scheduled
  bool setid = false;       // set-id since last exec (restricts /proc opens)
  uint64_t start_tick = 0;
  uint64_t utime = 0;   // instructions executed
  uint64_t stime = 0;   // kernel work on this process's behalf
  AddressSpacePtr as;
  std::vector<std::unique_ptr<Lwp>> lwps;
  std::string name;    // pr_fname: executable basename
  std::string psargs;  // pr_psargs: initial argument list
  Creds creds;
  uint64_t cutime = 0;
  uint64_t cstime = 0;

  SignalState sig;

  // Birth identity: unique across the whole life of the kernel, never
  // recycled. A /proc descriptor records the ident of the process it named
  // so that, after pid wraparound hands the same pid to a new process, the
  // held descriptor goes invalid (ENOENT) instead of attaching to the
  // impostor. Orthogonal to trace.gen, which tracks set-id-exec
  // invalidation *within* one process's life.
  uint64_t ident = 0;

  // Process-table linkage, owned by the Kernel (kernel.h): pid-hash chain,
  // all-procs list, and the parent/children tree that makes exit-time
  // reparenting and wait() scans O(children) instead of O(procs).
  Proc* pt_hash_next = nullptr;
  Proc* pt_all_prev = nullptr;
  Proc* pt_all_next = nullptr;
  Proc* pt_parent = nullptr;       // null only for sched (pid 0)
  Proc* pt_first_child = nullptr;  // creation order, oldest first
  Proc* pt_last_child = nullptr;
  Proc* pt_sib_prev = nullptr;
  Proc* pt_sib_next = nullptr;

  // A native controller that must not block: each procd peer, because one
  // daemon serves them all. A blocking /proc operation runs its checks,
  // audit record and directive for it as for any caller, and then leaves
  // the target's pid in deferred_wait instead of pumping the simulation;
  // the daemon parks the peer on Kernel::PrStopWaitCheck.
  bool defers_waits = false;

  int exit_status = 0;
  Pid deferred_wait = -1;   // stop-wait left to a defers_waits caller; -1: none

  VnodePtr exe;  // executable file vnode (PIOCOPENM with a null address)

  int next_lwpid = 1;

  TraceState trace;

  // Sampling-profiler state; null until PIOCPROF first arms it.
  std::unique_ptr<ProfState> prof;

  // ptrace(2) state (the competing mechanism the paper discusses).
  bool pt_traced = false;
  bool pt_owned_stop = false;  // current stop belongs to ptrace
  bool pt_wait_reported = false;  // parent already saw this stop via wait()
  int pt_stopsig = 0;

  bool is_vfork_child = false;  // shares its parent's address space for now
  bool vfork_done = false;      // child of vfork has exec'd or exited

  std::vector<OpenFilePtr> fds;

  // Accounting (prusage), beside utime, stime, cutime and cstime above.
  uint64_t nsyscalls = 0;
  uint64_t nsignals = 0;
  uint64_t nfaults = 0;
  uint64_t ioch = 0;    // bytes read+written
  // Page-fault classes folded out of address spaces this process has shed
  // (exec replaces the AS; exit destroys it). The live totals the usage
  // interface reports are these bases plus the current AS's counters.
  uint64_t minflt_base = 0;  // satisfied without simulated I/O
  uint64_t majflt_base = 0;  // first touch of a file-backed page
  uint32_t umask = 022;
  uint64_t alarm_tick = 0;  // 0 = no alarm pending

  // Tick of the oldest outstanding stop directive; when the last lwp
  // reaches its stop the request->all-stopped wait feeds the stop_wait
  // histogram and this resets to 0.
  uint64_t stop_req_tick = 0;

  Lwp* MainLwp() {
    for (auto& l : lwps) {
      if (l->state != LwpState::kDead) {
        return l.get();
      }
    }
    return lwps.empty() ? nullptr : lwps.front().get();
  }

  bool AllLwpsStopped() const {
    bool any = false;
    for (const auto& l : lwps) {
      if (l->state == LwpState::kDead) {
        continue;
      }
      any = true;
      if (l->state != LwpState::kStopped) {
        return false;
      }
    }
    return any;
  }

  Lwp* FindLwp(int lwpid) {
    for (auto& l : lwps) {
      if (l->lwpid == lwpid && l->state != LwpState::kDead) {
        return l.get();
      }
    }
    return nullptr;
  }

  // The lwp whose stop the process-level interface reports: prefer one
  // stopped on an event of interest.
  Lwp* RepresentativeLwp() {
    Lwp* stopped = nullptr;
    for (auto& l : lwps) {
      if (l->state == LwpState::kDead) {
        continue;
      }
      if (l->state == LwpState::kStopped) {
        if (l->istop) {
          return l.get();
        }
        if (!stopped) {
          stopped = l.get();
        }
      }
    }
    return stopped ? stopped : MainLwp();
  }
};

// A process record stays compact: the per-process tables that most
// processes never touch (signal tables, audit ring, profiler) hang off it
// behind pointers, allocated on first use.
static_assert(sizeof(Proc) <= 1024, "a per-process table went inline in Proc");

// Heap-owned storage hanging off a Proc: the quantity zombie slimming
// releases at exit (signal tables, audit ring, descriptor table, lwp
// records). The scale suite asserts a slimmed zombie's footprint collapses
// to ~0 while the Proc record itself survives until reap.
inline size_t ProcDynamicFootprint(const Proc& p) {
  size_t n = 0;
  if (p.sig.tables != nullptr) {
    n += sizeof(*p.sig.tables);
  }
  if (p.trace.audit != nullptr) {
    n += sizeof(*p.trace.audit);
  }
  if (p.prof != nullptr) {
    n += sizeof(*p.prof) +
         p.prof->pc_hits.size() * (sizeof(uint32_t) + sizeof(uint64_t));
  }
  n += p.fds.capacity() * sizeof(OpenFilePtr);
  n += p.lwps.capacity() * sizeof(std::unique_ptr<Lwp>);
  n += p.lwps.size() * sizeof(Lwp);
  return n;
}

}  // namespace svr4

#endif  // SVR4PROC_KERNEL_PROCESS_H_
