// The simulated UNIX System V kernel.
//
// One Kernel instance is a complete system: a process table, a scheduler
// driven by Step()/RunUntil(), a virtual clock that advances one tick per
// executed instruction, signals with the full issig() stop logic of the
// paper's Figure 4, a VFS with memfs mounted at / and the process file
// systems at /proc (flat, ioctl-based) and /proc2 (hierarchical,
// read/write-based), and an in-kernel ptrace(2) as the competing mechanism.
//
// Two kinds of processes exist:
//  * simulated processes execute virtual-ISA programs under the scheduler;
//  * native processes (controllers: debuggers, ps, truss, tests) are driven
//    by host code calling the syscall-shaped methods below. Blocking calls
//    (Wait, PIOCWSTOP, Poll) pump the simulation until satisfied.
#ifndef SVR4PROC_KERNEL_KERNEL_H_
#define SVR4PROC_KERNEL_KERNEL_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "svr4proc/base/result.h"
#include "svr4proc/fs/dev.h"
#include "svr4proc/fs/vfs.h"
#include "svr4proc/isa/aout.h"
#include "svr4proc/kernel/faults.h"
#include "svr4proc/kernel/ktrace.h"
#include "svr4proc/kernel/process.h"
#include "svr4proc/kernel/smp.h"
#include "svr4proc/kernel/syscall.h"

namespace svr4 {

// Default poll(2) descriptor-count ceiling. Exceeding the configured cap
// (Kernel::SetPollMaxFds) is an EINVAL, never a silent truncation: dropped
// entries would simply never get their revents written back. The poll set
// itself is dynamically sized — the cap is policy, not a wired array.
inline constexpr uint32_t kPollDefaultMaxFds = 16384;

// Default per-process descriptor-table ceiling (EMFILE above it).
inline constexpr size_t kFdDefaultLimit = 256;

// Default pid-space size: pids live in [0, max_pid); allocation wraps and
// reuses reaped pids, guarded by a bitmap. Large enough for a 10^6-process
// population with headroom; SetMaxPid shrinks it for wraparound tests.
inline constexpr Pid kDefaultMaxPid = 1 << 21;

// Resume arguments for a stopped process (prrun_t semantics).
struct RunArgs {
  bool clear_sig = false;     // PRCSIG: clear the current signal
  bool clear_fault = false;   // PRCFAULT: clear the current fault
  bool set_trace = false;     // PRSTRACE: set the traced-signal set first
  SigSet trace;
  bool set_fault = false;     // PRSFAULT
  FltSet fault;
  bool set_hold = false;      // PRSHOLD
  SigSet hold;
  bool set_vaddr = false;     // PRSVADDR: resume at a specified address
  uint32_t vaddr = 0;
  bool step = false;          // PRSTEP: single-step (FLTTRACE after one instr)
  bool abort = false;         // PRSABORT: abort the system call (entry stop
                              // or stopped-while-asleep) with EINTR
  bool stop = false;          // PRSTOP: direct it to stop again at issig
};

// Cheap scheduler/execution counters (plain increments on existing paths).
struct KernelCounters {
  uint64_t instructions = 0;  // virtual-ISA instructions retired
  uint64_t timer_events = 0;  // alarms fired + timed sleeps woken
  uint64_t reaps = 0;         // zombies reaped into init off the reap list
  uint64_t quanta_interp = 0;  // quanta run under the kInterp pin
  uint64_t quanta_blocks = 0;  // quanta run by the block engine
};

// Which execution engine runs user code. The engine is all this selects:
// fault injection, chaos, tracing and the profiler hook the one quantum
// loop on cold paths, so arming them never changes the engine.
enum class ExecEngine {
  kAuto,    // the predecoded-block engine, stepping the interpreter where
            // no block applies (the default; SVR4PROC_EXEC_ENGINE=blocks)
  kInterp,  // pin the decode-dispatch interpreter
};

// ptrace(2) requests (the SVR4 set; no attach — controlling unrelated
// processes is exactly what /proc added).
enum PtReq : int {
  PT_TRACEME = 0,
  PT_PEEKTEXT = 1,
  PT_PEEKDATA = 2,
  PT_PEEKUSER = 3,
  PT_POKETEXT = 4,
  PT_POKEDATA = 5,
  PT_POKEUSER = 6,
  PT_CONT = 7,
  PT_KILL = 8,
  PT_STEP = 9,
};

class Kernel {
 public:
  Kernel();
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- System assembly -----------------------------------------------------
  Vfs& vfs() { return vfs_; }
  ConsoleVnode& console() { return *console_; }
  uint64_t Ticks() const { return ticks_; }
  const KernelCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = KernelCounters{}; }

  // Writes a regular file (creating directories as needed).
  Result<void> WriteFileAt(const std::string& path, std::span<const uint8_t> bytes,
                           uint32_t mode = 0644, Uid uid = 0, Gid gid = 0);
  // Serializes an a.out image into the file system.
  Result<void> InstallAout(const std::string& path, const Aout& image, uint32_t mode = 0755,
                           Uid uid = 0, Gid gid = 0);

  // --- Processes ------------------------------------------------------------
  // Creates a native controller process (debugger, ps, truss, a test).
  Proc* CreateNativeProc(const Creds& creds, std::string name);
  // Tears a native controller process down: every descriptor it holds is
  // closed (each vnode Close hook runs — /proc ledgers drain exactly as for
  // explicit closes) and the proc exits and is reaped on the next Step().
  // procd uses this when a remote peer's transport dies; the equivalence
  // "peer death == close of everything the peer held" is this one call.
  void DestroyNativeProc(Proc* p);
  // Creates a simulated process running the executable at `path`.
  // The new process is a child of `parent` (init if null).
  Result<Pid> Spawn(const std::string& path, const std::vector<std::string>& argv,
                    const Creds& creds, Proc* parent = nullptr);

  Proc* FindProc(Pid pid);
  std::vector<Pid> AllPids() const;
  Proc* init_proc() { return init_; }
  // Number of processes in the table (zombies included).
  size_t ProcCount() const { return nprocs_; }
  // Smallest allocated pid >= from (live or zombie); -1 when none. The
  // streaming /proc readdir cursors and the bulk-snapshot op iterate the
  // population with this: one bitmap word, then at most one summary word
  // per 4096 pids to skip to the next nonempty bitmap word.
  Pid NextAllocatedPid(Pid from) const;
  // Pid-space bound: allocation wraps within [0, max). Shrinking below pids
  // already in use is allowed (they stay valid until reaped); meant to be
  // set at system assembly time, e.g. tiny for wraparound tests.
  void SetMaxPid(Pid max);
  Pid max_pid() const { return max_pid_; }

  // poll(2) descriptor-count cap (EINVAL above it); default
  // kPollDefaultMaxFds. Dynamically sized sets make large monitors
  // practical; the old wired 64 is still available to tests via this knob.
  void SetPollMaxFds(uint32_t n) { poll_max_fds_ = n; }
  uint32_t poll_max_fds() const { return poll_max_fds_; }
  // Per-process descriptor-table cap (EMFILE above it); default
  // kFdDefaultLimit. Raised by monitors holding one descriptor per process.
  void SetFdLimit(size_t n) { fd_limit_ = n; }
  size_t fd_limit() const { return fd_limit_; }

  // --- Syscall-shaped interface for native processes ------------------------
  Result<int> Open(Proc* p, const std::string& path, int oflags, uint32_t mode = 0644);
  Result<void> Close(Proc* p, int fd);
  Result<int64_t> Read(Proc* p, int fd, void* buf, uint64_t n);
  Result<int64_t> Write(Proc* p, int fd, const void* buf, uint64_t n);
  Result<int64_t> Lseek(Proc* p, int fd, int64_t off, int whence);
  Result<int32_t> Ioctl(Proc* p, int fd, uint32_t op, void* arg);
  Result<std::vector<DirEnt>> ReadDir(Proc* p, const std::string& path);
  // Chunked directory read (Vnode::ReaddirChunk): appends at most `max`
  // entries to `out` and advances `*cookie`; returns the count appended, 0
  // at end-of-directory. O(chunk) even on a /proc root over 10^6 processes.
  Result<size_t> ReadDirChunk(Proc* p, const std::string& path, uint64_t* cookie,
                              size_t max, std::vector<DirEnt>* out);
  Result<VAttr> Stat(Proc* p, const std::string& path);
  Result<int> PollFds(Proc* p, std::span<PollFd> fds, int64_t timeout_ticks);
  // The poll level rule, shared by every waiter (PollFds, poll(2), procd's
  // kPoll and its subscriptions): sets each entry's revents from p's
  // descriptor table now and returns how many are nonzero. A bad fd reads
  // POLLNVAL; only POLLERR/POLLHUP/POLLNVAL are reported unrequested.
  int PollLevels(Proc* p, std::span<PollFd> fds);
  // Blocking wait for a child transition; pumps the simulation.
  Result<WaitResult> Wait(Proc* p, Pid pid = -1, bool nohang = false);
  Result<void> Kill(Proc* sender, Pid pid, int sig);
  Result<int64_t> Ptrace(Proc* caller, int req, Pid pid, uint32_t addr, uint32_t data);

  // --- Process-control primitives (used by both /proc implementations) ------
  // Directs the process to stop; takes effect at the next issig() or
  // immediately if it is sleeping interruptibly.
  Result<void> PrStop(Proc* target);
  // True when stopped on an event of interest.
  bool PrIsStopped(const Proc* target) const;
  // Pumps the simulation until the target stops (or exits: ENOENT; or the
  // simulation goes idle first: EDEADLK).
  Result<void> PrWaitStop(Proc* target);
  // The stop-wait rule PrWaitStop pumps on, evaluated once: Ok when an lwp
  // of `pid` has stopped, ENOENT once the process is gone or a zombie, else
  // EDEADLK if the simulation is `idle` and EAGAIN while the wait goes on.
  // procd evaluates it for its parked peers.
  Result<void> PrStopWaitCheck(Pid pid, bool idle);
  // Makes a stopped process runnable, applying RunArgs. EBUSY if it is not
  // stopped on an event of interest (e.g. a job-control stop, which only
  // SIGCONT can resume, or a stop owned by ptrace — "/proc gets the last
  // word" works the other way around too).
  Result<void> PrRun(Proc* target, const RunArgs& args);
  // Per-lwp variants used by the hierarchical interface's lwp directories.
  Result<void> PrRunLwp(Lwp* lwp, const RunArgs& args);
  Result<void> PrStopLwp(Lwp* lwp);
  // Sends/clears a signal directly (PIOCKILL / PIOCUNKILL / PIOCSSIG).
  Result<void> PrKill(Proc* target, int sig);
  Result<void> PrUnkill(Proc* target, int sig);
  Result<void> PrSetSig(Proc* target, int sig, const SigInfo& info);

  // Posts a signal from kernel context (faults, alarms, SIGCLD).
  void PostSignal(Proc* target, int sig, const SigInfo& info);

  // --- The /proc open ledger (TraceState's open counts and excl) ------------
  // Every counted /proc file — flat, /proc2 per-process and lwp — opens,
  // validates, polls and closes its descriptors through these, so the
  // paper's rules (O_EXCL, run-on-last-close, invalidation by a set-id
  // exec) hold for all of them alike. The counted file's Open (one vnode
  // class serves them all, src/procfs/flat.cc) has already checked the open
  // permission and the access its row allows.
  //
  // Counts `of` in the target's ledger and stamps it with the target's
  // generation and ident and the opener's pid and ident (opener may be
  // null). EBUSY for a writer while an exclusive holder exists, or for
  // O_EXCL while any writer does.
  Result<void> PrLedgerOpen(OpenFile& of, Proc* target, Proc* opener);
  // The last reference to `of` closed. Inert once `pid` is reaped or
  // reused; otherwise emits PROC_CLOSE, releases the descriptor's counts
  // (from the stale ledger if a set-id exec invalidated it) and runs
  // run-on-last-close when the last writer is gone.
  void PrLedgerClose(const OpenFile& of, Pid pid);
  // The process `of` names: ENOENT once it is gone (its pid free or
  // reused), EACCES once a set-id exec invalidated the descriptor.
  Result<Proc*> PrLedgerTarget(const OpenFile& of, Pid pid);
  // poll(2) level of `of`: POLLNVAL when it no longer validates, POLLHUP
  // on a zombie, POLLPRI while stopped on an event of interest.
  int PrLedgerPoll(const OpenFile& of, Pid pid);
  // The process that opened `of`, or null once it is gone.
  Proc* PrLedgerOpener(const OpenFile& of);

  // --- Fault injection & chaos (faults.cc) ----------------------------------
  // Arms (or replaces) the fault plan; the injector pointer is propagated to
  // every live address space and the vfs so their sites fire too. With no
  // plan set every site is one branch on a null pointer.
  void SetFaultPlan(const FaultPlan& plan);
  void ClearFaultPlan();
  FaultInjector* fault_injector() { return finj_.get(); }
  // Seeded chaos scheduling: PRNG-driven choice among runnable lwps plus
  // forced preemption at syscall entry/exit stop points.
  void SetChaosScheduler(uint64_t seed);
  void ClearChaosScheduler();
  bool ChaosSchedulerEnabled() const { return chaos_; }
  // Checks kernel-wide structural invariants (open-count balance and
  // conservation, exclusive-holder consistency, audit-ring monotonicity,
  // scheduler and sleep coherence). Returns one string per violation; empty
  // means consistent. Cheap enough to call after every tick.
  std::vector<std::string> CheckInvariants();

  // --- Tracing & metrics (ktrace.h) -----------------------------------------
  // The global event ring and metrics registry, served through
  // /proc2/kernel/{trace,metrics}, /proc2/<pid>/trace, and PIOCKSTAT.
  // Disarmed by default; every emission site is one predicted branch then.
  KTrace& ktrace() { return kt_; }
  const KTrace& ktrace() const { return kt_; }
  void SetTracing(bool ring, bool metrics) {
    kt_.EnableRing(ring);
    kt_.EnableMetrics(metrics);
  }

  // --- Sampling profiler (PIOCPROF, /proc2/<pid>/prof) ----------------------
  // Arms (period_log2 >= 0, samples every 2^period_log2 retired
  // instructions) or disarms (period_log2 < 0) the deterministic pc sampler
  // on one process. Arming resets the accumulated buckets; disarming keeps
  // them readable. While prof_armed() is zero the user step never looks at
  // a process's profiler state.
  Result<void> SetProfiling(Proc* p, int period_log2);
  int prof_armed() const { return prof_armed_; }
  // /proc2/<pid>/prof rendering: folded-stack text, one
  // "<name>;0x<pc> <count>" line per bucket, flamegraph.pl-consumable.
  std::string ProfText(const Proc& p) const;

  // --- procd stats hook ------------------------------------------------------
  // A running ProcdServer registers its stats renderer here so
  // /proc2/kernel/procd can serve daemon span data through the filesystem
  // like every other kernel metric. Null (the default) reads as "procd off".
  void SetProcdStatsProvider(std::function<std::string()> fn) {
    procd_stats_ = std::move(fn);
  }
  const std::function<std::string()>& procd_stats_provider() const {
    return procd_stats_;
  }
  // A running ProcdServer also registers a hook the kernel calls with a pid
  // wherever a /proc poll level of that process can move: stop, resume,
  // exit, reap, the set-id exec that invalidates descriptors, and an exec
  // that kills a stopped lwp. procd re-polls only the subscriptions on pids
  // it was told about, so a level change with no call here is never pushed.
  void SetProcdPollHook(std::function<void(Pid)> fn) { procd_poll_hook_ = std::move(fn); }

  // --- Execution engine (isa/blocks.h) --------------------------------------
  // Engine selection for every quantum. The constructor honors the
  // SVR4PROC_EXEC_ENGINE environment variable ("interp", or "blocks" for
  // kAuto) so tests, benches, and CI sweeps can pin an engine without code
  // changes.
  void SetExecEngine(ExecEngine e) { exec_engine_ = e; }
  ExecEngine exec_engine() const { return exec_engine_; }
  // Block-cache counters and allocated slots aggregated over all live
  // address spaces, rendered in /proc2/kernel/metrics format (one
  // "name value" line each).
  std::string ExecEngineMetricsText() const;

  // --- Simulated SMP (kernel/smp.h) ------------------------------------------
  // Number of simulated CPUs, default 1 (bit-identical to the uniprocessor
  // kernel). Runnable lwps are redistributed round-robin over the new CPU
  // set; live address spaces get one TLB bank per CPU. The constructor
  // honors SVR4PROC_NCPUS and SVR4PROC_SMP_MODE ("det"/"free") so CI sweeps
  // can pin a topology without code changes. Clamped to [1, kMaxCpus].
  void SetNumCpus(int n);
  int ncpus() const { return smp_.ncpus(); }
  // Deterministic round-robin stepping (default) vs free-running
  // std::thread workers. Free-running only engages with ncpus > 1 and no
  // observation hooks armed; otherwise Step() takes the deterministic path.
  void SetSmpMode(SmpMode m) { smp_.set_mode(m); }
  SmpMode smp_mode() const { return smp_.mode(); }
  SmpState& smp() { return smp_; }
  const SmpState& smp() const { return smp_; }
  // Per-CPU stats rendered for /proc2/kernel/cpus.
  std::string CpuStatsText() const;

  // --- Simulation control ----------------------------------------------------
  // Executes one scheduling quantum. Returns false when nothing can run
  // (no runnable lwps and no timed sleepers).
  bool Step();
  // Pumps until pred() holds; false if the system went idle or the step
  // budget was exhausted first.
  bool RunUntil(const std::function<bool()>& pred, uint64_t max_steps = 200'000'000);
  // Runs until the process exits; returns its wait status.
  Result<int> RunToExit(Pid pid, uint64_t max_steps = 200'000'000);

  // Internal hooks shared with procfs (part of the kernel proper: "/proc is
  // an unconventional file system and not an add-on").
  void Wakeup(const void* chan);
  uint64_t NextProcGen() { return ++gen_counter_; }
  // Descriptor-table access for procfs (PIOCOPENM installs a descriptor in
  // the calling process).
  Result<int> FdAlloc(Proc* p, OpenFilePtr of);
  Result<OpenFilePtr> FdGet(Proc* p, int fd);

  // --- The system-call table (syscall_table.cc) ------------------------------
  // What a call's handler returns: a value for r0 (and r1), an errno with
  // the carry flag, or a sleep to retry the call from.
  struct SysResult {
    enum Kind { kDone, kError, kBlock } kind = kDone;
    uint32_t rv0 = 0;
    uint32_t rv1 = 0;
    bool has_rv1 = false;   // also store rv1 into r1
    bool no_regs = false;   // do not touch registers at all (sigreturn, exec)
    Errno err = Errno::kEINVAL;
    SleepSpec sleep;

    static SysResult Ok(uint32_t a = 0) { return {kDone, a, 0, false, false, Errno::kOk, {}}; }
    static SysResult Ok2(uint32_t a, uint32_t b) {
      return {kDone, a, b, true, false, Errno::kOk, {}};
    }
    static SysResult OkNoRegs() { return {kDone, 0, 0, false, true, Errno::kOk, {}}; }
    static SysResult Fail(Errno e) { return {kError, 0, 0, false, false, e, {}}; }
    static SysResult Block(SleepSpec s) {
      return {kBlock, 0, 0, false, false, Errno::kOk, s};
    }
    // A native call's result as a call's: its value (0 for none) or errno.
    static SysResult From(const Result<void>& r) { return r.ok() ? Ok() : Fail(r.error()); }
    template <typename T>
    static SysResult From(const Result<T>& r) {
      return r.ok() ? Ok(static_cast<uint32_t>(*r)) : Fail(r.error());
    }
  };
  // One row per system call: its number, name, arity and handler, in number
  // order. Dispatch and the syscall.h lookups (SyscallName, SyscallByName,
  // SyscallNargs, DefineSyscallSymbols) read these rows and nothing else. A
  // row without a handler, like a number without a row, answers ENOSYS.
  struct SysEntry {
    int num;
    std::string_view name;
    int nargs;
    SysResult (*handler)(Kernel&, Lwp*);
  };
  static const SysEntry kSysTable[];

 private:
  friend class KernelTestPeer;

  // Scheduling. Every CPU owns a run queue; PickNextOn serves the given
  // CPU's cursor, stealing a runnable lwp from a seeded-random nonempty
  // victim queue when its own has drained. The chaos scheduler draws the
  // CPU too (only when ncpus > 1, so uniprocessor chaos streams replay
  // unchanged).
  Lwp* PickNextOn(int cpu);
  Lwp* StealFor(int thief);
  Lwp* PickNextChaos(int* cpu_out);
  uint64_t ChaosNext();
  size_t RunqLenTotal() const;
  // One deterministic quantum on `cpu`: IPI acknowledge, SCHED_SWITCH
  // attribution, TLB-bank bind, execute, per-CPU accounting. A positive
  // budget_override replaces the nice-weighted quantum (the free-running
  // super-step uses it to give serial picks the same chunk as workers).
  void RunQuantumOn(int cpu, Lwp* lwp, int budget_override = 0);
  // Free-running super-step: picks up to ncpus lwps, runs pure user
  // execution on worker threads, folds results and does kernel work
  // serially (kernel.cc has the phase breakdown).
  bool StepFreeRun();
  // The user step, for a deterministic quantum and a free-running worker
  // alike: runs lwp's user code until a trap or `budget` instructions, from
  // the block cache unless kInterp is pinned, else one CpuStep at a time.
  // ExecuteBlock chains from block to block through the cache and returns
  // here only on a trap, at the end of the budget, at a block it must
  // build (Get fills it), or for a pending IPI; with the profiler armed it
  // runs one block per call, so each block charges its entry pc. Touches no
  // kernel state except the armed profiler's buckets; returns instructions
  // retired and the terminating event. A worker passes its CPU's IPI
  // counter and yields at the next block boundary once an IPI is pending.
  uint32_t RunUserChunk(Lwp* lwp, uint32_t budget, StepResult* last,
                        const std::atomic<uint64_t>* ipi = nullptr);
  // Charges a user run to the clock and lwp, then takes the trap that ended
  // it. A null lwp (a free-running pick reaped before its fold) still
  // charges the clock.
  void FoldUserRun(Lwp* lwp, uint32_t executed, const StepResult& last);
  // Per-CPU quantum, switch and engine counts for one quantum or chunk.
  void CountQuantum(CpuState& c, Pid pid, int lwpid);
  // The quantum loop: event checks, user steps, folds and traps until the
  // budget runs out or the lwp stops running.
  void ExecuteLwp(Lwp* lwp, int budget);
  // Drops a dying process's profiler state, keeping prof_armed_ honest.
  void ReleaseProf(Proc* p);

  // O(1)-amortized timer bookkeeping: every timed sleep and alarm pushes a
  // TimerEvent; entries are validated lazily against current process/lwp
  // state when popped, so cancellation and re-arming cost nothing.
  struct TimerEvent {
    uint64_t tick = 0;
    Pid pid = 0;
    int lwpid = 0;  // 0: process alarm; else a timed lwp sleep
    bool operator>(const TimerEvent& o) const { return tick > o.tick; }
  };
  void ArmAlarm(Proc* p);
  void ArmSleepTimer(Lwp* lwp);
  // Fires every due timer (alarm signals, timed wakeups).
  void FireDueTimers();
  // Earliest tick with a live timer, discarding stale entries; 0 if none.
  uint64_t NextTimerTick();

  // Event-driven zombie reaping: ExitProc marks processes whose zombie will
  // never be waited for (parent is init or gone); Step() drains the list.
  void MarkReapable(Pid pid);
  void DrainReapList();
  // Zombie slimming: ExitProc queues the pid; the next Step() releases the
  // zombie's audit ring, descriptor table, and lwp storage. Deferred one
  // step because quantum frames and blocking control handlers may still
  // hold Lwp pointers across the exit.
  void DrainZombieSlim();

  // Signals & stops (issig/psig per Figure 4).
  bool NeedIssig(Lwp* lwp) const;
  // Returns true if a signal should be delivered (psig). May stop the lwp,
  // in which case it returns false and will be re-entered on resume.
  bool Issig(Lwp* lwp);
  void Psig(Lwp* lwp);
  void StopLwp(Lwp* lwp, uint16_t why, uint16_t what, bool istop);
  void ResumeLwp(Lwp* lwp);
  void JobControlStop(Proc* p, int sig);
  void JobControlCont(Proc* p);
  int PromoteSignal(Proc* p);

  // The last-close actions PrLedgerClose runs when the last writer goes:
  // clear exclusivity and, with run-on-last-close set, the tracing flags,
  // then resume the target.
  void PrLastClose(Proc* target);

  // Syscall path.
  void SyscallTrap(Lwp* lwp);
  void ContinueSyscall(Lwp* lwp);
  SysResult Dispatch(Lwp* lwp);
  void FinishSyscall(Lwp* lwp, const SysResult& r);

  // Fault path.
  void HandleFault(Lwp* lwp, int fault, uint32_t addr);
  void ConvertFaultToSignal(Lwp* lwp, int fault, uint32_t addr);

  // Process table: sharded pid hash + intrusive all-procs list + bitmap pid
  // allocator (FreeBSD-style). Procs are owned raw pointers threaded on
  // their intrusive links; FreeProc unlinks everything and deletes.
  Pid AllocPid();                 // -1 when the pid space is exhausted
  void PidHashInsert(Proc* p);
  void PidHashRemove(Proc* p);
  void ChildLink(Proc* parent, Proc* child);    // append to children tail
  void ChildUnlink(Proc* child);
  void FreeProc(Proc* p);        // unlink from every structure and delete

  // Scheduler queues. LwpSetState is the single owner of Lwp::state: it
  // dequeues from whichever list the lwp is on and enqueues per the new
  // state (run queue if kRunning and schedulable, sleep bucket if kSleeping
  // with a channel). EnrollLwp enqueues a newly created lwp, whose default
  // state is kRunning without ever having transitioned.
  void LwpSetState(Lwp* l, LwpState ns);
  void EnrollLwp(Lwp* l);
  void RunqInsert(Lwp* l);
  void RunqRemove(Lwp* l);
  void SleepqInsert(Lwp* l);
  void SleepqRemove(Lwp* l);
  static size_t SleepBucket(const void* chan);

  // Process lifecycle.
  Proc* AllocProc(const std::string& name, const Creds& creds, Proc* parent);
  void ExitProc(Proc* p, int wstatus);
  void DumpCore(Proc* p, int sig);
  void ReapZombie(Proc* zombie, Proc* parent);
  Result<void> ExecImage(Proc* p, const std::string& path,
                         const std::vector<std::string>& argv);
  Result<Pid> ForkCommon(Lwp* parent_lwp, bool vfork);
  // Non-blocking wait scan; fills out and returns true when a child event
  // is available. Sets *any_children.
  bool WaitScan(Proc* parent, Pid filter, WaitResult* out, bool* any_children);

  // Descriptor helpers (shared by native API and VCPU syscalls).
  void FdCloseAll(Proc* p);
  void FdRelease(OpenFilePtr of);
  Result<int> OpenCommon(Proc* p, const std::string& path, int oflags, uint32_t mode);
  Result<int64_t> ReadCommon(Proc* p, OpenFile& of, std::span<uint8_t> buf);
  Result<int64_t> WriteCommon(Proc* p, OpenFile& of, std::span<const uint8_t> buf);

  // The handlers longer than a table row (syscalls.cc).
  SysResult SysFork(Lwp*, bool vfork);
  SysResult SysRead(Lwp*);
  SysResult SysWrite(Lwp*);
  SysResult SysOpen(Lwp*);
  SysResult SysWait(Lwp*);
  SysResult SysExec(Lwp*);
  SysResult SysPipe(Lwp*);
  SysResult SysDup(Lwp*);
  SysResult SysSigaction(Lwp*);
  SysResult SysSigprocmask(Lwp*);
  SysResult SysSigsuspend(Lwp*);
  SysResult SysSigreturn(Lwp*);
  SysResult SysSigpending(Lwp*);
  SysResult SysMmap(Lwp*);
  SysResult SysSleep(Lwp*);
  SysResult SysAlarm(Lwp*);
  SysResult SysLwpCreate(Lwp*);
  SysResult SysLwpExit(Lwp*);
  SysResult SysUnlink(Lwp*);
  SysResult SysPoll(Lwp*);

  // Wait channel for poll-style sleeps, woken on any event that could
  // change poll results (stops, exits, pipe traffic).
  static const void* PollChan();
  // The pipe rule. Both ends of a pipe sleep on one channel, its PipeBuf,
  // which PipeChan names (null for any other file): a read of an empty pipe
  // and a write to a full one block there. Each transfer through a pipe and
  // the last close of either end can unblock the other end, so ReadCommon,
  // WriteCommon and FdRelease call WakePipe, which wakes that channel and
  // the poll channel.
  static const void* PipeChan(const OpenFile& of);
  void WakePipe(const OpenFile& of);

  // User-memory copy helpers for VCPU syscalls.
  Result<std::string> CopyinStr(Proc* p, uint32_t va, uint32_t max = 1024);
  Result<void> Copyin(Proc* p, uint32_t va, void* buf, uint32_t n);
  Result<void> Copyout(Proc* p, uint32_t va, const void* buf, uint32_t n);

  Vfs vfs_;
  std::shared_ptr<ConsoleVnode> console_;

  // The process table. Lookup is a power-of-two pid hash chained through
  // Proc::pt_hash_next (doubled when the population outgrows the buckets);
  // enumeration is the intrusive all-procs list (insertion order) or the
  // allocation bitmap (pid order); ownership is raw — FreeProc deletes.
  std::vector<Proc*> pid_hash_;
  Proc* all_head_ = nullptr;
  Proc* all_tail_ = nullptr;
  size_t nprocs_ = 0;
  // Pid allocation: bit set = pid in use (live or zombie). The cursor scans
  // forward from the last allocation and wraps at max_pid_, so freed pids
  // are reused only after the space has been traversed once — held stale
  // /proc descriptors get the longest possible grace period.
  std::vector<uint64_t> pid_bitmap_;
  // One bit per pid_bitmap_ word, set iff that word is nonzero: AllocPid
  // sets it, FreeProc clears it when the word empties, SetMaxPid grows it
  // with the bitmap, and CheckInvariants compares it with the bitmap.
  std::vector<uint64_t> pid_summary_;
  Pid max_pid_ = kDefaultMaxPid;
  Pid next_pid_ = 0;  // allocation cursor, not a high-water mark

  uint64_t ticks_ = 0;
  uint64_t gen_counter_ = 1;
  Proc* init_ = nullptr;

  // The run queues live in the per-CPU state (SmpState): one circular
  // doubly-linked list of runnable lwps per CPU, threaded on
  // Lwp::q_prev/q_next with Lwp::cpu naming the owning queue. At the
  // default ncpus == 1 this is exactly the old single queue. cur_cpu_rr_
  // rotates dispatch over the CPUs; cur_cpu_ is the CPU the kernel is
  // currently executing a quantum for (0 in controller context) — trace
  // records and shootdowns read it through pointers.
  SmpState smp_;
  int cur_cpu_ = 0;
  int cur_cpu_rr_ = 0;
  uint64_t enroll_seq_ = 0;  // round-robin home-CPU assignment for new lwps
  SmpWorkers workers_;       // free-running mode's persistent thread pool
  // Sleeping lwps with a wait channel, hashed by channel so Wakeup(chan)
  // walks one bucket instead of every process. Purely timed sleeps
  // (chan == nullptr) are not enqueued; only FireDueTimers wakes them.
  static constexpr size_t kSleepBuckets = 512;  // power of two
  std::array<Lwp*, kSleepBuckets> sleepq_{};

  // Configurable caps (see SetPollMaxFds / SetFdLimit).
  uint32_t poll_max_fds_ = kPollDefaultMaxFds;
  size_t fd_limit_ = kFdDefaultLimit;

  // Pending wakeups/alarms (min-heap by tick) and zombies awaiting reap.
  std::priority_queue<TimerEvent, std::vector<TimerEvent>, std::greater<TimerEvent>> timerq_;
  std::vector<Pid> reap_list_;
  std::vector<Pid> slim_list_;  // zombies awaiting storage release
  KernelCounters counters_;

  // Execution-engine selection (see SetExecEngine).
  ExecEngine exec_engine_ = ExecEngine::kAuto;

  // Fault injection and chaos scheduling; both off by default.
  std::unique_ptr<FaultInjector> finj_;
  bool chaos_ = false;
  uint64_t chaos_rng_ = 0;
  // Last observed audit_total per process, for the monotonicity invariant.
  // Keyed by birth identity, not pid: a recycled pid is a new process whose
  // audit history starts from zero.
  std::unordered_map<uint64_t, uint64_t> audit_watermark_;

  // Event-trace ring + metrics registry (reads ticks_ and the executing
  // CPU through pointers so every layer can emit without seeing the
  // kernel). Per-CPU SCHED_SWITCH attribution lives in CpuState.
  KTrace kt_{&ticks_, &cur_cpu_};

  // Count of live processes with the sampling profiler armed; the user
  // step's sampling gate and Step()'s free-run gate read it.
  int prof_armed_ = 0;

  // Stats renderer registered by a running ProcdServer (see
  // SetProcdStatsProvider); /proc2/kernel/procd reads through it.
  std::function<std::string()> procd_stats_;
  // Poll-level hook (SetProcdPollHook). Callers go through
  // ProcPollLevelMoved, which stays out of line so the stop/resume paths
  // carry one call, not an inlined std::function invocation.
  std::function<void(Pid)> procd_poll_hook_;
  [[gnu::noinline]] void ProcPollLevelMoved(Pid pid);

  static constexpr int kQuantum = 64;
};

}  // namespace svr4

#endif  // SVR4PROC_KERNEL_KERNEL_H_
