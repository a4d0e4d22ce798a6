// Tests for the deterministic SMP model: per-CPU run queues with work
// stealing, round-robin CPU stepping, cross-CPU TLB/code shootdown IPIs,
// the free-running mode, and the /proc faces of the topology
// (/proc2/kernel/cpus, pr_cpuid). The determinism contract under test:
// ncpus=1 is bit-identical to the uniprocessor kernel, and any fixed
// (ncpus, seed) pair replays exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "svr4proc/kernel/faults.h"
#include "svr4proc/kernel/ktrace.h"
#include "svr4proc/kernel/smp.h"
#include "svr4proc/tools/debugger.h"
#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/sim.h"

namespace svr4 {
namespace {

constexpr char kSpinForever[] = R"(
spin: addi r8, 1
      jmp spin
)";

// Counts to a bound, writes a marker, exits: enough instructions that a
// multi-CPU run spreads quanta around, bounded so RunToExit terminates.
constexpr char kCountAndExit[] = R"(
      ldi r8, 0
loop: addi r8, 1
      cmpi r8, 3000
      jlt loop
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, msg
      ldi r3, 5
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
      .data
msg:  .asciz "done\n"
)";

// Fork/exit churn: twelve generations of fork + wait. Steal-vs-wakeup
// bookkeeping has to survive lwps being enrolled, stolen, and torn down
// while other CPUs keep running.
constexpr char kForkChurn[] = R"(
      ldi r9, 0
again:
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
      ldi r0, SYS_wait
      sys
      addi r9, 1
      cmpi r9, 12
      jlt again
      ldi r0, SYS_exit
      ldi r1, 0
      sys
child:
      ldi r0, SYS_exit
      ldi r1, 0
      sys
)";

// Forks three spinning children, then SIGKILLs and waits for each in turn.
// In a free-running super-step a child with the kill pending is a serial
// pick and dies in its quantum, while the parent's wait, trapped later in
// the same fold, reaps it: the fold must not touch the reaped child's pick.
constexpr char kKillAndReap[] = R"(
      ldi r9, 0
spawn:
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
      push r0
      addi r9, 1
      cmpi r9, 3
      jlt spawn
reap:
      pop r8
      ldi r0, SYS_kill
      mov r1, r8
      ldi r2, SIGKILL
      sys
      ldi r0, SYS_wait
      sys
      addi r9, -1
      cmpi r9, 0
      jgt reap
      ldi r0, SYS_exit
      ldi r1, 0
      sys
child:
spin: addi r8, 1
      jmp spin
)";

// Makes its text writable, then patches a byte of it on every lap: each
// store bumps the code generation and shoots down the address space.
constexpr char kPatchOwnText[] = R"(
      ldi r0, SYS_mprotect
      ldi r1, top
      ldi r2, 0xFFFFF000
      and r1, r2
      ldi r2, 4096
      ldi r3, 7           ; READ|WRITE|EXEC
      sys
      ldi r9, 0
top:  addi r9, 1
      ldi r4, tgt+2       ; low byte of the ldi immediate below
      stb r9, [r4]
      jmp tgt
tgt:  ldi r6, 0
      add r8, r6
      jmp top
)";

void ExpectInvariantsClean(Kernel& k, const char* where) {
  auto violations = k.CheckInvariants();
  for (const auto& v : violations) {
    ADD_FAILURE() << where << ": invariant violated: " << v;
  }
}

// Runs until `pid` has exited (zombie or already reaped) — unlike
// RunToExit, tolerant of init having reaped the child meanwhile.
void DrainPid(Kernel& k, Pid pid) {
  bool done = k.RunUntil(
      [&] {
        Proc* p = k.FindProc(pid);
        return p == nullptr || p->state == Proc::State::kZombie;
      },
      2'000'000);
  EXPECT_TRUE(done) << "pid " << pid << " never exited";
}

uint64_t TotalSteals(const Kernel& k) {
  uint64_t n = 0;
  for (int i = 0; i < k.smp().ncpus(); ++i) {
    n += k.smp().cpu(i).stats.steals;
  }
  return n;
}

// Counts kIpi records in the kernel's trace ring.
uint64_t IpiRecordCount(Kernel& k) {
  auto snap = k.ktrace().Snapshot();
  if (snap.size() < sizeof(KtSnapHeader)) {
    return 0;
  }
  KtSnapHeader h;
  std::memcpy(&h, snap.data(), sizeof(h));
  uint64_t n = 0;
  for (uint32_t i = 0; i < h.kt_nrec; ++i) {
    KtRec r;
    std::memcpy(&r, snap.data() + sizeof(h) + i * sizeof(r), sizeof(r));
    if (r.kt_event == static_cast<uint32_t>(KtEvent::kIpi)) {
      ++n;
    }
  }
  return n;
}

std::string ReadWholeFile(Sim& sim, const std::string& path) {
  auto fd = sim.kernel().Open(sim.controller(), path, O_RDONLY);
  EXPECT_TRUE(fd.ok());
  if (!fd.ok()) {
    return {};
  }
  std::string out;
  char buf[512];
  for (;;) {
    auto n = sim.kernel().Read(sim.controller(), *fd, buf, sizeof(buf));
    EXPECT_TRUE(n.ok());
    if (!n.ok() || *n == 0) {
      break;
    }
    out.append(buf, static_cast<size_t>(*n));
  }
  (void)sim.kernel().Close(sim.controller(), *fd);
  return out;
}

// ---------------------------------------------------------------------------
// ncpus=1 is the uniprocessor kernel, bit for bit.
// ---------------------------------------------------------------------------

// Save/clear the SMP env knobs for the duration of a test: the point of
// the identity test is the *default* topology, which CI jobs override.
struct ScopedDefaultSmpEnv {
  std::string ncpus, mode;
  bool had_ncpus, had_mode;
  ScopedDefaultSmpEnv() {
    const char* n = std::getenv("SVR4PROC_NCPUS");
    const char* m = std::getenv("SVR4PROC_SMP_MODE");
    had_ncpus = n != nullptr;
    had_mode = m != nullptr;
    ncpus = n != nullptr ? n : "";
    mode = m != nullptr ? m : "";
    unsetenv("SVR4PROC_NCPUS");
    unsetenv("SVR4PROC_SMP_MODE");
  }
  ~ScopedDefaultSmpEnv() {
    if (had_ncpus) setenv("SVR4PROC_NCPUS", ncpus.c_str(), 1);
    if (had_mode) setenv("SVR4PROC_SMP_MODE", mode.c_str(), 1);
  }
};

TEST(Smp, SingleCpuIsByteIdenticalToDefault) {
  // Run the same traced workload on a default kernel and on one where the
  // SMP plumbing was explicitly engaged at ncpus=1. Everything observable —
  // console bytes, tick count, the full trace ring — must be identical:
  // CPU 0's queue IS the old machinery, not a copy of it.
  ScopedDefaultSmpEnv env_guard;
  std::string console[2];
  uint64_t ticks[2];
  std::vector<uint8_t> snap[2];
  for (int run = 0; run < 2; ++run) {
    Sim sim;
    if (run == 1) {
      sim.kernel().SetNumCpus(1);
      sim.kernel().SetSmpMode(SmpMode::kDeterministic);
    }
    sim.kernel().SetTracing(true, true);
    ASSERT_TRUE(sim.InstallProgram("/bin/churn", kForkChurn).ok());
    auto pid = sim.Start("/bin/churn");
    ASSERT_TRUE(pid.ok());
    auto st = sim.kernel().RunToExit(*pid);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(WExitCode(*st), 0);
    console[run] = sim.ConsoleOutput();
    ticks[run] = sim.kernel().Ticks();
    snap[run] = sim.kernel().ktrace().Snapshot();
    ExpectInvariantsClean(sim.kernel(), "single-cpu");
  }
  EXPECT_EQ(console[0], console[1]);
  EXPECT_EQ(ticks[0], ticks[1]);
  EXPECT_EQ(snap[0], snap[1]) << "trace rings diverged";
}

// ---------------------------------------------------------------------------
// A fixed (ncpus, seed) pair replays exactly.
// ---------------------------------------------------------------------------

TEST(Smp, FourCpuDeterministicReplay) {
  for (bool chaos : {false, true}) {
    std::string console[2];
    uint64_t ticks[2];
    std::vector<uint8_t> snap[2];
    for (int run = 0; run < 2; ++run) {
      Sim sim;
      sim.kernel().SetNumCpus(4);
      sim.kernel().SetTracing(true, true);
      if (chaos) {
        sim.kernel().SetChaosScheduler(7);
      }
      ASSERT_TRUE(sim.InstallProgram("/bin/churn", kForkChurn).ok());
      ASSERT_TRUE(sim.InstallProgram("/bin/count", kCountAndExit).ok());
      auto a = sim.Start("/bin/churn");
      auto b = sim.Start("/bin/count");
      auto c = sim.Start("/bin/count");
      ASSERT_TRUE(a.ok() && b.ok() && c.ok());
      DrainPid(sim.kernel(), *a);
      DrainPid(sim.kernel(), *b);
      DrainPid(sim.kernel(), *c);
      console[run] = sim.ConsoleOutput();
      ticks[run] = sim.kernel().Ticks();
      snap[run] = sim.kernel().ktrace().Snapshot();
      ExpectInvariantsClean(sim.kernel(), chaos ? "4cpu-chaos" : "4cpu");
    }
    EXPECT_EQ(console[0], console[1]) << "chaos=" << chaos;
    EXPECT_EQ(ticks[0], ticks[1]) << "chaos=" << chaos;
    EXPECT_EQ(snap[0], snap[1]) << "trace rings diverged, chaos=" << chaos;
  }
}

// ---------------------------------------------------------------------------
// Cross-CPU stop: a directed stop against an lwp homed on another CPU is
// modeled as a rescheduling IPI.
// ---------------------------------------------------------------------------

TEST(Smp, CrossCpuStopSendsIpi) {
  Sim sim;
  Kernel& k = sim.kernel();
  k.SetNumCpus(4);
  ASSERT_TRUE(sim.InstallProgram("/bin/spin", kSpinForever).ok());
  std::vector<Pid> pids;
  for (int i = 0; i < 4; ++i) {
    auto pid = sim.Start("/bin/spin");
    ASSERT_TRUE(pid.ok());
    pids.push_back(*pid);
  }
  for (int i = 0; i < 64; ++i) {
    k.Step();
  }
  // Stop every spinner: the enrollment spread them over the CPUs, so at
  // least three are homed away from CPU 0 (the controller's context) and
  // each of those stops must charge an IPI.
  uint64_t before = k.smp().TotalIpisSent();
  for (Pid pid : pids) {
    auto h = ProcHandle::Grab(k, sim.controller(), pid);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(h->Stop().ok());
  }
  EXPECT_GT(k.smp().TotalIpisSent(), before) << "no rescheduling IPI charged";
  // Pending interrupts are acknowledged at the target's next quantum
  // boundary; run the kernel forward and check conservation.
  for (int i = 0; i < 16; ++i) {
    k.Step();
  }
  ExpectInvariantsClean(k, "cross-cpu-stop");
}

// ---------------------------------------------------------------------------
// Shootdown: planting a breakpoint in text that another CPU has current
// must appear in the trace as cross-CPU interrupts.
// ---------------------------------------------------------------------------

TEST(Smp, BreakpointPlantShootsDownRemoteCpus) {
  Sim sim;
  Kernel& k = sim.kernel();
  k.SetNumCpus(4);
  k.SetTracing(true, true);
  ASSERT_TRUE(sim.InstallProgram("/bin/spin", kSpinForever).ok());
  std::vector<Pid> pids;
  for (int i = 0; i < 4; ++i) {
    auto pid = sim.Start("/bin/spin");
    ASSERT_TRUE(pid.ok());
    pids.push_back(*pid);
  }
  // Spread quanta so every CPU has some spinner's address space current.
  for (int i = 0; i < 64; ++i) {
    k.Step();
  }
  uint64_t ipis_before = IpiRecordCount(k);
  // Plant a breakpoint in each spinner: the PrWrite into executing text
  // bumps the code generation and shoots down whichever CPUs hold that
  // address space — at least one of the four targets is mid-quantum-state
  // on a CPU other than the controller's.
  for (Pid pid : pids) {
    Debugger dbg(k, sim.controller());
    ASSERT_TRUE(dbg.Attach(pid).ok());
    ASSERT_TRUE(dbg.SetBreakpoint("spin").ok());
    ASSERT_TRUE(dbg.Detach().ok());
  }
  EXPECT_GT(IpiRecordCount(k), ipis_before)
      << "no kIpi trace record from the code shootdown";
  for (int i = 0; i < 16; ++i) {
    k.Step();
  }
  ExpectInvariantsClean(k, "breakpoint-shootdown");
}

// ---------------------------------------------------------------------------
// Work stealing keeps every CPU busy and never loses or duplicates an lwp.
// ---------------------------------------------------------------------------

TEST(Smp, StealingBalancesLoadUnderChurn) {
  Sim sim;
  Kernel& k = sim.kernel();
  k.SetNumCpus(4);
  ASSERT_TRUE(sim.InstallProgram("/bin/churn", kForkChurn).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/spin", kSpinForever).ok());
  // One long-running spinner plus churn: CPUs whose queues drain as
  // children exit must steal rather than idle.
  ASSERT_TRUE(sim.Start("/bin/spin").ok());
  auto churn = sim.Start("/bin/churn");
  ASSERT_TRUE(churn.ok());
  ASSERT_TRUE(k.RunToExit(*churn).ok());
  EXPECT_GT(TotalSteals(k), 0u) << "drained CPUs never stole work";
  uint64_t busy_cpus = 0;
  for (int i = 0; i < k.smp().ncpus(); ++i) {
    busy_cpus += k.smp().cpu(i).stats.quanta > 0 ? 1 : 0;
  }
  EXPECT_GE(busy_cpus, 2u) << "work never spread beyond one CPU";
  ExpectInvariantsClean(k, "steal-churn");
}

// ---------------------------------------------------------------------------
// Free-running mode: real worker threads, same observable results.
// ---------------------------------------------------------------------------

TEST(Smp, FreeRunMatchesDeterministicResults) {
  std::string console[2];
  for (int run = 0; run < 2; ++run) {
    Sim sim;
    Kernel& k = sim.kernel();
    k.SetNumCpus(4);
    k.SetSmpMode(run == 0 ? SmpMode::kDeterministic : SmpMode::kFreeRun);
    ASSERT_TRUE(sim.InstallProgram("/bin/count", kCountAndExit).ok());
    auto pid = sim.Start("/bin/count");
    ASSERT_TRUE(pid.ok());
    auto st = k.RunToExit(*pid);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(WExitCode(*st), 0);
    console[run] = sim.ConsoleOutput();
    ExpectInvariantsClean(k, run == 0 ? "free-run/det" : "free-run/free");
  }
  // A single process writes its console bytes in program order regardless
  // of scheduling mode.
  EXPECT_EQ(console[0], console[1]);
}

TEST(Smp, FreeRunSurvivesForkChurnAndStops) {
  Sim sim;
  Kernel& k = sim.kernel();
  k.SetNumCpus(4);
  k.SetSmpMode(SmpMode::kFreeRun);
  ASSERT_TRUE(sim.InstallProgram("/bin/churn", kForkChurn).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/spin", kSpinForever).ok());
  auto spin = sim.Start("/bin/spin");
  auto churn = sim.Start("/bin/churn");
  ASSERT_TRUE(spin.ok() && churn.ok());
  auto st = k.RunToExit(*churn);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(WExitCode(*st), 0);
  // A directed stop against the still-spinning process: the controller's
  // kernel work interleaves with parked workers, and the stop lands.
  auto h = ProcHandle::Grab(k, sim.controller(), *spin);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->Stop().ok());
  auto status = h->Status();
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status->pr_flags & PR_STOPPED, 0u);
  ExpectInvariantsClean(k, "free-run-churn");
}

TEST(Smp, FreeRunFoldSkipsPicksReapedByAnEarlierWait) {
  Sim sim;
  Kernel& k = sim.kernel();
  k.SetNumCpus(4);
  k.SetSmpMode(SmpMode::kFreeRun);
  ASSERT_TRUE(sim.InstallProgram("/bin/reaper", kKillAndReap).ok());
  for (int round = 0; round < 8; ++round) {
    auto pid = sim.Start("/bin/reaper");
    ASSERT_TRUE(pid.ok());
    auto st = k.RunToExit(*pid);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(WExitCode(*st), 0) << "round " << round;
  }
  ExpectInvariantsClean(k, "free-run-reap");
}

TEST(Smp, FreeRunSelfPatchingCopiesKeepPace) {
  // A worker's store into its own text is sent by the worker's CPU, which
  // holds that address space and needs no interrupt. Were it charged to
  // CPU 0, each copy off CPU 0 would interrupt itself on every store and
  // give up its chunk at the next block boundary (measured that way: 277
  // instructions against CPU 0's copy's 638,983).
  Sim sim;
  Kernel& k = sim.kernel();
  k.SetNumCpus(4);
  k.SetSmpMode(SmpMode::kFreeRun);
  ASSERT_TRUE(sim.InstallProgram("/bin/patch", kPatchOwnText).ok());
  std::vector<Pid> pids;
  for (int i = 0; i < 4; ++i) {
    auto pid = sim.Start("/bin/patch");
    ASSERT_TRUE(pid.ok());
    pids.push_back(*pid);
  }
  for (int i = 0; i < 40; ++i) {
    k.Step();
  }
  uint64_t most = 0;
  uint64_t least = UINT64_MAX;
  for (Pid pid : pids) {
    Proc* p = k.FindProc(pid);
    ASSERT_NE(p, nullptr);
    most = std::max(most, p->utime);
    least = std::min(least, p->utime);
  }
  EXPECT_GT(most, 0u);
  EXPECT_GE(2 * least, most) << "a copy retired " << least << " instructions, the busiest "
                             << most;
  uint64_t received = 0;
  for (int i = 0; i < k.smp().ncpus(); ++i) {
    received += k.smp().cpu(i).stats.ipis_received;
  }
  EXPECT_EQ(k.smp().TotalIpisSent(), received + k.smp().TotalIpisPending());
  ExpectInvariantsClean(k, "free-run-self-patch");
}

// ---------------------------------------------------------------------------
// The observability faces: /proc2/kernel/cpus and pr_cpuid.
// ---------------------------------------------------------------------------

TEST(Smp, CpusFileAndPsinfoExposeTopology) {
  Sim sim;
  Kernel& k = sim.kernel();
  k.SetNumCpus(4);
  ASSERT_TRUE(sim.InstallProgram("/bin/spin", kSpinForever).ok());
  std::vector<Pid> pids;
  for (int i = 0; i < 4; ++i) {
    auto pid = sim.Start("/bin/spin");
    ASSERT_TRUE(pid.ok());
    pids.push_back(*pid);
  }
  for (int i = 0; i < 64; ++i) {
    k.Step();
  }
  std::string cpus = ReadWholeFile(sim, "/proc2/kernel/cpus");
  EXPECT_NE(cpus.find("ncpus 4"), std::string::npos) << cpus;
  EXPECT_NE(cpus.find("cpu0"), std::string::npos);
  EXPECT_NE(cpus.find("cpu3"), std::string::npos);
  EXPECT_NE(cpus.find("steals"), std::string::npos);

  // pr_cpuid: every spinner reports a valid CPU, and the enrollment spread
  // means they are not all on CPU 0.
  bool off_zero = false;
  for (Pid pid : pids) {
    auto h = ProcHandle::Grab(k, sim.controller(), pid);
    ASSERT_TRUE(h.ok());
    auto ps = h->Psinfo();
    ASSERT_TRUE(ps.ok());
    EXPECT_LT(ps->pr_cpuid, 4);
    off_zero |= ps->pr_cpuid != 0;
    auto st = h->Status();
    ASSERT_TRUE(st.ok());
    EXPECT_LT(st->pr_cpuid, 4u);
  }
  EXPECT_TRUE(off_zero) << "all lwps report CPU 0 at ncpus=4";
}

// Shrinking the CPU set rehomes every lwp into range and keeps running.
TEST(Smp, ResizeRehomesLwps) {
  Sim sim;
  Kernel& k = sim.kernel();
  k.SetNumCpus(4);
  ASSERT_TRUE(sim.InstallProgram("/bin/count", kCountAndExit).ok());
  std::vector<Pid> pids;
  for (int i = 0; i < 6; ++i) {
    auto pid = sim.Start("/bin/count");
    ASSERT_TRUE(pid.ok());
    pids.push_back(*pid);
  }
  for (int i = 0; i < 40; ++i) {
    k.Step();
  }
  k.SetNumCpus(2);
  ExpectInvariantsClean(k, "post-shrink");
  for (Pid pid : pids) {
    DrainPid(k, pid);
  }
  ExpectInvariantsClean(k, "post-shrink-drain");
}

}  // namespace
}  // namespace svr4
