// Tests for the kernel event-trace ring and metrics registry (ktrace.h):
// ring wraparound and snapshot ABI, /proc2 exposure (kernel-wide and
// per-pid, including a descriptor held across a reap and a read through
// ProcHandle::Trace), PIOCKSTAT, the
// chaos-determinism guarantee (tracing never perturbs a seeded run), engine
// neutrality (armed tracing keeps the block engine), and the PrUsage audit
// (every field incremented, minor/major fault split, zombie and multi-LWP
// interrogation).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "svr4proc/kernel/faults.h"
#include "svr4proc/kernel/ktrace.h"
#include "svr4proc/procfs/procfs.h"
#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/sim.h"

namespace svr4 {
namespace {

struct Target {
  Pid pid;
  Aout image;
};

Target StartProgram(Sim& sim, const std::string& src, const std::string& path = "/bin/prog") {
  auto img = sim.InstallProgram(path, src);
  EXPECT_TRUE(img.ok());
  auto pid = sim.Start(path);
  EXPECT_TRUE(pid.ok());
  return Target{pid.ok() ? *pid : -1, img.ok() ? *img : Aout{}};
}

ProcHandle Grab(Sim& sim, Pid pid, int oflags = O_RDONLY) {
  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), pid, oflags);
  EXPECT_TRUE(h.ok()) << "grab failed: " << (h.ok() ? "" : ErrnoName(h.error()));
  return std::move(*h);
}

// Reads an open descriptor to EOF and parses the trace-snapshot ABI.
PrTrace DrainTraceFd(Sim& sim, int fd) {
  std::vector<uint8_t> raw;
  char buf[512];
  for (;;) {
    auto n = sim.kernel().Read(sim.controller(), fd, buf, sizeof(buf));
    EXPECT_TRUE(n.ok());
    if (!n.ok() || *n == 0) {
      break;
    }
    raw.insert(raw.end(), buf, buf + *n);
  }
  PrTrace t;
  if (raw.empty()) {
    return t;
  }
  EXPECT_GE(raw.size(), sizeof(KtSnapHeader));
  std::memcpy(&t.hdr, raw.data(), sizeof(t.hdr));
  EXPECT_EQ(t.hdr.kt_magic, kKtMagic);
  EXPECT_EQ(t.hdr.kt_recsize, sizeof(KtRec));
  EXPECT_EQ(raw.size(), sizeof(KtSnapHeader) + t.hdr.kt_nrec * sizeof(KtRec));
  t.recs.resize(t.hdr.kt_nrec);
  std::memcpy(t.recs.data(), raw.data() + sizeof(t.hdr), t.recs.size() * sizeof(KtRec));
  return t;
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
    out.append(buf, *n);
  }
  (void)sim.kernel().Close(sim.controller(), *fd);
  return out;
}

// ---------------------------------------------------------------------------
// The ring itself, standalone (no kernel).
// ---------------------------------------------------------------------------

TEST(KtRing, WraparoundKeepsNewestOldestFirst) {
  uint64_t tick = 0;
  KTrace kt(&tick, /*cpu_src=*/nullptr, /*cap=*/8);
  kt.EnableRing(true);
  for (uint32_t i = 0; i < 20; ++i) {
    tick = 100 + i;
    kt.Emit(KtEvent::kFault, /*pid=*/1, /*lwpid=*/1, /*a0=*/i, /*a1=*/0);
  }
  EXPECT_EQ(kt.total(), 20u);
  EXPECT_EQ(kt.dropped(), 12u);

  auto snap = kt.Snapshot();
  ASSERT_EQ(snap.size(), sizeof(KtSnapHeader) + 8 * sizeof(KtRec));
  KtSnapHeader h;
  std::memcpy(&h, snap.data(), sizeof(h));
  EXPECT_EQ(h.kt_magic, kKtMagic);
  EXPECT_EQ(h.kt_version, kKtVersion);
  EXPECT_EQ(h.kt_recsize, sizeof(KtRec));
  EXPECT_EQ(h.kt_nrec, 8u);
  EXPECT_EQ(h.kt_total, 20u);
  EXPECT_EQ(h.kt_dropped, 12u);
  // The survivors are the newest 8, oldest first, ticks monotone.
  for (uint32_t i = 0; i < 8; ++i) {
    KtRec r;
    std::memcpy(&r, snap.data() + sizeof(h) + i * sizeof(r), sizeof(r));
    EXPECT_EQ(r.kt_a0, 12 + i);
    EXPECT_EQ(r.kt_tick, 100u + 12 + i);
    EXPECT_EQ(r.kt_event, static_cast<uint32_t>(KtEvent::kFault));
  }
}

TEST(KtRing, DisarmedEmitIsNoOpAndSnapshotEmpty) {
  uint64_t tick = 5;
  KTrace kt(&tick);
  kt.Emit(KtEvent::kFork, 1, 1, 2, 0);
  EXPECT_EQ(kt.total(), 0u);
  EXPECT_EQ(kt.event_count(KtEvent::kFork), 0u);
  EXPECT_TRUE(kt.Snapshot().empty());
  EXPECT_FALSE(kt.armed());
}

TEST(KtRing, MetricsOnlyFoldsWithoutRingRecords) {
  uint64_t tick = 0;
  KTrace kt(&tick);
  kt.EnableMetrics(true);
  // Two getpid exits (one errno), latencies 3 and 5 ticks.
  uint32_t num = SYS_getpid;
  kt.Emit(KtEvent::kSyscallExit, 1, 1, num, 3);
  kt.Emit(KtEvent::kSyscallExit, 1, 1, num | (static_cast<uint32_t>(Errno::kEINVAL) << 16), 5);
  EXPECT_EQ(kt.total(), 0u);  // ring off: nothing retained
  EXPECT_EQ(kt.event_count(KtEvent::kSyscallExit), 2u);
  const KtSyscallStat& s = kt.syscall_stat(SYS_getpid);
  EXPECT_EQ(s.calls, 2u);
  EXPECT_EQ(s.errors, 1u);
  EXPECT_EQ(s.lat.sum, 8u);
  EXPECT_EQ(s.lat.max, 5u);
}

TEST(KtRing, HistogramBucketsAreLog2) {
  EXPECT_EQ(KtHist::BucketOf(0), 0u);
  EXPECT_EQ(KtHist::BucketOf(1), 1u);
  EXPECT_EQ(KtHist::BucketOf(2), 2u);
  EXPECT_EQ(KtHist::BucketOf(3), 2u);
  EXPECT_EQ(KtHist::BucketOf(4), 3u);
  EXPECT_EQ(KtHist::BucketOf(1023), 10u);
  EXPECT_EQ(KtHist::BucketOf(~0ull), 31u);  // tail bucket absorbs
  KtHist h;
  h.Record(0);
  h.Record(7);
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 7u);
  EXPECT_EQ(h.max, 7u);
  EXPECT_DOUBLE_EQ(h.Mean(), 3.5);
  EXPECT_EQ(h.bucket[0], 1u);
  EXPECT_EQ(h.bucket[3], 1u);
}

// ---------------------------------------------------------------------------
// /proc2 exposure.
// ---------------------------------------------------------------------------

constexpr char kForker[] = R"(
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
      ldi r0, SYS_wait
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
child:
      ldi r8, 10
loop: ldi r0, SYS_getpid
      sys
      ldi r5, 1
      sub r8, r5
      cmpi r8, 0
      jnz loop
      ldi r0, SYS_exit
      ldi r1, 7
      sys
)";

TEST(KtraceProc, KernelTraceFileRoundTrip) {
  Sim sim;
  sim.kernel().SetTracing(/*ring=*/true, /*metrics=*/true);
  auto t = StartProgram(sim, kForker);
  ASSERT_TRUE(sim.kernel().RunToExit(t.pid).ok());

  auto snap = ReadTraceFile(sim.kernel(), sim.controller(), "/proc2/kernel/trace");
  ASSERT_TRUE(snap.ok());
  EXPECT_GT(snap->hdr.kt_nrec, 0u);
  EXPECT_EQ(snap->hdr.kt_version, kKtVersion);
  uint64_t seen = 0;
  bool saw_fork = false, saw_exit = false, saw_entry = false;
  uint64_t last_tick = 0;
  for (const KtRec& r : snap->recs) {
    EXPECT_GE(r.kt_tick, last_tick) << "ring must serialize oldest-first";
    last_tick = r.kt_tick;
    ++seen;
    saw_fork |= r.kt_event == static_cast<uint32_t>(KtEvent::kFork);
    saw_exit |= r.kt_event == static_cast<uint32_t>(KtEvent::kExit);
    saw_entry |= r.kt_event == static_cast<uint32_t>(KtEvent::kSyscallEntry);
  }
  EXPECT_EQ(seen, snap->hdr.kt_nrec);
  EXPECT_TRUE(saw_fork);
  EXPECT_TRUE(saw_exit);
  EXPECT_TRUE(saw_entry);
}

// ProcHandle::Trace reads its target's /proc2 trace file: the snapshot
// ReadTraceFile parses from /proc2/<pid>/trace. Each read opens and closes
// the file through the /proc open ledger, so the later read also carries
// the first read's PROC_CLOSE and its own PROC_OPEN; everything before
// them is the same.
TEST(KtraceProc, HandleTraceEqualsPerPidTraceFile) {
  Sim sim;
  sim.kernel().SetTracing(/*ring=*/true, /*metrics=*/false);
  auto t = StartProgram(sim, R"(
loop: ldi r0, SYS_getpid
      sys
      jmp loop
  )");
  ProcHandle h = Grab(sim, t.pid);
  for (int i = 0; i < 40; ++i) {
    sim.kernel().Step();
  }
  auto via_handle = h.Trace();
  auto via_file = ReadTraceFile(sim.kernel(), sim.controller(),
                                "/proc2/" + PidName(t.pid) + "/trace");
  ASSERT_TRUE(via_handle.ok());
  ASSERT_TRUE(via_file.ok());
  ASSERT_EQ(via_file->hdr.kt_dropped, 0u) << "the ring wrapped; the prefix moved";
  const size_t n = via_handle->recs.size();
  ASSERT_GT(n, 0u);
  ASSERT_EQ(via_file->recs.size(), n + 2);
  EXPECT_EQ(via_file->hdr.kt_total, via_handle->hdr.kt_total + 2);
  EXPECT_EQ(std::memcmp(via_handle->recs.data(), via_file->recs.data(), n * sizeof(KtRec)), 0);
  EXPECT_EQ(via_file->recs[n].kt_event, static_cast<uint32_t>(KtEvent::kProcClose));
  EXPECT_EQ(via_file->recs[n + 1].kt_event, static_cast<uint32_t>(KtEvent::kProcOpen));
  for (const KtRec& r : via_file->recs) {
    EXPECT_EQ(r.kt_pid, t.pid);
  }
}

TEST(KtraceProc, DisabledRingReadsEmptyNotEnoent) {
  Sim sim;  // tracing never armed
  auto t = StartProgram(sim, kForker);
  ASSERT_TRUE(sim.kernel().RunToExit(t.pid).ok());

  auto fd = sim.kernel().Open(sim.controller(), "/proc2/kernel/trace", O_RDONLY);
  ASSERT_TRUE(fd.ok()) << "a disabled ring must still exist in the namespace";
  char buf[64];
  auto n = sim.kernel().Read(sim.controller(), *fd, buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u) << "disabled ring reads as an empty file";
  (void)sim.kernel().Close(sim.controller(), *fd);

  auto snap = ReadTraceFile(sim.kernel(), sim.controller(), "/proc2/kernel/trace");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->hdr.kt_nrec, 0u);
  EXPECT_TRUE(snap->recs.empty());
}

TEST(KtraceProc, SnapshotWhileRunningStaysConsistent) {
  Sim sim;
  sim.kernel().SetTracing(true, true);
  StartProgram(sim, R"(
loop: ldi r0, SYS_getpid
      sys
      jmp loop
  )");
  uint64_t prev_total = 0;
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 25; ++i) {
      sim.kernel().Step();
    }
    auto snap = sim.kernel().ktrace().Snapshot();
    ASSERT_GE(snap.size(), sizeof(KtSnapHeader));
    KtSnapHeader h;
    std::memcpy(&h, snap.data(), sizeof(h));
    EXPECT_EQ(h.kt_magic, kKtMagic);
    EXPECT_EQ(snap.size(), sizeof(h) + h.kt_nrec * sizeof(KtRec));
    EXPECT_GE(h.kt_total, prev_total) << "total is monotonic while running";
    prev_total = h.kt_total;
    uint64_t last_tick = 0;
    for (uint32_t i = 0; i < h.kt_nrec; ++i) {
      KtRec r;
      std::memcpy(&r, snap.data() + sizeof(h) + i * sizeof(r), sizeof(r));
      EXPECT_GE(r.kt_tick, last_tick);
      last_tick = r.kt_tick;
    }
  }
}

TEST(KtraceProc, HeldFdServesReapedZombiesPidFilter) {
  Sim sim;
  sim.kernel().SetTracing(true, true);
  auto t = StartProgram(sim, kForker);

  // Run until the fork happened, then find the child by parentage.
  Pid child = -1;
  ASSERT_TRUE(sim.kernel().RunUntil([&]() {
    for (Pid c = t.pid + 1; c < t.pid + 10; ++c) {
      Proc* p = sim.kernel().FindProc(c);
      if (p != nullptr && p->ppid == t.pid) {
        child = c;
        return true;
      }
    }
    return false;
  }));
  ASSERT_GT(child, 0);

  // Hold a descriptor on the child's trace file across its exit AND reap.
  char path[64];
  std::snprintf(path, sizeof(path), "/proc2/%05d/trace", child);
  auto fd = sim.kernel().Open(sim.controller(), path, O_RDONLY);
  ASSERT_TRUE(fd.ok());

  ASSERT_TRUE(sim.kernel().RunToExit(t.pid).ok());
  ASSERT_EQ(sim.kernel().FindProc(child), nullptr) << "child must be fully reaped";

  PrTrace tr = DrainTraceFd(sim, *fd);
  EXPECT_GT(tr.hdr.kt_nrec, 0u) << "reaped pid still has ring history";
  bool saw_child_exit = false;
  for (const KtRec& r : tr.recs) {
    EXPECT_EQ(r.kt_pid, child) << "per-pid file must filter to its pid";
    saw_child_exit |= r.kt_event == static_cast<uint32_t>(KtEvent::kExit);
  }
  EXPECT_TRUE(saw_child_exit);
  (void)sim.kernel().Close(sim.controller(), *fd);
}

// ---------------------------------------------------------------------------
// PROC_OPEN and PROC_CLOSE against the /proc open ledger: every descriptor
// that emitted PROC_OPEN emits one PROC_CLOSE when it closes, live or stale,
// so while the target exists the records' balance for its pid is the
// ledger's live plus stale opens.
// ---------------------------------------------------------------------------

int OpenRecordBalance(Kernel& k, Pid pid) {
  std::vector<uint8_t> raw = k.ktrace().Snapshot(pid);
  EXPECT_EQ(k.ktrace().dropped(), 0u) << "the ring lost records";
  if (raw.empty()) {
    return 0;
  }
  KtSnapHeader hdr;
  std::memcpy(&hdr, raw.data(), sizeof(hdr));
  int balance = 0;
  for (uint32_t i = 0; i < hdr.kt_nrec; ++i) {
    KtRec r;
    std::memcpy(&r, raw.data() + sizeof(hdr) + i * sizeof(KtRec), sizeof(r));
    if (r.kt_event == static_cast<uint32_t>(KtEvent::kProcOpen)) {
      ++balance;
    } else if (r.kt_event == static_cast<uint32_t>(KtEvent::kProcClose)) {
      --balance;
    }
  }
  return balance;
}

void ExpectBalanced(Kernel& k, Pid pid, const std::string& step) {
  SCOPED_TRACE(step);
  Proc* p = k.FindProc(pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(OpenRecordBalance(k, pid), p->trace.total_opens + p->trace.stale_total_opens);
  EXPECT_TRUE(k.CheckInvariants().empty());
}

TEST(ProcLedgerTrace, OpenMinusCloseRecordsEqualTheLedger) {
  Sim sim;
  Kernel& k = sim.kernel();
  k.SetTracing(true, false);
  ASSERT_TRUE(sim.InstallProgram("/bin/suid", "spin: jmp spin\n", 04755, 0, 0).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", R"(
      ldi r0, SYS_exec
      ldi r1, path
      ldi r2, 0
      sys
      .data
path: .asciz "/bin/suid"
  )").ok());
  auto pid = k.Spawn("/bin/prog", {"prog"}, Creds::User(100, 10));
  ASSERT_TRUE(pid.ok());
  Proc* me = sim.controller();
  auto open = [&](const char* fmt, int oflags) {
    char path[64];
    std::snprintf(path, sizeof(path), fmt, *pid);
    auto fd = k.Open(me, path, oflags);
    EXPECT_TRUE(fd.ok()) << path;
    ExpectBalanced(k, *pid, std::string("open ") + path);
    return fd.ok() ? *fd : -1;
  };
  auto close = [&](int fd, const char* what) {
    EXPECT_TRUE(k.Close(me, fd).ok()) << what;
    ExpectBalanced(k, *pid, std::string("close ") + what);
  };

  int flat_ro = open("/proc/%05d", O_RDONLY);
  int flat_rw = open("/proc/%05d", O_RDWR);
  int status = open("/proc2/%d/status", O_RDONLY);
  int ctl = open("/proc2/%d/ctl", O_WRONLY);
  int lwpstatus = open("/proc2/%d/lwp/1/lwpstatus", O_RDONLY);
  int lwpctl = open("/proc2/%d/lwp/1/lwpctl", O_WRONLY);
  close(flat_rw, "live flat");
  close(lwpstatus, "live lwpstatus");

  ASSERT_TRUE(k.RunUntil([&] { return k.FindProc(*pid)->setid; }));
  ExpectBalanced(k, *pid, "set-id exec");
  EXPECT_EQ(k.FindProc(*pid)->trace.stale_total_opens, 4);

  int fresh = open("/proc/%05d", O_RDWR);
  close(flat_ro, "stale flat");
  close(status, "stale status");
  close(lwpctl, "stale lwpctl");
  close(ctl, "stale ctl");
  close(fresh, "live flat after the exec");

  // Closes after a reap are silent: the ledger went with the process.
  int held = open("/proc2/%d/lwp/1/lwpstatus", O_RDONLY);
  ASSERT_TRUE(k.Kill(me, *pid, SIGKILL).ok());
  ASSERT_TRUE(k.RunUntil([&] { return k.FindProc(*pid) == nullptr; }));
  int before = OpenRecordBalance(k, *pid);
  EXPECT_TRUE(k.Close(me, held).ok());
  EXPECT_EQ(OpenRecordBalance(k, *pid), before);
  EXPECT_TRUE(k.CheckInvariants().empty());
}

// ---------------------------------------------------------------------------
// PIOCKSTAT and the metrics text.
// ---------------------------------------------------------------------------

TEST(Kstat, PiocKstatReportsRegistry) {
  Sim sim;
  sim.kernel().SetTracing(/*ring=*/false, /*metrics=*/true);
  auto t = StartProgram(sim, R"(
      ldi r8, 50
loop: ldi r0, SYS_getpid
      sys
      ldi r5, 1
      sub r8, r5
      cmpi r8, 0
      jnz loop
      ldi r0, SYS_exit
      ldi r1, 0
      sys
  )");
  ASSERT_TRUE(sim.kernel().RunToExit(t.pid).ok());

  auto h = Grab(sim, sim.kernel().init_proc()->pid);
  auto ks = h.Kstat();
  ASSERT_TRUE(ks.ok());
  EXPECT_EQ(ks->pr_ring_on, 0u);
  EXPECT_EQ(ks->pr_metrics_on, 1u);
  EXPECT_EQ(ks->pr_trace_total, 0u) << "ring off: nothing appended";
  EXPECT_GT(ks->pr_ticks, 0u);
  EXPECT_GT(ks->pr_instructions, 0u);
  EXPECT_GT(ks->pr_events[static_cast<uint32_t>(KtEvent::kSyscallEntry)], 0u);
  EXPECT_EQ(ks->pr_sys[SYS_getpid].pr_calls, 50u);
  EXPECT_EQ(ks->pr_sys[SYS_getpid].pr_errors, 0u);
}

TEST(Kstat, MetricsTextFoldsFaultSiteCounters) {
  Sim sim;
  sim.kernel().SetTracing(false, true);
  FaultPlan plan;
  // A site evaluated by any run but firing never: evals count, fires zero.
  plan.Arm(FaultSite::kCopyin, FaultRule{/*seed=*/3, /*num=*/0, /*den=*/16, /*max_hits=*/0});
  sim.kernel().SetFaultPlan(plan);
  auto t = StartProgram(sim, R"(
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, msg
      ldi r3, 6
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
      .data
msg:  .asciz "hello\n"
  )");
  ASSERT_TRUE(sim.kernel().RunToExit(t.pid).ok());

  std::string text = ReadWholeFile(sim, "/proc2/kernel/metrics");
  EXPECT_NE(text.find("ktrace ring=off metrics=on"), std::string::npos) << text;
  EXPECT_NE(text.find("counter syscall[write]"), std::string::npos) << text;
  EXPECT_NE(text.find("hist runq_depth"), std::string::npos) << text;
  // Satellite: the fault injector's per-site eval/fire counters render in
  // the same registry (their single home stays FaultInjector).
  EXPECT_NE(text.find("counter fault_site[COPYIN] evals="), std::string::npos) << text;
}

TEST(Kstat, StopWaitHistogramRecordsStopLatency) {
  Sim sim;
  sim.kernel().SetTracing(false, true);
  auto t = StartProgram(sim, R"(
loop: ldi r0, SYS_getpid
      sys
      jmp loop
  )");
  for (int i = 0; i < 50; ++i) {
    sim.kernel().Step();
  }
  auto h = Grab(sim, t.pid, O_RDWR);
  ASSERT_TRUE(h.Stop().ok());
  EXPECT_GE(sim.kernel().ktrace().stop_wait().count, 1u);
}

// ---------------------------------------------------------------------------
// Tracing must never perturb a seeded chaos run.
// ---------------------------------------------------------------------------

constexpr char kChaosBurst[] = R"(
      ldi r0, SYS_getpid
      sys
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, msg
      ldi r3, 6
      sys
      ldi r0, SYS_open
      ldi r1, nopath
      ldi r2, O_RDONLY
      ldi r3, 0
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
      .data
msg:  .asciz "chaos\n"
nopath: .asciz "/no/such"
)";

FaultPlan LowRatePlan(uint64_t seed) {
  FaultPlan plan;
  for (int i = 0; i < kFaultSiteCount; ++i) {
    plan.Arm(static_cast<FaultSite>(i),
             FaultRule{seed, /*num=*/1, /*den=*/16, /*max_hits=*/8});
  }
  return plan;
}

// ticks, instructions, console output: the whole observable outcome.
std::tuple<uint64_t, uint64_t, std::string> ChaosRun(uint64_t seed, bool traced) {
  Sim sim;
  EXPECT_TRUE(sim.InstallProgram("/bin/prog", kChaosBurst).ok());
  auto pid = sim.Start("/bin/prog");
  EXPECT_TRUE(pid.ok());
  sim.kernel().SetFaultPlan(LowRatePlan(seed));
  sim.kernel().SetChaosScheduler(seed);
  if (traced) {
    sim.kernel().SetTracing(/*ring=*/true, /*metrics=*/true);
  }
  sim.kernel().RunUntil(
      [&]() { return sim.kernel().FindProc(*pid) == nullptr; }, 400'000);
  EXPECT_TRUE(sim.kernel().CheckInvariants().empty());
  return {sim.kernel().Ticks(), sim.kernel().counters().instructions,
          sim.ConsoleOutput()};
}

TEST(KtraceChaos, TwentySeedSweepIsUnperturbedByTracing) {
  for (uint64_t seed = 301; seed <= 320; ++seed) {
    auto plain = ChaosRun(seed, /*traced=*/false);
    auto traced = ChaosRun(seed, /*traced=*/true);
    EXPECT_EQ(std::get<0>(plain), std::get<0>(traced)) << "seed " << seed << ": ticks diverged";
    EXPECT_EQ(std::get<1>(plain), std::get<1>(traced))
        << "seed " << seed << ": instruction count diverged";
    EXPECT_EQ(std::get<2>(plain), std::get<2>(traced))
        << "seed " << seed << ": console output diverged";
  }
}

// ---------------------------------------------------------------------------
// Tracing must not change the execution engine.
// ---------------------------------------------------------------------------

// Syscall bursts between short ALU runs: every lap crosses the syscall
// entry and exit emission sites five times each.
constexpr char kSyscallBursts[] = R"(
      ldi r7, 1
      ldi r8, 200
lap:  ldi r9, 5
burst:
      ldi r0, SYS_getpid
      sys
      sub r9, r7
      cmpi r9, 0
      jnz burst
      addi r1, 3
      xor r2, r1
      add r3, r2
      sub r8, r7
      cmpi r8, 0
      jnz lap
      ldi r0, SYS_exit
      ldi r1, 0
      sys
)";

struct TracedRun {
  std::vector<uint8_t> ring;
  std::string registry;
  uint64_t ticks = 0;
  KernelCounters counters;
};

TracedRun RunTraced(ExecEngine engine) {
  Sim sim;
  Kernel& k = sim.kernel();
  k.SetExecEngine(engine);
  k.SetTracing(/*ring=*/true, /*metrics=*/true);
  auto t = StartProgram(sim, kSyscallBursts);
  EXPECT_TRUE(k.RunToExit(t.pid).ok());
  return TracedRun{k.ktrace().Snapshot(), k.ktrace().MetricsText(), k.Ticks(),
                   k.counters()};
}

TEST(KtraceEngine, ArmedTracingKeepsTheBlockEngine) {
  // Every event is emitted from a cold path both engines share, so arming
  // the ring and the registry must neither switch the default engine to
  // the interpreter nor make the two engines record different things.
  TracedRun automatic = RunTraced(ExecEngine::kAuto);
  TracedRun interp = RunTraced(ExecEngine::kInterp);
  EXPECT_EQ(automatic.counters.quanta_interp, 0u)
      << "arming tracing sent quanta to the interpreter";
  EXPECT_GT(automatic.counters.quanta_blocks, 0u);
  EXPECT_EQ(automatic.ticks, interp.ticks);
  EXPECT_EQ(automatic.counters.instructions, interp.counters.instructions);
  EXPECT_FALSE(automatic.ring.empty());
  EXPECT_TRUE(automatic.ring == interp.ring) << "ring records differ between engines";
  EXPECT_EQ(automatic.registry, interp.registry);
}

// ---------------------------------------------------------------------------
// PrUsage audit: every field, the fault split, zombies, multi-LWP.
// ---------------------------------------------------------------------------

TEST(UsageAudit, EveryFieldIncrements) {
  Sim sim;
  // Touches every accounting source: a handler-delivered signal (pr_nsig),
  // console writes (pr_ioch), syscalls (pr_sysc/pr_stime), the instruction
  // stream (pr_utime), file-backed text/data pages (pr_majf), and zero-fill
  // stack/bss pages (pr_minf). Ends in a spin so the process stays live.
  auto t = StartProgram(sim, R"(
      ldi r0, SYS_sigaction
      ldi r1, SIGUSR1
      ldi r2, handler
      ldi r3, 0
      sys
      ldi r0, SYS_getpid
      sys
      mov r5, r0
      ldi r0, SYS_kill
      mov r1, r5
      ldi r2, SIGUSR1
      sys
      ldi r4, scratch
      ldi r5, 99
      stw r5, [r4]
      ; a blocking syscall: kernel time (pr_stime) accrues only while a
      ; call is in progress across ticks
      ldi r0, SYS_sleep
      ldi r1, 3
      sys
spin: jmp spin
handler:
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, msg
      ldi r3, 4
      sys
      ldi r0, SYS_sigreturn
      sys
      .data
msg:  .asciz "sig\n"
      .bss
scratch: .space 64
  )");
  ASSERT_TRUE(sim.kernel().RunUntil([&]() {
    Proc* p = sim.kernel().FindProc(t.pid);
    return p != nullptr && p->nsignals > 0 && p->ioch > 0;
  }));
  for (int i = 0; i < 100; ++i) {
    sim.kernel().Step();
  }

  auto h = Grab(sim, t.pid);
  auto u = h.Usage();
  ASSERT_TRUE(u.ok());
  EXPECT_GT(u->pr_tstamp, 0u);
  EXPECT_GT(u->pr_rtime, 0u);
  EXPECT_GT(u->pr_utime, 0u);
  EXPECT_GT(u->pr_stime, 0u);
  EXPECT_GT(u->pr_minf, 0u) << "stack/bss zero-fill is a minor fault";
  EXPECT_GT(u->pr_majf, 0u) << "first touch of file-backed text is a major fault";
  EXPECT_GT(u->pr_nsig, 0u);
  EXPECT_GT(u->pr_sysc, 0u);
  EXPECT_GT(u->pr_ioch, 0u);
  EXPECT_EQ(u->pr_tstamp, u->pr_create + u->pr_rtime);
}

TEST(UsageAudit, MinorMajorSplitMatchesVmCounters) {
  Sim sim;
  auto t = StartProgram(sim, R"(
      ldi r4, var
      ldw r5, [r4]
      addi r5, 1
      stw r5, [r4]
spin: jmp spin
      .data
var:  .word 7
  )");
  for (int i = 0; i < 200; ++i) {
    sim.kernel().Step();
  }
  Proc* p = sim.kernel().FindProc(t.pid);
  ASSERT_NE(p, nullptr);
  auto h = Grab(sim, t.pid);
  auto u = h.Usage();
  ASSERT_TRUE(u.ok());
  // A live process with its original image: usage is exactly the live
  // address-space counters (the fold bases are zero).
  EXPECT_EQ(u->pr_minf, p->as->counters().minor_faults);
  EXPECT_EQ(u->pr_majf, p->as->counters().major_faults);
  EXPECT_GT(u->pr_majf, 0u) << "text and .data pages are file-backed";
  EXPECT_GT(u->pr_minf, 0u) << "the .data store breaks copy-on-write";
}

TEST(UsageAudit, ZombieRetainsFoldedCounts) {
  Sim sim;
  // Parent forks then spins without waiting: the child stays a zombie.
  auto t = StartProgram(sim, R"(
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
spin: jmp spin
child:
      ; store into an inherited .data page: breaks copy-on-write, so the
      ; child earns a minor fault of its own before exiting
      ldi r4, msg
      ldi r5, 67
      stb r5, [r4]
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, msg
      ldi r3, 2
      sys
      ldi r0, SYS_exit
      ldi r1, 3
      sys
      .data
msg:  .asciz "c\n"
  )");
  Pid child = -1;
  ASSERT_TRUE(sim.kernel().RunUntil([&]() {
    for (Pid c = t.pid + 1; c < t.pid + 10; ++c) {
      Proc* p = sim.kernel().FindProc(c);
      if (p != nullptr && p->ppid == t.pid) {
        child = c;
        return p->as == nullptr;  // exited: image dropped, counters folded
      }
    }
    return false;
  }));
  auto h = Grab(sim, child);
  auto u = h.Usage();
  ASSERT_TRUE(u.ok()) << "PIOCUSAGE must work on a zombie";
  EXPECT_GT(u->pr_create, 0u) << "forked after the parent ran";
  EXPECT_GT(u->pr_sysc, 0u);
  EXPECT_GT(u->pr_utime, 0u);
  EXPECT_GT(u->pr_ioch, 0u);
  EXPECT_GT(u->pr_majf, 0u) << "fault counts fold into the proc at exit";
  EXPECT_GT(u->pr_minf, 0u);
}

TEST(UsageAudit, MultiLwpProcessAggregates) {
  Sim sim;
  auto t = StartProgram(sim, R"(
      ldi r0, SYS_lwp_create
      ldi r1, thread
      ldi r2, tstack+1024
      sys
m:    ldi r4, c1
      ldw r5, [r4]
      addi r5, 1
      stw r5, [r4]
      jmp m
thread:
      ldi r4, c2
      ldw r5, [r4]
      addi r5, 1
      stw r5, [r4]
      jmp thread
      .data
c1:   .word 0
c2:   .word 0
      .bss
tstack: .space 1024
  )");
  for (int i = 0; i < 600; ++i) {
    sim.kernel().Step();
  }
  Proc* p = sim.kernel().FindProc(t.pid);
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->lwps.size(), 2u);
  auto h = Grab(sim, t.pid);
  auto u = h.Usage();
  ASSERT_TRUE(u.ok()) << "PIOCUSAGE must work on a multi-LWP process";
  EXPECT_GT(u->pr_utime, 200u) << "utime spans both lwps";
  EXPECT_GT(u->pr_sysc, 0u);
  EXPECT_EQ(u->pr_tstamp, sim.kernel().Ticks());
}

}  // namespace
}  // namespace svr4
