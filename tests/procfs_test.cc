// Behavioral tests for the flat /proc interface: every paper-documented
// semantic from Figure 1's directory listing through the issig() stop logic
// and the security provisions.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>

#include "svr4proc/procfs/procfs.h"
#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/sim.h"

namespace svr4 {
namespace {

constexpr char kSpin[] = "spin: jmp spin\n";

constexpr char kCounter[] = R"(
loop: ldi r4, var
      ldw r5, [r4]
      addi r5, 1
      stw r5, [r4]
      jmp loop
      .data
var:  .word 0
)";

// Sleeps, then verifies the sleep lasted; exits 42 on EINTR.
constexpr char kSleeper[] = R"(
      ldi r0, SYS_time
      sys
      mov r8, r0
      ldi r0, SYS_sleep
      ldi r1, 20000
      sys
      jcs intr
      ldi r0, SYS_time
      sys
      sub r0, r8
      cmpi r0, 20000
      jlt short
      ldi r0, SYS_exit
      ldi r1, 0
      sys
short:
      ldi r0, SYS_exit
      ldi r1, 1
      sys
intr: cmpi r0, 4          ; EINTR
      jnz other
      ldi r0, SYS_exit
      ldi r1, 42
      sys
other:
      ldi r0, SYS_exit
      ldi r1, 2
      sys
)";

struct Target {
  Pid pid;
  Aout image;
};

Target StartProgram(Sim& sim, const std::string& src, const std::string& path = "/bin/prog",
                    const Creds& creds = Creds::Root()) {
  auto img = sim.InstallProgram(path, src);
  EXPECT_TRUE(img.ok()) << "assembly failed";
  auto pid = sim.Start(path, {}, creds);
  EXPECT_TRUE(pid.ok());
  return Target{pid.ok() ? *pid : -1, img.ok() ? *img : Aout{}};
}

ProcHandle Grab(Sim& sim, Pid pid, int oflags = O_RDWR) {
  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), pid, oflags);
  EXPECT_TRUE(h.ok()) << "grab failed: " << ErrnoName(h.error());
  return std::move(*h);
}

// ---------------------------------------------------------------------------
// Figure 1: the /proc directory.
// ---------------------------------------------------------------------------

TEST(ProcDir, EntriesAreFiveDigitPids) {
  Sim sim;
  auto t = StartProgram(sim, kSpin);
  auto ents = sim.kernel().ReadDir(sim.controller(), "/proc");
  ASSERT_TRUE(ents.ok());
  bool found0 = false;
  bool found_target = false;
  for (const auto& e : *ents) {
    EXPECT_EQ(e.name.size(), 5u) << "pid names are zero-padded decimals";
    if (e.name == "00000") {
      found0 = true;
    }
    char want[8];
    std::snprintf(want, sizeof(want), "%05d", t.pid);
    if (e.name == want) {
      found_target = true;
    }
  }
  EXPECT_TRUE(found0) << "process 0 (sched) is listed";
  EXPECT_TRUE(found_target);
}

TEST(ProcDir, SystemProcessesHaveSizeZero) {
  Sim sim;
  auto t = StartProgram(sim, kSpin);
  // "system processes such as process 0 and process 2 have no user-level
  // address space, so their sizes are zero."
  auto a0 = sim.kernel().Stat(sim.controller(), "/proc/00000");
  ASSERT_TRUE(a0.ok());
  EXPECT_EQ(a0->size, 0u);
  auto a2 = sim.kernel().Stat(sim.controller(), "/proc/00002");
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2->size, 0u);
  char path[24];
  std::snprintf(path, sizeof(path), "/proc/%05d", t.pid);
  auto at = sim.kernel().Stat(sim.controller(), path);
  ASSERT_TRUE(at.ok());
  EXPECT_GT(at->size, 0u) << "a user process reports its total VM size";
}

TEST(ProcDir, OwnerIsRealUidGid) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kSpin).ok());
  auto pid = sim.Start("/bin/prog", {}, Creds::User(137, 42));
  ASSERT_TRUE(pid.ok());
  char path[24];
  std::snprintf(path, sizeof(path), "/proc/%05d", *pid);
  auto at = sim.kernel().Stat(sim.controller(), path);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(at->uid, 137u);
  EXPECT_EQ(at->gid, 42u);
}

TEST(ProcDir, LookupOfNonProcessFails) {
  Sim sim;
  EXPECT_FALSE(sim.kernel().Stat(sim.controller(), "/proc/09999").ok());
  EXPECT_FALSE(sim.kernel().Stat(sim.controller(), "/proc/banana").ok());
}

// Names under /proc and /proc2 are untrusted input (procd peers send
// paths). A decimal too large for a pid or an lwp id names nothing, even
// one that 32-bit arithmetic would wrap onto a live process; leading zeros
// still resolve.
TEST(ProcName, OutOfRangeNamesAreEnoent) {
  Sim sim;
  auto t = StartProgram(sim, kSpin);
  std::string wrapped = std::to_string((uint64_t{1} << 32) + static_cast<uint64_t>(t.pid));
  char padded[16];
  std::snprintf(padded, sizeof(padded), "%010d", t.pid);
  std::string dir = std::string("/proc2/") + padded;
  for (const std::string& path :
       {std::string("/proc/9999999999"), "/proc/" + wrapped, std::string("/proc2/9999999999"),
        "/proc2/" + wrapped, dir + "/lwp/99999999999", dir + "/lwp/4294967297"}) {
    auto a = sim.kernel().Stat(sim.controller(), path);
    ASSERT_FALSE(a.ok()) << path << " resolved";
    EXPECT_EQ(a.error(), Errno::kENOENT) << path;
  }
  for (const std::string& path : {std::string("/proc/") + padded, dir + "/status",
                                  dir + "/lwp/0001/lwpstatus"}) {
    EXPECT_TRUE(sim.kernel().Stat(sim.controller(), path).ok()) << path;
  }
}

// Readdir lists a pid under PidName and lookup parses it with ParseProcId;
// every pid a raised SetMaxPid can hand out must survive the round trip.
TEST(ProcName, PidNameRoundTripsThroughParseProcId) {
  for (Pid pid : {0, 5, 99999, (1 << 21) - 1, INT32_MAX}) {
    const std::string name = PidName(pid);
    auto back = ParseProcId(name);
    ASSERT_TRUE(back.ok()) << name;
    EXPECT_EQ(*back, pid) << name;
  }
  EXPECT_EQ(PidName(5), "00005");
  EXPECT_EQ(PidName(INT32_MAX), "2147483647");
}

// ---------------------------------------------------------------------------
// Address-space I/O.
// ---------------------------------------------------------------------------

TEST(ProcAsIo, ReadAndWriteAtVirtualAddresses) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);
  uint32_t var = *t.image.SymbolValue("var");

  // Let it count for a while, then peek at the counter.
  for (int i = 0; i < 200; ++i) {
    sim.kernel().Step();
  }
  uint32_t value = 0;
  auto n = h.ReadMem(var, &value, 4);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 4);
  EXPECT_GT(value, 0u);

  // Write a new value; the running process must observe it.
  uint32_t big = 1u << 30;
  ASSERT_TRUE(h.WriteMem(var, &big, 4).ok());
  for (int i = 0; i < 100; ++i) {
    sim.kernel().Step();
  }
  ASSERT_TRUE(h.ReadMem(var, &value, 4).ok());
  EXPECT_GE(value, big);
}

TEST(ProcAsIo, UnmappedOffsetFails) {
  Sim sim;
  auto t = StartProgram(sim, kSpin);
  auto h = Grab(sim, t.pid);
  uint8_t byte;
  auto n = h.ReadMem(0x10000, &byte, 1);
  ASSERT_FALSE(n.ok()) << "I/O with an offset in an unmapped area fails";
  EXPECT_EQ(n.error(), Errno::kEIO);
}

TEST(ProcAsIo, TransfersTruncateAtUnmappedBoundary) {
  Sim sim;
  auto t = StartProgram(sim, kSpin);
  auto h = Grab(sim, t.pid);
  // The text mapping is exactly one page; read across its end.
  uint32_t text_end = 0x80000000 + kPageSize;
  std::vector<uint8_t> buf(64);
  auto n = h.ReadMem(text_end - 8, buf.data(), buf.size());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 8) << "reads truncate at the boundary";
  // "This includes writes as well as reads."
  auto w = h.WriteMem(text_end - 8, buf.data(), buf.size());
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(*w, 8) << "writes truncate at the boundary";
}

TEST(ProcAsIo, BreakpointWriteIsCopyOnWrite) {
  Sim sim;
  // Two processes executing the same a.out share text pages.
  auto img = sim.InstallProgram("/bin/prog", kCounter);
  ASSERT_TRUE(img.ok());
  auto pid_a = sim.Start("/bin/prog");
  auto pid_b = sim.Start("/bin/prog");
  ASSERT_TRUE(pid_a.ok() && pid_b.ok());
  auto ha = Grab(sim, *pid_a);
  auto hb = Grab(sim, *pid_b);

  uint32_t text = img->text_vaddr;
  uint8_t orig_a, orig_b;
  ASSERT_TRUE(ha.ReadMem(text, &orig_a, 1).ok());
  ASSERT_TRUE(hb.ReadMem(text, &orig_b, 1).ok());
  EXPECT_EQ(orig_a, orig_b);

  // The process itself can't store into r-x text, but a controlling process
  // can; COW keeps everyone else intact.
  uint8_t bpt = kBreakpointByte;
  ASSERT_TRUE(ha.WriteMem(text, &bpt, 1).ok());

  uint8_t now_a = 0, now_b = 0;
  ASSERT_TRUE(ha.ReadMem(text, &now_a, 1).ok());
  ASSERT_TRUE(hb.ReadMem(text, &now_b, 1).ok());
  EXPECT_EQ(now_a, bpt);
  EXPECT_EQ(now_b, orig_b) << "writing to one process must not corrupt another";

  // The a.out file itself is unchanged.
  auto fd = sim.kernel().Open(sim.controller(), "/bin/prog", O_RDONLY);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(sim.kernel().Lseek(sim.controller(), *fd, Aout::TextFileOffset(),
                                 SEEK_SET_).ok());
  uint8_t file_byte = 0;
  ASSERT_TRUE(sim.kernel().Read(sim.controller(), *fd, &file_byte, 1).ok());
  EXPECT_EQ(file_byte, orig_b) << "the executable file must not be corrupted";
}

// ---------------------------------------------------------------------------
// Stop and run.
// ---------------------------------------------------------------------------

TEST(ProcStop, StopOnDemandAndStatus) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);
  ASSERT_TRUE(h.Stop().ok());
  auto st = h.Status();
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->pr_flags & PR_STOPPED);
  EXPECT_TRUE(st->pr_flags & PR_ISTOP) << "stopped on an event of interest";
  EXPECT_EQ(st->pr_why, PR_REQUESTED);
  EXPECT_EQ(st->pr_pid, t.pid);
  EXPECT_GT(st->pr_reg.pc, 0u);
  // pr_instr carries the instruction at pc.
  uint8_t byte;
  ASSERT_TRUE(h.ReadMem(st->pr_reg.pc, &byte, 1).ok());
  EXPECT_EQ(st->pr_instr & 0xFF, byte);
}

TEST(ProcStop, RunResumesExecution) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);
  uint32_t var = *t.image.SymbolValue("var");
  ASSERT_TRUE(h.Stop().ok());
  uint32_t v1 = 0, v2 = 0;
  ASSERT_TRUE(h.ReadMem(var, &v1, 4).ok());
  // While stopped, nothing advances.
  for (int i = 0; i < 50; ++i) {
    sim.kernel().Step();
  }
  ASSERT_TRUE(h.ReadMem(var, &v2, 4).ok());
  EXPECT_EQ(v1, v2);
  ASSERT_TRUE(h.Run().ok());
  for (int i = 0; i < 200; ++i) {
    sim.kernel().Step();
  }
  ASSERT_TRUE(h.ReadMem(var, &v2, 4).ok());
  EXPECT_GT(v2, v1);
}

TEST(ProcStop, RunOnNonStoppedProcessIsEBUSY) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);
  auto r = h.Run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEBUSY);
}

TEST(ProcStop, StopOfSleepingProcessDoesNotDisturbSyscall) {
  Sim sim;
  auto t = StartProgram(sim, kSleeper);
  auto h = Grab(sim, t.pid);
  // Let it get into the sleep.
  ASSERT_TRUE(sim.kernel().RunUntil([&]() {
    Proc* p = sim.kernel().FindProc(t.pid);
    return p != nullptr && p->MainLwp() != nullptr &&
           p->MainLwp()->state == LwpState::kSleeping;
  }));
  ASSERT_TRUE(h.Stop().ok());
  auto st = h.Status();
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->pr_flags & PR_ASLEEP) << "stopped while asleep in a syscall";
  EXPECT_EQ(st->pr_why, PR_REQUESTED);
  EXPECT_EQ(st->pr_syscall, SYS_sleep);
  // Resume: the sleep continues as if nothing happened.
  ASSERT_TRUE(h.Run().ok());
  auto ec = sim.kernel().RunToExit(t.pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_EQ(WExitCode(*ec), 0) << "the sleep must complete undisturbed";
}

TEST(ProcStop, AbortSyscallWhileAsleepGivesEintrWithoutSignals) {
  Sim sim;
  auto t = StartProgram(sim, kSleeper);
  auto h = Grab(sim, t.pid);
  ASSERT_TRUE(sim.kernel().RunUntil([&]() {
    Proc* p = sim.kernel().FindProc(t.pid);
    return p != nullptr && p->MainLwp() != nullptr &&
           p->MainLwp()->state == LwpState::kSleeping;
  }));
  ASSERT_TRUE(h.Stop().ok());
  PrRun r;
  r.pr_flags = PRSABORT;
  ASSERT_TRUE(h.Run(r).ok());
  auto ec = sim.kernel().RunToExit(t.pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_EQ(WExitCode(*ec), 42) << "the aborted call fails with EINTR";
}

TEST(ProcStop, WstopWaitsForAStop) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);
  Proc* p = sim.kernel().FindProc(t.pid);
  ASSERT_TRUE(sim.kernel().PrStop(p).ok());
  ASSERT_TRUE(h.WaitStop().ok());
  auto st = h.Status();
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->pr_flags & PR_STOPPED);
}

TEST(ProcStop, WstopOnExitingProcessIsENOENT) {
  Sim sim;
  auto t = StartProgram(sim, R"(
      ldi r0, SYS_exit
      ldi r1, 0
      sys
  )");
  auto h = Grab(sim, t.pid);
  auto r = h.WaitStop();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kENOENT);
}

TEST(ProcStop, SingleStepExecutesExactlyOneInstruction) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);
  ASSERT_TRUE(h.Stop().ok());
  FltSet faults;
  faults.Add(FLTTRACE);
  ASSERT_TRUE(h.SetFltTrace(faults).ok());
  auto before = h.GetRegs();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(h.Step().ok());
  ASSERT_TRUE(h.WaitStop().ok());
  auto st = h.Status();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->pr_why, PR_FAULTED);
  EXPECT_EQ(st->pr_what, FLTTRACE);
  // Exactly one instruction: `ldi r4, var` is 6 bytes.
  EXPECT_EQ(st->pr_reg.pc, before->pc + 6);
}

// ---------------------------------------------------------------------------
// Events of interest: system calls.
// ---------------------------------------------------------------------------

constexpr char kOneWrite[] = R"(
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, msg
      ldi r3, 14
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
      .data
msg:  .asciz "hello, world!\n"
)";

TEST(ProcSyscall, EntryStopSeesArgumentsBeforeExecution) {
  Sim sim;
  auto t = StartProgram(sim, kOneWrite);
  auto h = Grab(sim, t.pid);
  SysSet entry;
  entry.Add(SYS_write);
  ASSERT_TRUE(h.Stop().ok());
  ASSERT_TRUE(h.SetSysEntry(entry).ok());
  ASSERT_TRUE(h.Run().ok());
  ASSERT_TRUE(h.WaitStop().ok());
  auto st = h.Status();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->pr_why, PR_SYSENTRY);
  EXPECT_EQ(st->pr_what, SYS_write);
  EXPECT_EQ(st->pr_syscall, SYS_write);
  EXPECT_EQ(st->pr_nsysarg, 3);
  EXPECT_EQ(st->pr_sysarg[0], 1u);           // fd
  EXPECT_EQ(st->pr_sysarg[2], 14u);          // count
  EXPECT_TRUE(sim.ConsoleOutput().empty()) << "stop happens before execution";
}

TEST(ProcSyscall, DebuggerCanChangeArgumentsAtEntry) {
  Sim sim;
  auto t = StartProgram(sim, kOneWrite);
  auto h = Grab(sim, t.pid);
  SysSet entry;
  entry.Add(SYS_write);
  ASSERT_TRUE(h.Stop().ok());
  ASSERT_TRUE(h.SetSysEntry(entry).ok());
  ASSERT_TRUE(h.Run().ok());
  ASSERT_TRUE(h.WaitStop().ok());
  // "This gives a debugger the opportunity to change the system call
  // arguments before processing occurs."
  auto regs = h.GetRegs();
  ASSERT_TRUE(regs.ok());
  regs->r[3] = 5;  // shorten the write
  ASSERT_TRUE(h.SetRegs(*regs).ok());
  ASSERT_TRUE(h.Run().ok());
  auto ec = sim.kernel().RunToExit(t.pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_EQ(sim.ConsoleOutput(), "hello");
}

TEST(ProcSyscall, DebuggerCanManufactureReturnValuesAtExit) {
  Sim sim;
  auto t = StartProgram(sim, R"(
      ldi r0, SYS_getuid
      sys
      mov r1, r0
      ldi r0, SYS_exit
      sys
  )");
  auto h = Grab(sim, t.pid);
  SysSet exits;
  exits.Add(SYS_getuid);
  ASSERT_TRUE(h.Stop().ok());
  ASSERT_TRUE(h.SetSysExit(exits).ok());
  ASSERT_TRUE(h.Run().ok());
  ASSERT_TRUE(h.WaitStop().ok());
  auto st = h.Status();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->pr_why, PR_SYSEXIT);
  EXPECT_EQ(st->pr_what, SYS_getuid);
  EXPECT_EQ(st->pr_reg.r[0], 0u) << "real return value stored before the stop";
  auto regs = *h.GetRegs();
  regs.r[0] = 42;  // manufacture a different uid
  ASSERT_TRUE(h.SetRegs(regs).ok());
  ASSERT_TRUE(h.Run().ok());
  auto ec = sim.kernel().RunToExit(t.pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_EQ(WExitCode(*ec), 42);
}

TEST(ProcSyscall, AbortAtEntrySkipsTheCall) {
  Sim sim;
  auto t = StartProgram(sim, R"(
      ldi r0, SYS_getuid
      sys
      jcs failed
      ldi r0, SYS_exit
      ldi r1, 1          ; the call succeeded: wrong for this test
      sys
failed:
      cmpi r0, 4         ; EINTR
      jnz other
      ldi r0, SYS_exit
      ldi r1, 0
      sys
other:
      ldi r0, SYS_exit
      ldi r1, 2
      sys
  )");
  auto h = Grab(sim, t.pid);
  SysSet entry;
  entry.Add(SYS_getuid);
  ASSERT_TRUE(h.Stop().ok());
  ASSERT_TRUE(h.SetSysEntry(entry).ok());
  ASSERT_TRUE(h.Run().ok());
  ASSERT_TRUE(h.WaitStop().ok());
  PrRun r;
  r.pr_flags = PRSABORT;
  ASSERT_TRUE(h.Run(r).ok());
  auto ec = sim.kernel().RunToExit(t.pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_EQ(WExitCode(*ec), 0) << "aborted syscall returns EINTR";
}

TEST(ProcSyscall, ObsoleteSyscallEmulatedEntirelyAtUserLevel) {
  Sim sim;
  // The kernel refuses SYS_otime with ENOSYS. A controlling process
  // intercepts it and simulates it: "older system calls or alternate
  // versions of them can be simulated entirely at user level."
  auto t = StartProgram(sim, R"(
      ldi r0, SYS_otime
      sys
      jcs failed
      mov r1, r0
      ldi r0, SYS_exit
      sys
failed:
      ldi r0, SYS_exit
      ldi r1, 255
      sys
  )");
  auto h = Grab(sim, t.pid);
  SysSet set;
  set.Add(SYS_otime);
  ASSERT_TRUE(h.Stop().ok());
  ASSERT_TRUE(h.SetSysEntry(set).ok());
  ASSERT_TRUE(h.SetSysExit(set).ok());
  ASSERT_TRUE(h.Run().ok());

  // Entry: abort so the kernel never sees the call.
  ASSERT_TRUE(h.WaitStop().ok());
  ASSERT_EQ(h.Status()->pr_why, PR_SYSENTRY);
  PrRun r;
  r.pr_flags = PRSABORT;
  ASSERT_TRUE(h.Run(r).ok());

  // Exit: manufacture the emulated result.
  ASSERT_TRUE(h.WaitStop().ok());
  ASSERT_EQ(h.Status()->pr_why, PR_SYSEXIT);
  auto regs = *h.GetRegs();
  regs.r[0] = 99;             // the emulated "otime" result
  regs.psr &= ~kPsrC;         // success, not EINTR
  ASSERT_TRUE(h.SetRegs(regs).ok());
  ASSERT_TRUE(h.Run().ok());

  auto ec = sim.kernel().RunToExit(t.pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_EQ(WExitCode(*ec), 99);
}

// ---------------------------------------------------------------------------
// Events of interest: faults (breakpoints).
// ---------------------------------------------------------------------------

TEST(ProcFault, BreakpointViaFaultTracing) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);
  uint32_t loop = *t.image.SymbolValue("loop");

  ASSERT_TRUE(h.Stop().ok());
  FltSet faults;
  faults.Add(FLTBPT);
  ASSERT_TRUE(h.SetFltTrace(faults).ok());
  // Plant the breakpoint: replace the instruction with BPT.
  uint8_t orig;
  ASSERT_TRUE(h.ReadMem(loop, &orig, 1).ok());
  uint8_t bpt = kBreakpointByte;
  ASSERT_TRUE(h.WriteMem(loop, &bpt, 1).ok());
  ASSERT_TRUE(h.Run().ok());
  ASSERT_TRUE(h.WaitStop().ok());

  auto st = h.Status();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->pr_why, PR_FAULTED);
  EXPECT_EQ(st->pr_what, FLTBPT);
  EXPECT_EQ(st->pr_reg.pc, loop) << "pc is left at the breakpoint address";
  EXPECT_EQ(st->pr_info.si_code, FLTBPT);

  // Lift, clear the fault, continue: the program keeps counting.
  ASSERT_TRUE(h.WriteMem(loop, &orig, 1).ok());
  ASSERT_TRUE(h.RunClearFault().ok());
  uint32_t var = *t.image.SymbolValue("var");
  uint32_t v1 = 0, v2 = 0;
  ASSERT_TRUE(h.ReadMem(var, &v1, 4).ok());
  for (int i = 0; i < 300; ++i) {
    sim.kernel().Step();
  }
  ASSERT_TRUE(h.ReadMem(var, &v2, 4).ok());
  EXPECT_GT(v2, v1);
}

TEST(ProcFault, UnclearedFaultConvertsToSignal) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);
  uint32_t loop = *t.image.SymbolValue("loop");
  ASSERT_TRUE(h.Stop().ok());
  FltSet faults;
  faults.Add(FLTBPT);
  ASSERT_TRUE(h.SetFltTrace(faults).ok());
  uint8_t bpt = kBreakpointByte;
  ASSERT_TRUE(h.WriteMem(loop, &bpt, 1).ok());
  ASSERT_TRUE(h.Run().ok());
  ASSERT_TRUE(h.WaitStop().ok());
  // Resume WITHOUT PRCFAULT: the fault becomes SIGTRAP; default action kills.
  ASSERT_TRUE(h.Run().ok());
  auto ec = sim.kernel().RunToExit(t.pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_TRUE(WIfSignaled(*ec));
  EXPECT_EQ(WTermSig(*ec), SIGTRAP);
}

TEST(ProcFault, UntracedBreakpointBecomesSigtrap) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);
  uint32_t loop = *t.image.SymbolValue("loop");
  ASSERT_TRUE(h.Stop().ok());
  uint8_t bpt = kBreakpointByte;
  ASSERT_TRUE(h.WriteMem(loop, &bpt, 1).ok());
  ASSERT_TRUE(h.Run().ok());
  // FLTBPT is not traced: SIGTRAP with default action terminates (core).
  auto ec = sim.kernel().RunToExit(t.pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_TRUE(WIfSignaled(*ec));
  EXPECT_EQ(WTermSig(*ec), SIGTRAP);
}

// ---------------------------------------------------------------------------
// Events of interest: signals, job control, the issig() dance.
// ---------------------------------------------------------------------------

constexpr char kSigEcho[] = R"(
      ; handler writes "X" on SIGUSR1, then continues spinning
      ldi r0, SYS_sigaction
      ldi r1, SIGUSR1
      ldi r2, handler
      ldi r3, 0
      sys
spin: jmp spin
handler:
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, xmark
      ldi r3, 1
      sys
      ldi r0, SYS_sigreturn
      sys
      .data
xmark: .asciz "X"
)";

TEST(ProcSignal, SignalledStopThenDelivery) {
  Sim sim;
  auto t = StartProgram(sim, kSigEcho);
  auto h = Grab(sim, t.pid);
  ASSERT_TRUE(h.Stop().ok());
  SigSet sigs;
  sigs.Add(SIGUSR1);
  ASSERT_TRUE(h.SetSigTrace(sigs).ok());
  ASSERT_TRUE(h.Run().ok());
  // Let the handler be installed, then signal it.
  for (int i = 0; i < 100; ++i) {
    sim.kernel().Step();
  }
  ASSERT_TRUE(h.Kill(SIGUSR1).ok());
  ASSERT_TRUE(h.WaitStop().ok());
  auto st = h.Status();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->pr_why, PR_SIGNALLED);
  EXPECT_EQ(st->pr_what, SIGUSR1);
  EXPECT_EQ(st->pr_cursig, SIGUSR1);
  EXPECT_TRUE(sim.ConsoleOutput().empty());
  // Resume without clearing: the signal is delivered to the handler.
  ASSERT_TRUE(h.Run().ok());
  for (int i = 0; i < 400; ++i) {
    sim.kernel().Step();
  }
  EXPECT_EQ(sim.ConsoleOutput(), "X");
}

TEST(ProcSignal, SignalledStopClearedSuppressesDelivery) {
  Sim sim;
  auto t = StartProgram(sim, kSigEcho);
  auto h = Grab(sim, t.pid);
  ASSERT_TRUE(h.Stop().ok());
  SigSet sigs;
  sigs.Add(SIGUSR1);
  ASSERT_TRUE(h.SetSigTrace(sigs).ok());
  ASSERT_TRUE(h.Run().ok());
  for (int i = 0; i < 100; ++i) {
    sim.kernel().Step();
  }
  ASSERT_TRUE(h.Kill(SIGUSR1).ok());
  ASSERT_TRUE(h.WaitStop().ok());
  ASSERT_TRUE(h.RunClearSig().ok());
  for (int i = 0; i < 400; ++i) {
    sim.kernel().Step();
  }
  EXPECT_TRUE(sim.ConsoleOutput().empty()) << "cleared signal must not be delivered";
}

TEST(ProcSignal, UnkillRemovesPendingSignal) {
  Sim sim;
  auto t = StartProgram(sim, kSpin);
  auto h = Grab(sim, t.pid);
  ASSERT_TRUE(h.Stop().ok());
  ASSERT_TRUE(h.Kill(SIGTERM).ok());
  auto st = h.Status();
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->pr_sigpend.Has(SIGTERM));
  ASSERT_TRUE(h.Unkill(SIGTERM).ok());
  st = h.Status();
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(st->pr_sigpend.Has(SIGTERM));
  ASSERT_TRUE(h.Run().ok());
  for (int i = 0; i < 100; ++i) {
    sim.kernel().Step();
  }
  Proc* p = sim.kernel().FindProc(t.pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->state, Proc::State::kActive) << "deleted signal must not kill";
}

TEST(ProcSignal, JobControlDoubleStopAndProcGetsTheLastWord) {
  Sim sim;
  auto t = StartProgram(sim, kSpin);
  auto h = Grab(sim, t.pid);
  ASSERT_TRUE(h.Stop().ok());
  SigSet sigs;
  sigs.Add(SIGTSTP);
  ASSERT_TRUE(h.SetSigTrace(sigs).ok());
  ASSERT_TRUE(h.Run().ok());
  ASSERT_TRUE(h.Kill(SIGTSTP).ok());
  // First stop: the signalled stop.
  ASSERT_TRUE(h.WaitStop().ok());
  auto st = *h.Status();
  EXPECT_EQ(st.pr_why, PR_SIGNALLED);
  EXPECT_EQ(st.pr_what, SIGTSTP);
  // Set running without clearing the signal: the default action is taken
  // within issig() — a job-control stop.
  ASSERT_TRUE(h.Run().ok());
  ASSERT_TRUE(h.WaitStop().ok());
  st = *h.Status();
  EXPECT_EQ(st.pr_why, PR_JOBCONTROL);
  EXPECT_EQ(st.pr_what, SIGTSTP);
  EXPECT_FALSE(st.pr_flags & PR_ISTOP);
  // "Such a stopped process can be restarted only by sending it SIGCONT."
  auto r = h.Run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEBUSY);
  // Direct it to stop; then continue it: it stops on the requested stop
  // before exiting issig(). "/proc gets the last word."
  ASSERT_TRUE(h.Stop().ok());
  ASSERT_TRUE(h.Kill(SIGCONT).ok());
  ASSERT_TRUE(h.WaitStop().ok());
  st = *h.Status();
  EXPECT_EQ(st.pr_why, PR_REQUESTED);
  EXPECT_TRUE(st.pr_flags & PR_ISTOP);
  ASSERT_TRUE(h.Run().ok());
  for (int i = 0; i < 50; ++i) {
    sim.kernel().Step();
  }
  Proc* p = sim.kernel().FindProc(t.pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->MainLwp()->state, LwpState::kRunning);
}

TEST(ProcSignal, SetCurrentSignalInjectsIt) {
  Sim sim;
  auto t = StartProgram(sim, kSigEcho);
  auto h = Grab(sim, t.pid);
  for (int i = 0; i < 100; ++i) {
    sim.kernel().Step();  // install the handler
  }
  ASSERT_TRUE(h.Stop().ok());
  SigInfo info;
  info.si_signo = SIGUSR1;
  ASSERT_TRUE(h.SetCurSig(info).ok());
  ASSERT_TRUE(h.Run().ok());
  for (int i = 0; i < 400; ++i) {
    sim.kernel().Step();
  }
  EXPECT_EQ(sim.ConsoleOutput(), "X") << "injected signal reaches the handler";
}

// ---------------------------------------------------------------------------
// Multiple processes: inherit-on-fork, breakpoint lifting.
// ---------------------------------------------------------------------------

constexpr char kForker[] = R"(
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
      ldi r0, SYS_wait
      sys
      mov r5, r1
      ldi r6, 8
      shr r5, r6
      ldi r0, SYS_exit
      mov r1, r5
      sys
child:
      call f
      ldi r0, SYS_exit
      ldi r1, 7
      sys
f:    ldi r9, 1234
      ret
)";

TEST(ProcFork, InheritOnForkGivesControlOfChildBeforeItRuns) {
  Sim sim;
  auto t = StartProgram(sim, kForker);
  auto h = Grab(sim, t.pid);
  ASSERT_TRUE(h.Stop().ok());
  ASSERT_TRUE(h.SetInheritOnFork(true).ok());
  SysSet exits;
  exits.Add(SYS_fork);
  ASSERT_TRUE(h.SetSysExit(exits).ok());
  ASSERT_TRUE(h.Run().ok());
  ASSERT_TRUE(h.WaitStop().ok());
  auto st = *h.Status();
  ASSERT_EQ(st.pr_why, PR_SYSEXIT);
  ASSERT_EQ(st.pr_what, SYS_fork);
  Pid child_pid = static_cast<Pid>(st.pr_reg.r[0]);
  ASSERT_GT(child_pid, 0);
  // "The debugger sees the parent's stop on exit from fork and uses the
  // return value (the pid of the child) to open the child's /proc file.
  // Because the child stopped before executing any user-level code, the
  // debugger can maintain complete control."
  auto hc = Grab(sim, child_pid);
  auto cst = *hc.Status();
  EXPECT_TRUE(cst.pr_flags & PR_STOPPED);
  EXPECT_EQ(cst.pr_why, PR_SYSEXIT);
  EXPECT_EQ(cst.pr_what, SYS_fork);
  EXPECT_EQ(cst.pr_reg.r[0], 0u) << "fork returns 0 in the child";
  // The child inherited the tracing flags.
  auto child_exits = hc.GetSysExit();
  ASSERT_TRUE(child_exits.ok());
  EXPECT_TRUE(child_exits->Has(SYS_fork));
  EXPECT_TRUE(cst.pr_flags & PR_FORK);
  // Release both; everything completes.
  ASSERT_TRUE(hc.Run().ok());
  ASSERT_TRUE(h.Run().ok());
  auto ec = sim.kernel().RunToExit(t.pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_EQ(WExitCode(*ec), 7);
}

TEST(ProcFork, BreakpointLiftingRecipeKeepsChildClean) {
  Sim sim;
  auto t = StartProgram(sim, kForker);
  auto h = Grab(sim, t.pid);
  uint32_t f_addr = *t.image.SymbolValue("f");

  ASSERT_TRUE(h.Stop().ok());
  // No inherit-on-fork: children run unmolested — but planted breakpoints
  // would be inherited through the shared text. The paper's recipe: trace
  // entry and exit of fork; lift breakpoints at entry; re-establish at exit.
  SysSet set;
  set.Add(SYS_fork);
  ASSERT_TRUE(h.SetSysEntry(set).ok());
  ASSERT_TRUE(h.SetSysExit(set).ok());
  FltSet faults;
  faults.Add(FLTBPT);
  ASSERT_TRUE(h.SetFltTrace(faults).ok());

  uint8_t orig;
  ASSERT_TRUE(h.ReadMem(f_addr, &orig, 1).ok());
  uint8_t bpt = kBreakpointByte;
  ASSERT_TRUE(h.WriteMem(f_addr, &bpt, 1).ok());
  ASSERT_TRUE(h.Run().ok());

  // Stop on entry to fork: lift the breakpoints.
  ASSERT_TRUE(h.WaitStop().ok());
  ASSERT_EQ(h.Status()->pr_why, PR_SYSENTRY);
  ASSERT_TRUE(h.WriteMem(f_addr, &orig, 1).ok());
  ASSERT_TRUE(h.Run().ok());

  // Stop on exit from fork (parent): re-establish the breakpoints.
  ASSERT_TRUE(h.WaitStop().ok());
  ASSERT_EQ(h.Status()->pr_why, PR_SYSEXIT);
  ASSERT_TRUE(h.WriteMem(f_addr, &bpt, 1).ok());
  ASSERT_TRUE(h.Run().ok());

  // The child runs f() breakpoint-free and exits 7; the parent passes that
  // through as its own exit code.
  auto ec = sim.kernel().RunToExit(t.pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_TRUE(WIfExited(*ec));
  EXPECT_EQ(WExitCode(*ec), 7) << "the child must not hit the lifted breakpoint";
}

TEST(ProcFork, VforkSharedAddressSpaceNeedsSpecialCare) {
  // "Special care must be taken with vfork because the address space is
  // shared between parent and child until the child exits or execs. /proc
  // provides sufficient mechanism to deal with this case efficiently."
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/second", R"(
      ldi r0, SYS_exit
      ldi r1, 9
      sys
  )").ok());
  auto t = StartProgram(sim, R"(
      call f              ; parent uses f before and after the vfork
      ldi r0, SYS_vfork
      sys
      cmpi r0, 0
      jz child
      ldi r0, SYS_wait
      sys
      call f
      mov r5, r1
      ldi r6, 8
      shr r5, r6
      ldi r0, SYS_exit
      mov r1, r5
      sys
child:
      call f              ; runs in the SHARED address space
      ldi r0, SYS_exec
      ldi r1, path
      ldi r2, 0
      sys
      ldi r0, SYS_exit
      ldi r1, 1
      sys
f:    ldi r9, 3
      ret
      .data
path: .asciz "/bin/second"
  )");
  auto h = Grab(sim, t.pid);
  uint32_t f_addr = *t.image.SymbolValue("f");

  ASSERT_TRUE(h.Stop().ok());
  SysSet both;
  both.Add(SYS_vfork);
  ASSERT_TRUE(h.SetSysEntry(both).ok());
  ASSERT_TRUE(h.SetSysExit(both).ok());
  FltSet faults;
  faults.Add(FLTBPT);
  faults.Add(FLTTRACE);  // for the step-over
  ASSERT_TRUE(h.SetFltTrace(faults).ok());

  uint8_t orig, bpt = kBreakpointByte;
  ASSERT_TRUE(h.ReadMem(f_addr, &orig, 1).ok());
  ASSERT_TRUE(h.WriteMem(f_addr, &bpt, 1).ok());
  ASSERT_TRUE(h.Run().ok());

  // First the parent's own breakpoint hit before the vfork.
  ASSERT_TRUE(h.WaitStop().ok());
  ASSERT_EQ(h.Status()->pr_why, PR_FAULTED);
  ASSERT_TRUE(h.WriteMem(f_addr, &orig, 1).ok());
  {
    PrRun r;
    r.pr_flags = PRSTEP | PRCFAULT;
    ASSERT_TRUE(h.Run(r).ok());
    ASSERT_TRUE(h.WaitStop().ok());
    ASSERT_TRUE(h.WriteMem(f_addr, &bpt, 1).ok());
    PrRun r2;
    r2.pr_flags = PRCFAULT;
    ASSERT_TRUE(h.Run(r2).ok());
  }

  // Entry to vfork: LIFT the breakpoints. With an ordinary fork, COW would
  // protect the child; with vfork the child writes the parent's own pages,
  // so a leftover breakpoint would fire in the shared text.
  ASSERT_TRUE(h.WaitStop().ok());
  ASSERT_EQ(h.Status()->pr_why, PR_SYSENTRY);
  ASSERT_TRUE(h.WriteMem(f_addr, &orig, 1).ok());
  ASSERT_TRUE(h.Run().ok());

  // Exit from vfork (parent, after the child exec'd): re-establish. The
  // address space is private again.
  ASSERT_TRUE(h.WaitStop().ok());
  ASSERT_EQ(h.Status()->pr_why, PR_SYSEXIT);
  ASSERT_TRUE(h.WriteMem(f_addr, &bpt, 1).ok());
  ASSERT_TRUE(h.Run().ok());

  // The parent's post-vfork call to f hits the re-established breakpoint.
  ASSERT_TRUE(h.WaitStop().ok());
  ASSERT_EQ(h.Status()->pr_why, PR_FAULTED);
  ASSERT_EQ(h.Status()->pr_reg.pc, f_addr);
  ASSERT_TRUE(h.WriteMem(f_addr, &orig, 1).ok());
  ASSERT_TRUE(h.RunClearFault().ok());

  auto ec = sim.kernel().RunToExit(t.pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_EQ(WExitCode(*ec), 9) << "child exec'd cleanly through the shared space";
}

// ---------------------------------------------------------------------------
// run-on-last-close, persistence of tracing flags.
// ---------------------------------------------------------------------------

TEST(ProcClose, TracingFlagsPersistAfterCloseByDefault) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  {
    auto h = Grab(sim, t.pid);
    ASSERT_TRUE(h.Stop().ok());
    SigSet sigs;
    sigs.Add(SIGUSR1);
    ASSERT_TRUE(h.SetSigTrace(sigs).ok());
  }  // close: no run-on-last-close — the process stays stopped, flags stay
  Proc* p = sim.kernel().FindProc(t.pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->MainLwp()->state, LwpState::kStopped)
      << "a process can be left hanging and later reattached";
  auto h2 = Grab(sim, t.pid);
  auto sigs = h2.GetSigTrace();
  ASSERT_TRUE(sigs.ok());
  EXPECT_TRUE(sigs->Has(SIGUSR1));
  ASSERT_TRUE(h2.Run().ok());
}

TEST(ProcClose, RunOnLastCloseClearsTracingAndResumes) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  {
    auto h = Grab(sim, t.pid);
    ASSERT_TRUE(h.Stop().ok());
    SigSet sigs;
    sigs.Add(SIGUSR1);
    ASSERT_TRUE(h.SetSigTrace(sigs).ok());
    ASSERT_TRUE(h.SetRunOnLastClose(true).ok());
  }  // last writable close
  Proc* p = sim.kernel().FindProc(t.pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->MainLwp()->state, LwpState::kRunning)
      << "run-on-last-close sets a stopped process running";
  EXPECT_TRUE(p->trace.sigtrace.Empty()) << "all tracing flags cleared";
  EXPECT_FALSE(p->trace.run_on_last_close);
}

TEST(ProcClose, ReadOnlyCloseDoesNotTriggerRunOnLastClose) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);
  ASSERT_TRUE(h.Stop().ok());
  ASSERT_TRUE(h.SetRunOnLastClose(true).ok());
  {
    auto ro = Grab(sim, t.pid, O_RDONLY);
    auto st = ro.Status();
    ASSERT_TRUE(st.ok());
  }  // closing a read-only descriptor: not the last WRITABLE close
  Proc* p = sim.kernel().FindProc(t.pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->MainLwp()->state, LwpState::kStopped);
  EXPECT_TRUE(p->trace.run_on_last_close);
}

// ---------------------------------------------------------------------------
// Security.
// ---------------------------------------------------------------------------

TEST(ProcSecurity, UidAndGidMustBothMatch) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kSpin).ok());
  auto pid = sim.Start("/bin/prog", {}, Creds::User(100, 10));
  ASSERT_TRUE(pid.ok());

  Proc* same = sim.NewController(Creds::User(100, 10), "same");
  EXPECT_TRUE(ProcHandle::Grab(sim.kernel(), same, *pid).ok());

  Proc* wrong_gid = sim.NewController(Creds::User(100, 11), "wrong-gid");
  auto r1 = ProcHandle::Grab(sim.kernel(), wrong_gid, *pid);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.error(), Errno::kEACCES);

  Proc* wrong_uid = sim.NewController(Creds::User(101, 10), "wrong-uid");
  auto r2 = ProcHandle::Grab(sim.kernel(), wrong_uid, *pid);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error(), Errno::kEACCES);

  EXPECT_TRUE(ProcHandle::Grab(sim.kernel(), sim.controller(), *pid).ok())
      << "the super-user can always open";
}

TEST(ProcSecurity, SetIdProcessOpenableOnlyBySuperuser) {
  Sim sim;
  // A setuid-root executable started by an ordinary user.
  ASSERT_TRUE(sim.InstallProgram("/bin/suid", kSpin, 04755, 0, 0).ok());
  auto pid = sim.Start("/bin/suid", {}, Creds::User(100, 10));
  ASSERT_TRUE(pid.ok());
  Proc* owner = sim.NewController(Creds::User(100, 10), "owner");
  auto r = ProcHandle::Grab(sim.kernel(), owner, *pid);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEACCES);
  EXPECT_TRUE(ProcHandle::Grab(sim.kernel(), sim.controller(), *pid).ok());
}

TEST(ProcSecurity, ExclusiveOpenBlocksOtherWriters) {
  Sim sim;
  auto t = StartProgram(sim, kSpin);
  auto excl = ProcHandle::Grab(sim.kernel(), sim.controller(), t.pid, O_RDWR | O_EXCL);
  ASSERT_TRUE(excl.ok());
  auto other = ProcHandle::Grab(sim.kernel(), sim.controller(), t.pid, O_RDWR);
  ASSERT_FALSE(other.ok());
  EXPECT_EQ(other.error(), Errno::kEBUSY);
  // "Read-only opens are unaffected in this case."
  auto ro = ProcHandle::Grab(sim.kernel(), sim.controller(), t.pid, O_RDONLY);
  EXPECT_TRUE(ro.ok());
  // After the exclusive holder closes, writers may open again.
  excl->Close();
  EXPECT_TRUE(ProcHandle::Grab(sim.kernel(), sim.controller(), t.pid, O_RDWR).ok());
}

TEST(ProcSecurity, ExclusiveOpenFailsIfWritersExist) {
  Sim sim;
  auto t = StartProgram(sim, kSpin);
  auto w = Grab(sim, t.pid);
  auto excl = ProcHandle::Grab(sim.kernel(), sim.controller(), t.pid, O_RDWR | O_EXCL);
  ASSERT_FALSE(excl.ok());
  EXPECT_EQ(excl.error(), Errno::kEBUSY);
}

TEST(ProcSecurity, SetIdExecInvalidatesDescriptors) {
  Sim sim;
  // Target (owned by user 100) execs a setuid-root program.
  ASSERT_TRUE(sim.InstallProgram("/bin/suid", kSpin, 04755, 0, 0).ok());
  auto img = sim.InstallProgram("/bin/prog", R"(
      ldi r0, SYS_exec
      ldi r1, path
      ldi r2, 0
      sys
      ldi r0, SYS_exit
      ldi r1, 1
      sys
      .data
path: .asciz "/bin/suid"
  )");
  ASSERT_TRUE(img.ok());
  auto pid = sim.Start("/bin/prog", {}, Creds::User(100, 10));
  ASSERT_TRUE(pid.ok());

  Proc* owner = sim.NewController(Creds::User(100, 10), "owner");
  auto h = ProcHandle::Grab(sim.kernel(), owner, *pid);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->Status().ok());

  // Run until the set-id exec has happened and the process has stopped.
  sim.kernel().RunUntil([&]() {
    Proc* p = sim.kernel().FindProc(*pid);
    return p == nullptr || (p->MainLwp() != nullptr &&
                            p->MainLwp()->state == LwpState::kStopped);
  });
  Proc* p = sim.kernel().FindProc(*pid);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->setid);
  EXPECT_EQ(p->creds.euid, 0u) << "the set-id operation is honored";
  EXPECT_TRUE(p->trace.run_on_last_close) << "RLC is set on a set-id exec";
  EXPECT_EQ(p->MainLwp()->state, LwpState::kStopped)
      << "the traced process is directed to stop";

  // The old descriptor is invalid: nothing but close succeeds.
  auto st = h->Status();
  ASSERT_FALSE(st.ok());
  auto rd = h->ReadMem(0x80000000, nullptr, 0);
  uint8_t b;
  rd = h->ReadMem(0x80000000, &b, 1);
  EXPECT_FALSE(rd.ok());

  // A privileged controller can reopen the file to retain control.
  auto root_h = ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);
  ASSERT_TRUE(root_h.ok());
  EXPECT_TRUE(root_h->Status().ok());
  root_h->Close();

  // Just closing the invalid descriptor clears tracing and sets it running.
  h->Close();
  EXPECT_EQ(p->MainLwp()->state, LwpState::kRunning);
  EXPECT_FALSE(p->trace.run_on_last_close);
}

// Execs /bin/suid with `argc` copies of one argument of `arg_len` bytes
// (argv = 0 when argc is 0). A failed exec stores its errno in r9; r10 = 1
// marks the failure path.
std::string FailingExecSource(int argc, int arg_len) {
  std::string s = R"(
      ldi r0, SYS_exec
      ldi r1, path
      ldi r2, )" + std::string(argc > 0 ? "argv" : "0") + R"(
      sys
      mov r9, r0
      ldi r10, 1
spin: jmp spin
      .data
path: .asciz "/bin/suid"
)";
  if (argc > 0) {
    s += "arg:  .asciz \"" + std::string(static_cast<size_t>(arg_len), 'a') + "\"\n";
    s += "      .align 4\nargv:";
    for (int i = 0; i < argc; ++i) {
      s += i == 0 ? " .word arg" : ", arg";
    }
    s += ", 0\n";
  }
  return s;
}

// The exec under test has failed (r10 set) or the target has stopped.
void RunUntilExecFailsOrStops(Sim& sim, Pid pid) {
  sim.kernel().RunUntil([&]() {
    Proc* p = sim.kernel().FindProc(pid);
    Lwp* l = p == nullptr ? nullptr : p->MainLwp();
    return l == nullptr || l->state == LwpState::kStopped || l->regs.r[10] == 1;
  });
}

// A set-id exec that fails must leave the process as it was: its old
// credentials, its controllers' descriptors valid, no stop directed.
void ExpectNoSetIdTrace(Sim& sim, Pid pid, ProcHandle& h, Errno want) {
  Proc* p = sim.kernel().FindProc(pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->MainLwp()->regs.r[10], 1u) << "the exec did not fail back to its caller";
  EXPECT_EQ(p->MainLwp()->regs.r[9], static_cast<uint32_t>(want));
  EXPECT_EQ(p->creds.euid, 100u) << "a failed exec raised the effective uid";
  EXPECT_FALSE(p->setid);
  EXPECT_EQ(p->trace.gen, 1u) << "a failed exec invalidated descriptors";
  EXPECT_NE(p->MainLwp()->state, LwpState::kStopped) << "a failed exec directed a stop";
  EXPECT_FALSE(p->trace.run_on_last_close);
  EXPECT_TRUE(h.Status().ok()) << "the owner's descriptor must stay valid";
}

// 64 arguments of 1,023 bytes fill the 16-page initial stack, so the
// argument pointers no longer fit: the exec fails with EFAULT after its
// image has been read and its address space built.
TEST(ProcSecurity, SetIdExecFailingOnArgvLeavesNoTrace) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/suid", kSpin, 04755, 0, 0).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", FailingExecSource(64, 1023)).ok());
  auto pid = sim.Start("/bin/prog", {}, Creds::User(100, 10));
  ASSERT_TRUE(pid.ok());
  Proc* owner = sim.NewController(Creds::User(100, 10), "owner");
  auto h = ProcHandle::Grab(sim.kernel(), owner, *pid);
  ASSERT_TRUE(h.ok());
  RunUntilExecFailsOrStops(sim, *pid);
  ExpectNoSetIdTrace(sim, *pid, *h, Errno::kEFAULT);
}

// The first mapping of the new image fails (VM_MAP armed while the target
// is stopped at exec entry): ENOMEM, and again no trace.
TEST(ProcSecurity, SetIdExecFailingOnMapLeavesNoTrace) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/suid", kSpin, 04755, 0, 0).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", FailingExecSource(0, 0)).ok());
  auto pid = sim.Start("/bin/prog", {}, Creds::User(100, 10));
  ASSERT_TRUE(pid.ok());
  Proc* owner = sim.NewController(Creds::User(100, 10), "owner");
  auto h = ProcHandle::Grab(sim.kernel(), owner, *pid);
  ASSERT_TRUE(h.ok());
  SysSet entry;
  entry.Add(SYS_exec);
  ASSERT_TRUE(h->Stop().ok());
  ASSERT_TRUE(h->SetSysEntry(entry).ok());
  ASSERT_TRUE(h->Run().ok());
  ASSERT_TRUE(h->WaitStop().ok());
  auto st = h->Status();
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(st->pr_why, PR_SYSENTRY);
  ASSERT_EQ(st->pr_what, SYS_exec);
  sim.kernel().SetFaultPlan(FaultPlan().Arm(FaultSite::kVmMap, FaultRule{1, 1, 1, 1}));
  ASSERT_TRUE(h->Run().ok());
  RunUntilExecFailsOrStops(sim, *pid);
  ExpectNoSetIdTrace(sim, *pid, *h, Errno::kENOMEM);
}

TEST(ProcSecurity, ReadOnlyStaleDrainRunsLastClose) {
  Sim sim;
  // Regression: a set-id exec invalidates descriptors and sets
  // run-on-last-close whenever ANY open exists — including read-only-only
  // populations. The stale drain used to fire last-close only when a
  // writable stale close emptied the writable ledger, so a target whose
  // controllers were all read-only at exec time stayed directed-stopped
  // forever after the last stale close.
  ASSERT_TRUE(sim.InstallProgram("/bin/suid", kSpin, 04755, 0, 0).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", R"(
      ldi r0, SYS_exec
      ldi r1, path
      ldi r2, 0
      sys
      ldi r0, SYS_exit
      ldi r1, 1
      sys
      .data
path: .asciz "/bin/suid"
  )").ok());
  auto pid = sim.Start("/bin/prog", {}, Creds::User(100, 10));
  ASSERT_TRUE(pid.ok());
  Proc* owner = sim.NewController(Creds::User(100, 10), "owner");
  auto h = ProcHandle::Grab(sim.kernel(), owner, *pid, O_RDONLY);
  ASSERT_TRUE(h.ok());
  sim.kernel().RunUntil([&]() {
    Proc* p = sim.kernel().FindProc(*pid);
    return p == nullptr || (p->MainLwp() != nullptr &&
                            p->MainLwp()->state == LwpState::kStopped);
  });
  Proc* p = sim.kernel().FindProc(*pid);
  ASSERT_NE(p, nullptr);
  ASSERT_TRUE(p->trace.run_on_last_close) << "RLC is set on a set-id exec";
  ASSERT_EQ(p->trace.stale_total_opens, 1);
  ASSERT_EQ(p->trace.stale_writable_opens, 0) << "the only open was read-only";
  ASSERT_EQ(p->MainLwp()->state, LwpState::kStopped);

  // Closing the last (read-only) stale descriptor must release the target.
  h->Close();
  EXPECT_EQ(p->trace.stale_total_opens, 0);
  EXPECT_FALSE(p->trace.run_on_last_close)
      << "the read-only-only stale drain must still run last-close";
  EXPECT_EQ(p->MainLwp()->state, LwpState::kRunning)
      << "nothing else can ever resume a target with no descriptors left";
}

TEST(ProcSecurity, StaleCloseDoesNotDisturbNewController) {
  Sim sim;
  // Regression: closing a descriptor invalidated by a set-id exec used to
  // run the ordinary close path, decrementing the *new* incarnation's open
  // counters — one stale close could zero writable_opens, fire last-close,
  // drop another controller's exclusivity, and set the process running
  // underneath it.
  ASSERT_TRUE(sim.InstallProgram("/bin/suid", kSpin, 04755, 0, 0).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", R"(
      ldi r0, SYS_exec
      ldi r1, path
      ldi r2, 0
      sys
      ldi r0, SYS_exit
      ldi r1, 1
      sys
      .data
path: .asciz "/bin/suid"
  )").ok());
  auto pid = sim.Start("/bin/prog", {}, Creds::User(100, 10));
  ASSERT_TRUE(pid.ok());
  Proc* owner = sim.NewController(Creds::User(100, 10), "owner");
  auto h = ProcHandle::Grab(sim.kernel(), owner, *pid);  // writable, pre-exec
  ASSERT_TRUE(h.ok());
  sim.kernel().RunUntil([&]() {
    Proc* p = sim.kernel().FindProc(*pid);
    return p == nullptr || (p->MainLwp() != nullptr &&
                            p->MainLwp()->state == LwpState::kStopped);
  });
  Proc* p = sim.kernel().FindProc(*pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->trace.stale_writable_opens, 1)
      << "invalidation moved the old descriptor to the stale ledger";
  EXPECT_EQ(p->trace.writable_opens, 0);

  // A privileged controller takes exclusive control of the new incarnation.
  auto root_h =
      ProcHandle::Grab(sim.kernel(), sim.controller(), *pid, O_RDWR | O_EXCL);
  ASSERT_TRUE(root_h.ok());
  EXPECT_TRUE(p->trace.excl);
  EXPECT_EQ(p->trace.writable_opens, 1);

  // Closing the stale descriptor must not touch the live ledger, drop the
  // exclusive right, or resume the stopped process.
  h->Close();
  EXPECT_TRUE(p->trace.excl) << "stale close stole the exclusive right";
  EXPECT_EQ(p->trace.writable_opens, 1) << "stale close hit the live counter";
  EXPECT_EQ(p->trace.total_opens, 1);
  EXPECT_EQ(p->trace.stale_writable_opens, 0) << "the stale ledger drains";
  EXPECT_EQ(p->trace.stale_total_opens, 0);
  EXPECT_EQ(p->MainLwp()->state, LwpState::kStopped)
      << "the new controller's target must stay stopped";
  auto other = ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);
  ASSERT_FALSE(other.ok()) << "exclusivity survives the stale close";
  EXPECT_EQ(other.error(), Errno::kEBUSY);

  // The live controller's last close still triggers run-on-last-close.
  root_h->Close();
  EXPECT_FALSE(p->trace.excl);
  EXPECT_EQ(p->MainLwp()->state, LwpState::kRunning);
}

// ---------------------------------------------------------------------------
// Information operations.
// ---------------------------------------------------------------------------

TEST(ProcInfo, PsinfoSnapshot) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  auto pid = sim.kernel().Spawn("/bin/prog", {"prog", "arg1"}, Creds::User(5, 6));
  ASSERT_TRUE(pid.ok());
  for (int i = 0; i < 100; ++i) {
    sim.kernel().Step();
  }
  auto h = Grab(sim, *pid);
  auto ps = h.Psinfo();
  ASSERT_TRUE(ps.ok());
  EXPECT_EQ(ps->pr_pid, *pid);
  EXPECT_EQ(ps->pr_uid, 5u);
  EXPECT_EQ(ps->pr_gid, 6u);
  EXPECT_STREQ(ps->pr_fname, "prog");
  EXPECT_STREQ(ps->pr_psargs, "prog arg1");
  EXPECT_EQ(ps->pr_state, 'R');
  EXPECT_GT(ps->pr_size, 0u);
  EXPECT_GT(ps->pr_time, 0u);
}

TEST(ProcInfo, ZombiePsinfo) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", R"(
      ldi r0, SYS_exit
      ldi r1, 3
      sys
  )").ok());
  // Child of the (native) controller: stays a zombie until waited for.
  auto pid = sim.kernel().Spawn("/bin/prog", {"prog"}, Creds::Root(), sim.controller());
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(sim.kernel().RunToExit(*pid).ok());
  auto h = Grab(sim, *pid);
  auto ps = h.Psinfo();
  ASSERT_TRUE(ps.ok());
  EXPECT_EQ(ps->pr_state, 'Z');
  EXPECT_EQ(ps->pr_zomb, 1);
  // Context operations fail on a zombie.
  EXPECT_FALSE(h.Status().ok());
  EXPECT_FALSE(h.GetRegs().ok());
}

TEST(ProcInfo, CredentialsAndGroups) {
  Sim sim;
  Creds creds = Creds::User(100, 10);
  creds.groups = {10, 20, 30};
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kSpin).ok());
  auto pid = sim.kernel().Spawn("/bin/prog", {"prog"}, creds);
  ASSERT_TRUE(pid.ok());
  auto h = Grab(sim, *pid);
  auto c = h.Cred();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->pr_ruid, 100u);
  EXPECT_EQ(c->pr_euid, 100u);
  EXPECT_EQ(c->pr_rgid, 10u);
  EXPECT_EQ(c->pr_ngroups, 3u);
  EXPECT_EQ(c->pr_groups[2], 30u);
}

TEST(ProcInfo, UsageCountsResources) {
  Sim sim;
  auto t = StartProgram(sim, R"(
loop: ldi r0, SYS_getpid
      sys
      jmp loop
  )");
  auto h = Grab(sim, t.pid);
  for (int i = 0; i < 500; ++i) {
    sim.kernel().Step();
  }
  auto u = h.Usage();
  ASSERT_TRUE(u.ok());
  EXPECT_GT(u->pr_utime, 0u);
  EXPECT_GT(u->pr_sysc, 5u);
  EXPECT_GT(u->pr_rtime, 0u);
}

TEST(ProcInfo, MapShowsFigure2Structure) {
  Sim sim;
  // A shared library mapped at a high address, like Figure 2's 0xC01xxxxx
  // entries.
  auto lib = sim.InstallLibrary("libdemo", R"(
libfn: ldi r9, 5
       ret
       .data
libdat: .word 99
  )");
  ASSERT_TRUE(lib.ok());
  Assembler as = sim.NewAssembler();
  as.ImportLibrary(*lib, "libdemo");
  auto img = as.Assemble(R"(
      .lib "libdemo"
      call libfn
spin: jmp spin
      .data
      .word 1
      .bss
      .space 64
  )");
  ASSERT_TRUE(img.ok()) << as.error();
  ASSERT_TRUE(sim.kernel().InstallAout("/bin/libby", *img).ok());
  auto pid = sim.Start("/bin/libby");
  ASSERT_TRUE(pid.ok());

  auto h = Grab(sim, *pid);
  auto maps = h.GetMap();
  ASSERT_TRUE(maps.ok());

  bool text_ok = false, data_ok = false, stack_ok = false, break_ok = false;
  bool lib_text_ok = false, lib_data_ok = false;
  for (const auto& m : *maps) {
    // Everything is private: "this is generally the case unless processes
    // explicitly arrange to communicate through a shared mapping."
    EXPECT_FALSE(m.pr_mflags & MA_SHARED);
    std::string name = m.pr_mapname;
    if (name == "libby" && (m.pr_mflags & MA_EXEC)) {
      EXPECT_TRUE(m.pr_mflags & MA_READ);
      EXPECT_FALSE(m.pr_mflags & MA_WRITE);
      EXPECT_EQ(m.pr_vaddr, 0x80000000u);
      text_ok = true;
    }
    if (name == "libby" && (m.pr_mflags & MA_WRITE)) {
      data_ok = true;
    }
    if (m.pr_mflags & MA_STACK) {
      EXPECT_TRUE(m.pr_mflags & MA_WRITE);
      stack_ok = true;
    }
    if (m.pr_mflags & MA_BREAK) {
      break_ok = true;
    }
    if (name == "libdemo" && (m.pr_mflags & MA_EXEC)) {
      EXPECT_GE(m.pr_vaddr, 0xC0100000u);
      lib_text_ok = true;
    }
    if (name == "libdemo" && (m.pr_mflags & MA_WRITE)) {
      lib_data_ok = true;
    }
  }
  EXPECT_TRUE(text_ok) << "a.out text: private read/exec";
  EXPECT_TRUE(data_ok) << "a.out data: private read/write";
  EXPECT_TRUE(stack_ok) << "stack mapping flagged MA_STACK";
  EXPECT_TRUE(break_ok) << "break mapping appears despite the disclaimers";
  EXPECT_TRUE(lib_text_ok) << "shared library text mapped high";
  EXPECT_TRUE(lib_data_ok) << "shared library data mapped";

  // And the program actually ran through the library call.
  for (int i = 0; i < 100; ++i) {
    sim.kernel().Step();
  }
  ASSERT_TRUE(h.Stop().ok());
  auto regs = h.GetRegs();
  ASSERT_TRUE(regs.ok());
  EXPECT_EQ(regs->r[9], 5u) << "the library function executed";
}

// exec loads the executable and its /lib library through one path: the
// whole PIOCMAP list of a program whose library has text, data and bss,
// captured while the two were still loaded by separate copies.
TEST(ProcInfo, ExecMapsProgramAndLibraryAsBefore) {
  Sim sim;
  auto lib = sim.InstallLibrary("libtri", R"(
libfn:  ldi r9, 1
        ret
        .data
libvar: .word 7
        .bss
libbss: .space 8192
  )");
  ASSERT_TRUE(lib.ok());
  Assembler as = sim.NewAssembler();
  as.ImportLibrary(*lib, "libtri");
  auto img = as.Assemble(R"(
      .lib "libtri"
      call libfn
spin: jmp spin
      .data
      .space 6000
      .bss
      .space 70000
  )");
  ASSERT_TRUE(img.ok()) << as.error();
  ASSERT_TRUE(sim.kernel().InstallAout("/bin/tri", *img).ok());
  auto pid = sim.Start("/bin/tri");
  ASSERT_TRUE(pid.ok());
  auto maps = Grab(sim, *pid).GetMap();
  ASSERT_TRUE(maps.ok());
  std::ostringstream got;
  for (const auto& m : *maps) {
    got << std::hex << m.pr_vaddr << " " << m.pr_size << " " << m.pr_mflags << " "
        << m.pr_mapname << "\n";
  }
  EXPECT_EQ(got.str(),
            "80000000 1000 5 tri\n"        // text r-x
            "80008000 2000 6 tri\n"        // data rw
            "8000a000 11000 46 tri\n"      // bss rw, anonymous
            "8001b000 1000 56 break\n"
            "bffee000 10000 66 stack\n"
            "c0100000 1000 5 libtri\n"     // library text r-x
            "c0108000 1000 6 libtri\n"     // library data rw
            "c0109000 2000 46 libtri\n");  // library bss rw, anonymous
}

TEST(ProcInfo, OpenMappedObjectFindsSymbolTables) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);
  // "This enables a debugger to find executable file symbol tables ...
  // without having to know pathnames."
  auto fd = h.OpenMappedObject(/*use_exe=*/false, 0x80000000);
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> bytes(1 << 16);
  auto n = sim.kernel().Read(sim.controller(), *fd, bytes.data(), bytes.size());
  ASSERT_TRUE(n.ok());
  bytes.resize(static_cast<size_t>(*n));
  auto parsed = Aout::Parse(bytes);
  ASSERT_TRUE(parsed.ok());
  auto var = parsed->SymbolValue("var");
  ASSERT_TRUE(var.ok());
  EXPECT_EQ(*var, *t.image.SymbolValue("var"));
}

TEST(ProcInfo, DeprecatedRawStructureOps) {
  Sim sim;
  auto t = StartProgram(sim, kSpin);
  auto h = Grab(sim, t.pid);
  // "These operations are provided for completeness but their use is
  // deprecated."
  PrRawProc raw;
  ASSERT_TRUE(sim.kernel().Ioctl(sim.controller(), h.fd(), PIOCGETPR, &raw).ok());
  EXPECT_EQ(raw.p_pid, t.pid);
  PrRawUser u;
  ASSERT_TRUE(sim.kernel().Ioctl(sim.controller(), h.fd(), PIOCGETU, &u).ok());
  EXPECT_STREQ(u.u_comm, "prog");
}

TEST(ProcInfo, MaxSigAndActions) {
  Sim sim;
  auto t = StartProgram(sim, kSigEcho);
  for (int i = 0; i < 100; ++i) {
    sim.kernel().Step();
  }
  auto h = Grab(sim, t.pid);
  int maxsig = 0;
  ASSERT_TRUE(sim.kernel().Ioctl(sim.controller(), h.fd(), PIOCMAXSIG, &maxsig).ok());
  EXPECT_EQ(maxsig, 128);
  auto acts = h.GetActions();
  ASSERT_TRUE(acts.ok());
  EXPECT_NE((*acts)[SIGUSR1 - 1].handler, SIG_DFL) << "handler installed";
  EXPECT_EQ((*acts)[SIGUSR2 - 1].handler, SIG_DFL);
}

TEST(ProcInfo, NiceAdjustsPriority) {
  Sim sim;
  auto t = StartProgram(sim, kSpin);
  auto h = Grab(sim, t.pid);
  ASSERT_TRUE(h.Nice(5).ok());
  EXPECT_EQ(sim.kernel().FindProc(t.pid)->nice, 25);
}

TEST(ProcInfo, ControlOpsRequireWritableDescriptor) {
  Sim sim;
  auto t = StartProgram(sim, kSpin);
  auto ro = Grab(sim, t.pid, O_RDONLY);
  EXPECT_TRUE(ro.Status().ok()) << "read-only ops work on read-only fds";
  auto r = ro.Stop();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEBADF) << "control ops need write access";
}

// ---------------------------------------------------------------------------
// Proposed extensions: watchpoints, page data, poll.
// ---------------------------------------------------------------------------

constexpr char kWatchTarget[] = R"(
      ldi r4, var
      ldi r5, 1
      stw r5, [r4+8]   ; same page, NOT watched
      stw r5, [r4]     ; watched: FLTWATCH
      ldi r0, SYS_exit
      ldi r1, 0
      sys
      .data
var:  .word 0
      .word 0, 0, 0
)";

TEST(ProcWatch, WatchpointFiresOnlyOnWatchedBytes) {
  Sim sim;
  auto t = StartProgram(sim, kWatchTarget);
  auto h = Grab(sim, t.pid);
  uint32_t var = *t.image.SymbolValue("var");
  ASSERT_TRUE(h.Stop().ok());
  FltSet faults;
  faults.Add(FLTWATCH);
  ASSERT_TRUE(h.SetFltTrace(faults).ok());
  ASSERT_TRUE(h.SetWatch(PrWatch{var, 4, WA_WRITE}).ok());
  ASSERT_TRUE(h.Run().ok());
  ASSERT_TRUE(h.WaitStop().ok());
  auto st = *h.Status();
  EXPECT_EQ(st.pr_why, PR_FAULTED);
  EXPECT_EQ(st.pr_what, FLTWATCH);
  EXPECT_EQ(st.pr_info.si_addr, var);
  // The unwatched same-page store already executed: "the traced process
  // stops only when a watchpoint really fires."
  uint32_t pad = 0;
  ASSERT_TRUE(h.ReadMem(var + 8, &pad, 4).ok());
  EXPECT_EQ(pad, 1u);
  uint32_t v = 0;
  ASSERT_TRUE(h.ReadMem(var, &v, 4).ok());
  EXPECT_EQ(v, 0u) << "the watched store has not executed yet";
  // Clear the watchpoint and the fault; the program completes.
  ASSERT_TRUE(h.ClearWatch(var).ok());
  ASSERT_TRUE(h.RunClearFault().ok());
  auto ec = sim.kernel().RunToExit(t.pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_EQ(WExitCode(*ec), 0);
}

TEST(ProcWatch, ByteGranularity) {
  Sim sim;
  auto t = StartProgram(sim, R"(
      ldi r4, buf
      ldi r5, 7
      stb r5, [r4+0]
      stb r5, [r4+1]   ; watched single byte
      ldi r0, SYS_exit
      ldi r1, 0
      sys
      .data
buf:  .word 0
  )");
  auto h = Grab(sim, t.pid);
  uint32_t buf = *t.image.SymbolValue("buf");
  ASSERT_TRUE(h.Stop().ok());
  FltSet faults;
  faults.Add(FLTWATCH);
  ASSERT_TRUE(h.SetFltTrace(faults).ok());
  // "down to a single byte"
  ASSERT_TRUE(h.SetWatch(PrWatch{buf + 1, 1, WA_WRITE}).ok());
  ASSERT_TRUE(h.Run().ok());
  ASSERT_TRUE(h.WaitStop().ok());
  auto st = *h.Status();
  EXPECT_EQ(st.pr_what, FLTWATCH);
  EXPECT_EQ(st.pr_info.si_addr, buf + 1);
}

TEST(ProcWatch, ReadWatchpoints) {
  Sim sim;
  auto t = StartProgram(sim, R"(
      ldi r4, var
      ldw r5, [r4]
      ldi r0, SYS_exit
      ldi r1, 0
      sys
      .data
var:  .word 11
  )");
  auto h = Grab(sim, t.pid);
  uint32_t var = *t.image.SymbolValue("var");
  ASSERT_TRUE(h.Stop().ok());
  FltSet faults;
  faults.Add(FLTWATCH);
  ASSERT_TRUE(h.SetFltTrace(faults).ok());
  ASSERT_TRUE(h.SetWatch(PrWatch{var, 4, WA_READ}).ok());
  ASSERT_TRUE(h.Run().ok());
  ASSERT_TRUE(h.WaitStop().ok());
  EXPECT_EQ(h.Status()->pr_what, FLTWATCH);
  auto watches = h.GetWatches();
  ASSERT_TRUE(watches.ok());
  ASSERT_EQ(watches->size(), 1u);
  EXPECT_EQ((*watches)[0].pr_wflags, WA_READ);
}

TEST(ProcPageData, ReferencedAndModifiedBits) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);
  uint32_t var = *t.image.SymbolValue("var");
  for (int i = 0; i < 300; ++i) {
    sim.kernel().Step();
  }
  ASSERT_TRUE(h.Stop().ok());
  auto pd = h.PageData(/*clear=*/true);
  ASSERT_TRUE(pd.ok());
  bool data_modified = false;
  for (const auto& seg : pd->segs) {
    if (var >= seg.vaddr && var < seg.vaddr + seg.pg.size() * kPageSize) {
      uint32_t idx = (var - seg.vaddr) / kPageSize;
      data_modified = (seg.pg[idx] & PG_MODIFIED) != 0;
    }
  }
  EXPECT_TRUE(data_modified) << "the counter's data page is modified";
  // After the clearing sample, a fresh sample shows no activity (stopped).
  auto pd2 = h.PageData(false);
  ASSERT_TRUE(pd2.ok());
  for (const auto& seg : pd2->segs) {
    for (uint8_t pg : seg.pg) {
      EXPECT_EQ(pg, 0) << "sampling cleared the referenced/modified bits";
    }
  }
}

TEST(ProcPoll, PollReportsStopAsPri) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);
  PollFd pf;
  pf.fd = h.fd();
  pf.events = POLLPRI;
  auto n = sim.kernel().PollFds(sim.controller(), std::span<PollFd>(&pf, 1), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0) << "not stopped: not ready";
  ASSERT_TRUE(h.Stop().ok());
  n = sim.kernel().PollFds(sim.controller(), std::span<PollFd>(&pf, 1), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1);
  EXPECT_TRUE(pf.revents & POLLPRI);
}

TEST(ProcPoll, PollWaitsForAnyOfSeveralProcesses) {
  Sim sim;
  // "to wait for any one of a set of controlled processes to stop"
  auto ta = StartProgram(sim, kCounter, "/bin/a");
  auto tb = StartProgram(sim, R"(
      ldi r0, SYS_sleep
      ldi r1, 500
      sys
      bpt                 ; traced fault: stops
spin: jmp spin
  )",
                         "/bin/b");
  auto ha = Grab(sim, ta.pid);
  auto hb = Grab(sim, tb.pid);
  FltSet faults;
  faults.Add(FLTBPT);
  ASSERT_TRUE(hb.Stop().ok());
  ASSERT_TRUE(hb.SetFltTrace(faults).ok());
  ASSERT_TRUE(hb.Run().ok());

  PollFd pfs[2];
  pfs[0].fd = ha.fd();
  pfs[0].events = POLLPRI;
  pfs[1].fd = hb.fd();
  pfs[1].events = POLLPRI;
  auto n = sim.kernel().PollFds(sim.controller(), pfs, 1'000'000);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1);
  EXPECT_FALSE(pfs[0].revents & POLLPRI);
  EXPECT_TRUE(pfs[1].revents & POLLPRI) << "the breakpointed process stopped";
}

TEST(ProcPoll, UnrequestedPriIsNotReported) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);
  ASSERT_TRUE(h.Stop().ok());
  // Regression: a stopped target used to leak POLLPRI into revents even
  // when the caller never asked for it. Like POLLIN/POLLOUT, POLLPRI must
  // be gated on events; only POLLERR/POLLHUP/POLLNVAL pass unrequested.
  PollFd pf;
  pf.fd = h.fd();
  pf.events = 0;
  auto n = sim.kernel().PollFds(sim.controller(), std::span<PollFd>(&pf, 1), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0) << "POLLPRI was not requested";
  EXPECT_EQ(pf.revents, 0);
  pf.events = POLLIN;
  n = sim.kernel().PollFds(sim.controller(), std::span<PollFd>(&pf, 1), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0) << "POLLIN does not imply POLLPRI";
  EXPECT_EQ(pf.revents, 0);
}

TEST(ProcPoll, HupOnZombieIsReportedUnrequested) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", R"(
      ldi r0, SYS_exit
      ldi r1, 0
      sys
  )").ok());
  auto pid = sim.kernel().Spawn("/bin/prog", {"prog"}, Creds::Root(), sim.controller());
  ASSERT_TRUE(pid.ok());
  auto h = Grab(sim, *pid);
  ASSERT_TRUE(sim.kernel().RunToExit(*pid).ok());
  // POLLHUP belongs to the always-reported class: events = 0 must not
  // suppress it.
  PollFd pf;
  pf.fd = h.fd();
  pf.events = 0;
  auto n = sim.kernel().PollFds(sim.controller(), std::span<PollFd>(&pf, 1), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1);
  EXPECT_EQ(pf.revents, POLLHUP);
}

TEST(ProcPoll, NvalAfterSetIdExecIsReportedUnrequested) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/suid", kSpin, 04755, 0, 0).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", R"(
      ldi r0, SYS_exec
      ldi r1, path
      ldi r2, 0
      sys
      ldi r0, SYS_exit
      ldi r1, 1
      sys
      .data
path: .asciz "/bin/suid"
  )").ok());
  auto pid = sim.Start("/bin/prog", {}, Creds::User(100, 10));
  ASSERT_TRUE(pid.ok());
  Proc* owner = sim.NewController(Creds::User(100, 10), "owner");
  auto h = ProcHandle::Grab(sim.kernel(), owner, *pid);
  ASSERT_TRUE(h.ok());
  sim.kernel().RunUntil([&]() {
    Proc* p = sim.kernel().FindProc(*pid);
    return p == nullptr || (p->MainLwp() != nullptr &&
                            p->MainLwp()->state == LwpState::kStopped);
  });
  // The set-id exec invalidated the descriptor: poll reports POLLNVAL even
  // with no events requested, so a multiplexing controller notices.
  PollFd pf;
  pf.fd = h->fd();
  pf.events = 0;
  auto n = sim.kernel().PollFds(owner, std::span<PollFd>(&pf, 1), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1);
  EXPECT_EQ(pf.revents, POLLNVAL);
  h->Close();
}

TEST(ProcPoll, BlockedPollWakesOnStopDespiteSpuriousWakeups) {
  Sim sim;
  auto t = StartProgram(sim, R"(
      ldi r0, SYS_sleep
      ldi r1, 500
      sys
      bpt
spin: jmp spin
  )");
  auto h = Grab(sim, t.pid);
  FltSet faults;
  faults.Add(FLTBPT);
  ASSERT_TRUE(h.Stop().ok());
  ASSERT_TRUE(h.SetFltTrace(faults).ok());
  ASSERT_TRUE(h.Run().ok());
  // Spurious wakeups on the poll channel force the sleeping poller through
  // extra wake/recheck/re-block cycles; the result must be unchanged.
  FaultPlan plan;
  plan.Arm(FaultSite::kSpuriousWakeup, FaultRule{17, 1, 4, 64});
  sim.kernel().SetFaultPlan(plan);
  PollFd pf;
  pf.fd = h.fd();
  pf.events = POLLPRI;
  auto n = sim.kernel().PollFds(sim.controller(), std::span<PollFd>(&pf, 1), 1'000'000);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1);
  EXPECT_TRUE(pf.revents & POLLPRI) << "the breakpoint stop wakes the poller";
  EXPECT_GT(sim.kernel().fault_injector()->fires(FaultSite::kSpuriousWakeup), 0u)
      << "the sweep actually exercised spurious wakeups";
}

TEST(ProcPoll, PollReportsExitAsHup) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", R"(
      ldi r0, SYS_exit
      ldi r1, 0
      sys
  )").ok());
  auto pid = sim.kernel().Spawn("/bin/prog", {"prog"}, Creds::Root(), sim.controller());
  ASSERT_TRUE(pid.ok());
  auto h = Grab(sim, *pid);
  ASSERT_TRUE(sim.kernel().RunToExit(*pid).ok());
  PollFd pf;
  pf.fd = h.fd();
  pf.events = POLLPRI;
  auto n = sim.kernel().PollFds(sim.controller(), std::span<PollFd>(&pf, 1), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1);
  EXPECT_TRUE(pf.revents & POLLHUP);
}

// ---------------------------------------------------------------------------
// Registers.
// ---------------------------------------------------------------------------

TEST(ProcRegs, GetAndSetRegisters) {
  Sim sim;
  auto t = StartProgram(sim, R"(
      ldi r7, 0x1111
spin: jmp spin
  )");
  auto h = Grab(sim, t.pid);
  for (int i = 0; i < 50; ++i) {
    sim.kernel().Step();
  }
  ASSERT_TRUE(h.Stop().ok());
  auto regs = h.GetRegs();
  ASSERT_TRUE(regs.ok());
  EXPECT_EQ(regs->r[7], 0x1111u);
  regs->r[7] = 0x2222;
  ASSERT_TRUE(h.SetRegs(*regs).ok());
  auto again = h.GetRegs();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->r[7], 0x2222u);
}

TEST(ProcRegs, FloatingPointRegisters) {
  Sim sim;
  auto t = StartProgram(sim, R"(
      fldi f2, 2.75
spin: jmp spin
  )");
  auto h = Grab(sim, t.pid);
  for (int i = 0; i < 50; ++i) {
    sim.kernel().Step();
  }
  ASSERT_TRUE(h.Stop().ok());
  auto fp = h.GetFpRegs();
  ASSERT_TRUE(fp.ok());
  EXPECT_DOUBLE_EQ(fp->f[2], 2.75);
  fp->f[3] = -1.5;
  ASSERT_TRUE(h.SetFpRegs(*fp).ok());
  EXPECT_DOUBLE_EQ(h.GetFpRegs()->f[3], -1.5);
}

// ---------------------------------------------------------------------------
// /proc + ptrace interactions (Figure 4).
// ---------------------------------------------------------------------------

TEST(ProcPtrace, ProcStopsFirstThenPtraceHasControl) {
  Sim sim;
  // parent forks; child TRACEMEs, announces itself, and spins. The parent
  // waits for the ptrace stop and continues the child once.
  auto t = StartProgram(sim, R"(
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
      mov r8, r0
      ldi r0, SYS_wait        ; returns when the child ptrace-stops
      sys
      ldi r0, SYS_ptrace      ; PT_CONT(child, addr=1, sig=0)
      ldi r1, 7
      mov r2, r8
      ldi r3, 1
      ldi r4, 0
      sys
      ldi r0, SYS_wait        ; child continues; blocks until it dies
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
child:
      ldi r0, SYS_ptrace      ; PT_TRACEME
      ldi r1, 0
      sys
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, mark
      ldi r3, 1
      sys
spin: jmp spin
      .data
mark: .asciz "A"
  )");
  (void)t;
  // Wait until the child announces itself.
  ASSERT_TRUE(sim.kernel().RunUntil([&]() { return !sim.ConsoleOutput().empty(); }));
  // Find the child: the only process whose pt_traced flag is set.
  Pid child_pid = -1;
  for (Pid pid : sim.kernel().AllPids()) {
    Proc* p = sim.kernel().FindProc(pid);
    if (p != nullptr && p->pt_traced) {
      child_pid = pid;
    }
  }
  ASSERT_GT(child_pid, 0);
  auto h = Grab(sim, child_pid);
  SigSet sigs;
  sigs.Add(SIGUSR1);
  ASSERT_TRUE(h.SetSigTrace(sigs).ok());
  ASSERT_TRUE(h.Kill(SIGUSR1).ok());
  ASSERT_TRUE(h.WaitStop().ok());
  auto st = *h.Status();
  EXPECT_EQ(st.pr_why, PR_SIGNALLED);
  EXPECT_TRUE(st.pr_flags & PR_ISTOP) << "/proc sees its signalled stop first";
  EXPECT_TRUE(st.pr_flags & PR_PTRACE);

  // "The process must be set running through /proc before it can be
  // manipulated by ptrace. Even though the process is logically set running,
  // it remains stopped ... and cannot be set running again through /proc;
  // ptrace has control."
  ASSERT_TRUE(h.Run().ok());
  ASSERT_TRUE(sim.kernel().RunUntil([&]() {
    Proc* p = sim.kernel().FindProc(child_pid);
    return p != nullptr && p->pt_owned_stop;
  }));
  auto r = h.Run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEBUSY);

  // Direct a stop through /proc; when ptrace sets it running (the parent's
  // PT_CONT), it stops again on the requested stop before exiting issig().
  ASSERT_TRUE(h.Stop().ok());
  ASSERT_TRUE(sim.kernel().RunUntil([&]() {
    Proc* p = sim.kernel().FindProc(child_pid);
    if (p == nullptr) {
      return true;
    }
    Lwp* l = p->MainLwp();
    return l != nullptr && l->state == LwpState::kStopped && l->stop_why == PR_REQUESTED;
  }));
  auto st2 = *h.Status();
  EXPECT_EQ(st2.pr_why, PR_REQUESTED);
  // Clean up: release and kill the child.
  ASSERT_TRUE(h.Run().ok());
  ASSERT_TRUE(h.Kill(SIGKILL).ok());
  auto ec = sim.kernel().RunToExit(t.pid);
  EXPECT_TRUE(ec.ok());
}

// ---------------------------------------------------------------------------
// LWP ids through the flat interface.
// ---------------------------------------------------------------------------

TEST(ProcLwp, LwpIdsListsThreads) {
  Sim sim;
  auto t = StartProgram(sim, R"(
      ldi r0, SYS_lwp_create
      ldi r1, thread
      ldi r2, tstack+1024
      sys
spin: jmp spin
thread:
t2:   jmp t2
      .bss
tstack: .space 1024
  )");
  auto h = Grab(sim, t.pid);
  for (int i = 0; i < 50; ++i) {
    sim.kernel().Step();
  }
  auto ids = h.LwpIds();
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->n, 2u);
  auto st = h.Status();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->pr_nlwp, 2u);
}

// ---------------------------------------------------------------------------
// Execution-path statistics (PIOCVMSTATS).
// ---------------------------------------------------------------------------

TEST(ProcVmStats, CountersAdvanceWithExecution) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);
  for (int i = 0; i < 500; ++i) {
    sim.kernel().Step();
  }
  auto s1 = h.VmStats();
  ASSERT_TRUE(s1.ok());
  EXPECT_GT(s1->pr_instructions, 0u);
  EXPECT_GT(s1->pr_tlb_hits, 0u) << "a tight loop should run out of the TLB";
  EXPECT_GT(s1->pr_slow_lookups, 0u) << "first touches take the slow path";

  for (int i = 0; i < 500; ++i) {
    sim.kernel().Step();
  }
  auto s2 = h.VmStats();
  ASSERT_TRUE(s2.ok());
  EXPECT_GT(s2->pr_instructions, s1->pr_instructions);
  EXPECT_GT(s2->pr_tlb_hits, s1->pr_tlb_hits);
}

}  // namespace
}  // namespace svr4
