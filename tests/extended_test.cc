// Extended coverage: forced syscall injection, truss-on-command, poll from
// simulated processes, deeper signal semantics, vfork sharing, multi-process
// debugging, and a randomized process-tree stress test.
#include <gtest/gtest.h>

#include <random>

#include "svr4proc/tools/debugger.h"
#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/sim.h"
#include "svr4proc/tools/truss.h"

namespace svr4 {
namespace {

constexpr char kCounter[] = R"(
loop: ldi r4, var
      ldw r5, [r4]
      addi r5, 1
      stw r5, [r4]
      jmp loop
      .data
var:  .word 0
)";

// ---------------------------------------------------------------------------
// Forced syscall execution (paper, "Miscellaneous").
// ---------------------------------------------------------------------------

TEST(InjectSyscall, ForcesGetpidWithoutConsent) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/c", kCounter).ok());
  auto pid = sim.Start("/bin/c");
  Debugger dbg(sim.kernel(), sim.controller());
  ASSERT_TRUE(dbg.Attach(*pid).ok());
  auto r = dbg.InjectSyscall(SYS_getpid, {});
  ASSERT_TRUE(r.ok()) << ErrnoName(r.error());
  EXPECT_EQ(static_cast<Pid>(*r), *pid);
}

TEST(InjectSyscall, ForcesWriteToConsole) {
  Sim sim;
  auto img = sim.InstallProgram("/bin/c", kCounter);
  ASSERT_TRUE(img.ok());
  auto pid = sim.Start("/bin/c");
  Debugger dbg(sim.kernel(), sim.controller());
  ASSERT_TRUE(dbg.Attach(*pid).ok());
  // Write the counter variable's first byte count... simpler: make the
  // target print 4 bytes of its own data segment to its stdout.
  uint32_t var = *img->SymbolValue("var");
  uint32_t planted = 0x21696821;  // "!hi!"
  ASSERT_TRUE(dbg.WriteWord("var", planted).ok());
  auto r = dbg.InjectSyscall(SYS_write, {1, var, 4});
  ASSERT_TRUE(r.ok()) << ErrnoName(r.error());
  EXPECT_EQ(*r, 4u);
  EXPECT_EQ(sim.ConsoleOutput(), "!hi!")
      << "the process wrote to its console without its knowledge";
}

TEST(InjectSyscall, TargetResumesUndisturbed) {
  Sim sim;
  auto img = sim.InstallProgram("/bin/c", kCounter);
  ASSERT_TRUE(img.ok());
  auto pid = sim.Start("/bin/c");
  Debugger dbg(sim.kernel(), sim.controller());
  ASSERT_TRUE(dbg.Attach(*pid).ok());
  auto before = *dbg.handle().GetRegs();
  ASSERT_TRUE(dbg.InjectSyscall(SYS_getuid, {}).ok());
  auto after = *dbg.handle().GetRegs();
  EXPECT_EQ(before, after) << "registers fully restored";
  // The planted SYS byte is gone; execution continues normally.
  ASSERT_TRUE(dbg.Detach().ok());
  uint32_t var = *img->SymbolValue("var");
  auto h = *ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);
  uint32_t v1 = 0, v2 = 0;
  (void)h.ReadMem(var, &v1, 4);
  for (int i = 0; i < 300; ++i) {
    sim.kernel().Step();
  }
  (void)h.ReadMem(var, &v2, 4);
  EXPECT_GT(v2, v1);
}

TEST(InjectSyscall, ErrorResultsPropagate) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/c", kCounter).ok());
  auto pid = sim.Start("/bin/c");
  Debugger dbg(sim.kernel(), sim.controller());
  ASSERT_TRUE(dbg.Attach(*pid).ok());
  auto r = dbg.InjectSyscall(SYS_close, {77});  // bad fd
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEBADF);
}

// ---------------------------------------------------------------------------
// truss applied to commands it starts itself.
// ---------------------------------------------------------------------------

TEST(TrussCommand, ArmsBeforeFirstInstruction) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/first", R"(
      ldi r0, SYS_getpid   ; the very first thing the program does
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
  )").ok());
  Truss truss(sim.kernel(), sim.controller());
  ASSERT_TRUE(truss.TraceCommand("/bin/first", {"first"}).ok());
  EXPECT_NE(truss.report().find("getpid()"), std::string::npos)
      << "even the first syscall is seen:\n"
      << truss.report();
}

// ---------------------------------------------------------------------------
// poll(2) from simulated processes.
// ---------------------------------------------------------------------------

TEST(VcpuPoll, PollOnPipeWakesOnData) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/p", R"(
      ldi r0, SYS_pipe
      sys
      mov r8, r0          ; read end
      mov r9, r1          ; write end
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
      ; parent: poll the read end (events = POLLIN = 1), infinite timeout
      ldi r4, pfd
      stw r8, [r4]        ; fd
      ldi r5, 1
      stw r5, [r4+4]      ; events = POLLIN
      ldi r0, SYS_poll
      mov r1, r4
      ldi r2, 1
      ldi r3, -1
      sys
      cmpi r0, 1          ; one ready descriptor
      jnz bad
      ldw r5, [r4+8]      ; revents
      cmpi r5, 1
      jnz bad
      ldi r0, SYS_wait
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
child:
      ldi r0, SYS_sleep
      ldi r1, 2000
      sys
      ldi r0, SYS_write
      mov r1, r9
      ldi r2, pfd         ; any 1 byte
      ldi r3, 1
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
bad:  ldi r0, SYS_exit
      ldi r1, 1
      sys
      .bss
pfd:  .space 12
  )").ok());
  auto pid = sim.Start("/bin/p");
  ASSERT_TRUE(pid.ok());
  auto ec = sim.kernel().RunToExit(*pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_EQ(WExitCode(*ec), 0) << "poll slept until the pipe had data";
}

// The write itself wakes the poller: the writer stays alive in pause(2), so
// no exit wakes the poll channel on the write's behalf.
TEST(VcpuPoll, PipeWriteWakesThePollerWhileTheWriterLives) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/p", R"(
      ldi r0, SYS_pipe
      sys
      mov r8, r0          ; read end
      mov r9, r1          ; write end
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
      mov r10, r0         ; the writer's pid
      ldi r4, pfd
      stw r8, [r4]
      ldi r5, 1
      stw r5, [r4+4]      ; events = POLLIN
      ldi r0, SYS_poll
      mov r1, r4
      ldi r2, 1
      ldi r3, -1          ; no timeout
      sys
      cmpi r0, 1
      jnz bad
      ldw r5, [r4+8]
      cmpi r5, 1          ; revents = POLLIN
      jnz bad
      ldi r0, SYS_kill
      mov r1, r10
      ldi r2, SIGKILL
      sys
      ldi r0, SYS_wait
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
bad:  ldi r0, SYS_exit
      ldi r1, 1
      sys
child:
      ldi r0, SYS_sleep   ; let the poller go to sleep first
      ldi r1, 2000
      sys
      ldi r0, SYS_write
      mov r1, r9
      ldi r2, pfd
      ldi r3, 1
      sys
      ldi r0, SYS_pause
      sys
      .bss
pfd:  .space 12
  )").ok());
  auto pid = sim.Start("/bin/p");
  ASSERT_TRUE(pid.ok());
  auto ec = sim.kernel().RunToExit(*pid);
  ASSERT_TRUE(ec.ok()) << ErrnoName(ec.error());
  EXPECT_EQ(WExitCode(*ec), 0);
}

// A read that makes room on a full pipe wakes a POLLOUT waiter on its write
// end; the reader then pauses, so its exit cannot stand in for the wakeup.
TEST(VcpuPoll, PipeDrainWakesAPollOutWaiter) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/p", R"(
      ldi r0, SYS_pipe
      sys
      mov r8, r0          ; read end
      mov r9, r1          ; write end
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
      mov r10, r0         ; the reader's pid
      ldi r0, SYS_write   ; fill the pipe
      mov r1, r9
      ldi r2, buf
      ldi r3, 8192
      sys
      cmpi r0, 8192
      jnz bad
      ldi r4, pfd
      stw r9, [r4]
      ldi r5, 4
      stw r5, [r4+4]      ; events = POLLOUT
      ldi r0, SYS_poll
      mov r1, r4
      ldi r2, 1
      ldi r3, -1          ; no timeout
      sys
      cmpi r0, 1
      jnz bad
      ldw r5, [r4+8]
      cmpi r5, 4          ; revents = POLLOUT
      jnz bad
      ldi r0, SYS_kill
      mov r1, r10
      ldi r2, SIGKILL
      sys
      ldi r0, SYS_wait
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
bad:  ldi r0, SYS_exit
      ldi r1, 1
      sys
child:
      ldi r0, SYS_sleep   ; let the poller go to sleep first
      ldi r1, 2000
      sys
      ldi r0, SYS_read
      mov r1, r8
      ldi r2, buf
      ldi r3, 8192
      sys
      ldi r0, SYS_pause
      sys
      .bss
pfd:  .space 12
buf:  .space 8192
  )").ok());
  auto pid = sim.Start("/bin/p");
  ASSERT_TRUE(pid.ok());
  auto ec = sim.kernel().RunToExit(*pid);
  ASSERT_TRUE(ec.ok()) << ErrnoName(ec.error());
  EXPECT_EQ(WExitCode(*ec), 0);
}

TEST(VcpuPoll, TimeoutExpires) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/p", R"(
      ldi r0, SYS_pipe
      sys
      mov r8, r0
      ldi r4, pfd
      stw r8, [r4]
      ldi r5, 1
      stw r5, [r4+4]
      ldi r0, SYS_time
      sys
      mov r9, r0
      ldi r0, SYS_poll
      mov r1, r4
      ldi r2, 1
      ldi r3, 3000        ; ticks
      sys
      cmpi r0, 0          ; timed out, nothing ready
      jnz bad
      ldi r0, SYS_time
      sys
      sub r0, r9
      cmpi r0, 3000
      jlt bad
      ldi r0, SYS_exit
      ldi r1, 0
      sys
bad:  ldi r0, SYS_exit
      ldi r1, 1
      sys
      .bss
pfd:  .space 12
  )").ok());
  auto pid = sim.Start("/bin/p");
  auto ec = sim.kernel().RunToExit(*pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_EQ(WExitCode(*ec), 0);
}

// ---------------------------------------------------------------------------
// Deeper signal semantics.
// ---------------------------------------------------------------------------

TEST(SignalsDeep, SigcldHandlerRunsOnChildExit) {
  Sim sim;
  int st = [&]() -> int {
    auto img = sim.InstallProgram("/bin/p", R"(
      ldi r0, SYS_sigaction
      ldi r1, SIGCLD
      ldi r2, handler
      ldi r3, 0
      sys
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
      ldi r0, SYS_pause   ; interrupted by SIGCLD
      sys
      ldi r0, SYS_wait
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
child:
      ldi r0, SYS_exit
      ldi r1, 1
      sys
handler:
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, c
      ldi r3, 1
      sys
      ldi r0, SYS_sigreturn
      sys
      .data
c:    .asciz "C"
    )");
    EXPECT_TRUE(img.ok());
    auto pid = sim.Start("/bin/p");
    auto ec = sim.kernel().RunToExit(*pid);
    EXPECT_TRUE(ec.ok());
    return ec.ok() ? *ec : -1;
  }();
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 0);
  EXPECT_EQ(sim.ConsoleOutput(), "C") << "SIGCLD handler ran";
}

TEST(SignalsDeep, HandlerMaskDefersNestedSignal) {
  Sim sim;
  // The handler for SIGUSR1 holds SIGUSR2 (via the sigaction mask); a
  // SIGUSR2 raised inside the handler is deferred until sigreturn.
  int st = [&]() -> int {
    auto img = sim.InstallProgram("/bin/p", R"(
      ; install h2 for SIGUSR2
      ldi r0, SYS_sigaction
      ldi r1, SIGUSR2
      ldi r2, h2
      ldi r3, 0
      sys
      ; install h1 for SIGUSR1 with mask {SIGUSR2}
      ldi r0, SYS_sigaction
      ldi r1, SIGUSR1
      ldi r2, h1
      ldi r3, mask2
      sys
      ; raise SIGUSR1
      ldi r0, SYS_getpid
      sys
      mov r7, r0
      ldi r0, SYS_kill
      mov r1, r7
      ldi r2, SIGUSR1
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
h1:
      ; inside h1: raise SIGUSR2 — must NOT run until h1 returns
      ldi r0, SYS_getpid
      sys
      mov r7, r0
      ldi r0, SYS_kill
      mov r1, r7
      ldi r2, SIGUSR2
      sys
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, m1
      ldi r3, 1
      sys
      ldi r0, SYS_sigreturn
      sys
h2:
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, m2
      ldi r3, 1
      sys
      ldi r0, SYS_sigreturn
      sys
      .data
mask2: .word 0x10000, 0, 0, 0    ; bit 16 = SIGUSR2 (17)
m1:    .asciz "1"
m2:    .asciz "2"
    )");
    EXPECT_TRUE(img.ok());
    auto pid = sim.Start("/bin/p");
    auto ec = sim.kernel().RunToExit(*pid);
    EXPECT_TRUE(ec.ok());
    return ec.ok() ? *ec : -1;
  }();
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(sim.ConsoleOutput(), "12")
      << "the nested signal is deferred until the first handler returns";
}

TEST(SignalsDeep, AlarmZeroCancelsPendingAlarm) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/p", R"(
      ldi r0, SYS_alarm
      ldi r1, 500
      sys
      ldi r0, SYS_alarm   ; cancel; returns remaining ticks
      ldi r1, 0
      sys
      cmpi r0, 0
      jz bad              ; remaining must be > 0
      ; outlive the cancelled alarm; SIGALRM default would kill us
      ldi r0, SYS_sleep
      ldi r1, 2000
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
bad:  ldi r0, SYS_exit
      ldi r1, 1
      sys
  )").ok());
  auto pid = sim.Start("/bin/p");
  auto ec = sim.kernel().RunToExit(*pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_TRUE(WIfExited(*ec)) << "the cancelled alarm never fired";
  EXPECT_EQ(WExitCode(*ec), 0);
}

TEST(SignalsDeep, BrokenPipeRaisesSigpipe) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/p", R"(
      ldi r0, SYS_pipe
      sys
      mov r8, r0
      mov r9, r1
      ldi r0, SYS_close   ; close the read end
      mov r1, r8
      sys
      ldi r0, SYS_write   ; write to the widowed pipe
      mov r1, r9
      ldi r2, buf
      ldi r3, 1
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
      .data
buf:  .byte 1
  )").ok());
  auto pid = sim.kernel().Spawn("/bin/p", {"p"}, Creds::Root(), sim.controller());
  ASSERT_TRUE(pid.ok());
  auto ec = sim.kernel().RunToExit(*pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_TRUE(WIfSignaled(*ec));
  EXPECT_EQ(WTermSig(*ec), SIGPIPE);
}

// ---------------------------------------------------------------------------
// vfork address-space sharing.
// ---------------------------------------------------------------------------

TEST(VforkDeep, ChildWritesAreVisibleToParent) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/p", R"(
      ldi r0, SYS_vfork
      sys
      cmpi r0, 0
      jz child
      ; parent resumes after the child exits; its write is visible because
      ; "the address space is shared between parent and child".
      ldi r4, var
      ldw r5, [r4]
      ldi r0, SYS_wait
      sys
      ldi r0, SYS_exit
      mov r1, r5
      sys
child:
      ldi r4, var
      ldi r5, 77
      stw r5, [r4]
      ldi r0, SYS_exit
      ldi r1, 0
      sys
      .data
var:  .word 11
  )").ok());
  auto pid = sim.Start("/bin/p");
  auto ec = sim.kernel().RunToExit(*pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_EQ(WExitCode(*ec), 77) << "vfork shares the address space";
}

// ---------------------------------------------------------------------------
// exec with a real argv array from the caller's memory.
// ---------------------------------------------------------------------------

TEST(ExecDeep, ArgvArrayIsPassedThrough) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/echoarg", R"(
      ; prints argv[1]
      ldw r4, [r2+4]
      mov r5, r4
len:  ldb r6, [r5]
      cmpi r6, 0
      jz go
      addi r5, 1
      jmp len
go:   sub r5, r4
      ldi r0, SYS_write
      ldi r1, 1
      mov r2, r4
      mov r3, r5
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
  )").ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/launcher", R"(
      ldi r0, SYS_exec
      ldi r1, path
      ldi r2, argv
      sys
      ldi r0, SYS_exit
      ldi r1, 1
      sys
      .data
path: .asciz "/bin/echoarg"
a0:   .asciz "echoarg"
a1:   .asciz "from-exec"
argv: .word a0, a1, 0
  )").ok());
  auto pid = sim.Start("/bin/launcher");
  auto ec = sim.kernel().RunToExit(*pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_EQ(WExitCode(*ec), 0);
  EXPECT_EQ(sim.ConsoleOutput(), "from-exec");
}

// ---------------------------------------------------------------------------
// Multi-process debugging with poll — the paper's motivation for adding
// poll(2) support on /proc descriptors.
// ---------------------------------------------------------------------------

TEST(MultiProcess, DebugThreeProcessesWithPoll) {
  Sim sim;
  auto img = sim.InstallProgram("/bin/c", kCounter);
  ASSERT_TRUE(img.ok());
  uint32_t loop = *img->SymbolValue("loop");
  std::vector<ProcHandle> handles;
  for (int i = 0; i < 3; ++i) {
    auto pid = sim.Start("/bin/c");
    ASSERT_TRUE(pid.ok());
    auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);
    ASSERT_TRUE(h.ok());
    handles.push_back(std::move(*h));
  }
  // Breakpoint all three.
  uint8_t bpt = kBreakpointByte;
  FltSet faults;
  faults.Add(FLTBPT);
  for (auto& h : handles) {
    ASSERT_TRUE(h.Stop().ok());
    ASSERT_TRUE(h.SetFltTrace(faults).ok());
    ASSERT_TRUE(h.WriteMem(loop, &bpt, 1).ok());  // COW: each has its own copy
    ASSERT_TRUE(h.Run().ok());
  }
  // Poll until each has stopped once. POLLPRI is level-triggered, so only
  // the not-yet-handled descriptors go into each poll set.
  std::set<size_t> seen;
  while (seen.size() < handles.size()) {
    std::vector<PollFd> pfds;
    std::vector<size_t> idx;
    for (size_t i = 0; i < handles.size(); ++i) {
      if (!seen.count(i)) {
        PollFd pf;
        pf.fd = handles[i].fd();
        pf.events = POLLPRI;
        pfds.push_back(pf);
        idx.push_back(i);
      }
    }
    auto n = sim.kernel().PollFds(sim.controller(), pfds, 1'000'000);
    ASSERT_TRUE(n.ok());
    ASSERT_GT(*n, 0);
    for (size_t k = 0; k < pfds.size(); ++k) {
      if (pfds[k].revents & POLLPRI) {
        auto st = *handles[idx[k]].Status();
        EXPECT_EQ(st.pr_why, PR_FAULTED);
        EXPECT_EQ(st.pr_reg.pc, loop);
        seen.insert(idx[k]);
      }
    }
  }
  EXPECT_EQ(seen.size(), 3u);
}

// ---------------------------------------------------------------------------
// Flat-/proc odds and ends.
// ---------------------------------------------------------------------------

TEST(ProcOdds, SeekEndGivesVirtualSize) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/c", kCounter).ok());
  auto pid = sim.Start("/bin/c");
  auto h = *ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);
  auto end = sim.kernel().Lseek(sim.controller(), h.fd(), 0, SEEK_END_);
  ASSERT_TRUE(end.ok());
  Proc* p = sim.kernel().FindProc(*pid);
  EXPECT_EQ(static_cast<uint32_t>(*end), p->as->VirtualSize());
}

TEST(ProcOdds, UnknownIoctlIsEINVAL) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/c", kCounter).ok());
  auto pid = sim.Start("/bin/c");
  auto h = *ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);
  auto r = sim.kernel().Ioctl(sim.controller(), h.fd(), 0x9999, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEINVAL);
}

TEST(ProcOdds, IoctlOnRegularFileIsENOTTY) {
  Sim sim;
  ASSERT_TRUE(sim.kernel().WriteFileAt("/tmp/f", std::vector<uint8_t>{1}).ok());
  int fd = *sim.kernel().Open(sim.controller(), "/tmp/f", O_RDONLY);
  auto r = sim.kernel().Ioctl(sim.controller(), fd, PIOCSTATUS, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kENOTTY);
}

TEST(ProcOdds, OpenMappedObjectOnLibraryAddress) {
  Sim sim;
  auto lib = sim.InstallLibrary("libx", R"(
libfn: ret
  )");
  ASSERT_TRUE(lib.ok());
  Assembler as = sim.NewAssembler();
  as.ImportLibrary(*lib, "libx");
  auto img = as.Assemble(R"(
      .lib "libx"
spin: jmp spin
  )");
  ASSERT_TRUE(img.ok());
  ASSERT_TRUE(sim.kernel().InstallAout("/bin/p", *img).ok());
  auto pid = sim.Start("/bin/p");
  auto h = *ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);
  // PIOCOPENM at a library address yields the library file, whose symbol
  // table contains libfn.
  auto fd = h.OpenMappedObject(false, *lib->SymbolValue("libfn"));
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> bytes(1 << 16);
  auto n = sim.kernel().Read(sim.controller(), *fd, bytes.data(), bytes.size());
  ASSERT_TRUE(n.ok());
  bytes.resize(static_cast<size_t>(*n));
  auto parsed = Aout::Parse(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->SymbolValue("libfn").ok());
}

TEST(ProcOdds, MultipleReadOnlyControllersCoexistWithWriter) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/c", kCounter).ok());
  auto pid = sim.Start("/bin/c");
  auto writer = ProcHandle::Grab(sim.kernel(), sim.controller(), *pid, O_RDWR | O_EXCL);
  ASSERT_TRUE(writer.ok());
  auto ro1 = ProcHandle::Grab(sim.kernel(), sim.controller(), *pid, O_RDONLY);
  auto ro2 = ProcHandle::Grab(sim.kernel(), sim.controller(), *pid, O_RDONLY);
  ASSERT_TRUE(ro1.ok());
  ASSERT_TRUE(ro2.ok());
  ASSERT_TRUE(writer->Stop().ok());
  EXPECT_TRUE(ro1->Status().ok());
  EXPECT_TRUE(ro2->Psinfo().ok());
}

// ---------------------------------------------------------------------------
// LWP scheduling fairness.
// ---------------------------------------------------------------------------

TEST(Scheduling, LwpsShareTheProcessor) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/t", R"(
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
t:    ldi r4, c2
      ldw r5, [r4]
      addi r5, 1
      stw r5, [r4]
      jmp t
      .data
c1:   .word 0
c2:   .word 0
      .bss
tstack: .space 1024
  )").ok());
  auto pid = sim.Start("/bin/t");
  for (int i = 0; i < 4000; ++i) {
    sim.kernel().Step();
  }
  auto h = *ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);
  Proc* p = sim.kernel().FindProc(*pid);
  ASSERT_NE(p, nullptr);
  uint32_t c1 = 0, c2 = 0;
  Assembler as = sim.NewAssembler();
  // Addresses: read through /proc using the symbols from a fresh assembly.
  auto img = Aout::Parse([
    &]() {
    std::vector<uint8_t> bytes(1 << 16);
    auto fd = h.OpenMappedObject(true);
    auto n = sim.kernel().Read(sim.controller(), *fd, bytes.data(), bytes.size());
    bytes.resize(static_cast<size_t>(*n));
    return bytes;
  }());
  ASSERT_TRUE(img.ok());
  (void)h.ReadMem(*img->SymbolValue("c1"), &c1, 4);
  (void)h.ReadMem(*img->SymbolValue("c2"), &c2, 4);
  EXPECT_GT(c1, 0u);
  EXPECT_GT(c2, 0u);
  double ratio = static_cast<double>(c1) / static_cast<double>(c2);
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 2.5) << "round-robin keeps both lwps progressing";
}

TEST(Scheduling, NiceWeightsProcessorShares) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/c", kCounter).ok());
  auto favored = sim.Start("/bin/c");
  auto niced = sim.Start("/bin/c");
  ASSERT_TRUE(favored.ok() && niced.ok());
  auto hn = *ProcHandle::Grab(sim.kernel(), sim.controller(), *niced);
  ASSERT_TRUE(hn.Nice(19).ok());  // 20 -> 39: minimal share
  for (int i = 0; i < 8000; ++i) {
    sim.kernel().Step();
  }
  Proc* pf = sim.kernel().FindProc(*favored);
  Proc* pn = sim.kernel().FindProc(*niced);
  ASSERT_NE(pf, nullptr);
  ASSERT_NE(pn, nullptr);
  EXPECT_GT(pn->utime, 0u) << "the niced process still runs";
  EXPECT_GT(pf->utime, pn->utime * 4)
      << "nice(19) yields a much smaller share of the processor";
}

TEST(TrussFilter, TracesOnlySelectedSyscalls) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/p", R"(
      ldi r0, SYS_getpid
      sys
      ldi r0, SYS_getuid
      sys
      ldi r0, SYS_getpid
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
  )").ok());
  auto pid = sim.Start("/bin/p");
  TrussOptions opts;
  opts.filter.Add(SYS_getuid);
  Truss truss(sim.kernel(), sim.controller(), opts);
  ASSERT_TRUE(truss.Trace(*pid).ok());
  EXPECT_NE(truss.report().find("getuid()"), std::string::npos);
  EXPECT_EQ(truss.report().find("getpid()"), std::string::npos)
      << "unselected calls are not traced:\n"
      << truss.report();
}

// ---------------------------------------------------------------------------
// Randomized process-tree stress: fork/exec/exit storms with invariants.
// ---------------------------------------------------------------------------

TEST(Stress, RandomProcessTreeConvergesCleanly) {
  Sim sim;
  // A program that forks a few children (depth-limited by argv... kept
  // simple: each process forks twice if a data flag allows, then exits).
  ASSERT_TRUE(sim.InstallProgram("/bin/tree", R"(
      ; r1 = argc (1 or 2). With 2 args, fork two leaf children.
      cmpi r1, 2
      jlt leaf
      ldi r8, 2
f:    cmpi r8, 0
      jz reap
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz leaf
      ldi r5, 1
      sub r8, r5
      jmp f
reap: ldi r0, SYS_wait
      sys
      ldi r0, SYS_wait
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
leaf:
      ldi r0, SYS_sleep
      ldi r1, 50
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
  )").ok());

  std::mt19937 rng(4242);
  std::vector<Pid> roots;
  for (int round = 0; round < 10; ++round) {
    // Launch a few trees.
    int launch = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < launch; ++i) {
      auto pid = sim.kernel().Spawn("/bin/tree", {"tree", "deep"}, Creds::Root(),
                                    sim.controller());
      ASSERT_TRUE(pid.ok());
      roots.push_back(*pid);
    }
    // Interleave with stepping.
    for (int i = 0; i < static_cast<int>(rng() % 2000); ++i) {
      sim.kernel().Step();
    }
  }
  // Drain: everything exits; the controller reaps its children.
  for (Pid root : roots) {
    auto ec = sim.kernel().RunToExit(root);
    if (ec.ok()) {
      auto wr = sim.kernel().Wait(sim.controller(), root);
      ASSERT_TRUE(wr.ok());
      EXPECT_TRUE(WIfExited(wr->status));
    }
  }
  // Invariants: no strays — only the eternal processes remain.
  ASSERT_TRUE(sim.kernel().RunUntil([&]() {
    return sim.kernel().AllPids().size() <= 4;  // sched, init, pageout, controller
  }, 1'000'000));
  for (Pid pid : sim.kernel().AllPids()) {
    Proc* p = sim.kernel().FindProc(pid);
    EXPECT_NE(p->state, Proc::State::kZombie) << "no zombies leak";
  }
}

TEST(Stress, ManySimultaneousControllersAndTargets) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/c", kCounter).ok());
  std::vector<Pid> pids;
  std::vector<ProcHandle> handles;
  for (int i = 0; i < 20; ++i) {
    auto pid = sim.Start("/bin/c");
    ASSERT_TRUE(pid.ok());
    pids.push_back(*pid);
    handles.push_back(*ProcHandle::Grab(sim.kernel(), sim.controller(), *pid));
  }
  std::mt19937 rng(7);
  for (int op = 0; op < 400; ++op) {
    auto& h = handles[rng() % handles.size()];
    switch (rng() % 4) {
      case 0: {
        (void)h.Stop();
        break;
      }
      case 1: {
        auto st = h.Status();
        if (st.ok() && (st->pr_flags & PR_ISTOP)) {
          (void)h.Run();
        }
        break;
      }
      case 2: {
        uint32_t v;
        (void)h.ReadMem(0x80008000, &v, 4);
        break;
      }
      case 3: {
        for (int i = 0; i < 20; ++i) {
          sim.kernel().Step();
        }
        break;
      }
    }
  }
  // Everything is still alive and controllable.
  for (auto& h : handles) {
    auto st = h.Status();
    ASSERT_TRUE(st.ok());
    if (st->pr_flags & PR_ISTOP) {
      EXPECT_TRUE(h.Run().ok());
    }
  }
  for (Pid pid : pids) {
    EXPECT_NE(sim.kernel().FindProc(pid), nullptr);
  }
}

}  // namespace
}  // namespace svr4
