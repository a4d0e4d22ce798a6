// Integration tests for the simulated kernel: process execution, syscalls,
// fork/exec/wait, signals and handlers, job control, pipes, timers, and the
// ptrace baseline.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "svr4proc/kernel/syscall.h"
#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/sim.h"

namespace svr4 {
namespace {

// Runs a program to completion and returns its wait status.
int RunProgram(Sim& sim, const std::string& src,
               const std::vector<std::string>& argv = {}) {
  auto img = sim.InstallProgram("/bin/prog", src);
  EXPECT_TRUE(img.ok());
  auto pid = sim.Start("/bin/prog", argv);
  EXPECT_TRUE(pid.ok());
  auto st = sim.kernel().RunToExit(*pid);
  EXPECT_TRUE(st.ok()) << "program did not exit: " << ErrnoName(st.error());
  return st.ok() ? *st : -1;
}

TEST(KernelExec, HelloWorldWritesToConsole) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ldi r0, SYS_write
      ldi r1, 1           ; stdout
      ldi r2, msg
      ldi r3, 14
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
      .data
msg:  .asciz "hello, world!\n"
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 0);
  EXPECT_EQ(sim.ConsoleOutput(), "hello, world!\n");
}

TEST(KernelExec, ExitStatusPropagates) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ldi r0, SYS_exit
      ldi r1, 42
      sys
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 42);
}

TEST(KernelExec, ArgvIsDeliveredOnTheStack) {
  Sim sim;
  // Prints argv[1].
  int st = RunProgram(sim, R"(
      ; r1 = argc, r2 = argv
      ldw r4, [r2+4]      ; argv[1]
      ; strlen
      mov r5, r4
len:  ldb r6, [r5]
      cmpi r6, 0
      jz out
      addi r5, 1
      jmp len
out:  sub r5, r4          ; length
      ldi r0, SYS_write
      ldi r1, 1
      mov r2, r4
      mov r3, r5
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
  )",
                      {"prog", "argument-one"});
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(sim.ConsoleOutput(), "argument-one");
}

TEST(KernelExec, SpawnFailsForMissingFile) {
  Sim sim;
  auto pid = sim.Start("/bin/nonexistent");
  ASSERT_FALSE(pid.ok());
  EXPECT_EQ(pid.error(), Errno::kENOENT);
}

TEST(KernelExec, SpawnFailsWithoutExecPermission) {
  Sim sim;
  auto img = sim.InstallProgram("/bin/noexec", "  nop\n", 0644);
  ASSERT_TRUE(img.ok());
  auto pid = sim.Start("/bin/noexec", {}, Creds::User(100, 100));
  ASSERT_FALSE(pid.ok());
  EXPECT_EQ(pid.error(), Errno::kEACCES);
}

TEST(KernelExec, BadMagicIsENOEXEC) {
  Sim sim;
  std::vector<uint8_t> junk(8192, 0x5A);
  ASSERT_TRUE(sim.kernel().WriteFileAt("/bin/junk", junk, 0755).ok());
  auto pid = sim.Start("/bin/junk");
  ASSERT_FALSE(pid.ok());
  EXPECT_EQ(pid.error(), Errno::kENOEXEC);
}

TEST(KernelFork, ParentAndChildBothRun) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
      ; parent: wait for child, exit with child's code
      ldi r0, SYS_wait
      sys
      mov r5, r1          ; status
      ldi r6, 8
      shr r5, r6          ; exit code
      ldi r0, SYS_exit
      mov r1, r5
      sys
child:
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, cmsg
      ldi r3, 6
      sys
      ldi r0, SYS_exit
      ldi r1, 7
      sys
      .data
cmsg: .asciz "child\n"
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 7);
  EXPECT_EQ(sim.ConsoleOutput(), "child\n");
}

TEST(KernelFork, ForkedChildGetsCopyOnWriteMemory) {
  Sim sim;
  // Parent writes to a data word after fork; child must see the old value.
  int st = RunProgram(sim, R"(
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
      ; parent: overwrite the shared-looking word, then wait
      ldi r4, 999
      ldi r5, var
      stw r4, [r5]
      ldi r0, SYS_wait
      sys
      mov r5, r1
      ldi r6, 8
      shr r5, r6
      ldi r0, SYS_exit
      mov r1, r5
      sys
child:
      ; give the parent time to clobber its copy
      ldi r0, SYS_sleep
      ldi r1, 3000
      sys
      ldi r5, var
      ldw r4, [r5]
      ldi r0, SYS_exit
      mov r1, r4
      sys
      .data
var:  .word 55
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 55) << "child saw parent's write: COW broken";
}

TEST(KernelExecSyscall, ExecReplacesTheImage) {
  Sim sim;
  auto second = sim.InstallProgram("/bin/second", R"(
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, m
      ldi r3, 7
      sys
      ldi r0, SYS_exit
      ldi r1, 5
      sys
      .data
m:    .asciz "second\n"
  )");
  ASSERT_TRUE(second.ok());
  int st = RunProgram(sim, R"(
      ldi r0, SYS_exec
      ldi r1, path
      ldi r2, 0
      sys
      ; not reached on success
      ldi r0, SYS_exit
      ldi r1, 1
      sys
      .data
path: .asciz "/bin/second"
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 5);
  EXPECT_EQ(sim.ConsoleOutput(), "second\n");
}

TEST(KernelSignal, DefaultActionTerminates) {
  Sim sim;
  auto img = sim.InstallProgram("/bin/prog", R"(
spin: jmp spin
  )");
  ASSERT_TRUE(img.ok());
  auto pid = sim.Start("/bin/prog");
  ASSERT_TRUE(pid.ok());
  // Let it run a little, then kill it.
  for (int i = 0; i < 10; ++i) {
    sim.kernel().Step();
  }
  ASSERT_TRUE(sim.kernel().Kill(sim.controller(), *pid, SIGTERM).ok());
  auto st = sim.kernel().RunToExit(*pid);
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(WIfSignaled(*st));
  EXPECT_EQ(WTermSig(*st), SIGTERM);
}

TEST(KernelSignal, HandlerRunsAndSigreturnRestores) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ; install handler for SIGUSR1
      ldi r0, SYS_sigaction
      ldi r1, SIGUSR1
      ldi r2, handler
      ldi r3, 0
      sys
      ; send it to ourselves
      ldi r0, SYS_getpid
      sys
      mov r5, r0
      ldi r0, SYS_kill
      mov r1, r5
      ldi r2, SIGUSR1
      sys
      ; after the handler returns here via sigreturn
      ldi r0, SYS_exit
      ldi r1, 0
      sys
handler:
      ; r1 = signal number; write a marker
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, mark
      ldi r3, 3
      sys
      ldi r0, SYS_sigreturn
      sys
      .data
mark: .asciz "hi\n"
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 0);
  EXPECT_EQ(sim.ConsoleOutput(), "hi\n");
}

TEST(KernelSignal, IgnoredSignalIsDiscarded) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ldi r0, SYS_sigaction
      ldi r1, SIGUSR1
      ldi r2, SIG_IGN
      ldi r3, 0
      sys
      ldi r0, SYS_getpid
      sys
      mov r5, r0
      ldi r0, SYS_kill
      mov r1, r5
      ldi r2, SIGUSR1
      sys
      ldi r0, SYS_exit
      ldi r1, 21
      sys
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 21);
}

TEST(KernelSignal, HeldSignalDeliveredOnUnblock) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ; handler increments nothing; it writes "X"
      ldi r0, SYS_sigaction
      ldi r1, SIGUSR1
      ldi r2, handler
      ldi r3, 0
      sys
      ; block SIGUSR1
      ldi r0, SYS_sigprocmask
      ldi r1, 0           ; SIG_BLOCK
      ldi r2, mask
      ldi r3, 0
      sys
      ; raise it: must NOT be delivered yet
      ldi r0, SYS_getpid
      sys
      mov r5, r0
      ldi r0, SYS_kill
      mov r1, r5
      ldi r2, SIGUSR1
      sys
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, before
      ldi r3, 1
      sys
      ; unblock: delivery happens now
      ldi r0, SYS_sigprocmask
      ldi r1, 1           ; SIG_UNBLOCK
      ldi r2, mask
      ldi r3, 0
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
handler:
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, xmark
      ldi r3, 1
      sys
      ldi r0, SYS_sigreturn
      sys
      .data
mask:   .word 0x8000, 0, 0, 0   ; bit 15 = SIGUSR1 (16)
before: .asciz "B"
xmark:  .asciz "X"
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(sim.ConsoleOutput(), "BX") << "signal must be deferred until unblocked";
}

TEST(KernelSignal, SigKillCannotBeCaught) {
  Sim sim;
  auto img = sim.InstallProgram("/bin/prog", R"(
      ldi r0, SYS_sigaction
      ldi r1, SIGKILL
      ldi r2, handler
      ldi r3, 0
      sys
      ; sigaction must fail; spin regardless
spin: jmp spin
handler:
      ldi r0, SYS_sigreturn
      sys
  )");
  ASSERT_TRUE(img.ok());
  auto pid = sim.Start("/bin/prog");
  ASSERT_TRUE(pid.ok());
  for (int i = 0; i < 20; ++i) {
    sim.kernel().Step();
  }
  ASSERT_TRUE(sim.kernel().Kill(sim.controller(), *pid, SIGKILL).ok());
  auto st = sim.kernel().RunToExit(*pid);
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(WIfSignaled(*st));
  EXPECT_EQ(WTermSig(*st), SIGKILL);
}

TEST(KernelSignal, FaultBecomesSignalWithCoreDefault) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ldi r1, 1
      ldi r2, 0
      div r1, r2          ; FLTIZDIV -> SIGFPE -> core
  )");
  EXPECT_TRUE(WIfSignaled(st));
  EXPECT_EQ(WTermSig(st), SIGFPE);
  EXPECT_TRUE(st & 0x80) << "core-dump bit";
}

TEST(KernelSignal, FaultSignalCanBeCaught) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ldi r0, SYS_sigaction
      ldi r1, SIGSEGV
      ldi r2, handler
      ldi r3, 0
      sys
      ldi r4, 0x100       ; unmapped
      ldw r5, [r4]        ; faults
      ; unreached
      ldi r0, SYS_exit
      ldi r1, 1
      sys
handler:
      ; r2 carries the faulting address
      ldi r0, SYS_exit
      ldi r1, 33
      sys
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 33);
}

TEST(KernelSleep, SleepAndAlarm) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ; alarm in 2000 ticks; pause; SIGALRM handler exits 9
      ldi r0, SYS_sigaction
      ldi r1, SIGALRM
      ldi r2, handler
      ldi r3, 0
      sys
      ldi r0, SYS_alarm
      ldi r1, 2000
      sys
      ldi r0, SYS_pause
      sys
      ; pause returns EINTR after the handler; exit 1 if we get here wrongly
      ldi r0, SYS_exit
      ldi r1, 9
      sys
handler:
      ldi r0, SYS_sigreturn
      sys
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 9);
}

TEST(KernelSleep, SleepCompletesAfterTicks) {
  Sim sim;
  auto img = sim.InstallProgram("/bin/prog", R"(
      ldi r0, SYS_time
      sys
      mov r5, r0
      ldi r0, SYS_sleep
      ldi r1, 5000
      sys
      ldi r0, SYS_time
      sys
      sub r0, r5
      cmpi r0, 5000
      jge good
      ldi r0, SYS_exit
      ldi r1, 1
      sys
good: ldi r0, SYS_exit
      ldi r1, 0
      sys
  )");
  ASSERT_TRUE(img.ok());
  auto pid = sim.Start("/bin/prog");
  ASSERT_TRUE(pid.ok());
  auto st = sim.kernel().RunToExit(*pid);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(WExitCode(*st), 0) << "sleep must last at least the requested ticks";
}

TEST(KernelPipe, PipeCarriesDataBetweenProcesses) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ldi r0, SYS_pipe
      sys
      mov r8, r0          ; read end
      mov r9, r1          ; write end
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
      ; parent: close write end, read 5 bytes, write them to console
      ldi r0, SYS_close
      mov r1, r9
      sys
      ldi r0, SYS_read
      mov r1, r8
      ldi r2, buf
      ldi r3, 5
      sys
      mov r7, r0          ; bytes read
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, buf
      mov r3, r7
      sys
      ldi r0, SYS_wait
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
child:
      ldi r0, SYS_close
      mov r1, r8
      sys
      ldi r0, SYS_write
      mov r1, r9
      ldi r2, msg
      ldi r3, 5
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
      .data
msg:  .asciz "pipe!"
      .bss
buf:  .space 16
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(sim.ConsoleOutput(), "pipe!");
}

TEST(KernelPipe, ReadFromClosedWriteEndIsEof) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ldi r0, SYS_pipe
      sys
      mov r8, r0
      mov r9, r1
      ldi r0, SYS_close
      mov r1, r9
      sys
      ldi r0, SYS_read
      mov r1, r8
      ldi r2, buf
      ldi r3, 8
      sys
      ; r0 == 0 -> exit 0
      ldi r1, 77
      cmpi r0, 0
      jnz bad
      ldi r1, 0
bad:  ldi r0, SYS_exit
      sys
      .bss
buf:  .space 8
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 0);
}

// A read that makes room wakes the writer sleeping on the full pipe: the
// child fills the pipe (8192 bytes, PipeBuf::kCapacity) and blocks writing
// one more, and only the parent's drain can let it finish.
TEST(KernelPipe, ReaderDrainingAFullPipeWakesTheWriter) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ldi r0, SYS_pipe
      sys
      mov r8, r0          ; read end
      mov r9, r1          ; write end
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
      ldi r0, SYS_sleep   ; let the child fill the pipe and block
      ldi r1, 2000
      sys
      ldi r0, SYS_read
      mov r1, r8
      ldi r2, buf
      ldi r3, 8192
      sys
      cmpi r0, 8192
      jnz bad
      ldi r0, SYS_read    ; the byte the blocked write could not place
      mov r1, r8
      ldi r2, buf
      ldi r3, 1
      sys
      cmpi r0, 1
      jnz bad
      ldi r0, SYS_wait
      sys
      cmpi r1, 0          ; the child's status: exited 0
      jnz bad
      ldi r0, SYS_exit
      ldi r1, 0
      sys
bad:  ldi r0, SYS_exit
      ldi r1, 1
      sys
child:
      ldi r0, SYS_write
      mov r1, r9
      ldi r2, buf
      ldi r3, 8192
      sys
      cmpi r0, 8192
      jnz cbad
      ldi r0, SYS_write   ; the pipe is full: sleeps until the parent reads
      mov r1, r9
      ldi r2, buf
      ldi r3, 1
      sys
      cmpi r0, 1
      jnz cbad
      ldi r0, SYS_exit
      ldi r1, 0
      sys
cbad: ldi r0, SYS_exit
      ldi r1, 2
      sys
      .bss
buf:  .space 8192
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 0);
}

TEST(KernelVfork, ParentWaitsUntilChildExecs) {
  Sim sim;
  auto second = sim.InstallProgram("/bin/second", R"(
      ldi r0, SYS_exit
      ldi r1, 3
      sys
  )");
  ASSERT_TRUE(second.ok());
  int st = RunProgram(sim, R"(
      ldi r0, SYS_vfork
      sys
      cmpi r0, 0
      jz child
      ; parent resumes only after child exec'd; reap it
      ldi r0, SYS_wait
      sys
      mov r5, r1
      ldi r6, 8
      shr r5, r6
      ldi r0, SYS_exit
      mov r1, r5
      sys
child:
      ldi r0, SYS_exec
      ldi r1, path
      ldi r2, 0
      sys
      ldi r0, SYS_exit
      ldi r1, 1
      sys
      .data
path: .asciz "/bin/second"
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 3);
}

TEST(KernelLwp, ThreadsShareTheAddressSpace) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ; create a second lwp running at thread with its own stack
      ldi r0, SYS_lwp_create
      ldi r1, thread
      ldi r2, tstack+2048
      sys
      ; main lwp: wait for the flag the thread sets
loop: ldi r5, flag
      ldw r4, [r5]
      cmpi r4, 1
      jnz loop
      ldi r0, SYS_exit
      ldi r1, 0
      sys
thread:
      ldi r4, 1
      ldi r5, flag
      stw r4, [r5]
      ldi r0, SYS_lwp_exit
      sys
      .data
flag: .word 0
      .bss
tstack: .space 2048
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 0);
}

TEST(KernelPtrace, TracemeStopsOnSignalAndParentWaits) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
      mov r8, r0          ; child pid
      ; wait: child stops with SIGTRAP-like stop on SIGUSR1
      ldi r0, SYS_wait
      sys
      ; status & 0xFF == 0x7F means stopped
      mov r5, r1
      ldi r6, 0xFF
      and r5, r6
      cmpi r5, 0x7F
      jnz bad
      ; continue the child, clearing the signal: ptrace(PT_CONT=7, pid, 1, 0)
      ldi r0, SYS_ptrace
      ldi r1, 7
      mov r2, r8
      ldi r3, 1
      ldi r4, 0
      sys
      ldi r0, SYS_wait
      sys
      mov r5, r1
      ldi r6, 8
      shr r5, r6
      ldi r0, SYS_exit
      mov r1, r5          ; child's exit code
      sys
bad:  ldi r0, SYS_exit
      ldi r1, 99
      sys
child:
      ldi r0, SYS_ptrace  ; PT_TRACEME
      ldi r1, 0
      sys
      ldi r0, SYS_getpid
      sys
      mov r5, r0
      ldi r0, SYS_kill
      mov r1, r5
      ldi r2, SIGUSR1     ; stops because traced
      sys
      ldi r0, SYS_exit
      ldi r1, 11
      sys
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 11);
}

TEST(KernelSuspend, SigsuspendWaitsForSignal) {
  Sim sim;
  auto img = sim.InstallProgram("/bin/prog", R"(
      ldi r0, SYS_sigaction
      ldi r1, SIGUSR2
      ldi r2, handler
      ldi r3, 0
      sys
      ldi r0, SYS_sigsuspend
      ldi r1, emptymask
      sys
      ; EINTR return after handler
      ldi r0, SYS_exit
      ldi r1, 4
      sys
handler:
      ldi r0, SYS_sigreturn
      sys
      .data
emptymask: .word 0, 0, 0, 0
  )");
  ASSERT_TRUE(img.ok());
  auto pid = sim.Start("/bin/prog");
  ASSERT_TRUE(pid.ok());
  // Let it reach the suspend, then signal it.
  bool asleep = sim.kernel().RunUntil([&]() {
    Proc* p = sim.kernel().FindProc(*pid);
    if (p == nullptr) {
      return true;
    }
    Lwp* l = p->MainLwp();
    return l != nullptr && l->state == LwpState::kSleeping;
  });
  ASSERT_TRUE(asleep);
  ASSERT_TRUE(sim.kernel().Kill(sim.controller(), *pid, SIGUSR2).ok());
  auto st = sim.kernel().RunToExit(*pid);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(WExitCode(*st), 4);
}

TEST(KernelMmap, AnonymousMappingIsZeroFilledAndWritable) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ldi r0, SYS_mmap
      ldi r1, 0x40000000
      ldi r2, 8192
      ldi r3, 6           ; PROT_READ|PROT_WRITE
      ldi r4, 2           ; MAP_PRIVATE
      ldi r5, -1          ; anonymous
      ldi r6, 0
      sys
      mov r8, r0          ; base
      ldw r4, [r8]        ; zero-filled
      cmpi r4, 0
      jnz bad
      ldi r4, 123
      stw r4, [r8+4096]
      ldw r5, [r8+4096]
      cmpi r5, 123
      jnz bad
      ; munmap and verify the access then faults (SIGSEGV, caught -> exit 0)
      ldi r0, SYS_sigaction
      ldi r1, SIGSEGV
      ldi r2, handler
      ldi r3, 0
      sys
      ldi r0, SYS_munmap
      mov r1, r8
      ldi r2, 8192
      sys
      ldw r4, [r8]        ; must fault
bad:  ldi r0, SYS_exit
      ldi r1, 1
      sys
handler:
      ldi r0, SYS_exit
      ldi r1, 0
      sys
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 0);
}

TEST(KernelBrk, BreakGrowsOnRequest) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ; grow the break by 3 pages beyond its current end and store there
      ldi r0, SYS_brk
      ldi r1, 0x80100000  ; well beyond initial break
      sys
      jcs bad
      ldi r4, 7
      ldi r5, 0x800FF000
      stw r4, [r5]
      ldw r6, [r5]
      cmpi r6, 7
      jnz bad
      ldi r0, SYS_exit
      ldi r1, 0
      sys
bad:  ldi r0, SYS_exit
      ldi r1, 1
      sys
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 0);
}

TEST(KernelStack, StackGrowsAutomatically) {
  Sim sim;
  // Touch memory well below the initial stack allocation.
  int st = RunProgram(sim, R"(
      mov r4, sp
      ldi r5, 0x20000      ; 128K below sp (initial stack is 64K)
      sub r4, r5
      ldi r6, 31
      stw r6, [r4]
      ldw r7, [r4]
      cmpi r7, 31
      jnz bad
      ldi r0, SYS_exit
      ldi r1, 0
      sys
bad:  ldi r0, SYS_exit
      ldi r1, 1
      sys
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 0);
}

TEST(KernelWait, WaitForMultipleChildren) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ldi r8, 3           ; three children
spawn:
      cmpi r8, 0
      jz reap
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
      ldi r5, 1
      sub r8, r5
      jmp spawn
child:
      ldi r0, SYS_exit
      ldi r1, 2
      sys
reap:
      ldi r8, 3
reapl:
      cmpi r8, 0
      jz done
      ldi r0, SYS_wait
      sys
      jcs bad
      ldi r5, 1
      sub r8, r5
      jmp reapl
done: ; a fourth wait must fail with ECHILD (carry set)
      ldi r0, SYS_wait
      sys
      jcc bad
      ldi r0, SYS_exit
      ldi r1, 0
      sys
bad:  ldi r0, SYS_exit
      ldi r1, 1
      sys
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 0);
}

TEST(KernelFiles, OpenWriteReadRoundTrip) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ldi r0, SYS_creat
      ldi r1, path
      ldi r2, 0x1A4       ; 0644
      sys
      jcs bad
      mov r8, r0
      ldi r0, SYS_write
      mov r1, r8
      ldi r2, msg
      ldi r3, 4
      sys
      ldi r0, SYS_close
      mov r1, r8
      sys
      ldi r0, SYS_open
      ldi r1, path
      ldi r2, O_RDONLY
      ldi r3, 0
      sys
      jcs bad
      mov r8, r0
      ldi r0, SYS_read
      mov r1, r8
      ldi r2, buf
      ldi r3, 4
      sys
      cmpi r0, 4
      jnz bad
      ldw r4, [r2]
      ldi r5, msg
      ldw r5, [r5]
      cmp r4, r5
      jnz bad
      ldi r0, SYS_exit
      ldi r1, 0
      sys
bad:  ldi r0, SYS_exit
      ldi r1, 1
      sys
      .data
path: .asciz "/tmp/t.dat"
msg:  .asciz "abcd"
      .bss
buf:  .space 8
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 0);
}

TEST(KernelMisc, GetpidGetppidRelationship) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
      mov r8, r0
      ldi r0, SYS_wait
      sys
      ; child exits with 1 if its ppid == parent's pid (we can't easily
      ; compare across processes; the child checks getppid != 0)
      mov r5, r1
      ldi r6, 8
      shr r5, r6
      ldi r0, SYS_exit
      mov r1, r5
      sys
child:
      ldi r0, SYS_getppid
      sys
      cmpi r0, 0
      jz bad
      ldi r0, SYS_exit
      ldi r1, 1
      sys
bad:  ldi r0, SYS_exit
      ldi r1, 0
      sys
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 1);
}

TEST(KernelMisc, UnknownSyscallIsENOSYS) {
  Sim sim;
  int st = RunProgram(sim, R"(
      ldi r0, SYS_otime   ; the obsolete call: kernel refuses it
      sys
      jcs good
      ldi r0, SYS_exit
      ldi r1, 1
      sys
good: ; r0 holds the errno (ENOSYS = 89)
      cmpi r0, 89
      jnz bad
      ldi r0, SYS_exit
      ldi r1, 0
      sys
bad:  ldi r0, SYS_exit
      ldi r1, 2
      sys
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 0);
}

TEST(KernelNative, NativeWaitReapsSpawnedChild) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", R"(
      ldi r0, SYS_exit
      ldi r1, 17
      sys
  )").ok());
  // Spawn as a child of the controller so Wait() can see it.
  auto pid = sim.kernel().Spawn("/bin/prog", {"prog"}, Creds::Root(), sim.controller());
  ASSERT_TRUE(pid.ok());
  auto wr = sim.kernel().Wait(sim.controller());
  ASSERT_TRUE(wr.ok());
  EXPECT_EQ(wr->pid, *pid);
  EXPECT_TRUE(WIfExited(wr->status));
  EXPECT_EQ(WExitCode(wr->status), 17);
  EXPECT_EQ(sim.kernel().FindProc(*pid), nullptr) << "zombie must be reaped";
}

TEST(KernelPoll, NfdsAboveLimitIsEinval) {
  Sim sim;
  // Regression: nfds beyond the cap used to be silently clamped to 64,
  // making poll report on a truncated set while claiming success. It must
  // fail loudly instead. The cap is configurable now; pin the historical
  // value so the old boundary keeps being exercised.
  sim.kernel().SetPollMaxFds(64);
  int st = RunProgram(sim, R"(
      ldi r0, SYS_poll
      ldi r1, pfd
      ldi r2, 65          ; kPollMaxFds + 1
      ldi r3, 0
      sys
      jcs err
      ldi r0, SYS_exit
      ldi r1, 0
      sys
err:  mov r1, r0
      ldi r0, SYS_exit
      sys
      .bss
pfd:  .space 12
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), static_cast<int>(Errno::kEINVAL));
}

TEST(KernelPoll, NfdsAtLimitIsAccepted) {
  Sim sim;
  // Exactly kPollMaxFds descriptors is legal; with all slots naming an
  // invalid fd and a zero timeout, every entry comes back POLLNVAL.
  int st = RunProgram(sim, R"(
      ; fill 64 pollfd slots: fd=99 (invalid), events=POLLIN
      ldi r4, pfd
      ldi r8, 64
fill: ldi r5, 99
      stw r5, [r4]
      ldi r5, 1
      stw r5, [r4+4]
      addi r4, 12
      ldi r5, 1
      sub r8, r5
      cmpi r8, 0
      jnz fill
      ldi r0, SYS_poll
      ldi r1, pfd
      ldi r2, 64
      ldi r3, 0
      sys
      jcs err
      cmpi r0, 64         ; every slot reports POLLNVAL
      jnz bad
      ldi r0, SYS_exit
      ldi r1, 0
      sys
bad:  ldi r0, SYS_exit
      ldi r1, 1
      sys
err:  mov r1, r0
      ldi r0, SYS_exit
      sys
      .bss
pfd:  .space 768
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 0);
}

TEST(KernelPoll, ConfiguredCapMovesTheBoundary) {
  Sim sim;
  // The cap is a knob, not a constant: with it raised to 128, the old
  // boundary (65 fds) is legal and the new one (129) is the EINVAL line.
  sim.kernel().SetPollMaxFds(128);
  int st = RunProgram(sim, R"(
      ; fill 65 pollfd slots: fd=99 (invalid), events=POLLIN
      ldi r4, pfd
      ldi r8, 65
fill: ldi r5, 99
      stw r5, [r4]
      ldi r5, 1
      stw r5, [r4+4]
      addi r4, 12
      ldi r5, 1
      sub r8, r5
      cmpi r8, 0
      jnz fill
      ldi r0, SYS_poll
      ldi r1, pfd
      ldi r2, 65          ; old cap + 1: legal under the raised cap
      ldi r3, 0
      sys
      jcs err
      cmpi r0, 65         ; every slot reports POLLNVAL
      jnz bad
      ldi r0, SYS_poll
      ldi r1, pfd
      ldi r2, 129         ; new cap + 1: the EINVAL line moved with the knob
      ldi r3, 0
      sys
      jcs chk
      jmp bad
chk:  cmpi r0, 22         ; EINVAL
      jnz bad
      ldi r0, SYS_exit
      ldi r1, 0
      sys
bad:  ldi r0, SYS_exit
      ldi r1, 1
      sys
err:  mov r1, r0
      ldi r0, SYS_exit
      sys
      .bss
pfd:  .space 780
  )");
  EXPECT_TRUE(WIfExited(st));
  EXPECT_EQ(WExitCode(st), 0);
}

// Every system call in one table: the name, number and arity of each of the
// 48 calls, looked up both ways, and its SYS_ symbol in the assembler.
TEST(SyscallTable, EveryCallByNameNumberArityAndSymbol) {
  struct Row {
    int num;
    const char* name;
    int nargs;
  };
  const Row kCalls[] = {
      {1, "exit", 1},        {2, "fork", 0},         {3, "read", 3},        {4, "write", 3},
      {5, "open", 3},        {6, "close", 1},        {7, "wait", 0},        {8, "creat", 2},
      {10, "unlink", 1},     {11, "exec", 2},        {13, "time", 0},       {17, "brk", 1},
      {18, "stat", 2},       {19, "lseek", 3},       {20, "getpid", 0},     {23, "setuid", 1},
      {24, "getuid", 0},     {26, "ptrace", 4},      {27, "alarm", 1},      {29, "pause", 0},
      {34, "nice", 1},       {37, "kill", 2},        {39, "setpgrp", 0},    {41, "dup", 1},
      {42, "pipe", 0},       {46, "setgid", 1},      {47, "getgid", 0},     {54, "ioctl", 3},
      {60, "umask", 1},      {62, "setsid", 0},      {63, "getpgrp", 0},    {64, "getppid", 0},
      {65, "sleep", 1},      {66, "yield", 0},       {87, "poll", 3},       {95, "sigprocmask", 3},
      {96, "sigsuspend", 1}, {97, "sigreturn", 0},   {98, "sigaction", 3},  {99, "sigpending", 1},
      {115, "mmap", 6},      {116, "munmap", 2},     {117, "mprotect", 3},  {119, "vfork", 0},
      {120, "lwp_create", 2}, {121, "lwp_exit", 0},  {122, "lwp_self", 0},  {150, "otime", 0},
  };
  Sim sim;
  size_t named = 0;
  for (int num = 0; num < kMaxSyscall; ++num) {
    named += SyscallName(num).substr(0, 4) != "sys#" ? 1 : 0;
  }
  EXPECT_EQ(named, std::size(kCalls)) << "a call with a name is missing from this list";
  for (const Row& c : kCalls) {
    EXPECT_EQ(SyscallName(c.num), c.name);
    EXPECT_EQ(SyscallByName(c.name), c.num) << c.name;
    EXPECT_EQ(SyscallNargs(c.num), c.nargs) << c.name;
    auto img = sim.NewAssembler().Assemble(std::string(".data\nv: .word SYS_") + c.name + "\n");
    ASSERT_TRUE(img.ok()) << c.name;
    uint32_t sym = 0;
    std::memcpy(&sym, img->data.data(), sizeof(sym));
    EXPECT_EQ(sym, static_cast<uint32_t>(c.num)) << "SYS_" << c.name;
  }
  EXPECT_EQ(SyscallName(9), "sys#9");
  EXPECT_EQ(SyscallByName("nosuchcall"), 0);
}

// What every row of the call table dispatches to: for each call that comes
// back to its caller without another process's help, a fresh guest makes it
// once with fixed arguments and its syscall-exit stop reads r0, r1 and the
// carry flag. The values were captured while dispatch was still a switch.
// Left out: exit and lwp_exit (the process exits, so no exit stop comes),
// pause and sigsuspend (they sleep until a signal), vfork (the parent sleeps
// until the child execs or exits) and sigreturn (outside a handler it loads
// the registers from whatever the stack holds).
TEST(SyscallTable, EveryRowDispatchesAsAtTheParent) {
  struct Call {
    int num;
    const char* args;  // r1, r2, ... in order
    uint32_t r0;
    uint32_t r1;
    bool carry;
  };
  const Call kCalls[] = {
      {SYS_fork, "", 5, 1, false},
      {SYS_read, "0, buf, 4", 0, 0, false},
      {SYS_write, "1, path, 6", 6, 1, false},
      {SYS_open, "path, 2, 0", 3, 0x80008000, false},
      {SYS_close, "2", 0, 2, false},
      {SYS_wait, "", 10, 1, true},
      {SYS_creat, "none, 420", 3, 0x80008007, false},
      {SYS_unlink, "path", 0, 0x80008000, false},
      {SYS_exec, "none, 0", 2, 0x80008007, true},
      {SYS_time, "", 2, 1, false},
      {SYS_brk, "0x80020000", 0, 0x80020000, false},
      {SYS_stat, "path, buf", 0, 0x80008000, false},
      {SYS_lseek, "0, 5, 0", 5, 0, false},
      {SYS_getpid, "", 4, 1, false},
      {SYS_setuid, "0", 0, 0, false},
      {SYS_getuid, "", 0, 1, false},
      {SYS_ptrace, "0, 0, 0, 0", 0, 0, false},
      {SYS_alarm, "0", 0, 0, false},
      {SYS_nice, "1", 21, 1, false},
      {SYS_kill, "0, 0", 0, 0, false},
      {SYS_setpgrp, "", 4, 1, false},
      {SYS_dup, "1", 3, 1, false},
      {SYS_pipe, "", 3, 4, false},
      {SYS_setgid, "0", 0, 0, false},
      {SYS_getgid, "", 0, 1, false},
      {SYS_ioctl, "0, 0, 0", 89, 0, true},
      {SYS_umask, "0x12", 18, 18, false},
      {SYS_setsid, "", 4, 1, false},
      {SYS_getpgrp, "", 0, 1, false},
      {SYS_getppid, "", 1, 1, false},
      {SYS_sleep, "1", 0, 1, false},
      {SYS_yield, "", 0, 1, false},
      {SYS_poll, "buf, 0, 0", 0, 0x80008014, false},
      {SYS_sigprocmask, "0, 0, buf", 0, 0, false},
      {SYS_sigaction, "SIGUSR1, idle, 0", 0, 16, false},
      {SYS_sigpending, "buf", 0, 0x80008014, false},
      {SYS_mmap, "0x40000000, 4096, 3, 2, -1, 0", 0x40000000, 0x40000000, false},
      {SYS_munmap, "0x40000000, 4096", 0, 0x40000000, false},
      {SYS_mprotect, "0x80000000, 4096, 7", 0, 0x80000000, false},
      {SYS_lwp_create, "idle, top", 2, 0x80000020, false},
      {SYS_lwp_self, "", 1, 1, false},
      {SYS_otime, "", 89, 1, true},
      {9, "", 89, 1, true},
  };
  for (const Call& c : kCalls) {
    SCOPED_TRACE(SyscallName(c.num));
    Sim sim;
    const std::vector<uint8_t> hello = {'h', 'e', 'l', 'l', 'o'};
    ASSERT_TRUE(sim.kernel().WriteFileAt("/tmp/f", hello).ok());
    std::string prog;
    int reg = 1;
    std::istringstream args(c.args);
    for (std::string a; std::getline(args, a, ',');) {
      prog += "      ldi r" + std::to_string(reg++) + ", " + a + "\n";
    }
    prog += "      ldi r0, " + std::to_string(c.num) + R"(
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
idle: jmp idle
      .data
path: .asciz "/tmp/f"
none: .asciz "/tmp/none"
      .bss
buf:  .space 256
top:  .space 4
)";
    ASSERT_TRUE(sim.InstallProgram("/bin/call", prog).ok());
    auto pid = sim.Start("/bin/call");
    ASSERT_TRUE(pid.ok());
    auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(h->Stop().ok());
    SysSet set;
    set.Add(c.num);
    ASSERT_TRUE(h->SetSysExit(set).ok());
    ASSERT_TRUE(h->Run().ok());
    ASSERT_TRUE(h->WaitStop().ok());
    auto st = h->Status();
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->pr_why, PR_SYSEXIT);
    EXPECT_EQ(st->pr_what, c.num);
    EXPECT_EQ(st->pr_reg.r[0], c.r0);
    EXPECT_EQ(st->pr_reg.r[1], c.r1);
    EXPECT_EQ((st->pr_reg.psr & kPsrC) != 0, c.carry);
    ASSERT_TRUE(h->SetSysExit(SysSet{}).ok());
    ASSERT_TRUE(h->Run().ok());
    auto ec = sim.kernel().RunToExit(*pid);
    ASSERT_TRUE(ec.ok()) << ErrnoName(ec.error());
  }
}

}  // namespace
}  // namespace svr4
