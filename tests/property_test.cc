// Property-style parameterized tests: invariants swept across instruction
// sets, signal/fault spaces, boundary offsets, and batch sizes.
#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "svr4proc/isa/disasm.h"
#include "svr4proc/procfs/procfs2.h"
#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/sim.h"

namespace svr4 {
namespace {

// ---------------------------------------------------------------------------
// ISA properties.
// ---------------------------------------------------------------------------

class OpcodeProperty : public testing::TestWithParam<int> {};

TEST_P(OpcodeProperty, DisassemblerLengthMatchesInstrLength) {
  uint8_t opcode = static_cast<uint8_t>(GetParam());
  std::vector<uint8_t> bytes(12, 0);
  bytes[0] = opcode;
  auto d = DisassembleOne(bytes);
  int expect = InstrLength(opcode);
  if (expect == 0) {
    EXPECT_EQ(d.length, 1) << "illegal bytes consume exactly one byte";
    EXPECT_NE(d.mnemonic.find("illegal"), std::string::npos);
  } else {
    EXPECT_EQ(d.length, expect);
    EXPECT_EQ(d.mnemonic.find("illegal"), std::string::npos);
    EXPECT_FALSE(OpcodeName(opcode).empty());
  }
}

TEST_P(OpcodeProperty, NamedOpcodesAssembleToThemselves) {
  uint8_t opcode = static_cast<uint8_t>(GetParam());
  if (InstrLength(opcode) == 0) {
    GTEST_SKIP();
  }
  // Disassemble a synthetic instruction, reassemble the text, and check the
  // opcode byte survives the round trip.
  std::vector<uint8_t> bytes(12, 0);
  bytes[0] = opcode;
  auto d = DisassembleOne(bytes);
  Assembler as(AsmOptions{.text_base = 0x1000});
  auto img = as.Assemble("  " + d.mnemonic + "\n");
  ASSERT_TRUE(img.ok()) << d.mnemonic << ": " << as.error();
  ASSERT_FALSE(img->text.empty());
  EXPECT_EQ(img->text[0], opcode) << d.mnemonic;
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, OpcodeProperty, testing::Range(0, 256));

// Random byte soup never makes the disassembler crash or claim impossible
// lengths; walking it always terminates.
TEST(DisasmProperty, RandomBytesAreHandled) {
  std::mt19937 rng(12345);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> soup(64);
    for (auto& b : soup) {
      b = static_cast<uint8_t>(rng());
    }
    size_t off = 0;
    while (off < soup.size()) {
      auto d = DisassembleOne(std::span<const uint8_t>(soup).subspan(off));
      ASSERT_GE(d.length, 1);
      ASSERT_LE(d.length, 10);
      off += static_cast<size_t>(d.length);
    }
  }
}

// ---------------------------------------------------------------------------
// FixedSet properties.
// ---------------------------------------------------------------------------

class SigSetProperty : public testing::TestWithParam<int> {};

TEST_P(SigSetProperty, AddRemoveHasInvariants) {
  int m = GetParam();
  SigSet s;
  EXPECT_FALSE(s.Has(m));
  s.Add(m);
  EXPECT_EQ(s.Has(m), SigSet::Valid(m)) << "only valid members are stored";
  EXPECT_EQ(s.Count(), SigSet::Valid(m) ? 1 : 0);
  s.Add(m);
  EXPECT_EQ(s.Count(), SigSet::Valid(m) ? 1 : 0) << "add is idempotent";
  s.Remove(m);
  EXPECT_FALSE(s.Has(m));
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(SigSet::Full().Has(m), SigSet::Valid(m));
}

INSTANTIATE_TEST_SUITE_P(MemberSweep, SigSetProperty,
                         testing::Values(-5, 0, 1, 2, 31, 32, 33, 64, 96, 127, 128, 129,
                                         1000));

TEST(SetAlgebraProperty, DeMorganOnRandomSets) {
  std::mt19937 rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    SysSet a, b;
    for (int i = 0; i < 40; ++i) {
      a.Add(static_cast<int>(rng() % 512) + 1);
      b.Add(static_cast<int>(rng() % 512) + 1);
    }
    // (a | b) - b == a - b
    SysSet lhs = a;
    lhs |= b;
    lhs -= b;
    SysSet rhs = a;
    rhs -= b;
    EXPECT_EQ(lhs, rhs);
    // (a & b) is a subset of both.
    SysSet i = a;
    i &= b;
    for (int m = 1; m <= 512; ++m) {
      if (i.Has(m)) {
        EXPECT_TRUE(a.Has(m));
        EXPECT_TRUE(b.Has(m));
      }
    }
    // Count(a) + Count(b) == Count(a|b) + Count(a&b)
    SysSet u = a;
    u |= b;
    EXPECT_EQ(a.Count() + b.Count(), u.Count() + i.Count());
  }
}

// ---------------------------------------------------------------------------
// /proc address-space I/O truncation: a sweep across the mapping boundary.
// ---------------------------------------------------------------------------

class TruncationProperty : public testing::TestWithParam<int> {};

TEST_P(TruncationProperty, ReadAndWriteTruncateExactlyAtBoundary) {
  int back = GetParam();  // bytes before the end of the text page
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/spin", "spin: jmp spin\n").ok());
  auto pid = sim.Start("/bin/spin");
  auto h = *ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);
  uint32_t end = 0x80000000 + kPageSize;  // one text page
  uint32_t start = end - static_cast<uint32_t>(back);
  std::vector<uint8_t> buf(back + 64);
  auto n = h.ReadMem(start, buf.data(), buf.size());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, back);
  auto w = h.WriteMem(start, buf.data(), buf.size());
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(*w, back);
}

INSTANTIATE_TEST_SUITE_P(BoundarySweep, TruncationProperty,
                         testing::Values(1, 2, 3, 4, 7, 8, 63, 64, 1000));

// ---------------------------------------------------------------------------
// Fault -> signal conversion and fault tracing, swept across fault kinds.
// ---------------------------------------------------------------------------

struct FaultCase {
  const char* name;
  const char* program;  // program that incurs the fault
  int fault;
  int signal;
};

// Without a printer gtest names each case after the raw bytes of the struct,
// i.e. after the run-time (ASLR-randomized) addresses of name and program, so
// the listed test names changed from one build to the next.
void PrintTo(const FaultCase& fc, std::ostream* os) {
  *os << "fault " << fc.fault << ", signal " << fc.signal;
}

const FaultCase kFaultCases[] = {
    {"izdiv",
     R"(
      ldi r1, 1
      ldi r2, 0
      div r1, r2
     )",
     FLTIZDIV, SIGFPE},
    {"iovf",
     R"(
      ldi r1, 0x7fffffff
      ldi r2, 1
      addv r1, r2
     )",
     FLTIOVF, SIGFPE},
    {"bpt", "      bpt\n", FLTBPT, SIGTRAP},
    {"ill", "      .byte 0x00\n", FLTILL, SIGILL},
    {"priv", "      hlt\n", FLTPRIV, SIGILL},
    {"bounds",
     R"(
      ldi r1, 0x100
      ldw r2, [r1]
     )",
     FLTBOUNDS, SIGSEGV},
    {"access",
     R"(
      ldi r1, start      ; text is read/exec, not writable
      ldi r2, 1
      stw r2, [r1]
start: nop
     )",
     FLTACCESS, SIGSEGV},
    {"fpe",
     R"(
      fldi f0, 1.0
      fldi f1, 0.0
      fdiv f0, f1
     )",
     FLTFPE, SIGFPE},
    {"stack",
     R"(
      ldi r15, 0x100     ; point sp at unmapped memory
      push r1
     )",
     FLTSTACK, SIGSEGV},
};

class FaultProperty : public testing::TestWithParam<FaultCase> {};

TEST_P(FaultProperty, UntracedFaultConvertsToItsSignal) {
  const FaultCase& fc = GetParam();
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/f", fc.program).ok());
  auto pid = sim.Start("/bin/f");
  auto ec = sim.kernel().RunToExit(*pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_TRUE(WIfSignaled(*ec));
  EXPECT_EQ(WTermSig(*ec), fc.signal) << fc.name;
}

TEST_P(FaultProperty, TracedFaultStopsWithFaultNumber) {
  const FaultCase& fc = GetParam();
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/f", fc.program).ok());
  auto pid = sim.Start("/bin/f");
  auto h = *ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);
  ASSERT_TRUE(h.Stop().ok());
  FltSet faults;
  faults.Add(fc.fault);
  ASSERT_TRUE(h.SetFltTrace(faults).ok());
  ASSERT_TRUE(h.Run().ok());
  ASSERT_TRUE(h.WaitStop().ok());
  auto st = *h.Status();
  EXPECT_EQ(st.pr_why, PR_FAULTED) << fc.name;
  EXPECT_EQ(st.pr_what, fc.fault) << fc.name;
  // Resuming without clearing converts to the same signal.
  ASSERT_TRUE(h.Run().ok());
  auto ec = sim.kernel().RunToExit(*pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_EQ(WTermSig(*ec), fc.signal) << fc.name;
}

INSTANTIATE_TEST_SUITE_P(FaultSweep, FaultProperty, testing::ValuesIn(kFaultCases),
                         [](const testing::TestParamInfo<FaultCase>& info) {
                           return info.param.name;
                         });

// ---------------------------------------------------------------------------
// Signal default actions, swept across the signal space.
// ---------------------------------------------------------------------------

class SignalDefaultProperty : public testing::TestWithParam<int> {};

TEST_P(SignalDefaultProperty, DefaultActionsApply) {
  int sig = GetParam();
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/spin", "spin: jmp spin\n").ok());
  // Child of the controller so a terminated process stays a zombie we can
  // inspect rather than being auto-reaped by init.
  auto pid = sim.kernel().Spawn("/bin/spin", {"spin"}, Creds::Root(), sim.controller());
  for (int i = 0; i < 20; ++i) {
    sim.kernel().Step();
  }
  ASSERT_TRUE(sim.kernel().Kill(sim.controller(), *pid, sig).ok());
  for (int i = 0; i < 200; ++i) {
    sim.kernel().Step();
  }
  Proc* p = sim.kernel().FindProc(*pid);
  ASSERT_NE(p, nullptr);
  switch (DefaultDisp(sig)) {
    case SigDisp::kTerminate:
      EXPECT_EQ(p->state, Proc::State::kZombie) << SignalName(sig);
      EXPECT_EQ(WTermSig(p->exit_status), sig);
      EXPECT_FALSE(p->exit_status & 0x80) << "no core for plain termination";
      break;
    case SigDisp::kCore:
      EXPECT_EQ(p->state, Proc::State::kZombie) << SignalName(sig);
      EXPECT_EQ(WTermSig(p->exit_status), sig);
      EXPECT_TRUE(p->exit_status & 0x80) << "core-dump bit set";
      break;
    case SigDisp::kIgnore:
      EXPECT_EQ(p->state, Proc::State::kActive) << SignalName(sig);
      EXPECT_EQ(p->MainLwp()->state, LwpState::kRunning);
      break;
    case SigDisp::kStop:
      EXPECT_EQ(p->state, Proc::State::kActive) << SignalName(sig);
      EXPECT_EQ(p->MainLwp()->state, LwpState::kStopped);
      EXPECT_EQ(p->MainLwp()->stop_why, PR_JOBCONTROL);
      break;
    case SigDisp::kContinue:
      EXPECT_EQ(p->state, Proc::State::kActive) << SignalName(sig);
      EXPECT_EQ(p->MainLwp()->state, LwpState::kRunning);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSignals, SignalDefaultProperty,
                         testing::Range(1, static_cast<int>(kNumSignals) + 1),
                         [](const testing::TestParamInfo<int>& info) {
                           return std::string(SignalName(info.param));
                         });

// ---------------------------------------------------------------------------
// Syscall entry/exit stops, swept across syscalls: the entry stop sees the
// arguments, the exit stop sees the result, pr_what always matches.
// ---------------------------------------------------------------------------

struct SysCase {
  const char* name;
  int num;
  const char* body;  // performs the syscall once, then exits
};

// Without a printer gtest names each case after the raw bytes of the struct,
// i.e. after the run-time (ASLR-randomized) addresses of name and body.
void PrintTo(const SysCase& sc, std::ostream* os) { *os << "syscall " << sc.num; }

const SysCase kSysCases[] = {
    {"getpid", SYS_getpid, "      ldi r0, SYS_getpid\n      sys\n"},
    {"getuid", SYS_getuid, "      ldi r0, SYS_getuid\n      sys\n"},
    {"time", SYS_time, "      ldi r0, SYS_time\n      sys\n"},
    {"umask", SYS_umask, "      ldi r0, SYS_umask\n      ldi r1, 0x12\n      sys\n"},
    {"alarm", SYS_alarm, "      ldi r0, SYS_alarm\n      ldi r1, 0\n      sys\n"},
    {"nice", SYS_nice, "      ldi r0, SYS_nice\n      ldi r1, 1\n      sys\n"},
    {"dup", SYS_dup, "      ldi r0, SYS_dup\n      ldi r1, 1\n      sys\n"},
};

class SyscallStopProperty : public testing::TestWithParam<SysCase> {};

TEST_P(SyscallStopProperty, EntryThenExitWithMatchingNumbers) {
  const SysCase& sc = GetParam();
  Sim sim;
  std::string prog = std::string(sc.body) +
                     "      ldi r0, SYS_exit\n      ldi r1, 0\n      sys\n";
  ASSERT_TRUE(sim.InstallProgram("/bin/s", prog).ok());
  auto pid = sim.Start("/bin/s");
  auto h = *ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);
  ASSERT_TRUE(h.Stop().ok());
  SysSet set;
  set.Add(sc.num);
  ASSERT_TRUE(h.SetSysEntry(set).ok());
  ASSERT_TRUE(h.SetSysExit(set).ok());
  ASSERT_TRUE(h.Run().ok());

  ASSERT_TRUE(h.WaitStop().ok());
  auto st = *h.Status();
  EXPECT_EQ(st.pr_why, PR_SYSENTRY) << sc.name;
  EXPECT_EQ(st.pr_what, sc.num);
  EXPECT_EQ(st.pr_syscall, sc.num);
  EXPECT_EQ(st.pr_nsysarg, SyscallNargs(sc.num));
  ASSERT_TRUE(h.Run().ok());

  ASSERT_TRUE(h.WaitStop().ok());
  st = *h.Status();
  EXPECT_EQ(st.pr_why, PR_SYSEXIT) << sc.name;
  EXPECT_EQ(st.pr_what, sc.num);
  EXPECT_FALSE(st.pr_reg.psr & kPsrC) << sc.name << " should have succeeded";
  ASSERT_TRUE(h.Run().ok());
  auto ec = sim.kernel().RunToExit(*pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_EQ(WExitCode(*ec), 0);
}

INSTANTIATE_TEST_SUITE_P(SyscallSweep, SyscallStopProperty, testing::ValuesIn(kSysCases),
                         [](const testing::TestParamInfo<SysCase>& info) {
                           return info.param.name;
                         });

// ---------------------------------------------------------------------------
// Batched control messages are equivalent to the same messages one per
// write, for any batch size.
// ---------------------------------------------------------------------------

class BatchProperty : public testing::TestWithParam<int> {};

TEST_P(BatchProperty, BatchedEqualsSequential) {
  int n = GetParam();
  auto build_msgs = [&](int count) {
    std::vector<std::vector<uint8_t>> msgs;
    for (int i = 0; i < count; ++i) {
      std::vector<uint8_t> m;
      int32_t code = PCSTRACE;
      SigSet sigs;
      // Different payload per message so ordering matters.
      sigs.Add((i % kNumSignals) + 1);
      m.insert(m.end(), reinterpret_cast<uint8_t*>(&code),
               reinterpret_cast<uint8_t*>(&code) + 4);
      m.insert(m.end(), reinterpret_cast<uint8_t*>(&sigs),
               reinterpret_cast<uint8_t*>(&sigs) + sizeof(sigs));
      msgs.push_back(std::move(m));
    }
    return msgs;
  };

  auto run = [&](bool batched) {
    Sim sim;
    (void)sim.InstallProgram("/bin/spin", "spin: jmp spin\n");
    auto pid = sim.Start("/bin/spin");
    char path[40];
    std::snprintf(path, sizeof(path), "/proc2/%05d/ctl", *pid);
    int ctl = *sim.kernel().Open(sim.controller(), path, O_WRONLY);
    auto msgs = build_msgs(n);
    if (batched) {
      std::vector<uint8_t> all;
      for (const auto& m : msgs) {
        all.insert(all.end(), m.begin(), m.end());
      }
      EXPECT_TRUE(sim.kernel().Write(sim.controller(), ctl, all.data(), all.size()).ok());
    } else {
      for (const auto& m : msgs) {
        EXPECT_TRUE(sim.kernel().Write(sim.controller(), ctl, m.data(), m.size()).ok());
      }
    }
    return sim.kernel().FindProc(*pid)->trace.sigtrace;
  };

  EXPECT_EQ(run(true), run(false));
}

INSTANTIATE_TEST_SUITE_P(BatchSweep, BatchProperty, testing::Values(1, 2, 3, 8, 17, 64));

// ---------------------------------------------------------------------------
// Stop/run cycles never lose progress or wedge the target.
// ---------------------------------------------------------------------------

class StopRunProperty : public testing::TestWithParam<int> {};

TEST_P(StopRunProperty, RepeatedCyclesPreserveProgress) {
  int cycles = GetParam();
  Sim sim;
  auto img = sim.InstallProgram("/bin/counter", R"(
loop: ldi r4, var
      ldw r5, [r4]
      addi r5, 1
      stw r5, [r4]
      jmp loop
      .data
var:  .word 0
  )");
  auto pid = sim.Start("/bin/counter");
  auto h = *ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);
  uint32_t var = *img->SymbolValue("var");
  uint32_t prev = 0;
  for (int c = 0; c < cycles; ++c) {
    for (int i = 0; i < 50; ++i) {
      sim.kernel().Step();
    }
    ASSERT_TRUE(h.Stop().ok());
    uint32_t now = 0;
    ASSERT_TRUE(h.ReadMem(var, &now, 4).ok());
    EXPECT_GE(now, prev) << "the counter never goes backwards";
    prev = now;
    ASSERT_TRUE(h.Run().ok());
  }
  // Still making progress at the end.
  for (int i = 0; i < 200; ++i) {
    sim.kernel().Step();
  }
  uint32_t final_v = 0;
  ASSERT_TRUE(h.ReadMem(var, &final_v, 4).ok());
  EXPECT_GT(final_v, prev);
}

INSTANTIATE_TEST_SUITE_P(CycleSweep, StopRunProperty, testing::Values(1, 5, 25));

}  // namespace
}  // namespace svr4
