// The predecoded basic-block execution engine: decoder consistency with the
// interpreter's tables, differential engine equivalence (also while the
// block cache grows), the generation-based invalidation edges (self-modifying
// code, breakpoint plants, watchpoints, the trace bit, exec), the edges of
// the executor's block-to-block chain, and the cache's size per address
// space. Architectural behaviour must be byte-identical to the interpreter
// in every one of these.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "block_ring.h"
#include "svr4proc/isa/blocks.h"
#include "svr4proc/isa/disasm.h"
#include "svr4proc/kernel/smp.h"
#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/sim.h"

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

struct Target {
  Pid pid;
  Aout image;
};

Target StartProgram(Sim& sim, const std::string& src,
                    const std::string& path = "/bin/prog") {
  auto img = sim.InstallProgram(path, src);
  EXPECT_TRUE(img.ok()) << "assembly failed";
  auto pid = sim.Start(path);
  EXPECT_TRUE(pid.ok());
  return Target{pid.ok() ? *pid : -1, img.ok() ? *img : Aout{}};
}

ProcHandle Grab(Sim& sim, Pid pid, int oflags = O_RDWR) {
  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), pid, oflags);
  EXPECT_TRUE(h.ok()) << "grab failed: " << ErrnoName(h.error());
  return std::move(*h);
}

// ---------------------------------------------------------------------------
// Decoder consistency: InstrLength, the disassembler, and the predecoder
// must agree on the length of every defined opcode and reject undefined
// bytes identically — otherwise the block engine drifts from CpuStep.
// ---------------------------------------------------------------------------

TEST(BlockDecoder, AgreesWithInstrLengthAndDisassemblerOnAllOpcodes) {
  for (int op = 0; op < 256; ++op) {
    uint8_t buf[kFetchWindowBytes] = {};
    buf[0] = static_cast<uint8_t>(op);
    const int len = InstrLength(buf[0]);
    auto d = DisassembleOne(std::span<const uint8_t>(buf, sizeof(buf)));
    PInstr pi;
    const int plen = PredecodeOne(buf, 0x1000, &pi);

    if (len == 0) {
      EXPECT_EQ(d.length, 1) << "opcode " << op;
      EXPECT_NE(d.mnemonic.find("illegal"), std::string::npos) << "opcode " << op;
      EXPECT_EQ(pi.kind, B_ILL) << "opcode " << op;
      EXPECT_EQ(plen, 1) << "opcode " << op;
      EXPECT_TRUE(IsBlockTerminator(buf[0]))
          << "undefined opcode " << op << " must end a block (it traps)";
    } else {
      EXPECT_EQ(d.length, len) << "opcode " << op;
      EXPECT_EQ(plen, len) << "opcode " << op;
      EXPECT_EQ(static_cast<int>(pi.len), len) << "opcode " << op;
      EXPECT_NE(pi.kind, B_ILL) << "defined opcode " << op;
      EXPECT_EQ(pi.pc, 0x1000u) << "opcode " << op;
    }
  }
}

// ---------------------------------------------------------------------------
// Differential equivalence: the same program must produce the same exit
// status, the same virtual time, and the same instruction count under both
// engines — not just the same answer, the same execution.
// ---------------------------------------------------------------------------

// Arithmetic, flags, loads/stores, call/ret through a register, push/pop,
// floating point, and syscalls, iterated enough to make any divergence in
// budget accounting or flag semantics visible in the totals.
constexpr char kMixed[] = R"(
      ldi r8, 0           ; checksum
      ldi r9, 40          ; outer counter
outer:
      ldi r4, var
      ldw r5, [r4]
      addi r5, 3
      stw r5, [r4]
      add r8, r5
      ldi r5, fn
      callr r5
      push r8
      pop r10
      xor r8, r10         ; zero (flags exercise)
      mov r8, r10
      itof f1, r8
      fldi f0, 2.5
      fadd f0, f1
      ftoi r7, f0
      xor r8, r7
      ldi r0, SYS_getpid
      sys
      ldi r5, 1
      sub r9, r5
      cmpi r9, 0
      jnz outer
      ldi r5, 255
      and r8, r5
      mov r1, r8
      ldi r0, SYS_exit
      sys
fn:   ldi r6, 17
      mul r6, r8
      xor r8, r6
      ret
      .data
var:  .word 0
)";

struct RunTotals {
  int status = 0;
  uint64_t ticks = 0;
  uint64_t instructions = 0;
};

RunTotals RunUnder(ExecEngine engine, const std::string& src) {
  Sim sim;
  sim.kernel().SetExecEngine(engine);
  auto img = sim.InstallProgram("/bin/prog", src);
  EXPECT_TRUE(img.ok());
  auto pid = sim.Start("/bin/prog");
  EXPECT_TRUE(pid.ok());
  auto st = sim.kernel().RunToExit(*pid);
  EXPECT_TRUE(st.ok());
  return RunTotals{st.ok() ? *st : -1, sim.kernel().Ticks(),
                   sim.kernel().counters().instructions};
}

TEST(BlockEngine, DifferentialLockstepWithInterpreter) {
  RunTotals interp = RunUnder(ExecEngine::kInterp, kMixed);
  RunTotals blocks = RunUnder(ExecEngine::kAuto, kMixed);
  EXPECT_EQ(interp.status, blocks.status);
  EXPECT_EQ(interp.ticks, blocks.ticks)
      << "engines diverged in virtual time: budget accounting differs";
  EXPECT_EQ(interp.instructions, blocks.instructions);
  EXPECT_TRUE(WIfExited(interp.status));
}

// The label of block i of a BlockRing.
std::string BlockLabel(int i) {
  char label[16];
  std::snprintf(label, sizeof(label), "b%d", i);
  return label;
}

constexpr int kRingBlocks = 1024;
constexpr uint64_t kRingLap = 3 * kRingBlocks;  // instructions per lap

struct RingStops {
  std::vector<uint32_t> stop_pcs;
  std::vector<Regs> regs;
  std::vector<uint64_t> ticks;
  std::vector<uint32_t> slots_at_plants;  // block engine only; 0 under kInterp
  uint32_t slots_at_end = 0;
};

// Runs the 1024-block ring from its first instruction while breakpoints are
// planted and lifted through PrWrite: at b700 of the first lap, then at b100
// and b900 of the second, each planted before the previous one is lifted.
// Records the pc, registers and clock at every stop and the block cache's
// size at every plant.
RingStops RunRingWithBreakpoints(ExecEngine engine) {
  Sim sim;
  sim.kernel().SetExecEngine(engine);
  auto t = StartProgram(sim, BlockRing(kRingBlocks));
  auto h = Grab(sim, t.pid);
  FltSet faults;
  faults.Add(FLTBPT);
  EXPECT_TRUE(h.SetFltTrace(faults).ok());
  const AddressSpace& as = *sim.kernel().FindProc(t.pid)->as;
  auto slots = [&]() {
    const BlockCache* bc = as.blocks_if();
    return bc != nullptr ? bc->slot_count() : 0u;
  };
  RingStops out;
  auto record = [&]() {
    auto st = h.Status();
    EXPECT_TRUE(st.ok());
    out.stop_pcs.push_back(st.ok() ? st->pr_reg.pc : 0);
    out.regs.push_back(st.ok() ? st->pr_reg : Regs{});
    out.ticks.push_back(sim.kernel().Ticks());
  };
  EXPECT_TRUE(h.Stop().ok());  // before its first instruction
  record();
  const uint8_t bpt = kBreakpointByte;
  uint32_t planted = 0;
  uint8_t planted_orig = 0;
  for (int target : {700, 100, 900}) {
    const uint32_t addr = *t.image.SymbolValue(BlockLabel(target));
    uint8_t orig = 0;
    out.slots_at_plants.push_back(slots());
    EXPECT_TRUE(h.ReadMem(addr, &orig, 1).ok());
    EXPECT_TRUE(h.WriteMem(addr, &bpt, 1).ok());
    if (planted != 0) {
      EXPECT_TRUE(h.WriteMem(planted, &planted_orig, 1).ok());
    }
    EXPECT_TRUE((planted != 0 ? h.RunClearFault() : h.Run()).ok());
    EXPECT_TRUE(h.WaitStop().ok());
    record();
    planted = addr;
    planted_orig = orig;
  }
  EXPECT_TRUE(h.WriteMem(planted, &planted_orig, 1).ok());
  EXPECT_TRUE(h.RunClearFault().ok());
  for (int i = 0; i < 200; ++i) {
    sim.kernel().Step();
  }
  EXPECT_TRUE(h.Stop().ok());
  record();
  out.slots_at_end = slots();
  return out;
}

TEST(BlockEngine, DifferentialBreakpointsWhileTheCacheGrows) {
  // Growth moves blocks between tables while invalidations (each PrWrite
  // into the text bumps the code generation) leave stale blocks in them.
  // Neither may change what executes.
  RingStops interp = RunRingWithBreakpoints(ExecEngine::kInterp);
  RingStops blocks = RunRingWithBreakpoints(ExecEngine::kAuto);
  ASSERT_EQ(blocks.stop_pcs.size(), 5u);
  EXPECT_EQ(interp.stop_pcs, blocks.stop_pcs);
  EXPECT_EQ(interp.ticks, blocks.ticks);
  EXPECT_TRUE(interp.regs == blocks.regs) << "engines diverged in registers";
  for (uint32_t slots : blocks.slots_at_plants) {
    EXPECT_LT(slots, kBlockCacheMaxSlots)
        << "the breakpoints were meant to land while the table still grows";
  }
  EXPECT_GT(blocks.slots_at_end, blocks.slots_at_plants.back());
}

TEST(BlockEngine, ExactResultUnderBlocks) {
  // Not just engine-vs-engine: pin one known answer so both being wrong
  // can't pass. 300 iterations of +1 -> exit code 300 & 0xff = 44.
  constexpr char kToN[] = R"(
      ldi r5, 0
loop: addi r5, 1
      cmpi r5, 300
      jlt loop
      mov r1, r5
      ldi r0, SYS_exit
      sys
  )";
  RunTotals blocks = RunUnder(ExecEngine::kAuto, kToN);
  ASSERT_TRUE(WIfExited(blocks.status));
  EXPECT_EQ(WExitCode(blocks.status), 300 & 0xFF);
  RunTotals interp = RunUnder(ExecEngine::kInterp, kToN);
  EXPECT_EQ(interp.status, blocks.status);
  EXPECT_EQ(interp.ticks, blocks.ticks);
}

// ---------------------------------------------------------------------------
// Invalidation edges.
// ---------------------------------------------------------------------------

TEST(BlockInvalidate, SelfModifyingCodeInOwnBlock) {
  // The program makes its text writable, then a single straight-line block
  // patches the immediate of an instruction later in that very block. The
  // executor's post-store generation check must abandon the predecoded
  // copy, so the patched byte (42) is what executes — on both engines.
  constexpr char kSelfMod[] = R"(
      ldi r0, SYS_mprotect
      ldi r1, tgt
      ldi r2, 0xFFFFF000
      and r1, r2
      ldi r2, 4096
      ldi r3, 7           ; READ|WRITE|EXEC
      sys
      ldi r4, tgt+2       ; low byte of the ldi immediate below
      ldi r5, 42
      stb r5, [r4]
tgt:  ldi r6, 0           ; becomes ldi r6, 42 before it executes
      mov r1, r6
      ldi r0, SYS_exit
      sys
  )";
  RunTotals blocks = RunUnder(ExecEngine::kAuto, kSelfMod);
  ASSERT_TRUE(WIfExited(blocks.status));
  EXPECT_EQ(WExitCode(blocks.status), 42)
      << "a stale predecoded block executed the pre-patch immediate";
  RunTotals interp = RunUnder(ExecEngine::kInterp, kSelfMod);
  EXPECT_EQ(interp.status, blocks.status);
  EXPECT_EQ(interp.ticks, blocks.ticks);
}

TEST(BlockInvalidate, BreakpointPlantedMidBlockFires) {
  Sim sim;
  sim.kernel().SetExecEngine(ExecEngine::kAuto);
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);
  uint32_t loop = *t.image.SymbolValue("loop");

  // Let the loop get hot so its block is cached.
  for (int i = 0; i < 200; ++i) {
    sim.kernel().Step();
  }
  ASSERT_TRUE(h.Stop().ok());
  FltSet faults;
  faults.Add(FLTBPT);
  ASSERT_TRUE(h.SetFltTrace(faults).ok());

  // Plant mid-block: the stw is the 4th instruction of the loop body.
  // ldi(6) + ldw(4) + addi(6) = byte offset 16.
  uint32_t mid = loop + 16;
  uint8_t orig;
  ASSERT_TRUE(h.ReadMem(mid, &orig, 1).ok());
  uint8_t bpt = kBreakpointByte;
  ASSERT_TRUE(h.WriteMem(mid, &bpt, 1).ok());
  ASSERT_TRUE(h.Run().ok());
  ASSERT_TRUE(h.WaitStop().ok());
  auto st = h.Status();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->pr_why, PR_FAULTED);
  EXPECT_EQ(st->pr_what, FLTBPT);
  EXPECT_EQ(st->pr_reg.pc, mid) << "pc must rest on the breakpoint itself";

  // Second plant into the SAME page: the COW copy is already private, so
  // this /proc write happens in place with no TLB flush — the separate code
  // generation must still drop the cached block.
  ASSERT_TRUE(h.WriteMem(mid, &orig, 1).ok());  // heal the first one
  uint32_t mid2 = loop + 6;  // the ldw
  ASSERT_TRUE(h.ReadMem(mid2, &orig, 1).ok());
  ASSERT_TRUE(h.WriteMem(mid2, &bpt, 1).ok());
  ASSERT_TRUE(h.RunClearFault().ok());
  ASSERT_TRUE(h.WaitStop().ok());
  st = h.Status();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->pr_what, FLTBPT);
  EXPECT_EQ(st->pr_reg.pc, mid2)
      << "a breakpoint planted without a TLB flush must still invalidate";
}

TEST(BlockInvalidate, WatchpointArmedMidRunFires) {
  Sim sim;
  sim.kernel().SetExecEngine(ExecEngine::kAuto);
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);
  uint32_t var = *t.image.SymbolValue("var");

  for (int i = 0; i < 200; ++i) {
    sim.kernel().Step();
  }
  ASSERT_TRUE(h.Stop().ok());
  FltSet faults;
  faults.Add(FLTWATCH);
  ASSERT_TRUE(h.SetFltTrace(faults).ok());
  PrWatch w;
  w.pr_vaddr = var;
  w.pr_size = 4;
  w.pr_wflags = WA_WRITE;
  ASSERT_TRUE(h.SetWatch(w).ok());
  ASSERT_TRUE(h.Run().ok());
  ASSERT_TRUE(h.WaitStop().ok());
  auto st = h.Status();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->pr_why, PR_FAULTED);
  EXPECT_EQ(st->pr_what, FLTWATCH)
      << "the hot cached block must not outrun a freshly armed watchpoint";
}

TEST(BlockInvalidate, TraceBitStepsExactlyOneInstruction) {
  Sim sim;
  sim.kernel().SetExecEngine(ExecEngine::kAuto);
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);

  for (int i = 0; i < 200; ++i) {
    sim.kernel().Step();
  }
  ASSERT_TRUE(h.Stop().ok());
  FltSet faults;
  faults.Add(FLTTRACE);
  ASSERT_TRUE(h.SetFltTrace(faults).ok());
  auto before = h.Status();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(h.Step().ok());
  ASSERT_TRUE(h.WaitStop().ok());
  auto after = h.Status();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->pr_why, PR_FAULTED);
  EXPECT_EQ(after->pr_what, FLTTRACE);
  EXPECT_EQ(after->pr_utime, before->pr_utime + 1)
      << "PRSTEP with a hot block cached must retire exactly one instruction";
  EXPECT_NE(after->pr_reg.pc, before->pr_reg.pc);
}

TEST(BlockInvalidate, ExecReplacesAddressSpaceAndBlocks) {
  Sim sim;
  sim.kernel().SetExecEngine(ExecEngine::kAuto);
  auto img = sim.InstallProgram("/bin/second", R"(
      ldi r5, 0
loop: addi r5, 1
      cmpi r5, 50
      jlt loop
      ldi r0, SYS_exit
      ldi r1, 7
      sys
  )");
  ASSERT_TRUE(img.ok());
  // Run a hot loop, then exec the second image; the fresh address space
  // starts with an empty block cache and must run the new text correctly.
  auto t = StartProgram(sim, R"(
      ldi r5, 0
warm: addi r5, 1
      cmpi r5, 2000
      jlt warm
      ldi r0, SYS_exec
      ldi r1, path
      ldi r2, 0
      sys
      ldi r0, SYS_exit
      ldi r1, 1           ; exec failed
      sys
      .data
path: .asciz "/bin/second"
  )");
  auto st = sim.kernel().RunToExit(t.pid);
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(WIfExited(*st));
  EXPECT_EQ(WExitCode(*st), 7);
}

// ---------------------------------------------------------------------------
// Chain edges: the executor runs from one cached block straight into the
// next, and must leave the chain wherever the block-per-call loop it
// replaced would have looked at the cache, the budget or the IPI counter.
// ---------------------------------------------------------------------------

// Eight three-instruction blocks: they take distinct slots of the smallest
// table, so every lap after the first runs from the cache without a miss.
constexpr int kChainRing = 8;
constexpr uint64_t kChainLap = 3 * kChainRing;
constexpr uint32_t kRingBlockBytes = 13;  // addi (6), xor (2), jmp (5)

TEST(BlockChain, StoreRewritesTheNextBlockOfTheChain) {
  // Each lap, block `top` patches the immediate of the ldi that opens the
  // next block with the lap number, and that block adds it to a checksum.
  // From the second lap on the next block is cached with last lap's
  // immediate, so the chain must find it stale and rebuild it.
  constexpr char kPatchNext[] = R"(
      ldi r0, SYS_mprotect
      ldi r1, top
      ldi r2, 0xFFFFF000
      and r1, r2
      ldi r2, 4096
      ldi r3, 7           ; READ|WRITE|EXEC
      sys
      ldi r8, 0           ; checksum
      ldi r9, 0           ; lap
top:  addi r9, 1
      ldi r4, tgt+2       ; low byte of the ldi immediate below
      stb r9, [r4]
      jmp tgt
tgt:  ldi r6, 0           ; becomes ldi r6, <lap> before it executes
      add r8, r6
      cmpi r9, 200
      jlt top
      mov r1, r8
      ldi r0, SYS_exit
      sys
  )";
  RunTotals blocks = RunUnder(ExecEngine::kAuto, kPatchNext);
  ASSERT_TRUE(WIfExited(blocks.status));
  EXPECT_EQ(WExitCode(blocks.status), (200 * 201 / 2) & 0xFF)
      << "the chain entered a block built before the store rewrote it";
  RunTotals interp = RunUnder(ExecEngine::kInterp, kPatchNext);
  EXPECT_EQ(interp.status, blocks.status);
  EXPECT_EQ(interp.ticks, blocks.ticks);
  EXPECT_EQ(interp.instructions, blocks.instructions);
}

struct ChainStop {
  uint32_t planted = 0;
  PrStatus status{};
  uint64_t ticks = 0;
};

// Runs the ring until every block is cached, stops it between two quanta,
// plants a breakpoint through PrWrite at the start of the block after the
// one holding the stopped pc (the block the chain enters next), and runs it
// into the breakpoint.
ChainStop RunIntoBreakpointAhead(ExecEngine engine) {
  Sim sim;
  Kernel& k = sim.kernel();
  k.SetExecEngine(engine);
  auto t = StartProgram(sim, BlockRing(kChainRing));
  auto h = Grab(sim, t.pid);
  const Proc* p = k.FindProc(t.pid);
  EXPECT_TRUE(k.RunUntil([&] { return p->utime >= 4 * kChainLap + 11; }, 100000));
  EXPECT_TRUE(h.Stop().ok());
  FltSet faults;
  faults.Add(FLTBPT);
  EXPECT_TRUE(h.SetFltTrace(faults).ok());
  auto st = h.Status();
  EXPECT_TRUE(st.ok());
  ChainStop out;
  const uint32_t pc = st.ok() ? st->pr_reg.pc : 0;
  for (int i = 0; i < kChainRing; ++i) {
    const uint32_t start = *t.image.SymbolValue(BlockLabel(i));
    const uint32_t next =
        *t.image.SymbolValue(BlockLabel((i + 1) % kChainRing));
    if (pc >= start && pc < start + kRingBlockBytes) {
      out.planted = next;
    }
  }
  EXPECT_NE(out.planted, 0u) << "stopped outside the ring at " << pc;
  const uint8_t bpt = kBreakpointByte;
  EXPECT_TRUE(h.WriteMem(out.planted, &bpt, 1).ok());
  EXPECT_TRUE(h.Run().ok());
  const Lwp* lwp = p->lwps[0].get();
  EXPECT_TRUE(k.RunUntil([&] { return lwp->state == LwpState::kStopped; }, 10000))
      << "the breakpoint ahead of the chain never fired";
  st = h.Status();
  EXPECT_TRUE(st.ok());
  out.status = st.ok() ? *st : PrStatus{};
  out.ticks = k.Ticks();
  return out;
}

TEST(BlockChain, BreakpointPlantedBetweenQuantaInTheNextBlockFires) {
  ChainStop blocks = RunIntoBreakpointAhead(ExecEngine::kAuto);
  EXPECT_EQ(blocks.status.pr_why, PR_FAULTED);
  EXPECT_EQ(blocks.status.pr_what, FLTBPT);
  EXPECT_EQ(blocks.status.pr_reg.pc, blocks.planted);
  ChainStop interp = RunIntoBreakpointAhead(ExecEngine::kInterp);
  EXPECT_EQ(interp.planted, blocks.planted);
  EXPECT_TRUE(interp.status.pr_reg == blocks.status.pr_reg);
  EXPECT_EQ(interp.status.pr_utime, blocks.status.pr_utime);
  EXPECT_EQ(interp.ticks, blocks.ticks);
}

struct QuantumTrail {
  std::vector<Regs> regs;
  std::vector<uint64_t> utime;
  std::vector<uint64_t> ticks;
  bool deterministic = true;
};

// The ring's state after each of 60 Steps at the given nice value.
QuantumTrail RunRingAtNice(ExecEngine engine, int nice) {
  Sim sim;
  Kernel& k = sim.kernel();
  k.SetExecEngine(engine);
  auto t = StartProgram(sim, BlockRing(kChainRing));
  Proc* p = k.FindProc(t.pid);
  p->nice = nice;
  QuantumTrail out;
  out.deterministic = k.smp_mode() == SmpMode::kDeterministic;
  for (int i = 0; i < 60; ++i) {
    k.Step();
    out.regs.push_back(p->lwps[0]->regs);
    out.utime.push_back(p->utime);
    out.ticks.push_back(k.Ticks());
  }
  return out;
}

TEST(BlockChain, BudgetRunsOutMidChainAtEveryNice) {
  // Quanta of 128, 64 and 4 instructions: none is a multiple of the ring's
  // three-instruction blocks, so quanta end inside chained blocks and the
  // next ones start mid-block. (Free-running chunks are sized differently;
  // the engines must agree there too.)
  for (int nice : {0, 20, 39}) {
    QuantumTrail blocks = RunRingAtNice(ExecEngine::kAuto, nice);
    QuantumTrail interp = RunRingAtNice(ExecEngine::kInterp, nice);
    EXPECT_EQ(interp.utime, blocks.utime) << "nice " << nice;
    EXPECT_EQ(interp.ticks, blocks.ticks) << "nice " << nice;
    EXPECT_TRUE(interp.regs == blocks.regs) << "nice " << nice;
    if (blocks.deterministic) {
      EXPECT_TRUE(std::any_of(blocks.utime.begin(), blocks.utime.end(),
                              [](uint64_t u) { return u % 3 != 0; }))
          << "nice " << nice << ": no quantum ended mid-block";
    }
  }
}

TEST(BlockChain, RingCountsOneHitPerBlockEntered) {
  // At nice 25 a quantum is 48 instructions and a free-running chunk 12288,
  // both whole laps, so every block is entered at its start: the first lap
  // misses once per block and every later entry is one hit, whether the
  // executor or Get found the block.
  constexpr uint64_t kLaps = 1024;
  Sim sim;
  Kernel& k = sim.kernel();
  k.SetExecEngine(ExecEngine::kAuto);
  auto t = StartProgram(sim, BlockRing(kChainRing));
  Proc* p = k.FindProc(t.pid);
  p->nice = 25;
  ASSERT_TRUE(k.RunUntil([&] { return p->utime >= kLaps * kChainLap; }, 100000));
  ASSERT_EQ(p->utime, kLaps * kChainLap);
  const BlockCache* bc = p->as->blocks_if();
  ASSERT_NE(bc, nullptr);
  EXPECT_EQ(bc->stats().misses, uint64_t{kChainRing});
  EXPECT_EQ(bc->stats().hits, (kLaps - 1) * kChainRing);
  EXPECT_EQ(bc->stats().built, uint64_t{kChainRing});
  EXPECT_EQ(bc->stats().invalidations, 0u);
  EXPECT_EQ(bc->stats().fallback_steps, 0u);
  EXPECT_EQ(bc->slot_count(), kBlockCacheMinSlots);

  Sim ref;
  ref.kernel().SetExecEngine(ExecEngine::kInterp);
  auto rt = StartProgram(ref, BlockRing(kChainRing));
  Proc* rp = ref.kernel().FindProc(rt.pid);
  rp->nice = 25;
  ASSERT_TRUE(ref.kernel().RunUntil([&] { return rp->utime >= kLaps * kChainLap; }, 100000));
  EXPECT_EQ(rp->utime, p->utime);
  EXPECT_TRUE(rp->lwps[0]->regs == p->lwps[0]->regs);
  EXPECT_EQ(ref.kernel().Ticks(), k.Ticks());
}

TEST(BlockChain, RaisedIpiStopsTheChainAtTheNextBlockBoundary) {
  // A free-running worker hands the executor its CPU's IPI counter. Once a
  // shootdown raises it, the chain ends at the next block boundary; once
  // acknowledged, the chain runs to the end of its budget. Both runs must
  // leave the registers where the interpreter does after as many steps.
  Sim sim;
  Kernel& k = sim.kernel();
  k.SetExecEngine(ExecEngine::kAuto);
  auto t = StartProgram(sim, BlockRing(kChainRing));
  Proc* p = k.FindProc(t.pid);
  p->nice = 25;  // whole-block quanta: the cache holds just the ring's blocks
  ASSERT_TRUE(k.RunUntil([&] { return p->utime >= 4 * kChainLap; }, 100000));
  AddressSpace& as = *p->as;
  BlockCache& bc = as.blocks();
  SmpState smp;
  smp.Resize(2);
  smp.cpu(1).cur_as = &as;
  smp.Shootdown(&as, t.pid);
  const std::atomic<uint64_t>& ipi = smp.cpu(1).ipi_pending;
  ASSERT_EQ(ipi.load(), 1u);

  Regs regs = p->lwps[0]->regs;
  FpRegs fp = p->lwps[0]->fpregs;
  Regs ref = regs;
  FpRegs ref_fp = fp;
  auto interp = [&](uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(CpuStep(ref, ref_fp, as).kind, StepResult::kOk);
    }
  };
  StepResult last;
  const Block* first = bc.Get(regs.pc, as);
  ASSERT_NE(first, nullptr);
  const uint32_t first_len = static_cast<uint32_t>(first->code.size());
  uint32_t n = ExecuteBlock(*first, regs, fp, as, 1000, &last, &bc, &ipi);
  EXPECT_EQ(last.kind, StepResult::kOk);
  EXPECT_EQ(n, first_len) << "a raised IPI must end the chain after the entry block";
  interp(n);
  EXPECT_TRUE(ref == regs);

  EXPECT_EQ(smp.AckIpis(1), 1u);
  const Block* next = bc.Get(regs.pc, as);
  ASSERT_NE(next, nullptr);
  n = ExecuteBlock(*next, regs, fp, as, 1000, &last, &bc, &ipi);
  EXPECT_EQ(n, 1000u) << "with no IPI pending the chain runs the whole budget";
  interp(n);
  EXPECT_TRUE(ref == regs);
}

// ---------------------------------------------------------------------------
// Engine knob and counters.
// ---------------------------------------------------------------------------

TEST(BlockEngineKnob, EnvironmentOverrideSelectsEngine) {
  ASSERT_EQ(setenv("SVR4PROC_EXEC_ENGINE", "interp", 1), 0);
  {
    Kernel k;
    EXPECT_EQ(k.exec_engine(), ExecEngine::kInterp);
  }
  ASSERT_EQ(setenv("SVR4PROC_EXEC_ENGINE", "blocks", 1), 0);
  {
    Kernel k;
    EXPECT_EQ(k.exec_engine(), ExecEngine::kAuto);
  }
  ASSERT_EQ(setenv("SVR4PROC_EXEC_ENGINE", "bogus", 1), 0);
  {
    Kernel k;
    EXPECT_EQ(k.exec_engine(), ExecEngine::kAuto) << "unknown values mean the default";
  }
  ASSERT_EQ(unsetenv("SVR4PROC_EXEC_ENGINE"), 0);
  {
    Kernel k;
    EXPECT_EQ(k.exec_engine(), ExecEngine::kAuto);
    k.SetExecEngine(ExecEngine::kInterp);
    EXPECT_EQ(k.exec_engine(), ExecEngine::kInterp);
  }
}

TEST(BlockStatsExposure, VmStatsAndKernelMetricsCarryBlockCounters) {
  Sim sim;
  // Pinned to the block engine so this test means the same thing when the
  // whole suite runs under SVR4PROC_EXEC_ENGINE=interp in CI.
  sim.kernel().SetExecEngine(ExecEngine::kAuto);
  auto t = StartProgram(sim, kCounter);
  auto h = Grab(sim, t.pid);
  for (int i = 0; i < 500; ++i) {
    sim.kernel().Step();
  }
  auto s = h.VmStats();
  ASSERT_TRUE(s.ok());
  EXPECT_GT(s->pr_bb_built, 0u);
  EXPECT_GT(s->pr_bb_hits, 0u) << "a tight loop must run out of the block cache";
  EXPECT_GT(s->pr_bb_hits, s->pr_bb_misses);

  EXPECT_GT(sim.kernel().counters().quanta_blocks, 0u);
  EXPECT_EQ(sim.kernel().counters().quanta_interp, 0u);

  char buf[4096];
  auto fd = sim.kernel().Open(sim.controller(), "/proc2/kernel/metrics", O_RDONLY);
  ASSERT_TRUE(fd.ok());
  auto n = sim.kernel().Read(sim.controller(), *fd, buf, sizeof(buf) - 1);
  ASSERT_TRUE(n.ok());
  buf[*n] = 0;
  std::string text(buf);
  EXPECT_NE(text.find("exec_engine blocks"), std::string::npos) << text;
  EXPECT_NE(text.find("bb_hits "), std::string::npos);
  EXPECT_NE(text.find("bb_built "), std::string::npos);
  EXPECT_NE(text.find("exec_quanta_blocks "), std::string::npos);
}

// The metrics line value for `key` ("key value\n"), or -1 when absent.
int64_t MetricsValue(Sim& sim, const std::string& key) {
  LocalProcIo io(sim.kernel(), sim.controller());
  auto text = ReadTextFile(io, "/proc2/kernel/metrics");
  EXPECT_TRUE(text.ok());
  const std::string needle = "\n" + key + " ";
  const size_t at = text.ok() ? text->find(needle) : std::string::npos;
  return at == std::string::npos ? -1 : std::stoll(text->substr(at + needle.size()));
}

TEST(BlockCacheSize, SleepersStaySmallWhileARingGrows) {
  // 1000 address spaces that run one block each and one that runs a
  // 1024-block ring: every sleeper keeps the smallest table, and only the
  // ring's grows, to at most kBlockCacheMaxSlots.
  Sim sim;
  Kernel& k = sim.kernel();
  k.SetExecEngine(ExecEngine::kAuto);
  ASSERT_TRUE(sim.InstallProgram("/bin/sleeper", R"(
top:  ldi r0, SYS_pause
      sys
      jmp top
  )").ok());
  std::vector<Pid> sleepers;
  for (int i = 0; i < 1000; ++i) {
    auto pid = sim.Start("/bin/sleeper");
    ASSERT_TRUE(pid.ok());
    sleepers.push_back(*pid);
  }
  auto ring = StartProgram(sim, BlockRing(kRingBlocks), "/bin/ring");
  ASSERT_TRUE(k.RunUntil(
      [&]() {
        for (Pid pid : sleepers) {
          const Proc* p = k.FindProc(pid);
          if (p == nullptr || p->lwps[0]->state != LwpState::kSleeping) {
            return false;
          }
        }
        return true;
      },
      100000));

  // Each doubling waits for more conflicts than the table has slots, so
  // the ring's table takes several laps to reach its size (about eight
  // here); measure the hit ratio over the sixteen laps after sixteen more.
  Proc* rp = k.FindProc(ring.pid);
  auto run_laps = [&](uint64_t laps) {
    const uint64_t until = rp->utime + laps * kRingLap;
    ASSERT_TRUE(k.RunUntil([&]() { return rp->utime >= until; }, 1000000));
  };
  run_laps(16);
  const BlockCache* bc = rp->as->blocks_if();
  ASSERT_NE(bc, nullptr);
  const BlockStats warm = bc->stats();
  run_laps(16);
  const uint64_t hits = bc->stats().hits - warm.hits;
  const uint64_t misses = bc->stats().misses - warm.misses;
  EXPECT_GE(static_cast<double>(hits), 0.99 * static_cast<double>(hits + misses))
      << hits << " hits, " << misses << " misses, " << bc->slot_count() << " slots";

  const int64_t slots = MetricsValue(sim, "bb_slots");
  EXPECT_GT(slots, 0);
  EXPECT_LE(slots, 1000 * int64_t{kBlockCacheMinSlots} + kBlockCacheMaxSlots);
  EXPECT_EQ(k.FindProc(sleepers[0])->as->blocks_if()->slot_count(), kBlockCacheMinSlots);
}

TEST(BlockStatsExposure, FallbacksCountedWhenTlbDisabled) {
  Sim sim;
  sim.kernel().SetExecEngine(ExecEngine::kAuto);
  auto t = StartProgram(sim, kCounter);
  Proc* p = sim.kernel().FindProc(t.pid);
  ASSERT_NE(p, nullptr);
  p->as->SetTlbEnabled(false);  // CodeCacheActive() false -> per-step fallback
  for (int i = 0; i < 100; ++i) {
    sim.kernel().Step();
  }
  auto h = Grab(sim, t.pid);
  auto s = h.VmStats();
  ASSERT_TRUE(s.ok());
  EXPECT_GT(s->pr_bb_fallbacks, 0u);
  EXPECT_EQ(s->pr_bb_hits, 0u) << "no blocks may serve with the TLB disabled";
}

}  // namespace
}  // namespace svr4
