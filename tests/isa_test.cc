// Unit tests for the virtual ISA: encoder/assembler, interpreter semantics,
// fault generation, and a.out round-trips.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "svr4proc/base/fixed_set.h"
#include "svr4proc/isa/aout.h"
#include "svr4proc/isa/assembler.h"
#include "svr4proc/isa/blocks.h"
#include "svr4proc/isa/cpu.h"
#include "svr4proc/isa/disasm.h"
#include "svr4proc/isa/isa.h"

namespace svr4 {
namespace {

// Flat, fully read/write/execute memory for interpreter tests.
class FlatMemory : public MemoryIf {
 public:
  explicit FlatMemory(uint32_t base, uint32_t size) : base_(base), bytes_(size, 0) {}

  std::optional<MemFault> MemRead(uint32_t addr, void* buf, uint32_t len,
                                  Access /*kind*/) override {
    if (!InRange(addr, len)) {
      return MemFault{FLTBOUNDS, addr};
    }
    std::memcpy(buf, &bytes_[addr - base_], len);
    return std::nullopt;
  }
  std::optional<MemFault> MemWrite(uint32_t addr, const void* buf, uint32_t len) override {
    if (!InRange(addr, len)) {
      return MemFault{FLTBOUNDS, addr};
    }
    std::memcpy(&bytes_[addr - base_], buf, len);
    return std::nullopt;
  }

  void Load(uint32_t addr, const std::vector<uint8_t>& image) {
    std::memcpy(&bytes_[addr - base_], image.data(), image.size());
  }
  uint32_t base() const { return base_; }

 private:
  bool InRange(uint32_t addr, uint32_t len) const {
    return addr >= base_ && addr + len <= base_ + bytes_.size() && addr + len >= addr;
  }
  uint32_t base_;
  std::vector<uint8_t> bytes_;
};

struct Machine {
  Regs regs;
  FpRegs fp;
  FlatMemory mem{0x1000, 0x10000};

  Machine() {
    regs.pc = 0x1000;
    regs.set_sp(0x1000 + 0xF000);
  }

  StepResult Step() { return CpuStep(regs, fp, mem); }

  // Runs until syscall/fault or instruction limit.
  StepResult Run(int max = 10000) {
    StepResult r;
    for (int i = 0; i < max; ++i) {
      r = Step();
      if (r.kind != StepResult::kOk) {
        return r;
      }
    }
    ADD_FAILURE() << "program did not stop";
    return r;
  }

  void LoadAsm(const std::string& src) {
    Assembler as(AsmOptions{.text_base = 0x1000, .data_align = 0x100});
    auto img = as.Assemble(src);
    ASSERT_TRUE(img.ok()) << as.error();
    mem.Load(img->text_vaddr, img->text);
    if (!img->data.empty()) {
      mem.Load(img->data_vaddr, img->data);
    }
    regs.pc = img->entry;
  }
};

TEST(InstrLength, BreakpointIsShortestInstruction) {
  // The paper: the breakpoint instruction should be the shortest instruction
  // in the instruction set so it never overwrites a following instruction.
  EXPECT_EQ(InstrLength(kOpBpt), kBreakpointLength);
  for (int op = 0; op < 256; ++op) {
    int len = InstrLength(static_cast<uint8_t>(op));
    if (len > 0) {
      EXPECT_GE(len, kBreakpointLength);
    }
  }
}

// The instruction table: each row assembles from a line that puts a
// distinct nonzero value in every operand slot of its form, to exactly
// InstrLength bytes, and disassembles and predecodes back to the fields
// that line named.
struct FormCase {
  std::string args;  // the line after the mnemonic
  uint8_t rd = 0;    // the fields PredecodeOne must produce
  uint8_t rs = 0;
  uint32_t imm = 0;
};

FormCase CaseFor(OpForm form) {
  switch (form) {
    case OpForm::kNone:
      return {"", 0, 0, 0};
    case OpForm::kRR:
      return {" r3, r9", 3, 9, 0};
    case OpForm::kRI:
      return {" r3, 0x12345678", 3, 0, 0x12345678};
    case OpForm::kMem:
      return {" r3, [r9-8]", 3, 9, static_cast<uint32_t>(-8)};
    case OpForm::kJump:
      return {" 0x12345678", 0, 0, 0x12345678};
    case OpForm::kReg:
      return {" r9", 9, 9, 0};
    case OpForm::kFI:
      return {" f3, 2.5", 3, 0, 0};
    case OpForm::kFF:
      return {" f3, f5", 3, 5, 0};
    case OpForm::kRF:
      return {" r9, f5", 9, 5, 0};
    case OpForm::kFR:
      return {" f3, r9", 3, 9, 0};
  }
  return {};
}

TEST(IsaTable, EveryRowAssemblesDisassemblesAndPredecodesItsFields) {
  int rows = 0;
  for (const OpInfo& row : kIsa) {
    if (row.kind == B_ILL) {
      continue;
    }
    const FormCase c = CaseFor(row.form);
    const std::string line = std::string(row.name) + c.args;
    const int len = InstrLength(row.opcode);
    Assembler as(AsmOptions{.text_base = 0x1000});
    auto img = as.Assemble("  " + line + "\n");
    ASSERT_TRUE(img.ok()) << line << ": " << as.error();
    ASSERT_EQ(img->text.size(), static_cast<size_t>(len)) << line;
    EXPECT_EQ(img->text[0], row.opcode) << line;

    auto d = DisassembleOne(img->text);
    EXPECT_EQ(d.mnemonic, line);
    EXPECT_EQ(d.length, len) << line;

    PInstr pi;
    EXPECT_EQ(PredecodeOne(img->text.data(), 0x1000, &pi), len) << line;
    EXPECT_EQ(pi.kind, row.kind) << line;
    EXPECT_EQ(pi.rd, c.rd) << line;
    EXPECT_EQ(pi.rs, c.rs) << line;
    EXPECT_EQ(pi.imm, c.imm) << line;
    EXPECT_EQ(pi.len, len) << line;
    if (row.form == OpForm::kFI) {
      EXPECT_EQ(DecodeOperands(row.form, img->text.data()).fimm, 2.5) << line;
    }
    ++rows;
  }
  EXPECT_EQ(rows, B_KIND_COUNT - 1) << "every instruction has a row";
}

TEST(Cpu, LdiMovAdd) {
  Machine m;
  m.LoadAsm(R"(
      ldi r1, 5
      ldi r2, 7
      add r1, r2
      mov r3, r1
      sys
  )");
  auto r = m.Run();
  EXPECT_EQ(r.kind, StepResult::kSyscall);
  EXPECT_EQ(m.regs.r[1], 12u);
  EXPECT_EQ(m.regs.r[3], 12u);
}

TEST(Cpu, ArithmeticOps) {
  Machine m;
  m.LoadAsm(R"(
      ldi r1, 100
      ldi r2, 6
      mod r1, r2      ; r1 = 4
      ldi r3, 3
      mul r3, r1      ; r3 = 12
      ldi r4, 0xF0
      ldi r5, 0x0F
      xor r4, r5      ; r4 = 0xFF
      shl r4, r3      ; r4 = 0xFF000
      sys
  )");
  auto r = m.Run();
  ASSERT_EQ(r.kind, StepResult::kSyscall);
  EXPECT_EQ(m.regs.r[1], 4u);
  EXPECT_EQ(m.regs.r[3], 12u);
  EXPECT_EQ(m.regs.r[4], 0xFF000u);
}

TEST(Cpu, DivideByZeroFaults) {
  Machine m;
  m.LoadAsm(R"(
      ldi r1, 9
      ldi r2, 0
      div r1, r2
  )");
  auto r = m.Run();
  ASSERT_EQ(r.kind, StepResult::kFault);
  EXPECT_EQ(r.fault, FLTIZDIV);
  // pc is left at the faulting instruction (restartable).
  uint8_t op = 0;
  ASSERT_FALSE(m.mem.MemRead(m.regs.pc, &op, 1, Access::kExec));
  EXPECT_EQ(op, kOpDiv);
}

TEST(Cpu, SignedOverflowFaultsOnAddv) {
  Machine m;
  m.LoadAsm(R"(
      ldi r1, 0x7fffffff
      ldi r2, 1
      addv r1, r2
  )");
  auto r = m.Run();
  ASSERT_EQ(r.kind, StepResult::kFault);
  EXPECT_EQ(r.fault, FLTIOVF);
}

TEST(Cpu, PlainAddWrapsWithoutFault) {
  Machine m;
  m.LoadAsm(R"(
      ldi r1, 0x7fffffff
      ldi r2, 1
      add r1, r2
      sys
  )");
  auto r = m.Run();
  ASSERT_EQ(r.kind, StepResult::kSyscall);
  EXPECT_EQ(m.regs.r[1], 0x80000000u);
}

TEST(Cpu, BptFaultLeavesPcAtBreakpointAddress) {
  Machine m;
  m.LoadAsm(R"(
      nop
here: bpt
      nop
  )");
  auto r = m.Run();
  ASSERT_EQ(r.kind, StepResult::kFault);
  EXPECT_EQ(r.fault, FLTBPT);
  EXPECT_EQ(m.regs.pc, 0x1000u + 1);  // address of the bpt itself
  EXPECT_EQ(r.fault_addr, m.regs.pc);
}

TEST(Cpu, IllegalOpcodeFaults) {
  Machine m;
  m.mem.Load(0x1000, {0x00});
  auto r = m.Step();
  ASSERT_EQ(r.kind, StepResult::kFault);
  EXPECT_EQ(r.fault, FLTILL);
}

TEST(Cpu, PrivilegedInstructionFaults) {
  Machine m;
  m.LoadAsm("hlt\n");
  auto r = m.Step();
  ASSERT_EQ(r.kind, StepResult::kFault);
  EXPECT_EQ(r.fault, FLTPRIV);
}

TEST(Cpu, TraceBitFaultsAfterEveryInstruction) {
  Machine m;
  m.LoadAsm(R"(
      ldi r1, 1
      ldi r2, 2
      sys
  )");
  m.regs.psr |= kPsrT;
  auto r = m.Step();
  ASSERT_EQ(r.kind, StepResult::kFault);
  EXPECT_EQ(r.fault, FLTTRACE);
  EXPECT_EQ(m.regs.r[1], 1u);             // instruction executed
  EXPECT_EQ(m.regs.pc, 0x1000u + 6);      // pc advanced past it
  r = m.Step();
  ASSERT_EQ(r.kind, StepResult::kFault);
  EXPECT_EQ(m.regs.r[2], 2u);
  m.regs.psr &= ~kPsrT;
  r = m.Step();
  EXPECT_EQ(r.kind, StepResult::kSyscall);
}

TEST(Cpu, LoadStore) {
  Machine m;
  m.LoadAsm(R"(
      ldi r1, 0x2000
      ldi r2, 0xdeadbeef
      stw r2, [r1+8]
      ldw r3, [r1+8]
      ldb r4, [r1+8]
      sys
  )");
  auto r = m.Run();
  ASSERT_EQ(r.kind, StepResult::kSyscall);
  EXPECT_EQ(m.regs.r[3], 0xdeadbeefu);
  EXPECT_EQ(m.regs.r[4], 0xefu);  // little endian low byte
}

TEST(Cpu, NegativeOffsets) {
  Machine m;
  m.LoadAsm(R"(
      ldi r1, 0x2010
      ldi r2, 77
      stw r2, [r1-16]
      ldw r3, [r1-16]
      sys
  )");
  auto r = m.Run();
  ASSERT_EQ(r.kind, StepResult::kSyscall);
  EXPECT_EQ(m.regs.r[3], 77u);
}

TEST(Cpu, ConditionalBranches) {
  Machine m;
  m.LoadAsm(R"(
      ldi r1, 10
      ldi r2, 0
loop: cmpi r1, 0
      jz done
      add r2, r1
      ldi r3, 1
      sub r1, r3
      jmp loop
done: sys
  )");
  auto r = m.Run();
  ASSERT_EQ(r.kind, StepResult::kSyscall);
  EXPECT_EQ(m.regs.r[2], 55u);  // 10+9+...+1
}

TEST(Cpu, SignedComparisons) {
  Machine m;
  m.LoadAsm(R"(
      ldi r1, -5
      cmpi r1, 3
      jlt is_less
      ldi r2, 0
      sys
is_less:
      ldi r2, 1
      sys
  )");
  auto r = m.Run();
  ASSERT_EQ(r.kind, StepResult::kSyscall);
  EXPECT_EQ(m.regs.r[2], 1u) << "-5 < 3 signed";
}

TEST(Cpu, CallRetAndStack) {
  Machine m;
  m.LoadAsm(R"(
      ldi r1, 4
      call double_it
      call double_it
      sys
double_it:
      add r1, r1
      ret
  )");
  auto r = m.Run();
  ASSERT_EQ(r.kind, StepResult::kSyscall);
  EXPECT_EQ(m.regs.r[1], 16u);
}

TEST(Cpu, PushPop) {
  Machine m;
  m.LoadAsm(R"(
      ldi r1, 11
      ldi r2, 22
      push r1
      push r2
      pop r3
      pop r4
      sys
  )");
  auto r = m.Run();
  ASSERT_EQ(r.kind, StepResult::kSyscall);
  EXPECT_EQ(m.regs.r[3], 22u);
  EXPECT_EQ(m.regs.r[4], 11u);
}

TEST(Cpu, IndirectCall) {
  Machine m;
  m.LoadAsm(R"(
      ldi r5, target
      callr r5
      sys
target:
      ldi r1, 99
      ret
  )");
  auto r = m.Run();
  ASSERT_EQ(r.kind, StepResult::kSyscall);
  EXPECT_EQ(m.regs.r[1], 99u);
}

TEST(Cpu, FloatingPoint) {
  Machine m;
  m.LoadAsm(R"(
      fldi f0, 1.5
      fldi f1, 2.5
      fadd f0, f1
      ftoi r1, f0
      ldi r2, 10
      itof f2, r2
      fmul f2, f0
      ftoi r3, f2
      sys
  )");
  auto r = m.Run();
  ASSERT_EQ(r.kind, StepResult::kSyscall);
  EXPECT_EQ(m.regs.r[1], 4u);
  EXPECT_EQ(m.regs.r[3], 40u);
  EXPECT_DOUBLE_EQ(m.fp.f[0], 4.0);
}

TEST(Cpu, FloatDivideByZeroFaults) {
  Machine m;
  m.LoadAsm(R"(
      fldi f0, 1.0
      fldi f1, 0.0
      fdiv f0, f1
  )");
  auto r = m.Run();
  ASSERT_EQ(r.kind, StepResult::kFault);
  EXPECT_EQ(r.fault, FLTFPE);
  EXPECT_NE(m.fp.fsr, 0u) << "sticky FP status recorded";
}

TEST(Cpu, UnmappedFetchFaults) {
  Machine m;
  m.regs.pc = 0x9000000;
  auto r = m.Step();
  ASSERT_EQ(r.kind, StepResult::kFault);
  EXPECT_EQ(r.fault, FLTBOUNDS);
  EXPECT_EQ(r.fault_addr, 0x9000000u);
}

TEST(Cpu, SyscallErrorBranching) {
  Machine m;
  m.LoadAsm(R"(
      ldi r0, 1
      cmpi r0, 1
      jcs never
      ldi r1, 1
      sys
never:
      ldi r1, 2
      sys
  )");
  auto r = m.Run();
  ASSERT_EQ(r.kind, StepResult::kSyscall);
  EXPECT_EQ(m.regs.r[1], 1u);
}

TEST(Assembler, DataSectionAndLabels) {
  Assembler as(AsmOptions{.text_base = 0x1000, .data_align = 0x100});
  auto img = as.Assemble(R"(
      ldi r1, msg
      ldb r2, [r1]
      sys
      .data
msg:  .asciz "Hi"
val:  .word 1234, val
  )");
  ASSERT_TRUE(img.ok()) << as.error();
  EXPECT_EQ(img->data[0], 'H');
  EXPECT_EQ(img->data[1], 'i');
  EXPECT_EQ(img->data[2], 0);
  uint32_t v;
  std::memcpy(&v, img->data.data() + 3, 4);
  EXPECT_EQ(v, 1234u);
  std::memcpy(&v, img->data.data() + 7, 4);
  EXPECT_EQ(v, img->data_vaddr + 3) << "label self-reference in .word";
}

TEST(Assembler, BssAndSpace) {
  Assembler as;
  auto img = as.Assemble(R"(
      nop
      .bss
buf:  .space 100
      .align 8
b2:   .space 4
  )");
  ASSERT_TRUE(img.ok()) << as.error();
  EXPECT_EQ(img->bss_size, 108u);
  auto buf = img->SymbolValue("buf");
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(*buf, img->bss_vaddr);
}

TEST(Assembler, EquAndExpressions) {
  Assembler as(AsmOptions{.text_base = 0x1000, .data_align = 0x100});
  auto img = as.Assemble(R"(
      .equ KSIZE, 0x40
      ldi r1, KSIZE
      ldi r2, table+4
      sys
      .data
table: .word 1, 2, 3
  )");
  ASSERT_TRUE(img.ok()) << as.error();
  // Verify by executing.
  FlatMemory mem(0x1000, 0x10000);
  mem.Load(img->text_vaddr, img->text);
  mem.Load(img->data_vaddr, img->data);
  Regs regs;
  FpRegs fp;
  regs.pc = img->entry;
  regs.set_sp(0xF000);
  StepResult r;
  do {
    r = CpuStep(regs, fp, mem);
  } while (r.kind == StepResult::kOk);
  ASSERT_EQ(r.kind, StepResult::kSyscall);
  EXPECT_EQ(regs.r[1], 0x40u);
  EXPECT_EQ(regs.r[2], img->data_vaddr + 4);
}

TEST(Assembler, EntryDirective) {
  Assembler as;
  auto img = as.Assemble(R"(
      .entry main
helper: ret
main:   nop
  )");
  ASSERT_TRUE(img.ok()) << as.error();
  EXPECT_EQ(img->entry, img->text_vaddr + 1);
}

TEST(Assembler, ErrorsAreReportedWithLineNumbers) {
  Assembler as;
  auto img = as.Assemble("  nop\n  frobnicate r1\n");
  ASSERT_FALSE(img.ok());
  EXPECT_NE(as.error().find("line 2"), std::string::npos) << as.error();
  EXPECT_NE(as.error().find("frobnicate"), std::string::npos);
}

TEST(Assembler, UndefinedSymbolIsAnError) {
  Assembler as;
  auto img = as.Assemble("  jmp nowhere\n");
  ASSERT_FALSE(img.ok());
  EXPECT_NE(as.error().find("nowhere"), std::string::npos) << as.error();
}

TEST(Assembler, DuplicateLabelIsAnError) {
  Assembler as;
  auto img = as.Assemble("a: nop\na: nop\n");
  ASSERT_FALSE(img.ok());
  EXPECT_NE(as.error().find("duplicate"), std::string::npos) << as.error();
}

TEST(Assembler, PredefinedSymbols) {
  Assembler as;
  as.Define("SYS_exit", 1);
  auto img = as.Assemble("  ldi r0, SYS_exit\n  sys\n");
  ASSERT_TRUE(img.ok()) << as.error();
}

TEST(Aout, SerializeParseRoundTrip) {
  Assembler as;
  auto img = as.Assemble(R"(
      .entry main
main: ldi r1, greeting
      sys
      .data
greeting: .asciz "hello, world"
      .bss
scratch: .space 64
  )");
  ASSERT_TRUE(img.ok()) << as.error();
  img->lib = "libdemo";

  auto bytes = img->Serialize();
  auto parsed = Aout::Parse(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->entry, img->entry);
  EXPECT_EQ(parsed->text, img->text);
  EXPECT_EQ(parsed->data, img->data);
  EXPECT_EQ(parsed->bss_size, img->bss_size);
  EXPECT_EQ(parsed->lib, "libdemo");
  ASSERT_EQ(parsed->symbols.size(), img->symbols.size());
  auto main_sym = parsed->SymbolValue("main");
  ASSERT_TRUE(main_sym.ok());
  EXPECT_EQ(*main_sym, img->entry);
}

TEST(Aout, ParseRejectsGarbage) {
  std::vector<uint8_t> junk(100, 0xAB);
  EXPECT_FALSE(Aout::Parse(junk).ok());
  EXPECT_FALSE(Aout::Parse({}).ok());
}

TEST(Aout, NearestSymbol) {
  Aout a;
  a.symbols = {{"start", 0x1000, SymType::kText},
               {"middle", 0x1010, SymType::kText},
               {"konst", 42, SymType::kAbs}};
  auto near = a.NearestSymbol(0x1015);
  EXPECT_EQ(near.name, "middle");
  EXPECT_EQ(near.offset, 5u);
  near = a.NearestSymbol(0x100);
  EXPECT_TRUE(near.name.empty());
}

TEST(Aout, VirtualSizeCoversAllSegments) {
  Assembler as;
  auto img = as.Assemble(R"(
      nop
      .data
      .word 1
      .bss
      .space 4096
  )");
  ASSERT_TRUE(img.ok());
  EXPECT_EQ(img->VirtualSize(), 1u + 4u + 4096u);
}

TEST(Disasm, RoundTripsRepresentativeInstructions) {
  Assembler as(AsmOptions{.text_base = 0x1000});
  auto img = as.Assemble(R"(
      nop
      bpt
      ldi r1, 0x1234
      add r1, r2
      ldw r3, [sp+8]
      stw r3, [fp-4]
      jmp 0x1000
      call 0x1000
      push r7
      ret
      sys
  )");
  ASSERT_TRUE(img.ok()) << as.error();
  std::span<const uint8_t> code(img->text);
  std::vector<std::string> expect = {"nop",
                                     "bpt",
                                     "ldi r1, 0x1234",
                                     "add r1, r2",
                                     "ldw r3, [sp+8]",
                                     "stw r3, [fp-4]",
                                     "jmp 0x1000",
                                     "call 0x1000",
                                     "push r7",
                                     "ret",
                                     "sys"};
  size_t off = 0;
  for (const auto& want : expect) {
    auto d = DisassembleOne(code.subspan(off));
    EXPECT_EQ(d.mnemonic, want);
    off += static_cast<size_t>(d.length);
  }
  EXPECT_EQ(off, code.size());
}

TEST(Disasm, IllegalBytesRenderedSafely) {
  std::vector<uint8_t> junk = {0xAB};
  auto d = DisassembleOne(junk);
  EXPECT_EQ(d.length, 1);
  EXPECT_NE(d.mnemonic.find("illegal"), std::string::npos);
}

TEST(FixedSet, BasicOperations) {
  SigSet s;
  EXPECT_TRUE(s.Empty());
  s.Add(9);
  s.Add(15);
  EXPECT_TRUE(s.Has(9));
  EXPECT_FALSE(s.Has(10));
  EXPECT_EQ(s.Count(), 2);
  EXPECT_EQ(s.First(), 9);
  s.Remove(9);
  EXPECT_FALSE(s.Has(9));
  s.Fill();
  EXPECT_FALSE(s.Has(0)) << "member 0 does not exist";
  EXPECT_TRUE(s.Has(1));
  EXPECT_TRUE(s.Has(128));
  EXPECT_FALSE(s.Has(129));
  EXPECT_EQ(s.Count(), 128);
}

TEST(FixedSet, SetAlgebra) {
  SysSet a{1, 2, 3};
  SysSet b{3, 4};
  SysSet u = a;
  u |= b;
  EXPECT_EQ(u.Count(), 4);
  SysSet i = a;
  i &= b;
  EXPECT_EQ(i.Count(), 1);
  EXPECT_TRUE(i.Has(3));
  SysSet d = a;
  d -= b;
  EXPECT_EQ(d.Count(), 2);
  EXPECT_FALSE(d.Has(3));
  EXPECT_TRUE(SysSet::Full().Has(512));
}

}  // namespace
}  // namespace svr4
