// The virtual instruction set architecture executed by simulated processes.
//
// Design constraints come straight from the paper's breakpoint discussion:
//  * variable-length instructions, with the approved breakpoint instruction
//    (BPT) being the shortest instruction in the set (1 byte), so a planted
//    breakpoint never overwrites the following instruction;
//  * executing BPT leaves the program counter at the breakpoint address
//    itself ("preferably the breakpoint address itself");
//  * a trace bit in the processor status register produces a FLTTRACE
//    machine fault after each instruction (single-stepping);
//  * distinct machine faults for illegal instructions, privileged
//    instructions, access violations, bounds errors, integer and floating
//    faults, and watchpoints, mirroring the SVR4 fault vector.
#ifndef SVR4PROC_ISA_ISA_H_
#define SVR4PROC_ISA_ISA_H_

#include <array>
#include <cstdint>
#include <string_view>

namespace svr4 {

// Machine fault numbers (fltset_t members). Enumerated from 1.
enum Fault : int {
  FLTILL = 1,     // illegal instruction
  FLTPRIV = 2,    // privileged instruction
  FLTBPT = 3,     // breakpoint instruction
  FLTTRACE = 4,   // trace trap (trace bit set)
  FLTACCESS = 5,  // memory access violation (protection)
  FLTBOUNDS = 6,  // memory bounds violation (unmapped address)
  FLTIOVF = 7,    // integer overflow
  FLTIZDIV = 8,   // integer zero divide
  FLTFPE = 9,     // floating point exception
  FLTSTACK = 10,  // unrecoverable stack fault
  FLTPAGE = 11,   // recoverable page fault (resolved internally; never user-visible unless traced)
  FLTWATCH = 12,  // watchpoint trap (proposed extension)
  kNumFaults = 12,
};

std::string_view FaultName(int fault);

// Processor status register bits.
enum PsrBit : uint32_t {
  kPsrZ = 1u << 0,  // zero
  kPsrN = 1u << 1,  // negative
  kPsrC = 1u << 2,  // carry (set by the kernel on syscall error)
  kPsrV = 1u << 3,  // overflow
  kPsrT = 1u << 4,  // trace: FLTTRACE after every instruction
};

// General-purpose register file. r15 doubles as the stack pointer and r14
// as the conventional frame pointer.
inline constexpr int kNumRegs = 16;
inline constexpr int kRegSp = 15;
inline constexpr int kRegFp = 14;

struct Regs {
  std::array<uint32_t, kNumRegs> r{};
  uint32_t pc = 0;
  uint32_t psr = 0;

  uint32_t sp() const { return r[kRegSp]; }
  void set_sp(uint32_t v) { r[kRegSp] = v; }

  friend bool operator==(const Regs&, const Regs&) = default;
};

inline constexpr int kNumFpRegs = 8;

struct FpRegs {
  std::array<double, kNumFpRegs> f{};
  uint32_t fsr = 0;  // sticky floating-point status

  friend bool operator==(const FpRegs&, const FpRegs&) = default;
};

// Opcodes: the first (and sometimes only) byte of each instruction. The
// operand bytes that follow are laid out by the instruction's OpForm, given
// in its kIsa row below.
enum Opcode : uint8_t {
  kOpIll = 0x00,   // guaranteed-illegal (FLTILL)
  kOpNop = 0x01,
  kOpBpt = 0x02,   // approved breakpoint instruction (FLTBPT)
  kOpRet = 0x03,   // pop pc
  kOpHlt = 0x04,   // privileged; FLTPRIV in user mode
  kOpSys = 0x05,   // system call: number in r0, args r1..r6

  kOpMov = 0x10,
  kOpAdd = 0x12,
  kOpSub = 0x13,
  kOpMul = 0x14,
  kOpDiv = 0x15,   // FLTIZDIV if rs == 0
  kOpMod = 0x16,   // FLTIZDIV if rs == 0
  kOpAnd = 0x17,
  kOpOr = 0x18,
  kOpXor = 0x19,
  kOpShl = 0x1A,
  kOpShr = 0x1B,
  kOpCmp = 0x1D,   // flags := rd ? rs
  kOpAddv = 0x1F,  // add with signed-overflow check (FLTIOVF)

  kOpLdi = 0x11,
  kOpAddi = 0x1C,
  kOpCmpi = 0x1E,

  kOpLdw = 0x20,   // rv := mem32[ra + off]
  kOpStw = 0x21,   // mem32[ra + off] := rv
  kOpLdb = 0x22,   // rv := zero-extended mem8[ra + off]
  kOpStb = 0x23,   // mem8[ra + off] := low byte of rv

  kOpJmp = 0x30,   // absolute control transfers
  kOpJz = 0x31,
  kOpJnz = 0x32,
  kOpJlt = 0x33,   // signed <   (N != V)
  kOpJge = 0x34,   // signed >=
  kOpJgt = 0x35,   // signed >
  kOpJle = 0x36,   // signed <=
  kOpJcs = 0x37,   // carry set (syscall error path)
  kOpJcc = 0x38,   // carry clear
  kOpCall = 0x40,  // push return address, jump

  kOpPush = 0x41,
  kOpPop = 0x42,
  kOpCallr = 0x43, // indirect call
  kOpJmpr = 0x44,  // indirect jump

  kOpFldi = 0x50,
  kOpFmov = 0x51,
  kOpFadd = 0x52,
  kOpFsub = 0x53,
  kOpFmul = 0x54,
  kOpFdiv = 0x55,  // FLTFPE on divide by zero
  kOpFtoi = 0x56,
  kOpItof = 0x57,
};

// Operand forms. A form fixes the instruction's length and where its
// register and immediate fields sit; multi-byte fields are little endian.
enum class OpForm : uint8_t {
  kNone,  // 1 byte:   opcode
  kRR,    // 2 bytes:  opcode, (rd << 4) | rs
  kRI,    // 6 bytes:  opcode, rd, imm32
  kMem,   // 4 bytes:  opcode, (rv << 4) | ra, signed off16
  kJump,  // 5 bytes:  opcode, addr32
  kReg,   // 2 bytes:  opcode, r
  kFI,    // 10 bytes: opcode, fd, ieee754 double
  kFF,    // 2 bytes:  opcode, (fd << 4) | fs
  kRF,    // 2 bytes:  opcode, (rd << 4) | fs
  kFR,    // 2 bytes:  opcode, (fd << 4) | rs
};

constexpr int FormLength(OpForm form) {
  switch (form) {
    case OpForm::kNone:
      return 1;
    case OpForm::kRR:
    case OpForm::kReg:
    case OpForm::kFF:
    case OpForm::kRF:
    case OpForm::kFR:
      return 2;
    case OpForm::kMem:
      return 4;
    case OpForm::kJump:
      return 5;
    case OpForm::kRI:
      return 6;
    case OpForm::kFI:
      return 10;
  }
  return 0;
}

// The fields of one instruction. rd is the first register the form names
// (the destination, the value register of a load or store, or fd), rs the
// second (the source, or the address register of a load or store); a kReg
// instruction names its one register in both. imm is the imm32, the branch
// target or the sign-extended off16, and fimm is fldi's literal. Fields the
// form does not have read 0.
struct Operands {
  uint8_t rd = 0;
  uint8_t rs = 0;
  uint32_t imm = 0;
  double fimm = 0;
};

// Decodes the fields of the instruction at bytes (its opcode byte first),
// reading only the FormLength(form) bytes the form occupies.
Operands DecodeOperands(OpForm form, const uint8_t* bytes);

// Dense instruction kinds: the index of each instruction's kIsa row, and
// the block engine's dispatch index. Dense (unlike the sparse Opcode byte
// space) so the dispatch table has no holes.
enum BKind : uint8_t {
  B_ILL,  // any undefined opcode byte; raises FLTILL at the instruction
  B_NOP,
  B_BPT,
  B_RET,
  B_HLT,
  B_SYS,
  B_MOV,
  B_ADD,
  B_SUB,
  B_MUL,
  B_DIV,
  B_MOD,
  B_AND,
  B_OR,
  B_XOR,
  B_SHL,
  B_SHR,
  B_CMP,
  B_ADDV,
  B_LDI,
  B_ADDI,
  B_CMPI,
  B_LDW,
  B_STW,
  B_LDB,
  B_STB,
  B_JMP,
  B_JZ,
  B_JNZ,
  B_JLT,
  B_JGE,
  B_JGT,
  B_JLE,
  B_JCS,
  B_JCC,
  B_CALL,
  B_PUSH,
  B_POP,
  B_CALLR,
  B_JMPR,
  B_FLDI,
  B_FMOV,
  B_FADD,
  B_FSUB,
  B_FMUL,
  B_FDIV,
  B_FTOI,
  B_ITOF,
  B_KIND_COUNT,
};

// One instruction of the set.
struct OpInfo {
  BKind kind;
  uint8_t opcode;
  std::string_view name;  // the assembler's and disassembler's mnemonic
  OpForm form;
  bool ends_block;  // a control transfer, a syscall, or an instruction that
                    // can only trap: the block engine's blocks end here
};

// The instruction set, written down once. InstrLength, OpcodeName, the
// assembler, the disassembler and the block predecoder all read these rows;
// only the two engines' semantics are written per instruction. Row B_ILL
// stands for every undefined byte (0x00 is the one guaranteed to stay
// undefined): it is no instruction, and a decoder that steps over it steps
// one byte.
inline constexpr std::array<OpInfo, B_KIND_COUNT> kIsa = {{
    {B_ILL, kOpIll, "", OpForm::kNone, true},
    {B_NOP, kOpNop, "nop", OpForm::kNone, false},
    {B_BPT, kOpBpt, "bpt", OpForm::kNone, true},
    {B_RET, kOpRet, "ret", OpForm::kNone, true},
    {B_HLT, kOpHlt, "hlt", OpForm::kNone, true},
    {B_SYS, kOpSys, "sys", OpForm::kNone, true},
    {B_MOV, kOpMov, "mov", OpForm::kRR, false},
    {B_ADD, kOpAdd, "add", OpForm::kRR, false},
    {B_SUB, kOpSub, "sub", OpForm::kRR, false},
    {B_MUL, kOpMul, "mul", OpForm::kRR, false},
    {B_DIV, kOpDiv, "div", OpForm::kRR, false},
    {B_MOD, kOpMod, "mod", OpForm::kRR, false},
    {B_AND, kOpAnd, "and", OpForm::kRR, false},
    {B_OR, kOpOr, "or", OpForm::kRR, false},
    {B_XOR, kOpXor, "xor", OpForm::kRR, false},
    {B_SHL, kOpShl, "shl", OpForm::kRR, false},
    {B_SHR, kOpShr, "shr", OpForm::kRR, false},
    {B_CMP, kOpCmp, "cmp", OpForm::kRR, false},
    {B_ADDV, kOpAddv, "addv", OpForm::kRR, false},
    {B_LDI, kOpLdi, "ldi", OpForm::kRI, false},
    {B_ADDI, kOpAddi, "addi", OpForm::kRI, false},
    {B_CMPI, kOpCmpi, "cmpi", OpForm::kRI, false},
    {B_LDW, kOpLdw, "ldw", OpForm::kMem, false},
    {B_STW, kOpStw, "stw", OpForm::kMem, false},
    {B_LDB, kOpLdb, "ldb", OpForm::kMem, false},
    {B_STB, kOpStb, "stb", OpForm::kMem, false},
    {B_JMP, kOpJmp, "jmp", OpForm::kJump, true},
    {B_JZ, kOpJz, "jz", OpForm::kJump, true},
    {B_JNZ, kOpJnz, "jnz", OpForm::kJump, true},
    {B_JLT, kOpJlt, "jlt", OpForm::kJump, true},
    {B_JGE, kOpJge, "jge", OpForm::kJump, true},
    {B_JGT, kOpJgt, "jgt", OpForm::kJump, true},
    {B_JLE, kOpJle, "jle", OpForm::kJump, true},
    {B_JCS, kOpJcs, "jcs", OpForm::kJump, true},
    {B_JCC, kOpJcc, "jcc", OpForm::kJump, true},
    {B_CALL, kOpCall, "call", OpForm::kJump, true},
    {B_PUSH, kOpPush, "push", OpForm::kReg, false},
    {B_POP, kOpPop, "pop", OpForm::kReg, false},
    {B_CALLR, kOpCallr, "callr", OpForm::kReg, true},
    {B_JMPR, kOpJmpr, "jmpr", OpForm::kReg, true},
    {B_FLDI, kOpFldi, "fldi", OpForm::kFI, false},
    {B_FMOV, kOpFmov, "fmov", OpForm::kFF, false},
    {B_FADD, kOpFadd, "fadd", OpForm::kFF, false},
    {B_FSUB, kOpFsub, "fsub", OpForm::kFF, false},
    {B_FMUL, kOpFmul, "fmul", OpForm::kFF, false},
    {B_FDIV, kOpFdiv, "fdiv", OpForm::kFF, false},
    {B_FTOI, kOpFtoi, "ftoi", OpForm::kRF, false},
    {B_ITOF, kOpItof, "itof", OpForm::kFR, false},
}};

// Opcode byte -> kind, built from the rows; B_ILL for every undefined byte.
inline constexpr std::array<uint8_t, 256> kKindOf = [] {
  std::array<uint8_t, 256> t{};  // B_ILL
  for (const OpInfo& row : kIsa) {
    t[row.opcode] = row.kind;
  }
  return t;
}();

// The row of the instruction an opcode byte starts.
constexpr const OpInfo& IsaRow(uint8_t opcode) { return kIsa[kKindOf[opcode]]; }

// Length in bytes of the instruction starting with the given opcode byte,
// or 0 if the opcode is illegal.
int InstrLength(uint8_t opcode);

// Mnemonic for an opcode ("add", "bpt", ...), or empty if illegal.
std::string_view OpcodeName(uint8_t opcode);

// The shortest instruction length in the ISA; the breakpoint instruction is
// exactly this long, per the paper's guidance.
inline constexpr int kBreakpointLength = 1;
inline constexpr uint8_t kBreakpointByte = kOpBpt;

// The longest instruction in the ISA (fldi: opcode, fd, 8-byte double).
inline constexpr int kMaxInstrLen = 10;

// The table's own rules: every row sits at its kind's index, no two rows
// share a byte, bpt is the shortest instruction, and none is longer than
// kMaxInstrLen.
static_assert(
    [] {
      std::array<bool, 256> taken{};
      for (size_t i = 0; i < kIsa.size(); ++i) {
        const OpInfo& row = kIsa[i];
        const int len = FormLength(row.form);
        if (row.kind != i || taken[row.opcode] || len < kBreakpointLength ||
            len > kMaxInstrLen) {
          return false;
        }
        taken[row.opcode] = true;
      }
      return kIsa[B_BPT].opcode == kBreakpointByte &&
             FormLength(kIsa[B_BPT].form) == kBreakpointLength;
    }(),
    "kIsa: a row out of place, a byte used twice, or bpt not the shortest");

// Fetch-window size the interpreter requests per instruction: a power of two
// no smaller than kMaxInstrLen, so memory implementations can satisfy a full
// window with one fixed-size copy instead of a variable-length one.
inline constexpr uint32_t kFetchWindowBytes = 16;

}  // namespace svr4

#endif  // SVR4PROC_ISA_ISA_H_
