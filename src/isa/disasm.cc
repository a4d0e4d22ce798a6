#include "svr4proc/isa/disasm.h"

#include <cstdio>

#include "svr4proc/isa/isa.h"

namespace svr4 {
namespace {

constexpr const char* kRegName[kNumRegs] = {"r0", "r1", "r2",  "r3",  "r4",  "r5",  "r6", "r7",
                                            "r8", "r9", "r10", "r11", "r12", "r13", "fp", "sp"};
static_assert(kRegFp == 14 && kRegSp == 15);

}  // namespace

DisasmResult DisassembleOne(std::span<const uint8_t> bytes, uint32_t /*addr*/) {
  DisasmResult out;
  if (bytes.empty()) {
    out.mnemonic = "<empty>";
    return out;
  }
  const OpInfo& row = IsaRow(bytes[0]);
  const int len = FormLength(row.form);
  if (row.kind == B_ILL || static_cast<size_t>(len) > bytes.size()) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "<illegal 0x%02x>", bytes[0]);
    out.mnemonic = buf;
    out.length = 1;
    return out;
  }
  out.length = len;
  const Operands o = DecodeOperands(row.form, bytes.data());
  const char* rd = kRegName[o.rd];
  const char* rs = kRegName[o.rs];
  char args[48] = "";
  switch (row.form) {
    case OpForm::kNone:
      break;
    case OpForm::kRR:
      std::snprintf(args, sizeof(args), " %s, %s", rd, rs);
      break;
    case OpForm::kRI:
      std::snprintf(args, sizeof(args), " %s, 0x%x", rd, o.imm);
      break;
    case OpForm::kMem:
      if (o.imm == 0) {
        std::snprintf(args, sizeof(args), " %s, [%s]", rd, rs);
      } else {
        std::snprintf(args, sizeof(args), " %s, [%s%+d]", rd, rs, static_cast<int32_t>(o.imm));
      }
      break;
    case OpForm::kJump:
      std::snprintf(args, sizeof(args), " 0x%x", o.imm);
      break;
    case OpForm::kReg:
      std::snprintf(args, sizeof(args), " %s", rs);
      break;
    case OpForm::kFI:
      std::snprintf(args, sizeof(args), " f%d, %g", o.rd, o.fimm);
      break;
    case OpForm::kFF:
      std::snprintf(args, sizeof(args), " f%d, f%d", o.rd, o.rs);
      break;
    case OpForm::kRF:
      std::snprintf(args, sizeof(args), " %s, f%d", rd, o.rs);
      break;
    case OpForm::kFR:
      std::snprintf(args, sizeof(args), " f%d, %s", o.rd, rs);
      break;
  }
  out.mnemonic.assign(row.name);
  out.mnemonic += args;
  return out;
}

}  // namespace svr4
