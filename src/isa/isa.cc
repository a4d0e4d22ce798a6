#include "svr4proc/isa/isa.h"

#include <cstring>

namespace svr4 {

std::string_view FaultName(int fault) {
  switch (fault) {
    case FLTILL:
      return "FLTILL";
    case FLTPRIV:
      return "FLTPRIV";
    case FLTBPT:
      return "FLTBPT";
    case FLTTRACE:
      return "FLTTRACE";
    case FLTACCESS:
      return "FLTACCESS";
    case FLTBOUNDS:
      return "FLTBOUNDS";
    case FLTIOVF:
      return "FLTIOVF";
    case FLTIZDIV:
      return "FLTIZDIV";
    case FLTFPE:
      return "FLTFPE";
    case FLTSTACK:
      return "FLTSTACK";
    case FLTPAGE:
      return "FLTPAGE";
    case FLTWATCH:
      return "FLTWATCH";
    default:
      return "FLT???";
  }
}

namespace {

// Opcode byte -> InstrLength, built from the rows: one load on the
// interpreter's per-instruction path.
constexpr std::array<uint8_t, 256> kLengthOf = [] {
  std::array<uint8_t, 256> t{};
  for (const OpInfo& row : kIsa) {
    if (row.kind != B_ILL) {
      t[row.opcode] = static_cast<uint8_t>(FormLength(row.form));
    }
  }
  return t;
}();

}  // namespace

int InstrLength(uint8_t opcode) { return kLengthOf[opcode]; }

std::string_view OpcodeName(uint8_t opcode) { return IsaRow(opcode).name; }

Operands DecodeOperands(OpForm form, const uint8_t* bytes) {
  Operands o;
  if (form == OpForm::kNone) {
    return o;
  }
  const uint8_t hi = bytes[1] >> 4;
  const uint8_t lo = bytes[1] & 0x0F;
  switch (form) {
    case OpForm::kNone:
      break;
    case OpForm::kRR:
      o.rd = hi;
      o.rs = lo;
      break;
    case OpForm::kRI:
      o.rd = lo;
      std::memcpy(&o.imm, bytes + 2, 4);
      break;
    case OpForm::kMem: {
      int16_t off;
      std::memcpy(&off, bytes + 2, 2);
      o.rd = hi;
      o.rs = lo;
      o.imm = static_cast<uint32_t>(static_cast<int32_t>(off));
      break;
    }
    case OpForm::kJump:
      std::memcpy(&o.imm, bytes + 1, 4);
      break;
    case OpForm::kReg:
      o.rd = lo;
      o.rs = lo;
      break;
    case OpForm::kFI:
      o.rd = lo & 0x07;
      std::memcpy(&o.fimm, bytes + 2, 8);
      break;
    case OpForm::kFF:
      o.rd = hi & 0x07;
      o.rs = lo & 0x07;
      break;
    case OpForm::kRF:
      o.rd = hi;
      o.rs = lo & 0x07;
      break;
    case OpForm::kFR:
      o.rd = hi & 0x07;
      o.rs = lo;
      break;
  }
  return o;
}

}  // namespace svr4
