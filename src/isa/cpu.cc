#include "svr4proc/isa/cpu.h"

#include <cstring>
#include <limits>

namespace svr4 {
namespace {

StepResult FaultAt(int fault, uint32_t addr) {
  StepResult r;
  r.kind = StepResult::kFault;
  r.fault = fault;
  r.fault_addr = addr;
  return r;
}

StepResult FaultFromMem(const MemFault& mf) { return FaultAt(mf.fault, mf.addr); }

}  // namespace

StepResult CpuStep(Regs& regs, FpRegs& fp, MemoryIf& mem) {
  const uint32_t pc = regs.pc;

  // Fast fetch: pull opcode and operands in one translated window when the
  // memory supports it. `have` bytes of ibuf are valid executable bytes
  // starting at pc, from the same page. The buffer is wider than any
  // instruction so implementations can use a single fixed-size copy.
  alignas(8) uint8_t ibuf[kFetchWindowBytes] = {};
  static_assert(kFetchWindowBytes >= kMaxInstrLen);
  uint32_t have = mem.FetchWindow(pc, ibuf, kFetchWindowBytes);
  if (have == 0) {
    if (auto mf = mem.MemRead(pc, ibuf, 1, Access::kExec)) {
      return FaultFromMem(*mf);
    }
    have = 1;
  }
  const uint8_t opcode = ibuf[0];
  const int len = InstrLength(opcode);
  if (len == 0) {
    return FaultAt(FLTILL, pc);
  }
  if (opcode == kOpBpt) {
    // The breakpoint trap leaves pc at the breakpoint address itself.
    return FaultAt(FLTBPT, pc);
  }
  if (opcode == kOpHlt) {
    return FaultAt(FLTPRIV, pc);
  }

  if (static_cast<uint32_t>(len) > have) {
    // The instruction straddles the fetch window (a page boundary, or the
    // byte-exact fallback). Fetch the tail at its own address so a fault
    // reports the operand byte that faulted, not the opcode.
    if (auto mf =
            mem.MemRead(pc + have, ibuf + have, static_cast<uint32_t>(len) - have, Access::kExec)) {
      return FaultFromMem(*mf);
    }
  }
  uint8_t* const operand = ibuf + 1;
  auto imm32at = [&](int i) {
    uint32_t v;
    std::memcpy(&v, &operand[i], 4);
    return v;
  };
  auto imm16at = [&](int i) {
    int16_t v;
    std::memcpy(&v, &operand[i], 2);
    return static_cast<int32_t>(v);
  };

  const uint32_t next_pc = pc + static_cast<uint32_t>(len);
  StepResult result;  // kOk

  switch (opcode) {
    case kOpNop:
      regs.pc = next_pc;
      break;
    case kOpSys:
      regs.pc = next_pc;
      result.kind = StepResult::kSyscall;
      return result;  // kernel handles trace-bit interaction itself
    case kOpRet: {
      uint32_t ret;
      if (auto mf = mem.MemRead(regs.sp(), &ret, 4, Access::kRead)) {
        return FaultFromMem(*mf);
      }
      regs.set_sp(regs.sp() + 4);
      regs.pc = ret;
      break;
    }
    case kOpMov:
    case kOpAdd:
    case kOpSub:
    case kOpMul:
    case kOpDiv:
    case kOpMod:
    case kOpAnd:
    case kOpOr:
    case kOpXor:
    case kOpShl:
    case kOpShr:
    case kOpCmp:
    case kOpAddv: {
      int rd = operand[0] >> 4;
      int rs = operand[0] & 0x0F;
      uint32_t a = regs.r[rd];
      uint32_t b = regs.r[rs];
      uint32_t out = a;
      switch (opcode) {
        case kOpMov:
          out = b;
          break;
        case kOpAdd:
          out = a + b;
          break;
        case kOpSub:
          out = a - b;
          break;
        case kOpMul:
          out = a * b;
          break;
        case kOpDiv:
          if (b == 0) {
            return FaultAt(FLTIZDIV, pc);
          }
          if (a == 0x80000000u && b == 0xFFFFFFFFu) {
            return FaultAt(FLTIOVF, pc);
          }
          out = static_cast<uint32_t>(static_cast<int32_t>(a) / static_cast<int32_t>(b));
          break;
        case kOpMod:
          if (b == 0) {
            return FaultAt(FLTIZDIV, pc);
          }
          if (a == 0x80000000u && b == 0xFFFFFFFFu) {
            return FaultAt(FLTIOVF, pc);
          }
          out = static_cast<uint32_t>(static_cast<int32_t>(a) % static_cast<int32_t>(b));
          break;
        case kOpAnd:
          out = a & b;
          break;
        case kOpOr:
          out = a | b;
          break;
        case kOpXor:
          out = a ^ b;
          break;
        case kOpShl:
          out = (b >= 32) ? 0 : a << b;
          break;
        case kOpShr:
          out = (b >= 32) ? 0 : a >> b;
          break;
        case kOpCmp:
          SetCmpFlags(regs, a, b);
          regs.pc = next_pc;
          return result;
        case kOpAddv: {
          int64_t wide = static_cast<int64_t>(static_cast<int32_t>(a)) +
                         static_cast<int64_t>(static_cast<int32_t>(b));
          if (wide > std::numeric_limits<int32_t>::max() ||
              wide < std::numeric_limits<int32_t>::min()) {
            return FaultAt(FLTIOVF, pc);
          }
          out = static_cast<uint32_t>(wide);
          break;
        }
        default:
          break;
      }
      regs.r[rd] = out;
      SetZn(regs, out);
      regs.pc = next_pc;
      break;
    }
    case kOpLdi:
    case kOpAddi:
    case kOpCmpi: {
      int rd = operand[0] & 0x0F;
      uint32_t imm = imm32at(1);
      if (opcode == kOpLdi) {
        regs.r[rd] = imm;
        SetZn(regs, imm);
      } else if (opcode == kOpAddi) {
        regs.r[rd] += imm;
        SetZn(regs, regs.r[rd]);
      } else {
        SetCmpFlags(regs, regs.r[rd], imm);
      }
      regs.pc = next_pc;
      break;
    }
    case kOpLdw:
    case kOpLdb: {
      int rv = operand[0] >> 4;
      int ra = operand[0] & 0x0F;
      uint32_t addr = regs.r[ra] + static_cast<uint32_t>(imm16at(1));
      uint32_t v = 0;
      uint32_t sz = (opcode == kOpLdw) ? 4 : 1;
      if (auto mf = mem.MemRead(addr, &v, sz, Access::kRead)) {
        return FaultFromMem(*mf);
      }
      regs.r[rv] = v;
      SetZn(regs, v);
      regs.pc = next_pc;
      break;
    }
    case kOpStw:
    case kOpStb: {
      int rv = operand[0] >> 4;
      int ra = operand[0] & 0x0F;
      uint32_t addr = regs.r[ra] + static_cast<uint32_t>(imm16at(1));
      uint32_t v = regs.r[rv];
      uint32_t sz = (opcode == kOpStw) ? 4 : 1;
      if (auto mf = mem.MemWrite(addr, &v, sz)) {
        return FaultFromMem(*mf);
      }
      regs.pc = next_pc;
      break;
    }
    case kOpJmp:
    case kOpJz:
    case kOpJnz:
    case kOpJlt:
    case kOpJge:
    case kOpJgt:
    case kOpJle:
    case kOpJcs:
    case kOpJcc: {
      uint32_t target = imm32at(0);
      bool take = false;
      switch (opcode) {
        case kOpJmp:
          take = true;
          break;
        case kOpJz:
          take = regs.psr & kPsrZ;
          break;
        case kOpJnz:
          take = !(regs.psr & kPsrZ);
          break;
        case kOpJlt:
          take = SignedLt(regs);
          break;
        case kOpJge:
          take = !SignedLt(regs);
          break;
        case kOpJgt:
          take = !SignedLt(regs) && !(regs.psr & kPsrZ);
          break;
        case kOpJle:
          take = SignedLt(regs) || (regs.psr & kPsrZ);
          break;
        case kOpJcs:
          take = regs.psr & kPsrC;
          break;
        case kOpJcc:
          take = !(regs.psr & kPsrC);
          break;
        default:
          break;
      }
      regs.pc = take ? target : next_pc;
      break;
    }
    case kOpCall: {
      uint32_t target = imm32at(0);
      uint32_t ret = next_pc;
      uint32_t nsp = regs.sp() - 4;
      if (auto mf = mem.MemWrite(nsp, &ret, 4)) {
        // A faulted push is an unrecoverable stack fault unless it is a
        // watchpoint firing.
        if (mf->fault == FLTWATCH) {
          return FaultFromMem(*mf);
        }
        return FaultAt(FLTSTACK, mf->addr);
      }
      regs.set_sp(nsp);
      regs.pc = target;
      break;
    }
    case kOpPush: {
      int rs = operand[0] & 0x0F;
      uint32_t v = regs.r[rs];
      uint32_t nsp = regs.sp() - 4;
      if (auto mf = mem.MemWrite(nsp, &v, 4)) {
        if (mf->fault == FLTWATCH) {
          return FaultFromMem(*mf);
        }
        return FaultAt(FLTSTACK, mf->addr);
      }
      regs.set_sp(nsp);
      regs.pc = next_pc;
      break;
    }
    case kOpPop: {
      int rd = operand[0] & 0x0F;
      uint32_t v;
      if (auto mf = mem.MemRead(regs.sp(), &v, 4, Access::kRead)) {
        return FaultFromMem(*mf);
      }
      regs.set_sp(regs.sp() + 4);
      regs.r[rd] = v;
      regs.pc = next_pc;
      break;
    }
    case kOpCallr:
    case kOpJmpr: {
      int rs = operand[0] & 0x0F;
      uint32_t target = regs.r[rs];
      if (opcode == kOpCallr) {
        uint32_t ret = next_pc;
        uint32_t nsp = regs.sp() - 4;
        if (auto mf = mem.MemWrite(nsp, &ret, 4)) {
          if (mf->fault == FLTWATCH) {
            return FaultFromMem(*mf);
          }
          return FaultAt(FLTSTACK, mf->addr);
        }
        regs.set_sp(nsp);
      }
      regs.pc = target;
      break;
    }
    case kOpFldi: {
      int fd = operand[0] & 0x07;
      double v;
      std::memcpy(&v, &operand[1], 8);
      fp.f[fd] = v;
      regs.pc = next_pc;
      break;
    }
    case kOpFmov:
    case kOpFadd:
    case kOpFsub:
    case kOpFmul:
    case kOpFdiv: {
      int fd = (operand[0] >> 4) & 0x07;
      int fs = operand[0] & 0x07;
      double a = fp.f[fd];
      double b = fp.f[fs];
      switch (opcode) {
        case kOpFmov:
          fp.f[fd] = b;
          break;
        case kOpFadd:
          fp.f[fd] = a + b;
          break;
        case kOpFsub:
          fp.f[fd] = a - b;
          break;
        case kOpFmul:
          fp.f[fd] = a * b;
          break;
        case kOpFdiv:
          if (b == 0.0) {
            fp.fsr |= 1;  // sticky divide-by-zero
            return FaultAt(FLTFPE, pc);
          }
          fp.f[fd] = a / b;
          break;
        default:
          break;
      }
      regs.pc = next_pc;
      break;
    }
    case kOpFtoi: {
      int rd = (operand[0] >> 4) & 0x0F;
      int fs = operand[0] & 0x07;
      double v = fp.f[fs];
      if (v > 2147483647.0 || v < -2147483648.0) {
        fp.fsr |= 2;  // sticky invalid-conversion
        return FaultAt(FLTFPE, pc);
      }
      regs.r[rd] = static_cast<uint32_t>(static_cast<int32_t>(v));
      regs.pc = next_pc;
      break;
    }
    case kOpItof: {
      int fd = (operand[0] >> 4) & 0x07;
      int rs = operand[0] & 0x0F;
      fp.f[fd] = static_cast<double>(static_cast<int32_t>(regs.r[rs]));
      regs.pc = next_pc;
      break;
    }
    default:
      return FaultAt(FLTILL, pc);
  }

  if (regs.psr & kPsrT) {
    // Trace trap: reported after the instruction completes, pc advanced.
    return FaultAt(FLTTRACE, regs.pc);
  }
  return result;
}

}  // namespace svr4
