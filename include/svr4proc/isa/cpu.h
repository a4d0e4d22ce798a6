// Single-instruction interpreter for the virtual ISA.
//
// The CPU is stateless: all architectural state lives in Regs/FpRegs (owned
// by the LWP) and memory is accessed through MemoryIf (implemented by the VM
// layer's AddressSpace). This mirrors how the real kernel's trap handlers
// operate on a saved register context.
#ifndef SVR4PROC_ISA_CPU_H_
#define SVR4PROC_ISA_CPU_H_

#include <cstdint>
#include <optional>

#include "svr4proc/isa/isa.h"

namespace svr4 {

enum class Access { kRead, kWrite, kExec };

// A memory access that could not be completed, expressed as a machine fault.
struct MemFault {
  int fault = 0;       // Fault enum value
  uint32_t addr = 0;   // faulting virtual address
};

// Abstract byte-addressed memory with protection semantics. Accesses never
// partially complete: on fault nothing is transferred.
class MemoryIf {
 public:
  virtual ~MemoryIf() = default;
  virtual std::optional<MemFault> MemRead(uint32_t addr, void* buf, uint32_t len,
                                          Access kind) = 0;
  virtual std::optional<MemFault> MemWrite(uint32_t addr, const void* buf, uint32_t len) = 0;

  // Best-effort wide instruction fetch: copies up to len executable bytes
  // starting at addr into buf, never crossing a page, and returns how many
  // were copied. 0 means "unsupported or not fetchable this way" — the
  // caller must fall back to exact MemRead fetches, which also yields the
  // precise faulting byte address. Implementations may over-read past the
  // instruction, so they must not have byte-granular side effects (e.g.
  // watchpoints) on the fetched range.
  virtual uint32_t FetchWindow(uint32_t addr, void* buf, uint32_t len) {
    (void)addr;
    (void)buf;
    (void)len;
    return 0;
  }
};

struct StepResult {
  enum Kind { kOk, kSyscall, kFault };
  Kind kind = kOk;
  int fault = 0;           // valid when kind == kFault
  uint32_t fault_addr = 0;
};

// Condition flags, shared by the interpreter and the block engine so the two
// agree bit for bit on psr effects.
inline void SetZn(Regs& regs, uint32_t v) {
  regs.psr &= ~(kPsrZ | kPsrN);
  if (v == 0) {
    regs.psr |= kPsrZ;
  }
  if (static_cast<int32_t>(v) < 0) {
    regs.psr |= kPsrN;
  }
}

// Flags of a - b.
inline void SetCmpFlags(Regs& regs, uint32_t a, uint32_t b) {
  uint32_t d = a - b;
  regs.psr &= ~(kPsrZ | kPsrN | kPsrC | kPsrV);
  if (d == 0) {
    regs.psr |= kPsrZ;
  }
  if (static_cast<int32_t>(d) < 0) {
    regs.psr |= kPsrN;
  }
  if (a < b) {
    regs.psr |= kPsrC;  // borrow
  }
  bool v = ((a ^ b) & (a ^ d)) >> 31;
  if (v) {
    regs.psr |= kPsrV;
  }
}

// Signed less-than after a compare: N != V.
inline bool SignedLt(const Regs& regs) {
  bool n = regs.psr & kPsrN;
  bool v = regs.psr & kPsrV;
  return n != v;
}

// Executes exactly one instruction.
//
// Fault semantics: on any fault the program counter is left at the faulting
// instruction (restartable); in particular a BPT fault leaves pc at the
// breakpoint address. FLTTRACE (trace bit) is reported after the instruction
// completes, with pc already advanced. kSyscall is returned with pc advanced
// past the SYS instruction; the kernel performs dispatch.
StepResult CpuStep(Regs& regs, FpRegs& fp, MemoryIf& mem);

}  // namespace svr4

#endif  // SVR4PROC_ISA_CPU_H_
