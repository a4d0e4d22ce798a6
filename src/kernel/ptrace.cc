// ptrace(2): the mechanism /proc supersedes, kept both because "ptrace is
// made obsolete by /proc but is still required by the System V Interface
// Definition" and because the paper's comparisons (bandwidth, stop
// semantics, Figure 4 interactions) need it live.
#include <cstring>

#include "svr4proc/kernel/kernel.h"

namespace svr4 {
namespace {

// Register indices for PT_PEEKUSER/PT_POKEUSER: 0..15 = r0..r15, 16 = pc,
// 17 = psr.
constexpr uint32_t kUserPc = 16;
constexpr uint32_t kUserPsr = 17;

}  // namespace

Result<int64_t> Kernel::Ptrace(Proc* caller, int req, Pid pid, uint32_t addr, uint32_t data) {
  if (req == PT_TRACEME) {
    caller->pt_traced = true;
    return int64_t{0};
  }

  Proc* t = FindProc(pid);
  if (t == nullptr || t->state != Proc::State::kActive) {
    return Errno::kESRCH;
  }
  // ptrace controls only one's own traced children — the inability to
  // control unrelated processes is among its documented shortcomings.
  if (t->ppid != caller->pid || !t->pt_traced) {
    return Errno::kESRCH;
  }
  if (req == PT_KILL) {
    SigInfo info;
    info.si_signo = SIGKILL;
    PostSignal(t, SIGKILL, info);
    return int64_t{0};
  }
  // Everything else requires the child to be in a ptrace-owned stop.
  Lwp* lwp = t->RepresentativeLwp();
  if (lwp == nullptr || lwp->state != LwpState::kStopped || !t->pt_owned_stop) {
    return Errno::kESRCH;
  }

  switch (req) {
    case PT_PEEKTEXT:
    case PT_PEEKDATA: {
      // One word per call: this narrowness is the bandwidth baseline the
      // paper contrasts /proc against.
      uint32_t word = 0;
      if (!t->as) {
        return Errno::kEIO;
      }
      auto n = t->as->PrRead(addr, std::span<uint8_t>(reinterpret_cast<uint8_t*>(&word), 4));
      if (!n.ok() || *n != 4) {
        return Errno::kEIO;
      }
      return static_cast<int64_t>(word);
    }
    case PT_POKETEXT:
    case PT_POKEDATA: {
      if (!t->as) {
        return Errno::kEIO;
      }
      auto n = t->as->PrWrite(
          addr, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&data), 4));
      if (!n.ok() || *n != 4) {
        return Errno::kEIO;
      }
      return int64_t{0};
    }
    case PT_PEEKUSER: {
      if (addr < kNumRegs) {
        return static_cast<int64_t>(lwp->regs.r[addr]);
      }
      if (addr == kUserPc) {
        return static_cast<int64_t>(lwp->regs.pc);
      }
      if (addr == kUserPsr) {
        return static_cast<int64_t>(lwp->regs.psr);
      }
      return Errno::kEIO;
    }
    case PT_POKEUSER: {
      if (addr < kNumRegs) {
        lwp->regs.r[addr] = data;
      } else if (addr == kUserPc) {
        lwp->regs.pc = data;
      } else if (addr == kUserPsr) {
        lwp->regs.psr = data;
      } else {
        return Errno::kEIO;
      }
      return int64_t{0};
    }
    case PT_CONT:
    case PT_STEP: {
      if (addr != 1) {
        lwp->regs.pc = addr;
      }
      if (data == 0) {
        t->sig.cursig = 0;
        for (auto& l : t->lwps) {
          l->sig_reported = false;
          l->pt_reported = false;
        }
      } else if (SigSet::Valid(static_cast<int>(data))) {
        t->sig.cursig = static_cast<int>(data);
        t->sig.cursig_info = SigInfo{};
        t->sig.cursig_info.si_signo = static_cast<int>(data);
        // A replaced signal is delivered, not re-reported to ptrace.
        for (auto& l : t->lwps) {
          l->pt_reported = true;
          l->sig_reported = true;
        }
      } else {
        return Errno::kEINVAL;
      }
      if (req == PT_STEP) {
        lwp->regs.psr |= kPsrT;
      }
      t->pt_owned_stop = false;
      t->pt_stopsig = 0;
      ResumeLwp(lwp);
      return int64_t{0};
    }
    default:
      return Errno::kEINVAL;
  }
}

}  // namespace svr4
