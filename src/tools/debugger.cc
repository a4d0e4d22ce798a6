#include "svr4proc/tools/debugger.h"

#include <cstdio>

#include "svr4proc/isa/disasm.h"

namespace svr4 {

Result<void> Debugger::Attach(Pid pid) {
  auto h = ProcHandle::Grab(*kernel_, controller_, pid);
  if (!h.ok()) {
    return h.error();
  }
  SVR4_RETURN_IF_ERROR(h->Stop());
  // Field breakpoints as faults and support single-stepping.
  FltSet faults;
  faults.Add(FLTBPT);
  faults.Add(FLTTRACE);
  faults.Add(FLTWATCH);
  SVR4_RETURN_IF_ERROR(h->SetFltTrace(faults));
  handle_ = std::move(*h);

  // Locate the executable's symbol table through PIOCOPENM — no pathname
  // needed.
  auto fd = handle_->OpenMappedObject(/*use_exe=*/true);
  if (fd.ok()) {
    std::vector<uint8_t> bytes;
    bytes.resize(1 << 20);
    auto n = kernel_->Read(controller_, *fd, bytes.data(), bytes.size());
    (void)kernel_->Close(controller_, *fd);
    if (n.ok()) {
      bytes.resize(static_cast<size_t>(*n));
      auto parsed = Aout::Parse(bytes);
      if (parsed.ok()) {
        symbols_ = std::move(*parsed);
      }
    }
  }
  return Result<void>::Ok();
}

Result<void> Debugger::Detach() {
  if (!handle_) {
    return Errno::kESRCH;
  }
  (void)LiftAll();
  breakpoints_.clear();
  (void)handle_->SetFltTrace(FltSet{});
  (void)handle_->SetSigTrace(SigSet{});
  auto st = handle_->Status();
  if (st.ok() && (st->pr_flags & PR_ISTOP)) {
    (void)handle_->RunClearFault();
  }
  handle_.reset();
  return Result<void>::Ok();
}

Result<uint32_t> Debugger::Lookup(const std::string& name) const {
  return symbols_.SymbolValue(name);
}

std::string Debugger::SymbolAt(uint32_t addr) const {
  auto near = symbols_.NearestSymbol(addr);
  if (near.name.empty()) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%x", addr);
    return buf;
  }
  if (near.offset == 0) {
    return near.name;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s+0x%x", near.name.c_str(), near.offset);
  return buf;
}

Result<void> Debugger::SetBreakpoint(uint32_t addr) {
  return SetConditionalBreakpoint(addr, Condition{});
}

Result<void> Debugger::SetBreakpoint(const std::string& symbol) {
  auto addr = Lookup(symbol);
  if (!addr.ok()) {
    return addr.error();
  }
  return SetBreakpoint(*addr);
}

Result<void> Debugger::SetConditionalBreakpoint(uint32_t addr, Condition cond) {
  if (!handle_) {
    return Errno::kESRCH;
  }
  if (breakpoints_.count(addr)) {
    return Errno::kEEXIST;
  }
  Breakpoint bp;
  bp.cond = std::move(cond);
  auto n = handle_->ReadMem(addr, &bp.saved_byte, 1);
  if (!n.ok() || *n != 1) {
    return Errno::kEFAULT;
  }
  uint8_t bpt = kBreakpointByte;
  auto w = handle_->WriteMem(addr, &bpt, 1);
  if (!w.ok() || *w != 1) {
    return Errno::kEFAULT;
  }
  breakpoints_.emplace(addr, std::move(bp));
  return Result<void>::Ok();
}

Result<void> Debugger::ClearBreakpoint(uint32_t addr) {
  auto it = breakpoints_.find(addr);
  if (it == breakpoints_.end()) {
    return Errno::kESRCH;
  }
  auto w = handle_->WriteMem(addr, &it->second.saved_byte, 1);
  breakpoints_.erase(it);
  if (!w.ok()) {
    return w.error();
  }
  return Result<void>::Ok();
}

Result<void> Debugger::LiftAll() {
  for (auto& [addr, bp] : breakpoints_) {
    SVR4_RETURN_IF_ERROR(handle_->WriteMem(addr, &bp.saved_byte, 1));
  }
  return Result<void>::Ok();
}

Result<void> Debugger::WatchVariable(const std::string& symbol, uint32_t size, int wflags) {
  auto addr = Lookup(symbol);
  if (!addr.ok()) {
    return addr.error();
  }
  return handle_->SetWatch(PrWatch{*addr, size, wflags});
}

Result<void> Debugger::UnwatchVariable(const std::string& symbol) {
  auto addr = Lookup(symbol);
  if (!addr.ok()) {
    return addr.error();
  }
  return handle_->ClearWatch(*addr);
}

Result<void> Debugger::StepOverBreakpoint(uint32_t addr) {
  auto it = breakpoints_.find(addr);
  if (it == breakpoints_.end()) {
    return Result<void>::Ok();
  }
  // Restore the original instruction, single-step it, re-plant.
  SVR4_RETURN_IF_ERROR(handle_->WriteMem(addr, &it->second.saved_byte, 1));
  PrRun r;
  r.pr_flags = PRSTEP | PRCFAULT;
  SVR4_RETURN_IF_ERROR(handle_->Run(r));
  SVR4_RETURN_IF_ERROR(handle_->WaitStop());
  uint8_t bpt = kBreakpointByte;
  SVR4_RETURN_IF_ERROR(handle_->WriteMem(addr, &bpt, 1));
  // Consume the FLTTRACE stop's fault state; the caller decides how to
  // resume from here.
  SVR4_RETURN_IF_ERROR(handle_->ClearCurFault());
  return Result<void>::Ok();
}

Debugger::StopInfo Debugger::Classify(const PrStatus& st) {
  StopInfo info;
  info.status = st;
  info.what = st.pr_what;
  switch (st.pr_why) {
    case PR_FAULTED:
      if (st.pr_what == FLTBPT) {
        info.kind = StopInfo::kBreakpoint;
        info.addr = st.pr_reg.pc;
      } else if (st.pr_what == FLTWATCH) {
        info.kind = StopInfo::kWatchpoint;
        info.addr = st.pr_info.si_addr;
      } else {
        info.kind = StopInfo::kFault;
        info.addr = st.pr_info.si_addr;
      }
      break;
    case PR_SIGNALLED:
      info.kind = StopInfo::kSignal;
      break;
    case PR_SYSENTRY:
    case PR_SYSEXIT:
      info.kind = StopInfo::kSyscall;
      break;
    default:
      info.kind = StopInfo::kFault;
      break;
  }
  info.symbol = SymbolAt(info.addr ? info.addr : st.pr_reg.pc);
  return info;
}

Result<Debugger::StopInfo> Debugger::Continue() {
  if (!handle_) {
    return Errno::kESRCH;
  }
  for (;;) {
    // If we are parked on one of our breakpoints, step over it first.
    auto st0 = handle_->Status();
    if (st0.ok() && (st0->pr_flags & PR_ISTOP) && st0->pr_why == PR_FAULTED &&
        st0->pr_what == FLTBPT && breakpoints_.count(st0->pr_reg.pc)) {
      SVR4_RETURN_IF_ERROR(StepOverBreakpoint(st0->pr_reg.pc));
      auto after = handle_->Status();
      if (after.ok() && (after->pr_flags & PR_ISTOP)) {
        SVR4_RETURN_IF_ERROR(handle_->RunClearFault());
      }
    } else if (st0.ok() && (st0->pr_flags & PR_ISTOP)) {
      PrRun r;
      r.pr_flags = PRCFAULT;
      SVR4_RETURN_IF_ERROR(handle_->Run(r));
    }

    auto w = handle_->WaitStop();
    if (!w.ok()) {
      if (w.error() == Errno::kENOENT) {
        // The process exited (or was reaped). Report what we can find.
        StopInfo info;
        info.kind = StopInfo::kExited;
        Proc* p = kernel_->FindProc(handle_->pid());
        info.exit_status = p != nullptr ? p->exit_status : 0;
        return info;
      }
      return w.error();
    }
    auto st = handle_->Status();
    if (!st.ok()) {
      return st.error();
    }
    StopInfo info = Classify(*st);
    if (info.kind == StopInfo::kBreakpoint) {
      auto it = breakpoints_.find(info.addr);
      if (it != breakpoints_.end() && it->second.cond) {
        ++bp_evaluations_;
        if (!it->second.cond(*st)) {
          continue;  // condition false: resume transparently
        }
      }
    }
    return info;
  }
}

Result<PrStatus> Debugger::StepInstruction() {
  if (!handle_) {
    return Errno::kESRCH;
  }
  auto st0 = handle_->Status();
  if (st0.ok() && (st0->pr_flags & PR_ISTOP) && st0->pr_why == PR_FAULTED &&
      st0->pr_what == FLTBPT && breakpoints_.count(st0->pr_reg.pc)) {
    SVR4_RETURN_IF_ERROR(StepOverBreakpoint(st0->pr_reg.pc));
  } else {
    PrRun r;
    r.pr_flags = PRSTEP | PRCFAULT;
    SVR4_RETURN_IF_ERROR(handle_->Run(r));
    SVR4_RETURN_IF_ERROR(handle_->WaitStop());
    SVR4_RETURN_IF_ERROR(handle_->ClearCurFault());
  }
  return handle_->Status();
}

Result<uint32_t> Debugger::InjectSyscall(int num, const std::vector<uint32_t>& args) {
  if (!handle_) {
    return Errno::kESRCH;
  }
  if (args.size() > 6) {
    return Errno::kE2BIG;
  }
  auto st0 = handle_->Status();
  if (!st0.ok()) {
    return st0.error();
  }
  if (!(st0->pr_flags & PR_ISTOP)) {
    return Errno::kEBUSY;  // must be stopped on an event of interest
  }
  const Regs saved_regs = st0->pr_reg;
  uint32_t pc = saved_regs.pc;

  // Save the instruction byte under pc and plant a SYS there. The write is
  // copy-on-write; neither the executable file nor other processes see it.
  uint8_t saved_byte = 0;
  auto n = handle_->ReadMem(pc, &saved_byte, 1);
  if (!n.ok() || *n != 1) {
    return Errno::kEFAULT;
  }
  uint8_t sys_op = kOpSys;
  if (!handle_->WriteMem(pc, &sys_op, 1).ok()) {
    return Errno::kEFAULT;
  }

  // Arrange to stop on exit from the injected call, preserving the user's
  // traced sets around the operation.
  auto saved_exit = handle_->GetSysExit();
  auto saved_entry = handle_->GetSysEntry();
  SysSet exit_set;
  exit_set.Add(num);
  (void)handle_->SetSysExit(exit_set);
  (void)handle_->SetSysEntry(SysSet{});

  Regs call_regs = saved_regs;
  call_regs.r[0] = static_cast<uint32_t>(num);
  for (size_t i = 0; i < args.size(); ++i) {
    call_regs.r[i + 1] = args[i];
  }
  (void)handle_->SetRegs(call_regs);

  Errno err = Errno::kEIO;
  uint32_t value = 0;
  bool succeeded = false;
  PrRun r;
  r.pr_flags = PRCFAULT;  // we may be parked on a breakpoint fault
  if (handle_->Run(r).ok() && handle_->WaitStop().ok()) {
    auto st = handle_->Status();
    if (st.ok() && st->pr_why == PR_SYSEXIT && st->pr_what == num) {
      if (st->pr_reg.psr & kPsrC) {
        err = st->pr_reg.r[0] != 0 ? static_cast<Errno>(st->pr_reg.r[0]) : Errno::kEIO;
      } else {
        value = st->pr_reg.r[0];
        succeeded = true;
      }
    }
  }

  // Put the world back: original instruction byte, registers, traced sets.
  // The process is still stopped (on the syscall exit), as required.
  (void)handle_->WriteMem(pc, &saved_byte, 1);
  (void)handle_->SetRegs(saved_regs);
  if (saved_exit.ok()) {
    (void)handle_->SetSysExit(*saved_exit);
  }
  if (saved_entry.ok()) {
    (void)handle_->SetSysEntry(*saved_entry);
  }
  if (!succeeded) {
    return err;
  }
  return value;
}

Result<uint32_t> Debugger::ReadWord(const std::string& symbol, uint32_t addr) {
  if (!symbol.empty()) {
    auto a = Lookup(symbol);
    if (!a.ok()) {
      return a.error();
    }
    addr = *a;
  }
  uint32_t value = 0;
  auto n = handle_->ReadMem(addr, &value, 4);
  if (!n.ok() || *n != 4) {
    return Errno::kEFAULT;
  }
  return value;
}

Result<void> Debugger::WriteWord(const std::string& symbol, uint32_t value, uint32_t addr) {
  if (!symbol.empty()) {
    auto a = Lookup(symbol);
    if (!a.ok()) {
      return a.error();
    }
    addr = *a;
  }
  auto n = handle_->WriteMem(addr, &value, 4);
  if (!n.ok() || *n != 4) {
    return Errno::kEFAULT;
  }
  return Result<void>::Ok();
}

Result<std::string> Debugger::Disassemble(uint32_t addr, int count) {
  if (!handle_) {
    return Errno::kESRCH;
  }
  std::string out;
  uint32_t pc = addr;
  for (int i = 0; i < count; ++i) {
    uint8_t bytes[10] = {};
    auto n = handle_->ReadMem(pc, bytes, sizeof(bytes));
    if (!n.ok() || *n == 0) {
      break;
    }
    // Show the real instruction where we planted breakpoints.
    auto bp = breakpoints_.find(pc);
    if (bp != breakpoints_.end()) {
      bytes[0] = bp->second.saved_byte;
    }
    auto d = DisassembleOne(std::span<const uint8_t>(bytes, static_cast<size_t>(*n)), pc);
    char line[96];
    std::snprintf(line, sizeof(line), "%-24s %08x  %s\n", SymbolAt(pc).c_str(), pc,
                  d.mnemonic.c_str());
    out += line;
    pc += static_cast<uint32_t>(d.length);
  }
  return out;
}

}  // namespace svr4
