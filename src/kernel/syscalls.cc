// The system call path: entry/exit stop points ("natural points of control
// for a process are where it enters and leaves the kernel"), restartable
// blocking handlers built on the classic while-condition-sleep structure,
// syscall aborting, and the handlers longer than a row of the call table
// (syscall_table.cc, which Dispatch reads).
#include <algorithm>
#include <cstddef>
#include <cstring>

#include "svr4proc/fs/dev.h"
#include "svr4proc/kernel/kernel.h"

namespace svr4 {

void Kernel::SyscallTrap(Lwp* lwp) {
  Proc* p = lwp->proc;
  uint32_t num = lwp->regs.r[0];
  ++p->nsyscalls;
  lwp->in_syscall = true;
  lwp->sys_phase = SysPhase::kEntry;
  lwp->cur_syscall = static_cast<uint16_t>(std::min<uint32_t>(num, SysSet::kMaxMember));
  lwp->abort_syscall = false;
  for (int i = 0; i < 6; ++i) {
    lwp->sysargs[i] = lwp->regs.r[i + 1];
  }
  lwp->sys_entry_tick = ticks_;
  kt_.Emit(KtEvent::kSyscallEntry, p->pid, lwp->lwpid, lwp->cur_syscall,
           lwp->sysargs[0]);
  // "A stop on system call entry occurs before the system has fetched the
  // system call arguments from the process."
  if (p->trace.sysentry.Has(lwp->cur_syscall)) {
    StopLwp(lwp, PR_SYSENTRY, lwp->cur_syscall, /*istop=*/true);
    return;
  }
  ContinueSyscall(lwp);
}

void Kernel::ContinueSyscall(Lwp* lwp) {
  Proc* p = lwp->proc;
  switch (lwp->sys_phase) {
    case SysPhase::kNone:
      lwp->in_syscall = false;
      return;
    case SysPhase::kEntry: {
      // The controlling process may have changed the argument registers
      // while we were stopped; fetch them now.
      for (int i = 0; i < 6; ++i) {
        lwp->sysargs[i] = lwp->regs.r[i + 1];
      }
      lwp->sys_phase = SysPhase::kExec;
      [[fallthrough]];
    }
    case SysPhase::kExec: {
      if (lwp->abort_syscall) {
        // "A process that is stopped on system call entry can be directed to
        // abort execution of the system call and go directly to system call
        // exit."
        lwp->abort_syscall = false;
        FinishSyscall(lwp, SysResult::Fail(Errno::kEINTR));
        return;
      }
      if (lwp->interrupted) {
        lwp->interrupted = false;
        // Woken from an interruptible sleep by a signal: issig() decides
        // whether the call fails with EINTR ("ask the question again").
        if (Issig(lwp)) {
          FinishSyscall(lwp, SysResult::Fail(Errno::kEINTR));
          return;
        }
        if (lwp->state != LwpState::kRunning) {
          return;  // stopped inside issig(); resume re-enters here
        }
        if (lwp->abort_syscall) {
          lwp->abort_syscall = false;
          FinishSyscall(lwp, SysResult::Fail(Errno::kEINTR));
          return;
        }
        // Not delivered after all: retry the sleep condition.
      }
      SysResult r = Dispatch(lwp);
      if (p->state != Proc::State::kActive || lwp->state == LwpState::kDead) {
        return;  // exit(2) or a fatal signal consumed the process
      }
      if (r.kind == SysResult::kBlock) {
        // Set the channel before the transition: the sleep bucket hashes it.
        lwp->sleep = r.sleep;
        LwpSetState(lwp, LwpState::kSleeping);
        ArmSleepTimer(lwp);
        return;
      }
      FinishSyscall(lwp, r);
      return;
    }
    case SysPhase::kExit: {
      // Resumed from a syscall-exit stop; the debugger may have manufactured
      // whatever return values it wished by writing the registers.
      lwp->in_syscall = false;
      lwp->sys_phase = SysPhase::kNone;
      lwp->sys_deadline = 0;
      lwp->vfork_child = 0;
      return;
    }
  }
}

void Kernel::FinishSyscall(Lwp* lwp, const SysResult& r) {
  Proc* p = lwp->proc;
  // "A stop on system call exit occurs after the system has stored all
  // return values in the traced process's data and saved registers."
  if (!r.no_regs) {
    if (r.kind == SysResult::kError) {
      lwp->regs.r[0] = static_cast<uint32_t>(r.err);
      lwp->regs.psr |= kPsrC;
    } else {
      lwp->regs.r[0] = r.rv0;
      if (r.has_rv1) {
        lwp->regs.r[1] = r.rv1;
      }
      lwp->regs.psr &= ~kPsrC;
    }
  }
  if (kt_.armed()) {
    // The exit record carries the errno and the entry->exit service latency
    // in ticks (time stopped at the exit stop point is not service time).
    uint32_t err = r.kind == SysResult::kError ? static_cast<uint32_t>(r.err) : 0;
    kt_.Emit(KtEvent::kSyscallExit, p->pid, lwp->lwpid,
             static_cast<uint32_t>(lwp->cur_syscall) | (err << 16),
             static_cast<uint32_t>(ticks_ - lwp->sys_entry_tick));
  }
  if (p->trace.sysexit.Has(lwp->cur_syscall)) {
    lwp->sys_phase = SysPhase::kExit;
    StopLwp(lwp, PR_SYSEXIT, lwp->cur_syscall, /*istop=*/true);
    return;
  }
  lwp->in_syscall = false;
  lwp->sys_phase = SysPhase::kNone;
  lwp->sys_deadline = 0;
  lwp->vfork_child = 0;
}

// --- Individual handlers ------------------------------------------------------

Kernel::SysResult Kernel::SysRead(Lwp* lwp) {
  Proc* p = lwp->proc;
  auto of = FdGet(p, static_cast<int>(lwp->sysargs[0]));
  if (!of.ok()) {
    return SysResult::Fail(of.error());
  }
  uint32_t va = lwp->sysargs[1];
  uint32_t n = std::min<uint32_t>(lwp->sysargs[2], 1 << 20);
  std::vector<uint8_t> buf(n);
  auto r = ReadCommon(p, **of, buf);
  if (!r.ok()) {
    if (r.error() == Errno::kEAGAIN) {
      // An empty pipe: sleep interruptibly until a write or the last close
      // of its write end (the pipe rule, Kernel::WakePipe).
      return SysResult::Block(SleepSpec{PipeChan(**of), 0, true});
    }
    return SysResult::Fail(r.error());
  }
  if (*r > 0) {
    auto c = Copyout(p, va, buf.data(), static_cast<uint32_t>(*r));
    if (!c.ok()) {
      return SysResult::Fail(Errno::kEFAULT);
    }
  }
  return SysResult::Ok(static_cast<uint32_t>(*r));
}

Kernel::SysResult Kernel::SysWrite(Lwp* lwp) {
  Proc* p = lwp->proc;
  auto of = FdGet(p, static_cast<int>(lwp->sysargs[0]));
  if (!of.ok()) {
    return SysResult::Fail(of.error());
  }
  uint32_t va = lwp->sysargs[1];
  uint32_t n = std::min<uint32_t>(lwp->sysargs[2], 1 << 20);
  std::vector<uint8_t> buf(n);
  if (!Copyin(p, va, buf.data(), n).ok()) {
    return SysResult::Fail(Errno::kEFAULT);
  }
  auto r = WriteCommon(p, **of, buf);
  if (!r.ok()) {
    if (r.error() == Errno::kEAGAIN) {
      // A full pipe: sleep until a read or the last close of its read end.
      return SysResult::Block(SleepSpec{PipeChan(**of), 0, true});
    }
    if (r.error() == Errno::kEPIPE) {
      SigInfo info;
      info.si_signo = SIGPIPE;
      PostSignal(p, SIGPIPE, info);
    }
    return SysResult::Fail(r.error());
  }
  return SysResult::Ok(static_cast<uint32_t>(*r));
}

Kernel::SysResult Kernel::SysOpen(Lwp* lwp) {
  Proc* p = lwp->proc;
  auto path = CopyinStr(p, lwp->sysargs[0]);
  if (!path.ok()) {
    return SysResult::Fail(path.error());
  }
  return SysResult::From(
      OpenCommon(p, *path, static_cast<int>(lwp->sysargs[1]), lwp->sysargs[2]));
}

Kernel::SysResult Kernel::SysWait(Lwp* lwp) {
  Proc* p = lwp->proc;
  WaitResult out;
  bool any = false;
  if (WaitScan(p, -1, &out, &any)) {
    return SysResult::Ok2(static_cast<uint32_t>(out.pid),
                          static_cast<uint32_t>(out.status));
  }
  if (!any) {
    return SysResult::Fail(Errno::kECHILD);
  }
  return SysResult::Block(SleepSpec{p, 0, true});
}

Kernel::SysResult Kernel::SysExec(Lwp* lwp) {
  Proc* p = lwp->proc;
  auto path = CopyinStr(p, lwp->sysargs[0]);
  if (!path.ok()) {
    return SysResult::Fail(path.error());
  }
  // argv: a null-terminated array of string pointers (may be 0).
  std::vector<std::string> argv;
  uint32_t argv_va = lwp->sysargs[1];
  if (argv_va != 0) {
    for (int i = 0; i < 64; ++i) {
      uint32_t ptr = 0;
      if (!Copyin(p, argv_va + 4 * static_cast<uint32_t>(i), &ptr, 4).ok()) {
        return SysResult::Fail(Errno::kEFAULT);
      }
      if (ptr == 0) {
        break;
      }
      auto s = CopyinStr(p, ptr);
      if (!s.ok()) {
        return SysResult::Fail(s.error());
      }
      argv.push_back(*s);
    }
  }
  if (argv.empty()) {
    argv.push_back(*path);
  }
  auto r = ExecImage(p, *path, argv);
  if (!r.ok()) {
    return SysResult::Fail(r.error());
  }
  // The registers now belong to the fresh image; do not let the return path
  // overwrite r1/r2 (argc/argv).
  return SysResult::OkNoRegs();
}

Kernel::SysResult Kernel::SysUnlink(Lwp* lwp) {
  Proc* p = lwp->proc;
  auto path = CopyinStr(p, lwp->sysargs[0]);
  if (!path.ok()) {
    return SysResult::Fail(path.error());
  }
  std::string leaf;
  auto parent = vfs_.ResolveParent(*path, &leaf);
  if (!parent.ok()) {
    return SysResult::Fail(parent.error());
  }
  return SysResult::From((*parent)->Remove(leaf));
}

Kernel::SysResult Kernel::SysPipe(Lwp* lwp) {
  Proc* p = lwp->proc;
  auto buf = std::make_shared<PipeBuf>();
  auto rd = std::make_shared<OpenFile>();
  rd->vp = std::make_shared<PipeVnode>(buf, /*write_end=*/false);
  rd->oflags = O_RDONLY;
  auto wr = std::make_shared<OpenFile>();
  wr->vp = std::make_shared<PipeVnode>(buf, /*write_end=*/true);
  wr->oflags = O_WRONLY;
  wr->writable = true;
  (void)rd->vp->Open(*rd, p->creds, p);
  (void)wr->vp->Open(*wr, p->creds, p);
  auto fd0 = FdAlloc(p, rd);
  if (!fd0.ok()) {
    return SysResult::Fail(fd0.error());
  }
  auto fd1 = FdAlloc(p, wr);
  if (!fd1.ok()) {
    (void)Close(p, *fd0);
    return SysResult::Fail(fd1.error());
  }
  return SysResult::Ok2(static_cast<uint32_t>(*fd0), static_cast<uint32_t>(*fd1));
}

Kernel::SysResult Kernel::SysDup(Lwp* lwp) {
  Proc* p = lwp->proc;
  auto of = FdGet(p, static_cast<int>(lwp->sysargs[0]));
  if (!of.ok()) {
    return SysResult::Fail(of.error());
  }
  return SysResult::From(FdAlloc(p, *of));
}

Kernel::SysResult Kernel::SysSigaction(Lwp* lwp) {
  Proc* p = lwp->proc;
  int sig = static_cast<int>(lwp->sysargs[0]);
  if (!SigSet::Valid(sig) || sig == SIGKILL || sig == SIGSTOP) {
    return SysResult::Fail(Errno::kEINVAL);
  }
  SigAction& act = p->sig.Tables().actions[sig];
  uint32_t old = act.handler;
  act.handler = lwp->sysargs[1];
  // args[2], when set, points at a 16-byte mask to hold during the handler.
  if (lwp->sysargs[2] != 0) {
    SigSet mask;
    if (!Copyin(p, lwp->sysargs[2], &mask, sizeof(mask)).ok()) {
      return SysResult::Fail(Errno::kEFAULT);
    }
    act.mask = mask;
  }
  return SysResult::Ok(old);
}

Kernel::SysResult Kernel::SysSigprocmask(Lwp* lwp) {
  Proc* p = lwp->proc;
  int how = static_cast<int>(lwp->sysargs[0]);  // 0 block, 1 unblock, 2 set
  SigSet mask;
  if (lwp->sysargs[1] != 0) {
    if (!Copyin(p, lwp->sysargs[1], &mask, sizeof(mask)).ok()) {
      return SysResult::Fail(Errno::kEFAULT);
    }
    switch (how) {
      case 0:
        p->sig.hold |= mask;
        break;
      case 1:
        p->sig.hold -= mask;
        break;
      case 2:
        p->sig.hold = mask;
        break;
      default:
        return SysResult::Fail(Errno::kEINVAL);
    }
    p->sig.hold.Remove(SIGKILL);
    p->sig.hold.Remove(SIGSTOP);
  }
  if (lwp->sysargs[2] != 0) {
    if (!Copyout(p, lwp->sysargs[2], &p->sig.hold, sizeof(SigSet)).ok()) {
      return SysResult::Fail(Errno::kEFAULT);
    }
  }
  return SysResult::Ok(0);
}

Kernel::SysResult Kernel::SysSigsuspend(Lwp* lwp) {
  Proc* p = lwp->proc;
  if (lwp->sys_deadline == 0) {
    // First pass: install the temporary mask. The saved mask travels in the
    // lwp scratch slot (restored by the EINTR unwind in user code).
    SigSet mask;
    if (!Copyin(p, lwp->sysargs[0], &mask, sizeof(mask)).ok()) {
      return SysResult::Fail(Errno::kEFAULT);
    }
    mask.Remove(SIGKILL);
    mask.Remove(SIGSTOP);
    p->sig.hold = mask;
    lwp->sys_deadline = 1;  // mark installed
  }
  return SysResult::Block(SleepSpec{lwp, 0, true});
}

Kernel::SysResult Kernel::SysSigpending(Lwp* lwp) {
  Proc* p = lwp->proc;
  if (!Copyout(p, lwp->sysargs[0], &p->sig.pending, sizeof(SigSet)).ok()) {
    return SysResult::Fail(Errno::kEFAULT);
  }
  return SysResult::Ok(0);
}

Kernel::SysResult Kernel::SysMmap(Lwp* lwp) {
  Proc* p = lwp->proc;
  uint32_t addr = lwp->sysargs[0];
  uint32_t len = lwp->sysargs[1];
  uint32_t prot = lwp->sysargs[2] & (MA_READ | MA_WRITE | MA_EXEC);
  uint32_t flags = lwp->sysargs[3];  // 1 shared, 2 private
  int fd = static_cast<int32_t>(lwp->sysargs[4]);
  uint32_t off = lwp->sysargs[5];
  bool shared = (flags & 1) != 0;
  if (addr % kPageSize != 0 || len == 0) {
    return SysResult::Fail(Errno::kEINVAL);
  }
  std::shared_ptr<VmObject> obj;
  std::string name;
  if (fd < 0) {
    obj = std::make_shared<AnonObject>();
  } else {
    auto of = FdGet(p, fd);
    if (!of.ok()) {
      return SysResult::Fail(of.error());
    }
    auto o = (*of)->vp->GetVmObject();
    if (!o.ok()) {
      return SysResult::Fail(o.error());
    }
    obj = *o;
  }
  uint32_t ma = prot | (shared ? uint32_t{MA_SHARED} : 0u);
  auto r = p->as->Map(addr, len, ma, obj, off, name);
  if (!r.ok()) {
    return SysResult::Fail(r.error());
  }
  return SysResult::Ok(addr);
}

Kernel::SysResult Kernel::SysSleep(Lwp* lwp) {
  if (lwp->sys_deadline == 0) {
    lwp->sys_deadline = ticks_ + lwp->sysargs[0];
  }
  if (ticks_ >= lwp->sys_deadline) {
    return SysResult::Ok(0);
  }
  return SysResult::Block(SleepSpec{nullptr, lwp->sys_deadline, true});
}

Kernel::SysResult Kernel::SysAlarm(Lwp* lwp) {
  Proc* p = lwp->proc;
  uint64_t prev = p->alarm_tick == 0 ? 0 : p->alarm_tick - ticks_;
  uint32_t n = lwp->sysargs[0];
  p->alarm_tick = n == 0 ? 0 : ticks_ + n;
  ArmAlarm(p);
  return SysResult::Ok(static_cast<uint32_t>(prev));
}

Kernel::SysResult Kernel::SysLwpCreate(Lwp* lwp) {
  Proc* p = lwp->proc;
  uint32_t pc = lwp->sysargs[0];
  uint32_t sp = lwp->sysargs[1];
  if (pc == 0 || sp == 0) {
    return SysResult::Fail(Errno::kEINVAL);
  }
  auto nl = std::make_unique<Lwp>();
  nl->lwpid = ++p->next_lwpid;
  nl->proc = p;
  nl->regs.pc = pc;
  nl->regs.set_sp(sp);
  nl->regs.r[1] = static_cast<uint32_t>(nl->lwpid);
  int id = nl->lwpid;
  Lwp* raw = nl.get();
  p->lwps.push_back(std::move(nl));
  EnrollLwp(raw);
  return SysResult::Ok(static_cast<uint32_t>(id));
}

Kernel::SysResult Kernel::SysLwpExit(Lwp* lwp) {
  Proc* p = lwp->proc;
  int live = 0;
  for (auto& l : p->lwps) {
    if (l->state != LwpState::kDead) {
      ++live;
    }
  }
  if (live <= 1) {
    // Last thread of control: process exit.
    ExitProc(p, WExitStatus(0));
    return SysResult::Ok(0);
  }
  LwpSetState(lwp, LwpState::kDead);
  return SysResult::Ok(0);
}

Kernel::SysResult Kernel::SysPoll(Lwp* lwp) {
  Proc* p = lwp->proc;
  uint32_t fds_va = lwp->sysargs[0];
  uint32_t nfds = lwp->sysargs[1];
  if (nfds > poll_max_fds_) {
    // Truncating would silently drop entries and never write their revents
    // back; poll(2) specifies EINVAL for an over-limit nfds.
    return SysResult::Fail(Errno::kEINVAL);
  }
  int32_t timeout = static_cast<int32_t>(lwp->sysargs[2]);

  // The user's pollfd array (i32 fd, i32 events, i32 revents) is PollFd.
  static_assert(sizeof(PollFd) == 12 && offsetof(PollFd, events) == 4 &&
                offsetof(PollFd, revents) == 8 && sizeof(int) == 4);
  std::vector<PollFd> fds(nfds);
  if (nfds > 0 && !Copyin(p, fds_va, fds.data(), nfds * sizeof(PollFd)).ok()) {
    return SysResult::Fail(Errno::kEFAULT);
  }
  int ready = PollLevels(p, fds);
  if (timeout > 0 && lwp->sys_deadline == 0) {
    lwp->sys_deadline = ticks_ + static_cast<uint64_t>(timeout);
  }
  bool timed_out =
      timeout == 0 || (lwp->sys_deadline != 0 && ticks_ >= lwp->sys_deadline);
  if (ready > 0 || timed_out) {
    if (nfds > 0 && !Copyout(p, fds_va, fds.data(), nfds * sizeof(PollFd)).ok()) {
      return SysResult::Fail(Errno::kEFAULT);
    }
    return SysResult::Ok(static_cast<uint32_t>(ready));
  }
  return SysResult::Block(SleepSpec{PollChan(), lwp->sys_deadline, true});
}

}  // namespace svr4
