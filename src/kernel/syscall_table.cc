// The system-call table: one row per call gives its number, name, arity and
// handler. Kernel::Dispatch and the syscall.h lookups read the rows and
// nothing else; a call whose work fits in a row is written here, the longer
// handlers in syscalls.cc.
#include "svr4proc/kernel/syscall.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <utility>

#include "svr4proc/isa/assembler.h"
#include "svr4proc/kernel/kernel.h"
#include "svr4proc/kernel/signal.h"

namespace svr4 {
namespace {

using SysResult = Kernel::SysResult;

// A handler written as a Kernel member, as a row's handler.
template <SysResult (Kernel::*F)(Lwp*)>
SysResult Member(Kernel& k, Lwp* lwp) {
  return (k.*F)(lwp);
}

// setuid(2) and setgid(2): the superuser sets the real, effective and saved
// ids; anyone else may only set the effective id to the real or saved one.
SysResult SetIds(bool super, uint32_t id, uint32_t& real, uint32_t& eff, uint32_t& saved) {
  if (super) {
    real = eff = saved = id;
  } else if (id == real || id == saved) {
    eff = id;
  } else {
    return SysResult::Fail(Errno::kEPERM);
  }
  return SysResult::Ok(0);
}

}  // namespace

constexpr Kernel::SysEntry Kernel::kSysTable[] = {
    {SYS_exit, "exit", 1,
     [](Kernel& k, Lwp* l) {
       k.ExitProc(l->proc, WExitStatus(static_cast<int>(l->sysargs[0])));
       return SysResult::Ok(0);  // not observed
     }},
    {SYS_fork, "fork", 0, [](Kernel& k, Lwp* l) { return k.SysFork(l, /*vfork=*/false); }},
    {SYS_read, "read", 3, Member<&Kernel::SysRead>},
    {SYS_write, "write", 3, Member<&Kernel::SysWrite>},
    {SYS_open, "open", 3, Member<&Kernel::SysOpen>},
    {SYS_close, "close", 1,
     [](Kernel& k, Lwp* l) {
       return SysResult::From(k.Close(l->proc, static_cast<int>(l->sysargs[0])));
     }},
    {SYS_wait, "wait", 0, Member<&Kernel::SysWait>},
    {SYS_creat, "creat", 2,
     [](Kernel& k, Lwp* l) {
       // creat(path, mode) == open(path, O_WRONLY|O_CREAT|O_TRUNC, mode)
       l->sysargs[2] = l->sysargs[1];
       l->sysargs[1] = O_WRONLY | O_CREAT | O_TRUNC;
       return k.SysOpen(l);
     }},
    {SYS_unlink, "unlink", 1, Member<&Kernel::SysUnlink>},
    {SYS_exec, "exec", 2, Member<&Kernel::SysExec>},
    {SYS_time, "time", 0,
     [](Kernel& k, Lwp*) { return SysResult::Ok(static_cast<uint32_t>(k.ticks_)); }},
    {SYS_brk, "brk", 1,
     [](Kernel&, Lwp* l) { return SysResult::From(l->proc->as->SetBreak(l->sysargs[0])); }},
    {SYS_stat, "stat", 2,
     [](Kernel& k, Lwp* l) {
       auto path = k.CopyinStr(l->proc, l->sysargs[0]);
       auto attr = path.ok() ? k.Stat(l->proc, *path) : Result<VAttr>(path.error());
       if (!attr.ok()) {
         return SysResult::Fail(attr.error());
       }
       // A compact on-wire stat: type, mode, uid, gid, size (5 x u32).
       uint32_t rec[5] = {static_cast<uint32_t>(attr->type), attr->mode, attr->uid, attr->gid,
                          static_cast<uint32_t>(attr->size)};
       return SysResult::From(k.Copyout(l->proc, l->sysargs[1], rec, sizeof(rec)));
     }},
    {SYS_lseek, "lseek", 3,
     [](Kernel& k, Lwp* l) {
       return SysResult::From(k.Lseek(l->proc, static_cast<int>(l->sysargs[0]),
                                      static_cast<int32_t>(l->sysargs[1]),
                                      static_cast<int>(l->sysargs[2])));
     }},
    {SYS_getpid, "getpid", 0,
     [](Kernel&, Lwp* l) { return SysResult::Ok(static_cast<uint32_t>(l->proc->pid)); }},
    {SYS_setuid, "setuid", 1,
     [](Kernel&, Lwp* l) {
       Creds& c = l->proc->creds;
       return SetIds(c.IsSuper(), l->sysargs[0], c.ruid, c.euid, c.suid);
     }},
    {SYS_getuid, "getuid", 0, [](Kernel&, Lwp* l) { return SysResult::Ok(l->proc->creds.ruid); }},
    {SYS_ptrace, "ptrace", 4,
     [](Kernel& k, Lwp* l) {
       return SysResult::From(k.Ptrace(l->proc, static_cast<int>(l->sysargs[0]),
                                       static_cast<Pid>(static_cast<int32_t>(l->sysargs[1])),
                                       l->sysargs[2], l->sysargs[3]));
     }},
    {SYS_alarm, "alarm", 1, Member<&Kernel::SysAlarm>},
    {SYS_pause, "pause", 0,
     // Sleeps forever at an interruptible priority; only a signal ends it.
     [](Kernel&, Lwp* l) { return SysResult::Block(SleepSpec{l, 0, true}); }},
    {SYS_nice, "nice", 1,
     [](Kernel&, Lwp* l) {
       int delta = static_cast<int32_t>(l->sysargs[0]);
       if (delta < 0 && !l->proc->creds.IsSuper()) {
         return SysResult::Fail(Errno::kEPERM);
       }
       l->proc->nice = std::clamp(l->proc->nice + delta, 0, 39);
       return SysResult::Ok(static_cast<uint32_t>(l->proc->nice));
     }},
    {SYS_kill, "kill", 2,
     [](Kernel& k, Lwp* l) {
       return SysResult::From(k.Kill(l->proc, static_cast<Pid>(static_cast<int32_t>(l->sysargs[0])),
                                     static_cast<int>(l->sysargs[1])));
     }},
    {SYS_setpgrp, "setpgrp", 0,
     [](Kernel&, Lwp* l) {
       l->proc->pgrp = l->proc->pid;
       return SysResult::Ok(static_cast<uint32_t>(l->proc->pgrp));
     }},
    {SYS_dup, "dup", 1, Member<&Kernel::SysDup>},
    {SYS_pipe, "pipe", 0, Member<&Kernel::SysPipe>},
    {SYS_setgid, "setgid", 1,
     [](Kernel&, Lwp* l) {
       Creds& c = l->proc->creds;
       return SetIds(c.IsSuper(), l->sysargs[0], c.rgid, c.egid, c.sgid);
     }},
    {SYS_getgid, "getgid", 0, [](Kernel&, Lwp* l) { return SysResult::Ok(l->proc->creds.rgid); }},
    // Control goes through /proc; a guest has no ioctl(2).
    {SYS_ioctl, "ioctl", 3, nullptr},
    {SYS_umask, "umask", 1,
     [](Kernel&, Lwp* l) {
       return SysResult::Ok(std::exchange(l->proc->umask, l->sysargs[0] & 0777));
     }},
    {SYS_setsid, "setsid", 0,
     [](Kernel&, Lwp* l) {
       l->proc->sid = l->proc->pgrp = l->proc->pid;
       return SysResult::Ok(static_cast<uint32_t>(l->proc->sid));
     }},
    {SYS_getpgrp, "getpgrp", 0,
     [](Kernel&, Lwp* l) { return SysResult::Ok(static_cast<uint32_t>(l->proc->pgrp)); }},
    {SYS_getppid, "getppid", 0,
     [](Kernel&, Lwp* l) { return SysResult::Ok(static_cast<uint32_t>(l->proc->ppid)); }},
    {SYS_sleep, "sleep", 1, Member<&Kernel::SysSleep>},
    {SYS_yield, "yield", 0, [](Kernel&, Lwp*) { return SysResult::Ok(0); }},
    {SYS_poll, "poll", 3, Member<&Kernel::SysPoll>},
    {SYS_sigprocmask, "sigprocmask", 3, Member<&Kernel::SysSigprocmask>},
    {SYS_sigsuspend, "sigsuspend", 1, Member<&Kernel::SysSigsuspend>},
    {SYS_sigreturn, "sigreturn", 0, Member<&Kernel::SysSigreturn>},
    {SYS_sigaction, "sigaction", 3, Member<&Kernel::SysSigaction>},
    {SYS_sigpending, "sigpending", 1, Member<&Kernel::SysSigpending>},
    {SYS_mmap, "mmap", 6, Member<&Kernel::SysMmap>},
    {SYS_munmap, "munmap", 2,
     [](Kernel&, Lwp* l) {
       return SysResult::From(l->proc->as->Unmap(l->sysargs[0], l->sysargs[1]));
     }},
    {SYS_mprotect, "mprotect", 3,
     [](Kernel&, Lwp* l) {
       return SysResult::From(l->proc->as->Protect(
           l->sysargs[0], l->sysargs[1], l->sysargs[2] & (MA_READ | MA_WRITE | MA_EXEC)));
     }},
    {SYS_vfork, "vfork", 0, [](Kernel& k, Lwp* l) { return k.SysFork(l, /*vfork=*/true); }},
    {SYS_lwp_create, "lwp_create", 2, Member<&Kernel::SysLwpCreate>},
    {SYS_lwp_exit, "lwp_exit", 0, Member<&Kernel::SysLwpExit>},
    {SYS_lwp_self, "lwp_self", 0,
     [](Kernel&, Lwp* l) { return SysResult::Ok(static_cast<uint32_t>(l->lwpid)); }},
    // The "obsolete" call the encapsulation example emulates at user level
    // through /proc.
    {SYS_otime, "otime", 0, nullptr},
};

namespace {

// The row of each number (-1: none), built from the table at compile time.
constexpr auto kSysIndex = [] {
  std::array<int8_t, kMaxSyscall> index{};
  index.fill(-1);
  for (size_t i = 0; i < std::size(Kernel::kSysTable); ++i) {
    index[Kernel::kSysTable[i].num] = static_cast<int8_t>(i);
  }
  return index;
}();

static_assert(std::adjacent_find(std::begin(Kernel::kSysTable), std::end(Kernel::kSysTable),
                                 [](const auto& a, const auto& b) { return a.num >= b.num; }) ==
                  std::end(Kernel::kSysTable),
              "one row per call, in number order");

const Kernel::SysEntry* FindRow(int num) {
  if (num < 0 || num >= kMaxSyscall || kSysIndex[num] < 0) {
    return nullptr;
  }
  return &Kernel::kSysTable[kSysIndex[num]];
}

}  // namespace

Kernel::SysResult Kernel::Dispatch(Lwp* lwp) {
  const SysEntry* e = FindRow(lwp->cur_syscall);
  if (e == nullptr || e->handler == nullptr) {
    return SysResult::Fail(Errno::kENOSYS);
  }
  return e->handler(*this, lwp);
}

std::string_view SyscallName(int num) {
  if (const Kernel::SysEntry* e = FindRow(num)) {
    return e->name;
  }
  static thread_local char buf[16];
  std::snprintf(buf, sizeof(buf), "sys#%d", num);
  return buf;
}

int SyscallByName(std::string_view name) {
  for (const auto& e : Kernel::kSysTable) {
    if (e.name == name) {
      return e.num;
    }
  }
  return 0;
}

int SyscallNargs(int num) {
  const Kernel::SysEntry* e = FindRow(num);
  return e != nullptr ? e->nargs : 0;
}

void DefineSyscallSymbols(Assembler& as) {
  for (const auto& e : Kernel::kSysTable) {
    as.Define("SYS_" + std::string(e.name), static_cast<uint32_t>(e.num));
  }

  for (int s = 1; s <= kNumSignals; ++s) {
    as.Define(std::string(SignalName(s)), static_cast<uint32_t>(s));
  }
  as.Define("SIG_DFL", SIG_DFL);
  as.Define("SIG_IGN", SIG_IGN);

  as.Define("O_RDONLY", O_RDONLY);
  as.Define("O_WRONLY", O_WRONLY);
  as.Define("O_RDWR", O_RDWR);
  as.Define("O_CREAT", O_CREAT);
  as.Define("O_TRUNC", O_TRUNC);
  as.Define("O_EXCL", O_EXCL);

  as.Define("PROT_READ", MA_READ);
  as.Define("PROT_WRITE", MA_WRITE);
  as.Define("PROT_EXEC", MA_EXEC);
  as.Define("MAP_SHARED", 1);
  as.Define("MAP_PRIVATE", 2);
}

}  // namespace svr4
