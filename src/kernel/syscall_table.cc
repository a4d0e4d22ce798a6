#include "svr4proc/kernel/syscall.h"

#include <array>

#include "svr4proc/fs/vnode.h"
#include "svr4proc/isa/assembler.h"
#include "svr4proc/kernel/signal.h"

namespace svr4 {
namespace {

struct SysEntry {
  int num;
  std::string_view name;
  int nargs;
};

constexpr std::array<SysEntry, 48> kSysTable = {{
    {SYS_exit, "exit", 1},
    {SYS_fork, "fork", 0},
    {SYS_read, "read", 3},
    {SYS_write, "write", 3},
    {SYS_open, "open", 3},
    {SYS_close, "close", 1},
    {SYS_wait, "wait", 0},
    {SYS_creat, "creat", 2},
    {SYS_unlink, "unlink", 1},
    {SYS_exec, "exec", 2},
    {SYS_time, "time", 0},
    {SYS_brk, "brk", 1},
    {SYS_stat, "stat", 2},
    {SYS_lseek, "lseek", 3},
    {SYS_getpid, "getpid", 0},
    {SYS_setuid, "setuid", 1},
    {SYS_getuid, "getuid", 0},
    {SYS_ptrace, "ptrace", 4},
    {SYS_alarm, "alarm", 1},
    {SYS_pause, "pause", 0},
    {SYS_nice, "nice", 1},
    {SYS_kill, "kill", 2},
    {SYS_setpgrp, "setpgrp", 0},
    {SYS_dup, "dup", 1},
    {SYS_pipe, "pipe", 0},
    {SYS_setgid, "setgid", 1},
    {SYS_getgid, "getgid", 0},
    {SYS_ioctl, "ioctl", 3},
    {SYS_umask, "umask", 1},
    {SYS_setsid, "setsid", 0},
    {SYS_getpgrp, "getpgrp", 0},
    {SYS_getppid, "getppid", 0},
    {SYS_sleep, "sleep", 1},
    {SYS_yield, "yield", 0},
    {SYS_poll, "poll", 3},
    {SYS_sigprocmask, "sigprocmask", 3},
    {SYS_sigsuspend, "sigsuspend", 1},
    {SYS_sigreturn, "sigreturn", 0},
    {SYS_sigaction, "sigaction", 3},
    {SYS_sigpending, "sigpending", 1},
    {SYS_mmap, "mmap", 6},
    {SYS_munmap, "munmap", 2},
    {SYS_mprotect, "mprotect", 3},
    {SYS_vfork, "vfork", 0},
    {SYS_lwp_create, "lwp_create", 2},
    {SYS_lwp_exit, "lwp_exit", 0},
    {SYS_lwp_self, "lwp_self", 0},
    {SYS_otime, "otime", 0},
}};

}  // namespace

std::string_view SyscallName(int num) {
  for (const auto& e : kSysTable) {
    if (e.num == num) {
      return e.name;
    }
  }
  static thread_local char buf[16];
  std::snprintf(buf, sizeof(buf), "sys#%d", num);
  return buf;
}

int SyscallByName(std::string_view name) {
  for (const auto& e : kSysTable) {
    if (e.name == name) {
      return e.num;
    }
  }
  return 0;
}

int SyscallNargs(int num) {
  for (const auto& e : kSysTable) {
    if (e.num == num) {
      return e.nargs;
    }
  }
  return 0;
}

void DefineSyscallSymbols(Assembler& as) {
  for (const auto& e : kSysTable) {
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
