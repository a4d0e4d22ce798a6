// Process lifecycle: fork/vfork, exec (image loading: the mapping structure
// of Figure 2), exit, and reaping.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>

#include "svr4proc/kernel/core.h"
#include "svr4proc/kernel/kernel.h"

namespace svr4 {
namespace {

// User address-space layout.
constexpr uint32_t kStackTop = 0xBFFFE000;
constexpr uint32_t kInitialStackPages = 16;

std::string Basename(const std::string& path) {
  auto pos = path.rfind('/');
  return pos == std::string::npos ? path : path.substr(pos + 1);
}

// An a.out file read whole and parsed: the executable or its /lib library.
struct AoutFile {
  VnodePtr vp;
  VAttr attr;
  Aout image;
};

// Resolves the a.out at `path`, which must be a regular file `cr` may
// execute, reads it whole (a short read is EIO) and parses it.
Result<AoutFile> LoadAout(Vfs& vfs, const std::string& path, const Creds& cr) {
  auto vp = vfs.Resolve(path);
  if (!vp.ok()) {
    return vp.error();
  }
  auto attr = (*vp)->GetAttr();
  if (!attr.ok()) {
    return attr.error();
  }
  if (attr->type != VType::kReg ||
      !CredsPermit(cr, attr->uid, attr->gid, attr->mode, kPermExec)) {
    return Errno::kEACCES;
  }
  std::vector<uint8_t> bytes(attr->size);
  OpenFile tmp;
  tmp.vp = *vp;
  auto n = (*vp)->Read(tmp, 0, bytes);
  if (!n.ok() || static_cast<uint64_t>(*n) != attr->size) {
    return Errno::kEIO;
  }
  auto image = Aout::Parse(bytes);
  if (!image.ok()) {
    return image.error();
  }
  return AoutFile{*vp, *attr, std::move(*image)};
}

// Maps an a.out as Figure 2 shows it, every mapping named `name`: text
// private read/execute and data private read/write from the file, bss
// anonymous read/write.
Result<void> MapAout(AddressSpace& as, const AoutFile& f, const std::string& name) {
  auto obj = f.vp->GetVmObject();
  if (!obj.ok()) {
    return obj.error();
  }
  const Aout& a = f.image;
  if (!a.text.empty()) {
    SVR4_RETURN_IF_ERROR(as.Map(a.text_vaddr, static_cast<uint32_t>(a.text.size()),
                                MA_READ | MA_EXEC, *obj, Aout::TextFileOffset(), name));
  }
  if (!a.data.empty()) {
    SVR4_RETURN_IF_ERROR(as.Map(a.data_vaddr, static_cast<uint32_t>(a.data.size()),
                                MA_READ | MA_WRITE, *obj, a.DataFileOffset(), name));
  }
  uint32_t data_end = a.data_vaddr + static_cast<uint32_t>(a.data.size());
  uint32_t bss_start = PageAlignUp(std::max(data_end, a.data_vaddr));
  uint32_t bss_end = a.bss_vaddr + a.bss_size;
  if (a.bss_size > 0 && bss_end > bss_start) {
    SVR4_RETURN_IF_ERROR(as.Map(bss_start, bss_end - bss_start, MA_READ | MA_WRITE,
                                std::make_shared<AnonObject>(), 0, name));
  }
  return Result<void>::Ok();
}

}  // namespace

Result<Pid> Kernel::ForkCommon(Lwp* parent_lwp, bool vfork) {
  Proc* parent = parent_lwp->proc;
  Proc* child = AllocProc(parent->name, parent->creds, parent);
  if (child == nullptr) {
    return Errno::kEAGAIN;  // pid space exhausted
  }
  child->psargs = parent->psargs;
  child->umask = parent->umask;
  child->nice = parent->nice;
  child->exe = parent->exe;
  child->setid = parent->setid;

  if (vfork) {
    // vfork: "the address space is shared between parent and child until the
    // child exits or execs."
    child->as = parent->as;
    child->is_vfork_child = true;
  } else {
    child->as = parent->as ? parent->as->Clone() : nullptr;
    if (child->as) {
      child->as->SetKtrace(&kt_, child->pid);
      child->as->SetSmp(&smp_);
      child->as->SetCpuCount(smp_.ncpus());
    }
  }

  // Descriptors are shared open-file objects.
  child->fds = parent->fds;
  for (auto& of : child->fds) {
    if (of) {
      ++of->refs;
    }
  }

  // Signal dispositions are inherited; pending signals are not.
  if (parent->sig.tables != nullptr) {
    child->sig.Tables().actions = parent->sig.tables->actions;
  }
  child->sig.hold = parent->sig.hold;

  // /proc: "the child inherits all of the parent's tracing flags" when
  // inherit-on-fork is set; otherwise it starts with all tracing cleared.
  if (parent->trace.inherit_on_fork) {
    child->trace.sigtrace = parent->trace.sigtrace;
    child->trace.flttrace = parent->trace.flttrace;
    child->trace.sysentry = parent->trace.sysentry;
    child->trace.sysexit = parent->trace.sysexit;
    child->trace.inherit_on_fork = true;
    child->trace.run_on_last_close = parent->trace.run_on_last_close;
  }

  // The child's first thread of control is a copy of the forking lwp,
  // resumed at the fork return with value 0. It passes through the syscall
  // exit path so that, when exit from fork is traced, "the child stopped
  // before executing any user-level code" and full control is possible.
  auto cl = std::make_unique<Lwp>();
  cl->lwpid = 1;
  child->next_lwpid = 1;
  cl->proc = child;
  cl->regs = parent_lwp->regs;
  cl->fpregs = parent_lwp->fpregs;
  cl->cur_syscall = parent_lwp->cur_syscall;
  cl->sys_entry_tick = parent_lwp->sys_entry_tick;  // child fork-exit latency
  Lwp* craw = cl.get();
  child->lwps.push_back(std::move(cl));
  // Enroll before FinishSyscall: a traced fork-exit stops the lwp, and the
  // stop transition must find it on the run queue to take it off.
  EnrollLwp(craw);
  craw->in_syscall = true;
  craw->sys_phase = SysPhase::kExec;  // FinishSyscall runs the exit-side path
  FinishSyscall(craw, SysResult::Ok(0));

  kt_.Emit(KtEvent::kFork, parent->pid, parent_lwp->lwpid,
           static_cast<uint32_t>(child->pid), vfork ? 1 : 0);
  return child->pid;
}

Kernel::SysResult Kernel::SysFork(Lwp* lwp, bool vfork) {
  if (!vfork) {
    auto pid = ForkCommon(lwp, false);
    if (!pid.ok()) {
      return SysResult::Fail(pid.error());
    }
    return SysResult::Ok(static_cast<uint32_t>(*pid));
  }
  // vfork: create on the first pass, then sleep until the child execs or
  // exits.
  if (lwp->vfork_child == 0) {
    auto pid = ForkCommon(lwp, true);
    if (!pid.ok()) {
      return SysResult::Fail(pid.error());
    }
    lwp->vfork_child = *pid;
  }
  Proc* child = FindProc(lwp->vfork_child);
  if (child == nullptr || child->vfork_done) {
    return SysResult::Ok(static_cast<uint32_t>(lwp->vfork_child));
  }
  return SysResult::Block(SleepSpec{child, 0, true});
}

Result<void> Kernel::ExecImage(Proc* p, const std::string& path,
                               const std::vector<std::string>& argv) {
  // Load the program and its shared library before committing to either.
  auto exe = LoadAout(vfs_, path, p->creds);
  if (!exe.ok()) {
    return exe.error();
  }
  const Aout& image = exe->image;
  std::optional<AoutFile> lib;
  if (!image.lib.empty()) {
    auto l = LoadAout(vfs_, "/lib/" + image.lib, p->creds);
    if (!l.ok()) {
      return l.error();
    }
    lib = std::move(*l);
  }

  // Build the new address space: Figure 2's structure. The program and a
  // shared library each contribute text, data and bss mappings; the stack
  // is anonymous and the break mapping grows on brk(2) request.
  auto as = std::make_shared<AddressSpace>();
  as->SetFaultInjector(finj_.get());
  as->SetKtrace(&kt_, p->pid);
  as->SetSmp(&smp_);
  as->SetCpuCount(smp_.ncpus());
  std::string base = Basename(path);
  SVR4_RETURN_IF_ERROR(MapAout(*as, *exe, base));
  // The break segment: grown on explicit request by brk(2). It appears in
  // the PIOCMAP list "despite all the disclaimers".
  uint32_t brk_base = PageAlignUp(
      std::max({image.data_vaddr + static_cast<uint32_t>(image.data.size()),
                image.bss_vaddr + image.bss_size,
                image.text_vaddr + static_cast<uint32_t>(image.text.size())}));
  SVR4_RETURN_IF_ERROR(as->Map(brk_base, kPageSize, MA_READ | MA_WRITE | MA_BREAK,
                               std::make_shared<AnonObject>(), 0, "break"));
  // The initial program stack segment, grown automatically by the system.
  SVR4_RETURN_IF_ERROR(as->Map(kStackTop - kInitialStackPages * kPageSize,
                               kInitialStackPages * kPageSize,
                               MA_READ | MA_WRITE | MA_STACK,
                               std::make_shared<AnonObject>(), 0, "stack",
                               /*grows_down=*/true));
  if (lib) {
    SVR4_RETURN_IF_ERROR(MapAout(*as, *lib, image.lib));
  }

  // Lay out argv on the stack: strings at the top, then the pointer array.
  uint32_t sp = kStackTop;
  std::vector<uint32_t> ptrs;
  for (auto it = argv.rbegin(); it != argv.rend(); ++it) {
    sp -= static_cast<uint32_t>(it->size()) + 1;
    SVR4_RETURN_IF_ERROR(
        [&]() -> Result<void> {
          auto r = as->PrWrite(sp, std::span<const uint8_t>(
                                       reinterpret_cast<const uint8_t*>(it->c_str()),
                                       it->size() + 1));
          if (!r.ok() || *r != static_cast<int64_t>(it->size() + 1)) {
            return Errno::kEFAULT;
          }
          return Result<void>::Ok();
        }());
    ptrs.push_back(sp);
  }
  std::reverse(ptrs.begin(), ptrs.end());
  ptrs.push_back(0);
  sp &= ~3u;
  sp -= static_cast<uint32_t>(ptrs.size() * 4);
  uint32_t argv_va = sp;
  {
    auto r = as->PrWrite(sp, std::span<const uint8_t>(
                                 reinterpret_cast<const uint8_t*>(ptrs.data()),
                                 ptrs.size() * 4));
    if (!r.ok()) {
      return Errno::kEFAULT;
    }
  }
  sp -= 16;  // headroom

  // Commit: the process transforms. Nothing below fails, so the set-id
  // bits are honored (and /proc security enforced) only here: a failed
  // exec leaves the credentials and every descriptor as they were.
  const VAttr& attr = exe->attr;
  bool setid_exec = false;
  if (attr.mode & 04000) {
    p->creds.euid = attr.uid;
    p->creds.suid = attr.uid;
    setid_exec = true;
  }
  if (attr.mode & 02000) {
    p->creds.egid = attr.gid;
    p->creds.sgid = attr.gid;
    setid_exec = true;
  }
  if (setid_exec) {
    p->setid = true;
    if (p->trace.total_opens > 0) {
      // "The set-id operation is honored but the file descriptor held by the
      // controlling process becomes invalid ... the traced process is
      // directed to stop and its run-on-last-close flag is set."
      ++p->trace.gen;
      ProcPollLevelMoved(p->pid);
      // Rebalance the open counts at invalidation time: the outstanding
      // descriptors now belong to a dead generation, so their counts move
      // to the stale ledger and any exclusivity they held dissolves. A new
      // controller of the new generation starts from clean counters.
      p->trace.stale_writable_opens += p->trace.writable_opens;
      p->trace.stale_total_opens += p->trace.total_opens;
      p->trace.writable_opens = 0;
      p->trace.total_opens = 0;
      p->trace.excl = false;
      p->trace.dstop_pending = true;
      p->trace.run_on_last_close = true;
    }
  }

  if (p->is_vfork_child && !p->vfork_done) {
    p->vfork_done = true;
    Wakeup(p);
  }
  // The outgoing address space takes its fault accounting with it; fold the
  // classes into the proc so PIOCUSAGE survives exec. A vfork child's shared
  // space (use_count > 1) still belongs to the parent — nothing to fold.
  if (p->as && p->as.use_count() == 1) {
    p->minflt_base += p->as->counters().minor_faults;
    p->majflt_base += p->as->counters().major_faults;
    smp_.DropAs(p->as.get());
  }
  p->as = std::move(as);
  p->exe = exe->vp;
  p->name = base;
  {
    std::string args;
    for (const auto& a : argv) {
      if (!args.empty()) {
        args += ' ';
      }
      args += a;
    }
    p->psargs = args.substr(0, 80);
  }

  // Caught signals revert to default; ignored stay ignored; tracing flags
  // persist across exec.
  if (p->sig.tables != nullptr) {
    for (auto& act : p->sig.tables->actions) {
      if (act.handler != SIG_IGN) {
        act = SigAction{};
      }
    }
  }
  p->sig.cursig = 0;

  // exec kills every other thread of control and resets the caller.
  Lwp* survivor = nullptr;
  for (auto& l : p->lwps) {
    if (survivor == nullptr && l->state != LwpState::kDead) {
      survivor = l.get();
    } else {
      if (l->state == LwpState::kStopped) {
        ProcPollLevelMoved(p->pid);  // killing a stopped lwp can drop POLLPRI
      }
      LwpSetState(l.get(), LwpState::kDead);
    }
  }
  if (survivor == nullptr) {
    auto nl = std::make_unique<Lwp>();
    nl->lwpid = 1;
    nl->proc = p;
    survivor = nl.get();
    p->lwps.push_back(std::move(nl));
    EnrollLwp(survivor);
  }
  survivor->regs = Regs{};
  survivor->fpregs = FpRegs{};
  survivor->regs.pc = image.entry;
  survivor->regs.set_sp(sp);
  survivor->regs.r[1] = static_cast<uint32_t>(argv.size());
  survivor->regs.r[2] = argv_va;
  survivor->sig_reported = false;
  survivor->pt_reported = false;
  if (survivor->state == LwpState::kDead) {
    LwpSetState(survivor, LwpState::kRunning);
  }
  kt_.Emit(KtEvent::kExec, p->pid, survivor->lwpid, image.entry, 0);
  return Result<void>::Ok();
}

Result<Pid> Kernel::Spawn(const std::string& path, const std::vector<std::string>& argv,
                          const Creds& creds, Proc* parent) {
  Proc* p = AllocProc(Basename(path), creds, parent ? parent : init_);
  if (p == nullptr) {
    return Errno::kEAGAIN;  // pid space exhausted
  }

  // Standard descriptors on the console.
  auto of = std::make_shared<OpenFile>();
  of->vp = console_;
  of->oflags = O_RDWR;
  of->writable = true;
  for (int i = 0; i < 3; ++i) {
    (void)FdAlloc(p, of);
  }

  auto l = std::make_unique<Lwp>();
  l->lwpid = 1;
  l->proc = p;
  Lwp* lraw = l.get();
  p->lwps.push_back(std::move(l));
  EnrollLwp(lraw);

  auto r = ExecImage(p, path, argv.empty() ? std::vector<std::string>{path} : argv);
  if (!r.ok()) {
    FdCloseAll(p);
    FreeProc(p);
    return r.error();
  }
  return p->pid;
}

void Kernel::ExitProc(Proc* p, int wstatus) {
  if (p->state == Proc::State::kZombie) {
    return;
  }
  // Termination with the core-dump bit writes a post-mortem image first
  // (never for set-id processes — the same confidentiality rule /proc
  // enforces on live inspection).
  if (WIfSignaled(wstatus) && (wstatus & 0x80) && p->as && !p->setid) {
    DumpCore(p, WTermSig(wstatus));
  }
  for (auto& l : p->lwps) {
    LwpSetState(l.get(), LwpState::kDead);
  }
  FdCloseAll(p);

  if (p->is_vfork_child && !p->vfork_done) {
    p->vfork_done = true;
    Wakeup(p);
  }
  // Address-space teardown: a zombie has no user address space, so its
  // /proc file reports size zero and address-space I/O fails. The fault
  // accounting folds into the proc first so PIOCUSAGE on the zombie still
  // reports it (shared vfork spaces keep their counts with the parent).
  if (p->as && p->as.use_count() == 1) {
    p->minflt_base += p->as->counters().minor_faults;
    p->majflt_base += p->as->counters().major_faults;
    smp_.DropAs(p->as.get());
  }
  p->as.reset();

  // Reparent children to init; any that are already zombies will never be
  // waited for, so queue them for reaping. O(children of p): pop the
  // intrusive children list rather than scanning every process.
  while (Proc* q = p->pt_first_child) {
    ChildUnlink(q);
    q->ppid = init_->pid;
    ChildLink(init_, q);
    if (q->state == Proc::State::kZombie) {
      MarkReapable(q->pid);
    }
  }

  p->state = Proc::State::kZombie;
  p->exit_status = wstatus;
  // Queue for zombie slimming: the next Step() releases the audit ring,
  // descriptor-table capacity, and lwp storage (deferred because frames up
  // the stack may still hold Lwp pointers).
  slim_list_.push_back(p->pid);
  kt_.Emit(KtEvent::kExit, p->pid, 0, static_cast<uint32_t>(wstatus), 0);

  Proc* parent = FindProc(p->ppid);
  if (parent == nullptr || parent == init_) {
    MarkReapable(p->pid);
  }
  if (parent != nullptr) {
    SigInfo info;
    info.si_signo = SIGCLD;
    info.si_pid = p->pid;
    PostSignal(parent, SIGCLD, info);
    Wakeup(parent);
  }
  Wakeup(p);  // anything sleeping on this process (vfork, waiters)
  Wakeup(PollChan());
  ProcPollLevelMoved(p->pid);
}

void Kernel::DumpCore(Proc* p, int sig) {
  CoreDump core;
  core.sig = sig;
  core.status = BuildPrStatus(*this, p);
  core.psinfo = BuildPrPsinfo(*this, p);
  for (const auto& m : p->as->Maps()) {
    CoreDump::Segment seg;
    seg.vaddr = m.vaddr;
    seg.mflags = m.flags;
    seg.bytes.resize(m.size);
    auto n = p->as->PrRead(m.vaddr, seg.bytes);
    if (!n.ok()) {
      continue;
    }
    seg.bytes.resize(static_cast<size_t>(*n));
    core.segments.push_back(std::move(seg));
  }
  char path[32];
  std::snprintf(path, sizeof(path), "/tmp/core.%d", p->pid);
  (void)WriteFileAt(path, core.Serialize(), 0600, p->creds.ruid, p->creds.rgid);
}

void Kernel::ReapZombie(Proc* zombie, Proc* parent) {
  parent->cutime += zombie->utime + zombie->cutime;
  parent->cstime += zombie->stime + zombie->cstime;
  FreeProc(zombie);
}

}  // namespace svr4
