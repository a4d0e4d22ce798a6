// The flat SVR4 /proc: prlookup/preaddir, address-space I/O, the PIOC*
// front-end, and the security provisions. Operation semantics — access
// class, zombie behaviour, privilege rules, handlers — live in the shared
// control-plane table (procfs/ctl.h); Ioctl() only marshals into it.
#include <cstdint>
#include <cstdio>

#include "svr4proc/procfs/procfs.h"

#include "svr4proc/procfs/ctl.h"

namespace svr4 {
namespace {

// The /proc open-permission rules: "permission to open requires that both
// the uid and gid of the traced process match those of the controlling
// process; setuid and setgid processes can be opened only by the
// super-user".
Result<void> ProcOpenPermission(const Creds& cr, const Proc* target) {
  if (cr.IsSuper()) {
    return Result<void>::Ok();
  }
  if (target->setid) {
    return Errno::kEACCES;  // set-id processes: super-user only
  }
  if (cr.euid != target->creds.ruid || cr.egid != target->creds.rgid) {
    return Errno::kEACCES;  // both the uid and gid must match
  }
  return Result<void>::Ok();
}

}  // namespace

Result<int32_t> ParseProcId(const std::string& name) {
  if (name.empty()) {
    return Errno::kENOENT;
  }
  int32_t id = 0;
  for (char c : name) {
    if (c < '0' || c > '9') {
      return Errno::kENOENT;
    }
    int digit = c - '0';
    if (id > (INT32_MAX - digit) / 10) {
      return Errno::kENOENT;  // names no pid or lwp id there can be
    }
    id = id * 10 + digit;
  }
  return id;
}

std::string PidName(Pid pid) {
  char buf[12];  // "-2147483648" and its NUL: every Pid fits
  std::snprintf(buf, sizeof(buf), "%05d", pid);
  return buf;
}

Result<int32_t> ProcOpenMappedObject(Kernel& k, Proc* caller, Proc* target, bool use_exe,
                                     uint32_t vaddr) {
  VnodePtr vp;
  if (use_exe) {
    vp = target->exe;
  } else {
    if (!target->as) {
      return Errno::kEINVAL;
    }
    auto obj = target->as->ObjectAt(vaddr);
    auto* fo = dynamic_cast<FileVmObject*>(obj.get());
    if (fo == nullptr) {
      return Errno::kEINVAL;
    }
    vp = fo->vnode();
  }
  if (!vp) {
    return Errno::kEINVAL;
  }
  auto of = std::make_shared<OpenFile>();
  of->vp = vp;
  of->oflags = O_RDONLY;
  // The descriptor is read-only and bypasses path permission checks: a
  // debugger can reach symbol tables "without having to know pathnames".
  auto fd = k.FdAlloc(caller, of);
  if (!fd.ok()) {
    return fd.error();
  }
  return static_cast<int32_t>(*fd);
}

// --- Directory ---------------------------------------------------------------

Result<VAttr> ProcDirVnode::GetAttr() {
  VAttr a;
  a.type = VType::kDir;
  a.mode = 0555;
  a.size = kernel_->ProcCount();
  a.nlink = 2;
  return a;
}

Result<VnodePtr> ProcDirVnode::Lookup(const std::string& name) {
  auto pid = ParseProcId(name);
  if (!pid.ok() || kernel_->FindProc(*pid) == nullptr) {
    return Errno::kENOENT;
  }
  return std::static_pointer_cast<Vnode>(std::make_shared<ProcVnode>(kernel_, *pid));
}

Result<std::vector<DirEnt>> ProcDirVnode::Readdir() {
  std::vector<DirEnt> out;
  for (Pid pid : kernel_->AllPids()) {
    out.push_back(DirEnt{PidName(pid), VType::kProc});
  }
  return out;
}

Result<size_t> ProcDirVnode::ReaddirChunk(uint64_t* cookie, size_t max,
                                          std::vector<DirEnt>* out) {
  // The cookie is the next pid to consider, so the cursor survives any
  // amount of fork/exit between calls: a pid created behind the cursor is
  // skipped, one created ahead is picked up, and nothing repeats because
  // the cursor only moves forward. O(chunk), never O(population).
  Pid next = static_cast<Pid>(*cookie);
  size_t n = 0;
  while (n < max) {
    Pid pid = kernel_->NextAllocatedPid(next);
    if (pid < 0) {
      break;
    }
    out->push_back(DirEnt{PidName(pid), VType::kProc});
    ++n;
    next = pid + 1;
  }
  *cookie = static_cast<uint64_t>(next);
  return n;
}

// --- Counted /proc files -------------------------------------------------------

Result<void> PrCountedVnode::Open(OpenFile& of, const Creds& cr, Proc* caller) {
  Proc* p = kernel_->FindProc(pid_);
  if (p == nullptr) {
    return Errno::kENOENT;
  }
  SVR4_RETURN_IF_ERROR(Admit(of, p));
  SVR4_RETURN_IF_ERROR(ProcOpenPermission(cr, p));
  return kernel_->PrLedgerOpen(of, p, caller);
}

// --- Process file -------------------------------------------------------------

Result<VAttr> ProcVnode::GetAttr() {
  Proc* p = kernel_->FindProc(pid_);
  if (p == nullptr) {
    return Errno::kENOENT;
  }
  VAttr a;
  a.type = VType::kProc;
  a.mode = 0600;
  a.uid = p->creds.ruid;  // "the owner and group ... are the process's real
  a.gid = p->creds.rgid;  //  user-id and group-id"
  a.size = p->as ? p->as->VirtualSize() : 0;
  a.mtime = p->start_tick;
  return a;
}

Result<int64_t> ProcVnode::Read(OpenFile& of, uint64_t off, std::span<uint8_t> buf) {
  auto p = kernel_->PrLedgerTarget(of, pid_);
  if (!p.ok()) {
    return p.error();
  }
  if (!(*p)->as || off > 0xFFFFFFFFull) {
    return Errno::kEIO;
  }
  return (*p)->as->PrRead(static_cast<uint32_t>(off), buf);
}

Result<int64_t> ProcVnode::Write(OpenFile& of, uint64_t off, std::span<const uint8_t> buf) {
  auto p = kernel_->PrLedgerTarget(of, pid_);
  if (!p.ok()) {
    return p.error();
  }
  if (!(*p)->as || off > 0xFFFFFFFFull) {
    return Errno::kEIO;
  }
  return (*p)->as->PrWrite(static_cast<uint32_t>(off), buf);
}

Result<int32_t> ProcVnode::Ioctl(OpenFile& of, Proc* caller, uint32_t op, void* arg) {
  if (caller == nullptr || !caller->native) {
    // Control operands are host-memory pointers; only native controllers
    // may issue them in this simulation.
    return Errno::kEINVAL;
  }
  auto tp = kernel_->PrLedgerTarget(of, pid_);
  if (!tp.ok()) {
    return tp.error();
  }
  CtlCtx ctx;
  ctx.k = kernel_;
  ctx.p = *tp;
  ctx.caller = caller;
  ctx.native_caller = true;  // enforced above
  ctx.fd_writable = of.writable;
  ctx.source = CtlSource::kIoctl;
  return CtlDispatchPioc(ctx, op, arg);
}

Result<void> MountProcFs(Kernel& k, const std::string& path) {
  return k.vfs().Mount(path, std::make_shared<ProcDirVnode>(&k));
}

}  // namespace svr4
