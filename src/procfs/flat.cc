// The counted /proc files and the pid roots: the table with one row per
// file, the one vnode class that serves every row, the root class that
// serves /proc and /proc2, and the security provisions. Operation
// semantics (access class, zombie behaviour, privilege rules, handlers)
// live in the shared control-plane table (procfs/ctl.h): the flat file's
// ioctls, the ctl files' writes and the status files' reads all reach it.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>

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

// How a counted file may be used: its mode, which is also its open rule. A
// descriptor with the write right (O_WRONLY or O_RDWR) needs the owner's
// write bit, one without it the owner's read bit.
enum class PrAccess : uint32_t { kRead = 0400, kWrite = 0200, kReadWrite = 0600 };

// What a file with no query row answers once its process is a zombie.
enum class PrLife : uint8_t {
  kLive,     // nothing: ENOENT
  kZombie,   // what it answers on a live process
  kRecords,  // it reads records that outlive the process, so it reads no
             // process at all: a descriptor held across the reap still
             // serves the reaped pid's records
};

// What a counted file's reader or writer acts on.
struct PrIo {
  Kernel* k;
  Pid pid;
  Proc* p;              // null for a kRecords file
  Lwp* lwp;             // the lwp an lwp file names; null otherwise
  const OpenFile* of;
};
using PrReader = Result<int64_t> (*)(const PrIo& io, uint64_t off, std::span<uint8_t> buf);
using PrWriter = Result<int64_t> (*)(const PrIo& io, uint64_t off,
                                     std::span<const uint8_t> buf);

// One counted /proc file.
struct PrFile {
  const char* name;  // "" for the flat file, which its pid names
  PrAccess access;
  PrScope scope;
  // A status file: the flat PIOC* query it is the read(2) face of. Its
  // reads run that row through the control-plane core, so the row's
  // zombie_ok is the file's zombie rule. 0 for every other file.
  uint32_t pioc = 0;
  PrLife life = PrLife::kLive;  // a file with no query row: its zombie rule
  PrReader read = nullptr;      // ... and its reader and writer, if any
  PrWriter write = nullptr;
};

// Address-space I/O at the virtual address the offset names, for the flat
// file and as. A process without an address space (a zombie) fails EIO.
Result<int64_t> ReadAs(const PrIo& io, uint64_t off, std::span<uint8_t> buf) {
  if (!io.p->as || off > 0xFFFFFFFFull) {
    return Errno::kEIO;
  }
  return io.p->as->PrRead(static_cast<uint32_t>(off), buf);
}

Result<int64_t> WriteAs(const PrIo& io, uint64_t off, std::span<const uint8_t> buf) {
  if (!io.p->as || off > 0xFFFFFFFFull) {
    return Errno::kEIO;
  }
  return io.p->as->PrWrite(static_cast<uint32_t>(off), buf);
}

// ctl and lwpctl: the message stream, scoped to the lwp for lwpctl, on
// behalf of the descriptor's opener.
Result<int64_t> WriteCtl(const PrIo& io, uint64_t /*off*/, std::span<const uint8_t> buf) {
  return RunCtlStream(*io.k, io.p, io.lwp, buf, io.k->PrLedgerOpener(*io.of));
}

Result<int64_t> ReadMap(const PrIo& io, uint64_t off, std::span<uint8_t> buf) {
  std::vector<PrMapEntry> maps = BuildPrMap(io.p);
  return PrServe(maps.data(), maps.size() * sizeof(PrMapEntry), off, buf);
}

Result<int64_t> ReadLwpStatus(const PrIo& io, uint64_t off, std::span<uint8_t> buf) {
  PrLwpStatus st = BuildPrLwpStatus(io.p, io.lwp);
  return PrServe(&st, sizeof(st), off, buf);
}

// The event ring filtered to the pid. The ring is global and its records
// outlive the process.
Result<int64_t> ReadTrace(const PrIo& io, uint64_t off, std::span<uint8_t> buf) {
  std::vector<uint8_t> bytes = io.k->ktrace().Snapshot(io.pid);
  return PrServe(bytes.data(), bytes.size(), off, buf);
}

// The folded-stack profiler dump; an unprofiled process reads empty.
Result<int64_t> ReadProf(const PrIo& io, uint64_t off, std::span<uint8_t> buf) {
  std::string text = io.k->ProfText(*io.p);
  return PrServe(text.data(), text.size(), off, buf);
}

// The counted /proc files. Each directory lists its scope's rows in this
// order.
constexpr PrFile kPrFiles[] = {
    // The flat file: the address space at offset = vaddr, and every PIOC*
    // ioctl (each with its own zombie rule; reads and writes fail EIO on a
    // zombie, which has no address space).
    {"", PrAccess::kReadWrite, PrScope::kFlat, 0, PrLife::kZombie, ReadAs, WriteAs},
    {"as", PrAccess::kReadWrite, PrScope::kProc, 0, PrLife::kLive, ReadAs, WriteAs},
    {"ctl", PrAccess::kWrite, PrScope::kProc, 0, PrLife::kLive, nullptr, WriteCtl},
    {"status", PrAccess::kRead, PrScope::kProc, PIOCSTATUS},
    {"psinfo", PrAccess::kRead, PrScope::kProc, PIOCPSINFO},
    {"map", PrAccess::kRead, PrScope::kProc, 0, PrLife::kLive, ReadMap},
    {"cred", PrAccess::kRead, PrScope::kProc, PIOCCRED},
    {"sigact", PrAccess::kRead, PrScope::kProc, PIOCACTION},
    {"usage", PrAccess::kRead, PrScope::kProc, PIOCUSAGE},
    {"ctlaudit", PrAccess::kRead, PrScope::kProc, PIOCAUDIT},
    {"trace", PrAccess::kRead, PrScope::kProc, 0, PrLife::kRecords, ReadTrace},
    {"prof", PrAccess::kRead, PrScope::kProc, 0, PrLife::kLive, ReadProf},
    {"lwpstatus", PrAccess::kRead, PrScope::kLwp, 0, PrLife::kLive, ReadLwpStatus},
    {"lwpctl", PrAccess::kWrite, PrScope::kLwp, 0, PrLife::kLive, nullptr, WriteCtl},
};
constexpr const PrFile& kFlatFile = kPrFiles[0];
static_assert(kFlatFile.scope == PrScope::kFlat);

// Every counted /proc file, served from its row. Its descriptors open,
// close, poll and validate through the kernel's /proc open ledger
// (Kernel::PrLedger*), so the paper's descriptor rules hold for all of them
// alike.
class PrFileVnode : public Vnode {
 public:
  PrFileVnode(Kernel* k, Pid pid, int lwpid, const PrFile& f)
      : kernel_(k), pid_(pid), lwpid_(lwpid), f_(f) {}

  VType type() const override { return VType::kProc; }
  int32_t PrCountedTarget() const override { return pid_; }

  Result<VAttr> GetAttr() override {
    Proc* p = Find();
    if (p == nullptr) {
      return Errno::kENOENT;
    }
    VAttr a;
    a.type = VType::kProc;
    a.mode = static_cast<uint32_t>(f_.access);
    a.uid = p->creds.ruid;  // "the owner and group ... are the process's real
    a.gid = p->creds.rgid;  //  user-id and group-id"
    if (f_.read == ReadAs) {
      a.size = p->as ? p->as->VirtualSize() : 0;  // the files that are the address space
    }
    if (f_.scope == PrScope::kFlat) {
      a.mtime = p->start_tick;
    }
    return a;
  }

  // ENOENT once the target (or its lwp) is gone; then the access rule, the
  // paper's open permission, and Kernel::PrLedgerOpen.
  Result<void> Open(OpenFile& of, const Creds& cr, Proc* caller) override {
    Proc* p = Find();
    if (p == nullptr) {
      return Errno::kENOENT;
    }
    if ((static_cast<uint32_t>(f_.access) & (of.writable ? 0200 : 0400)) == 0) {
      return Errno::kEACCES;
    }
    SVR4_RETURN_IF_ERROR(ProcOpenPermission(cr, p));
    return kernel_->PrLedgerOpen(of, p, caller);
  }
  void Close(OpenFile& of) override { kernel_->PrLedgerClose(of, pid_); }
  int Poll(OpenFile& of) override { return kernel_->PrLedgerPoll(of, pid_); }

  Result<int64_t> Read(OpenFile& of, uint64_t off, std::span<uint8_t> buf) override {
    auto io = Target(of);
    if (!io.ok()) {
      return io.error();
    }
    if (f_.pioc != 0) {
      CtlCtx ctx;
      ctx.k = kernel_;
      ctx.p = io->p;
      ctx.fd_writable = of.writable;
      return CtlReadPioc(ctx, f_.pioc, off, buf);
    }
    return f_.read != nullptr ? f_.read(*io, off, buf) : Errno::kEACCES;
  }

  Result<int64_t> Write(OpenFile& of, uint64_t off, std::span<const uint8_t> buf) override {
    auto io = Target(of);
    if (!io.ok()) {
      return io.error();
    }
    return f_.write != nullptr ? f_.write(*io, off, buf) : Errno::kEACCES;
  }

  Result<int32_t> Ioctl(OpenFile& of, Proc* caller, uint32_t op, void* arg) override {
    if (f_.scope != PrScope::kFlat) {
      return Errno::kENOTTY;  // /proc2 controls by ctl messages, not ioctls
    }
    if (caller == nullptr || !caller->native) {
      // Control operands are host-memory pointers; only native controllers
      // may issue them in this simulation.
      return Errno::kEINVAL;
    }
    auto p = kernel_->PrLedgerTarget(of, pid_);
    if (!p.ok()) {
      return p.error();
    }
    CtlCtx ctx;
    ctx.k = kernel_;
    ctx.p = *p;
    ctx.caller = caller;
    ctx.native_caller = true;  // enforced above
    ctx.fd_writable = of.writable;
    return CtlDispatchPioc(ctx, op, arg);
  }

 private:
  // The file's process, and for an lwp file its lwp too; null if gone.
  Proc* Find() const {
    Proc* p = kernel_->FindProc(pid_);
    if (p != nullptr && f_.scope == PrScope::kLwp && p->FindLwp(lwpid_) == nullptr) {
      return nullptr;
    }
    return p;
  }

  // What a read or write acts on: the ledger's target, held to the file's
  // zombie rule (a status file's query row applies its own), and the lwp an
  // lwp file names.
  Result<PrIo> Target(const OpenFile& of) const {
    PrIo io{kernel_, pid_, nullptr, nullptr, &of};
    if (f_.life == PrLife::kRecords) {
      return io;
    }
    auto p = kernel_->PrLedgerTarget(of, pid_);
    if (!p.ok()) {
      return p.error();
    }
    io.p = *p;
    if (io.p->state == Proc::State::kZombie && f_.pioc == 0 && f_.life == PrLife::kLive) {
      return Errno::kENOENT;
    }
    if (f_.scope == PrScope::kLwp && (io.lwp = io.p->FindLwp(lwpid_)) == nullptr) {
      return Errno::kENOENT;
    }
    return io;
  }

  Kernel* kernel_;
  Pid pid_;
  int lwpid_;
  const PrFile& f_;
};

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

Result<int64_t> PrServe(const void* data, size_t size, uint64_t off, std::span<uint8_t> buf) {
  if (off >= size) {
    return int64_t{0};
  }
  size_t n = std::min<uint64_t>(buf.size(), size - off);
  std::memcpy(buf.data(), static_cast<const uint8_t*>(data) + off, n);
  return static_cast<int64_t>(n);
}

std::vector<PrEntry> PrFileEntries(PrScope scope) {
  std::vector<PrEntry> out;
  for (const PrFile& f : kPrFiles) {
    if (f.scope == scope) {
      out.push_back({DirEnt{f.name, VType::kProc}, [&f](Kernel* k, Pid pid, int lwpid) {
                       return VnodePtr(std::make_shared<PrFileVnode>(k, pid, lwpid, f));
                     }});
    }
  }
  return out;
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

// --- The pid roots -------------------------------------------------------------

Result<VAttr> PrRootVnode::GetAttr() {
  VAttr a;
  a.type = VType::kDir;
  a.mode = 0555;
  a.size = kernel_->ProcCount();
  a.nlink = 2;
  return a;
}

Result<VnodePtr> PrRootVnode::Lookup(const std::string& name) {
  for (const PrEntry& e : lead_) {
    if (name == e.ent.name) {
      return e.make(kernel_, -1, 0);
    }
  }
  auto pid = ParseProcId(name);
  if (!pid.ok() || kernel_->FindProc(*pid) == nullptr) {
    return Errno::kENOENT;
  }
  return make_pid_(kernel_, *pid, 0);
}

Result<std::vector<DirEnt>> PrRootVnode::Readdir() {
  std::vector<DirEnt> out;
  uint64_t cookie = 0;
  SVR4_RETURN_IF_ERROR(ReaddirChunk(&cookie, SIZE_MAX, &out));
  return out;
}

Result<size_t> PrRootVnode::ReaddirChunk(uint64_t* cookie, size_t max,
                                         std::vector<DirEnt>* out) {
  // A cookie below the number of leading entries is the next of them to
  // list; past them, it is that number plus the next pid to consider. So the
  // cursor survives any amount of fork/exit between calls: a pid created
  // behind the cursor is skipped, one created ahead is picked up, and
  // nothing repeats because the cursor only moves forward. O(chunk), never
  // O(population).
  size_t n = 0;
  for (; *cookie < lead_.size() && n < max; ++*cookie, ++n) {
    out->push_back(lead_[*cookie].ent);
  }
  if (n == max) {
    return n;
  }
  Pid next = static_cast<Pid>(*cookie - lead_.size());
  for (; n < max; ++n) {
    Pid pid = kernel_->NextAllocatedPid(next);
    if (pid < 0) {
      break;
    }
    out->push_back(DirEnt{PidName(pid), pid_type_});
    next = pid + 1;
  }
  *cookie = static_cast<uint64_t>(next) + lead_.size();
  return n;
}

Result<void> MountProcFs(Kernel& k, const std::string& path) {
  return k.vfs().Mount(path, std::make_shared<PrRootVnode>(
                                 &k, VType::kProc, [](Kernel* kp, Pid pid, int /*lwpid*/) {
                                   return VnodePtr(
                                       std::make_shared<PrFileVnode>(kp, pid, 0, kFlatFile));
                                 }));
}

}  // namespace svr4
