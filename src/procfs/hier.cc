// The hierarchical /proc2: per-process directories, read(2)-based status
// files, write(2)-based structured control messages, and per-lwp
// subdirectories. Control-message semantics live in the shared control-plane
// table (procfs/ctl.h); ctl/lwpctl writes only hand the stream to it.
#include <algorithm>
#include <cstring>

#include "svr4proc/procfs/ctl.h"
#include "svr4proc/procfs/procfs.h"
#include "svr4proc/procfs/procfs2.h"

namespace svr4 {
namespace {

enum class Pr2Kind {
  kStatus, kPsinfo, kCred, kUsage, kSigact, kMap, kAs, kCtl, kCtlAudit, kTrace,
  kProf
};

// The files of a /proc2/<pid> directory, in Readdir order; the lwp
// subdirectory follows them.
struct Pr2File {
  const char* name;
  Pr2Kind kind;
};
constexpr Pr2File kPr2Files[] = {
    {"as", Pr2Kind::kAs},         {"ctl", Pr2Kind::kCtl},     {"status", Pr2Kind::kStatus},
    {"psinfo", Pr2Kind::kPsinfo}, {"map", Pr2Kind::kMap},     {"cred", Pr2Kind::kCred},
    {"sigact", Pr2Kind::kSigact}, {"usage", Pr2Kind::kUsage}, {"ctlaudit", Pr2Kind::kCtlAudit},
    {"trace", Pr2Kind::kTrace},   {"prof", Pr2Kind::kProf},
};

// Serves a read of a POD snapshot at the given offset.
template <typename T>
Result<int64_t> ServeStruct(const T& value, uint64_t off, std::span<uint8_t> buf) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (off >= sizeof(T)) {
    return int64_t{0};
  }
  size_t n = std::min<uint64_t>(buf.size(), sizeof(T) - off);
  std::memcpy(buf.data(), reinterpret_cast<const uint8_t*>(&value) + off, n);
  return static_cast<int64_t>(n);
}

Result<int64_t> ServeBytes(const std::vector<uint8_t>& bytes, uint64_t off,
                           std::span<uint8_t> buf) {
  if (off >= bytes.size()) {
    return int64_t{0};
  }
  size_t n = std::min<uint64_t>(buf.size(), bytes.size() - off);
  std::memcpy(buf.data(), bytes.data() + off, n);
  return static_cast<int64_t>(n);
}

std::vector<uint8_t> TextBytes(const std::string& text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

class Pr2FileVnode : public PrCountedVnode {
 public:
  Pr2FileVnode(Kernel* k, Pid pid, Pr2Kind kind) : PrCountedVnode(k, pid), kind_(kind) {}

  Result<VAttr> GetAttr() override {
    Proc* p = kernel_->FindProc(pid_);
    if (p == nullptr) {
      return Errno::kENOENT;
    }
    VAttr a;
    a.type = VType::kProc;
    a.uid = p->creds.ruid;
    a.gid = p->creds.rgid;
    switch (kind_) {
      case Pr2Kind::kCtl:
        a.mode = 0200;  // write-only control file
        break;
      case Pr2Kind::kAs:
        a.mode = 0600;
        a.size = p->as ? p->as->VirtualSize() : 0;
        break;
      default:
        a.mode = 0400;  // read-only status files
        break;
    }
    return a;
  }

  Result<int64_t> Read(OpenFile& of, uint64_t off, std::span<uint8_t> buf) override {
    if (kind_ == Pr2Kind::kTrace) {
      // The per-process trace is a filtered view of the *global* ring; the
      // records outlive the process, so the read deliberately bypasses the
      // process lookup — a descriptor held across the reap still serves the
      // reaped pid's history.
      return ServeBytes(kernel_->ktrace().Snapshot(pid_), off, buf);
    }
    auto tp = Target(of);
    if (!tp.ok()) {
      return tp.error();
    }
    Proc* p = *tp;
    switch (kind_) {
      case Pr2Kind::kStatus:
        return ServeStruct(BuildPrStatus(*kernel_, p), off, buf);
      case Pr2Kind::kPsinfo:
        return ServeStruct(BuildPrPsinfo(*kernel_, p), off, buf);
      case Pr2Kind::kCred:
        return ServeStruct(BuildPrCred(p), off, buf);
      case Pr2Kind::kUsage:
        return ServeStruct(BuildPrUsage(*kernel_, p), off, buf);
      case Pr2Kind::kSigact: {
        std::vector<uint8_t> bytes(sizeof(SigAction) * SigSet::kMaxMember);
        for (int s = 1; s <= SigSet::kMaxMember; ++s) {
          std::memcpy(bytes.data() + (s - 1) * sizeof(SigAction), &p->sig.actions[s],
                      sizeof(SigAction));
        }
        return ServeBytes(bytes, off, buf);
      }
      case Pr2Kind::kMap: {
        auto maps = BuildPrMap(p);
        std::vector<uint8_t> bytes(maps.size() * sizeof(PrMapEntry));
        std::memcpy(bytes.data(), maps.data(), bytes.size());
        return ServeBytes(bytes, off, buf);
      }
      case Pr2Kind::kAs: {
        if (!p->as || off > 0xFFFFFFFFull) {
          return Errno::kEIO;
        }
        return p->as->PrRead(static_cast<uint32_t>(off), buf);
      }
      case Pr2Kind::kCtlAudit:
        return ServeStruct(BuildPrCtlAudit(p), off, buf);
      case Pr2Kind::kProf:
        // Folded-stack profiler dump; an unprofiled process reads empty.
        return ServeBytes(TextBytes(kernel_->ProfText(*p)), off, buf);
      case Pr2Kind::kCtl:
        return Errno::kEACCES;
      case Pr2Kind::kTrace:
        break;  // handled above, before the process lookup
    }
    return Errno::kEINVAL;
  }

  Result<int64_t> Write(OpenFile& of, uint64_t off, std::span<const uint8_t> buf) override {
    auto tp = Target(of);
    if (!tp.ok()) {
      return tp.error();
    }
    Proc* p = *tp;
    switch (kind_) {
      case Pr2Kind::kAs: {
        if (!p->as || off > 0xFFFFFFFFull) {
          return Errno::kEIO;
        }
        return p->as->PrWrite(static_cast<uint32_t>(off), buf);
      }
      case Pr2Kind::kCtl:
        return RunCtlStream(*kernel_, p, nullptr, buf, kernel_->PrLedgerOpener(of));
      default:
        return Errno::kEACCES;
    }
  }

 private:
  // ctl is write-only and the status files are read-only; as is either.
  Result<void> Admit(const OpenFile& of, Proc* /*target*/) override {
    if (kind_ != Pr2Kind::kAs && of.writable != (kind_ == Pr2Kind::kCtl)) {
      return Errno::kEACCES;
    }
    return Result<void>::Ok();
  }

  // The ledger's target; a zombie keeps only psinfo, cred, usage and
  // ctlaudit.
  Result<Proc*> Target(const OpenFile& of) const {
    auto p = kernel_->PrLedgerTarget(of, pid_);
    if (p.ok() && (*p)->state == Proc::State::kZombie && kind_ != Pr2Kind::kPsinfo &&
        kind_ != Pr2Kind::kCred && kind_ != Pr2Kind::kUsage &&
        kind_ != Pr2Kind::kCtlAudit) {
      return Errno::kENOENT;
    }
    return p;
  }

  Pr2Kind kind_;
};

class Pr2LwpFileVnode : public PrCountedVnode {
 public:
  Pr2LwpFileVnode(Kernel* k, Pid pid, int lwpid, bool ctl)
      : PrCountedVnode(k, pid), lwpid_(lwpid), ctl_(ctl) {}

  Result<VAttr> GetAttr() override {
    Proc* p = kernel_->FindProc(pid_);
    if (p == nullptr || p->FindLwp(lwpid_) == nullptr) {
      return Errno::kENOENT;
    }
    VAttr a;
    a.type = VType::kProc;
    a.uid = p->creds.ruid;
    a.gid = p->creds.rgid;
    a.mode = ctl_ ? 0200 : 0400;
    return a;
  }

  Result<int64_t> Read(OpenFile& of, uint64_t off, std::span<uint8_t> buf) override {
    if (ctl_) {
      return Errno::kEACCES;
    }
    auto l = TargetLwp(of);
    if (!l.ok()) {
      return l.error();
    }
    return ServeStruct(BuildPrLwpStatus((*l)->proc, *l), off, buf);
  }

  Result<int64_t> Write(OpenFile& of, uint64_t /*off*/,
                        std::span<const uint8_t> buf) override {
    if (!ctl_) {
      return Errno::kEACCES;
    }
    auto l = TargetLwp(of);
    if (!l.ok()) {
      return l.error();
    }
    return RunCtlStream(*kernel_, (*l)->proc, *l, buf, kernel_->PrLedgerOpener(of));
  }

 private:
  Result<void> Admit(const OpenFile& of, Proc* target) override {
    if (target->FindLwp(lwpid_) == nullptr) {
      return Errno::kENOENT;
    }
    if (of.writable != ctl_) {
      return Errno::kEACCES;  // lwpctl is write-only, lwpstatus read-only
    }
    return Result<void>::Ok();
  }

  // The ledger's target, then the lwp this file names.
  Result<Lwp*> TargetLwp(const OpenFile& of) const {
    auto p = kernel_->PrLedgerTarget(of, pid_);
    if (!p.ok()) {
      return p.error();
    }
    Lwp* l = (*p)->FindLwp(lwpid_);
    if (l == nullptr) {
      return Errno::kENOENT;
    }
    return l;
  }

  int lwpid_;
  bool ctl_;
};

class Pr2LwpDirVnode : public Vnode {
 public:
  Pr2LwpDirVnode(Kernel* k, Pid pid, int lwpid) : kernel_(k), pid_(pid), lwpid_(lwpid) {}

  VType type() const override { return VType::kDir; }
  Result<VAttr> GetAttr() override {
    VAttr a;
    a.type = VType::kDir;
    a.mode = 0500;
    return a;
  }
  Result<VnodePtr> Lookup(const std::string& name) override {
    if (name == "lwpstatus") {
      return VnodePtr(std::make_shared<Pr2LwpFileVnode>(kernel_, pid_, lwpid_, false));
    }
    if (name == "lwpctl") {
      return VnodePtr(std::make_shared<Pr2LwpFileVnode>(kernel_, pid_, lwpid_, true));
    }
    return Errno::kENOENT;
  }
  Result<std::vector<DirEnt>> Readdir() override {
    return std::vector<DirEnt>{{"lwpstatus", VType::kProc}, {"lwpctl", VType::kProc}};
  }

 private:
  Kernel* kernel_;
  Pid pid_;
  int lwpid_;
};

class Pr2LwpListVnode : public Vnode {
 public:
  Pr2LwpListVnode(Kernel* k, Pid pid) : kernel_(k), pid_(pid) {}

  VType type() const override { return VType::kDir; }
  Result<VAttr> GetAttr() override {
    VAttr a;
    a.type = VType::kDir;
    a.mode = 0500;
    return a;
  }
  Result<VnodePtr> Lookup(const std::string& name) override {
    Proc* p = kernel_->FindProc(pid_);
    auto id = ParseProcId(name);
    if (p == nullptr || !id.ok() || p->FindLwp(*id) == nullptr) {
      return Errno::kENOENT;
    }
    return VnodePtr(std::make_shared<Pr2LwpDirVnode>(kernel_, pid_, *id));
  }
  Result<std::vector<DirEnt>> Readdir() override {
    Proc* p = kernel_->FindProc(pid_);
    if (p == nullptr) {
      return Errno::kENOENT;
    }
    std::vector<DirEnt> out;
    for (const auto& l : p->lwps) {
      if (l->state != LwpState::kDead) {
        out.push_back(DirEnt{std::to_string(l->lwpid), VType::kDir});
      }
    }
    return out;
  }

 private:
  Kernel* kernel_;
  Pid pid_;
};

// "The thread-ids of sibling threads appear as sub-directories within a
// hierarchy that has the process-id at the top."
class Pr2ProcDirVnode : public Vnode {
 public:
  Pr2ProcDirVnode(Kernel* k, Pid pid) : kernel_(k), pid_(pid) {}

  VType type() const override { return VType::kDir; }
  Result<VAttr> GetAttr() override {
    Proc* p = kernel_->FindProc(pid_);
    if (p == nullptr) {
      return Errno::kENOENT;
    }
    VAttr a;
    a.type = VType::kDir;
    a.mode = 0500;
    a.uid = p->creds.ruid;
    a.gid = p->creds.rgid;
    return a;
  }
  Result<VnodePtr> Lookup(const std::string& name) override {
    if (kernel_->FindProc(pid_) == nullptr) {
      return Errno::kENOENT;
    }
    if (name == "lwp") {
      return VnodePtr(std::make_shared<Pr2LwpListVnode>(kernel_, pid_));
    }
    for (const Pr2File& f : kPr2Files) {
      if (name == f.name) {
        return VnodePtr(std::make_shared<Pr2FileVnode>(kernel_, pid_, f.kind));
      }
    }
    return Errno::kENOENT;
  }
  Result<std::vector<DirEnt>> Readdir() override {
    std::vector<DirEnt> out;
    for (const Pr2File& f : kPr2Files) {
      out.push_back(DirEnt{f.name, VType::kProc});
    }
    out.push_back(DirEnt{"lwp", VType::kDir});
    return out;
  }

 private:
  Kernel* kernel_;
  Pid pid_;
};

// The process-independent files of /proc2/kernel, in Readdir order. Each
// reads as its rendering, made afresh by every stat and by each descriptor's
// read at offset 0; psall, whose reads are windowed, has no renderer.
using Pr2Render = std::vector<uint8_t> (*)(Kernel& k);
struct Pr2KernelFile {
  const char* name;
  Pr2Render render;
};
constexpr Pr2KernelFile kPr2KernelFiles[] = {
    // The armed fault plan and its per-site hit counters.
    {"faults",
     [](Kernel& k) {
       FaultInjector* finj = k.fault_injector();
       return TextBytes(finj ? finj->Describe() : "faults: off\n");
     }},
    // A binary snapshot of the global event ring: KtSnapHeader, then the
    // records oldest first. A disabled or never-armed ring reads empty.
    {"trace", [](Kernel& k) { return k.ktrace().Snapshot(); }},
    // The metrics registry as text, one line per counter or histogram, with
    // the fault injector's per-site counters folded in from their home.
    {"metrics",
     [](Kernel& k) {
       return TextBytes(k.ktrace().MetricsText(k.fault_injector()) +
                        k.ExecEngineMetricsText());
     }},
    {"psall", nullptr},
    // Per-CPU scheduler and IPI accounting: run-queue depth, quanta,
    // instructions, steals, context switches, shootdowns (DESIGN.md §13).
    {"cpus", [](Kernel& k) { return TextBytes(k.CpuStatsText()); }},
    // procd's span and occupancy registry in the metrics style. The kernel
    // has no procd dependency: a running ProcdServer registers a renderer
    // with SetProcdStatsProvider, and without one the file reads "procd off".
    {"procd",
     [](Kernel& k) {
       const auto& provider = k.procd_stats_provider();
       return TextBytes(provider ? provider() : "procd off\n");
     }},
};

// A read-only /proc2/kernel file. No process is involved, so it reads alike
// whatever the process table holds.
class Pr2KernelFileVnode : public Vnode {
 public:
  Pr2KernelFileVnode(Kernel* k, Pr2Render render) : kernel_(k), render_(render) {}

  VType type() const override { return VType::kProc; }
  Result<VAttr> GetAttr() override {
    VAttr a;
    a.type = VType::kProc;
    a.mode = 0444;
    a.size = render_(*kernel_).size();
    return a;
  }
  Result<void> Open(OpenFile& of, const Creds& /*cr*/, Proc* /*caller*/) override {
    if (of.writable) {
      return Errno::kEACCES;
    }
    return Result<void>::Ok();
  }
  // Later offsets are served from the rendering the read at offset 0 made
  // (each open has its own vnode), so a file read in several read(2) calls
  // is one text even while what it renders moves between the calls.
  Result<int64_t> Read(OpenFile& /*of*/, uint64_t off, std::span<uint8_t> buf) override {
    if (off == 0 || text_.empty()) {
      text_ = render_(*kernel_);
    }
    return ServeBytes(text_, off, buf);
  }

 protected:
  Kernel* kernel_;

 private:
  Pr2Render render_;
  std::vector<uint8_t> text_;
};

// /proc2/kernel/psall: the bulk population snapshot as packed PrPsinfo
// records, ascending pid order, zombies included — the read(2) face of
// PIOCPSALL. One open+read covers the whole process table; the per-pid
// alternative costs four name resolutions per process.
class Pr2PsallVnode : public Pr2KernelFileVnode {
 public:
  explicit Pr2PsallVnode(Kernel* k) : Pr2KernelFileVnode(k, nullptr) {}

  Result<VAttr> GetAttr() override {
    VAttr a;
    a.type = VType::kProc;
    a.mode = 0444;
    a.size = kernel_->ProcCount() * sizeof(PrPsinfo);
    return a;
  }
  Result<int64_t> Read(OpenFile& /*of*/, uint64_t off, std::span<uint8_t> buf) override {
    // Rebuilt per read: each read(2) is a fresh snapshot of the records it
    // covers (one rendering per descriptor, as the other kernel-dir files
    // serve, would here be the whole table). A reader paging through with
    // a growing offset sees each record torn-free (PrPsinfo is trivially
    // copyable and records are only appended in pid order), though procs
    // that exit mid-pagination may shift later records — same contract as
    // ps(1) over readdir.
    //
    // pread-style windowing: only the records the [off, off+len) window
    // touches are built. The scan still walks earlier pids to find the
    // window start (pid order, not density, determines record position),
    // but skips the BuildPrPsinfo cost — at 10^6 processes that is the
    // difference between copying 100 bytes and marshalling tens of MB.
    constexpr uint64_t kRow = sizeof(PrPsinfo);
    uint64_t first_row = off / kRow;
    uint64_t last_row = (off + buf.size() + kRow - 1) / kRow;  // exclusive
    std::vector<uint8_t> window;
    window.reserve(static_cast<size_t>(last_row - first_row) * kRow);
    uint64_t row = 0;
    for (Pid pid = kernel_->NextAllocatedPid(0);
         pid >= 0 && row < last_row; pid = kernel_->NextAllocatedPid(pid + 1)) {
      Proc* p = kernel_->FindProc(pid);
      if (p == nullptr) {
        continue;
      }
      if (row >= first_row) {
        PrPsinfo ps = BuildPrPsinfo(*kernel_, p);
        const auto* raw = reinterpret_cast<const uint8_t*>(&ps);
        window.insert(window.end(), raw, raw + sizeof(ps));
      }
      ++row;
    }
    // Serve from the window's own origin.
    uint64_t woff = off - std::min(off, first_row * kRow);
    return ServeBytes(window, woff, buf);
  }
};

// /proc2/kernel: kernel-wide (process-independent) introspection files.
class Pr2KernelDirVnode : public Vnode {
 public:
  explicit Pr2KernelDirVnode(Kernel* k) : kernel_(k) {}

  VType type() const override { return VType::kDir; }
  Result<VAttr> GetAttr() override {
    VAttr a;
    a.type = VType::kDir;
    a.mode = 0555;
    a.nlink = 2;
    return a;
  }
  Result<VnodePtr> Lookup(const std::string& name) override {
    for (const Pr2KernelFile& f : kPr2KernelFiles) {
      if (name == f.name) {
        return f.render != nullptr
                   ? VnodePtr(std::make_shared<Pr2KernelFileVnode>(kernel_, f.render))
                   : VnodePtr(std::make_shared<Pr2PsallVnode>(kernel_));
      }
    }
    return Errno::kENOENT;
  }
  Result<std::vector<DirEnt>> Readdir() override {
    std::vector<DirEnt> out;
    for (const Pr2KernelFile& f : kPr2KernelFiles) {
      out.push_back(DirEnt{f.name, VType::kProc});
    }
    return out;
  }

 private:
  Kernel* kernel_;
};

}  // namespace

Result<VAttr> Pr2RootVnode::GetAttr() {
  VAttr a;
  a.type = VType::kDir;
  a.mode = 0555;
  a.size = kernel_->ProcCount();
  a.nlink = 2;
  return a;
}

Result<VnodePtr> Pr2RootVnode::Lookup(const std::string& name) {
  if (name == "kernel") {
    return VnodePtr(std::make_shared<Pr2KernelDirVnode>(kernel_));
  }
  auto pid = ParseProcId(name);
  if (!pid.ok() || kernel_->FindProc(*pid) == nullptr) {
    return Errno::kENOENT;
  }
  return VnodePtr(std::make_shared<Pr2ProcDirVnode>(kernel_, *pid));
}

Result<std::vector<DirEnt>> Pr2RootVnode::Readdir() {
  std::vector<DirEnt> out;
  out.push_back(DirEnt{"kernel", VType::kDir});
  for (Pid pid : kernel_->AllPids()) {
    out.push_back(DirEnt{PidName(pid), VType::kDir});
  }
  return out;
}

Result<size_t> Pr2RootVnode::ReaddirChunk(uint64_t* cookie, size_t max,
                                          std::vector<DirEnt>* out) {
  // Cookie 0 = start (emit "kernel" first); otherwise cookie-1 is the next
  // pid to consider. Same churn-stability contract as the flat root: the
  // cursor is a pid, so entries never repeat and survivors always appear.
  size_t n = 0;
  if (*cookie == 0 && n < max) {
    out->push_back(DirEnt{"kernel", VType::kDir});
    ++n;
    *cookie = 1;
  }
  Pid next = static_cast<Pid>(*cookie - 1);
  while (n < max) {
    Pid pid = kernel_->NextAllocatedPid(next);
    if (pid < 0) {
      break;
    }
    out->push_back(DirEnt{PidName(pid), VType::kDir});
    ++n;
    next = pid + 1;
  }
  *cookie = static_cast<uint64_t>(next) + 1;
  return n;
}

Result<void> MountProcFs2(Kernel& k, const std::string& path) {
  return k.vfs().Mount(path, std::make_shared<Pr2RootVnode>(&k));
}

}  // namespace svr4
