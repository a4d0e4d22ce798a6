// The hierarchical /proc2: per-process directories, read(2)-based status
// files, write(2)-based structured control messages, and per-lwp
// subdirectories. Control-message semantics live in the shared control-plane
// table (procfs/ctl.h); ctl/lwpctl writes only hand the stream to it.
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "svr4proc/procfs/ctl.h"
#include "svr4proc/procfs/procfs.h"
#include "svr4proc/procfs/procfs2.h"

namespace svr4 {
namespace {

// Per-descriptor state: who opened it (blocking ctl messages need to know
// whether the opener is a native controller) and exclusivity accounting.
struct Pr2Priv {
  Proc* opener = nullptr;
  bool counted_writable = false;
};

enum class Pr2Kind {
  kStatus, kPsinfo, kCred, kUsage, kSigact, kMap, kAs, kCtl, kCtlAudit, kTrace,
  kProf
};

std::string PidName(Pid pid) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "%05d", pid);
  return buf;
}

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

class Pr2FileVnode : public Vnode {
 public:
  Pr2FileVnode(Kernel* k, Pid pid, Pr2Kind kind) : kernel_(k), pid_(pid), kind_(kind) {}

  VType type() const override { return VType::kProc; }

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

  Result<void> Open(OpenFile& of, const Creds& cr, Proc* caller) override {
    Proc* p = kernel_->FindProc(pid_);
    if (p == nullptr) {
      return Errno::kENOENT;
    }
    SVR4_RETURN_IF_ERROR(ProcOpenPermission(cr, p));
    bool want_write = of.writable;
    if (kind_ == Pr2Kind::kCtl && !want_write) {
      return Errno::kEACCES;  // ctl is write-only
    }
    if (want_write && kind_ != Pr2Kind::kCtl && kind_ != Pr2Kind::kAs) {
      return Errno::kEACCES;  // status files are read-only
    }
    auto priv = std::make_shared<Pr2Priv>();
    priv->opener = caller;
    if (want_write) {
      if (p->trace.excl) {
        return Errno::kEBUSY;
      }
      if (of.oflags & O_EXCL) {
        if (p->trace.writable_opens > 0) {
          return Errno::kEBUSY;
        }
        p->trace.excl = true;
      }
      ++p->trace.writable_opens;
      priv->counted_writable = true;
    }
    ++p->trace.total_opens;
    of.pr_gen = p->trace.gen;
    of.pr_ident = p->ident;
    of.priv = priv;
    kernel_->ktrace().Emit(
        KtEvent::kProcOpen, p->pid, 0,
        caller != nullptr ? static_cast<uint32_t>(caller->pid) : 0,
        want_write ? 1 : 0);
    return Result<void>::Ok();
  }

  void Close(OpenFile& of) override {
    Proc* p = kernel_->FindProc(pid_);
    if (p == nullptr) {
      return;
    }
    if (of.pr_ident != p->ident) {
      // The pid was reused: the successor's ledger never counted this
      // descriptor, so its close must leave it alone.
      return;
    }
    auto* priv = static_cast<Pr2Priv*>(of.priv.get());
    kernel_->ktrace().Emit(
        KtEvent::kProcClose, p->pid, 0,
        priv != nullptr && priv->opener != nullptr
            ? static_cast<uint32_t>(priv->opener->pid)
            : 0,
        priv != nullptr && priv->counted_writable ? 1 : 0);
    bool counted_writable = priv != nullptr && priv->counted_writable;
    if (of.pr_gen != p->trace.gen) {
      // Invalidated by a set-id exec: drain the stale ledger only (shared
      // rule with the flat implementation); the live incarnation's counters
      // and exclusivity are off limits.
      kernel_->PrStaleClose(p, counted_writable);
      return;
    }
    if ((of.oflags & O_EXCL) && counted_writable) {
      p->trace.excl = false;
    }
    --p->trace.total_opens;
    if (counted_writable) {
      if (--p->trace.writable_opens == 0) {
        kernel_->PrLastClose(p);
      }
    }
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
      case Pr2Kind::kProf: {
        // Folded-stack profiler dump; an unprofiled process reads empty.
        std::string text = kernel_->ProfText(*p);
        return ServeBytes(std::vector<uint8_t>(text.begin(), text.end()), off,
                          buf);
      }
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
      case Pr2Kind::kCtl: {
        auto* priv = static_cast<Pr2Priv*>(of.priv.get());
        bool native = priv != nullptr && priv->opener != nullptr && priv->opener->native;
        return RunCtlStream(*kernel_, p, nullptr, buf, native,
                            priv ? priv->opener : nullptr);
      }
      default:
        return Errno::kEACCES;
    }
  }

  int Poll(OpenFile& of) override {
    Proc* p = kernel_->FindProc(pid_);
    if (p == nullptr || of.pr_ident != p->ident || of.pr_gen != p->trace.gen) {
      return POLLNVAL;
    }
    if (p->state == Proc::State::kZombie) {
      return POLLHUP;
    }
    return kernel_->PrIsStopped(p) ? POLLPRI : 0;
  }

  int32_t PrCountedTarget() const override { return pid_; }

 private:
  Result<Proc*> Target(const OpenFile& of) const {
    Proc* p = kernel_->FindProc(pid_);
    if (p == nullptr) {
      return Errno::kENOENT;
    }
    if (of.pr_ident != p->ident) {
      // Pid wraparound: the descriptor's process is gone, and the pid now
      // names a stranger.
      return Errno::kENOENT;
    }
    if (of.pr_gen != p->trace.gen) {
      return Errno::kEACCES;
    }
    if (p->state == Proc::State::kZombie && kind_ != Pr2Kind::kPsinfo &&
        kind_ != Pr2Kind::kCred && kind_ != Pr2Kind::kUsage &&
        kind_ != Pr2Kind::kCtlAudit) {
      return Errno::kENOENT;
    }
    return p;
  }

  Kernel* kernel_;
  Pid pid_;
  Pr2Kind kind_;
};

class Pr2LwpFileVnode : public Vnode {
 public:
  Pr2LwpFileVnode(Kernel* k, Pid pid, int lwpid, bool ctl)
      : kernel_(k), pid_(pid), lwpid_(lwpid), ctl_(ctl) {}

  VType type() const override { return VType::kProc; }

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

  Result<void> Open(OpenFile& of, const Creds& cr, Proc* caller) override {
    Proc* p = kernel_->FindProc(pid_);
    if (p == nullptr || p->FindLwp(lwpid_) == nullptr) {
      return Errno::kENOENT;
    }
    SVR4_RETURN_IF_ERROR(ProcOpenPermission(cr, p));
    if (ctl_ && !of.writable) {
      return Errno::kEACCES;
    }
    if (!ctl_ && of.writable) {
      return Errno::kEACCES;
    }
    auto priv = std::make_shared<Pr2Priv>();
    priv->opener = caller;
    of.priv = priv;
    of.pr_gen = p->trace.gen;
    of.pr_ident = p->ident;
    return Result<void>::Ok();
  }

  Result<int64_t> Read(OpenFile& of, uint64_t off, std::span<uint8_t> buf) override {
    if (ctl_) {
      return Errno::kEACCES;
    }
    Proc* p = kernel_->FindProc(pid_);
    if (p == nullptr || of.pr_ident != p->ident || of.pr_gen != p->trace.gen) {
      return Errno::kENOENT;
    }
    Lwp* l = p->FindLwp(lwpid_);
    if (l == nullptr) {
      return Errno::kENOENT;
    }
    return ServeStruct(BuildPrLwpStatus(p, l), off, buf);
  }

  Result<int64_t> Write(OpenFile& of, uint64_t /*off*/,
                        std::span<const uint8_t> buf) override {
    if (!ctl_) {
      return Errno::kEACCES;
    }
    Proc* p = kernel_->FindProc(pid_);
    if (p == nullptr || of.pr_ident != p->ident || of.pr_gen != p->trace.gen) {
      return Errno::kENOENT;
    }
    Lwp* l = p->FindLwp(lwpid_);
    if (l == nullptr) {
      return Errno::kENOENT;
    }
    auto* priv = static_cast<Pr2Priv*>(of.priv.get());
    bool native = priv != nullptr && priv->opener != nullptr && priv->opener->native;
    return RunCtlStream(*kernel_, p, l, buf, native, priv ? priv->opener : nullptr);
  }

 private:
  Kernel* kernel_;
  Pid pid_;
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
    if (p == nullptr) {
      return Errno::kENOENT;
    }
    int id = 0;
    for (char c : name) {
      if (c < '0' || c > '9') {
        return Errno::kENOENT;
      }
      id = id * 10 + (c - '0');
    }
    if (p->FindLwp(id) == nullptr) {
      return Errno::kENOENT;
    }
    return VnodePtr(std::make_shared<Pr2LwpDirVnode>(kernel_, pid_, id));
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
    Pr2Kind kind;
    if (name == "status") {
      kind = Pr2Kind::kStatus;
    } else if (name == "psinfo") {
      kind = Pr2Kind::kPsinfo;
    } else if (name == "cred") {
      kind = Pr2Kind::kCred;
    } else if (name == "usage") {
      kind = Pr2Kind::kUsage;
    } else if (name == "sigact") {
      kind = Pr2Kind::kSigact;
    } else if (name == "map") {
      kind = Pr2Kind::kMap;
    } else if (name == "as") {
      kind = Pr2Kind::kAs;
    } else if (name == "ctl") {
      kind = Pr2Kind::kCtl;
    } else if (name == "ctlaudit") {
      kind = Pr2Kind::kCtlAudit;
    } else if (name == "trace") {
      kind = Pr2Kind::kTrace;
    } else if (name == "prof") {
      kind = Pr2Kind::kProf;
    } else if (name == "lwp") {
      return VnodePtr(std::make_shared<Pr2LwpListVnode>(kernel_, pid_));
    } else {
      return Errno::kENOENT;
    }
    return VnodePtr(std::make_shared<Pr2FileVnode>(kernel_, pid_, kind));
  }
  Result<std::vector<DirEnt>> Readdir() override {
    return std::vector<DirEnt>{
        {"as", VType::kProc},     {"ctl", VType::kProc},   {"status", VType::kProc},
        {"psinfo", VType::kProc}, {"map", VType::kProc},   {"cred", VType::kProc},
        {"sigact", VType::kProc}, {"usage", VType::kProc}, {"ctlaudit", VType::kProc},
        {"trace", VType::kProc},  {"prof", VType::kProc},  {"lwp", VType::kDir},
    };
  }

 private:
  Kernel* kernel_;
  Pid pid_;
};

// /proc2/kernel/faults: read-only introspection of the armed fault plan and
// its per-site hit counters. Zombie-safe by construction — no process is
// involved, so it reads identically whatever the process table holds.
class Pr2FaultsVnode : public Vnode {
 public:
  explicit Pr2FaultsVnode(Kernel* k) : kernel_(k) {}

  VType type() const override { return VType::kProc; }
  Result<VAttr> GetAttr() override {
    VAttr a;
    a.type = VType::kProc;
    a.mode = 0444;
    a.size = Render().size();
    return a;
  }
  Result<void> Open(OpenFile& of, const Creds& /*cr*/, Proc* /*caller*/) override {
    if (of.writable) {
      return Errno::kEACCES;
    }
    return Result<void>::Ok();
  }
  Result<int64_t> Read(OpenFile& /*of*/, uint64_t off, std::span<uint8_t> buf) override {
    std::string text = Render();
    std::vector<uint8_t> bytes(text.begin(), text.end());
    return ServeBytes(bytes, off, buf);
  }

 private:
  std::string Render() const {
    FaultInjector* finj = kernel_->fault_injector();
    return finj ? finj->Describe() : std::string("faults: off\n");
  }

  Kernel* kernel_;
};

// /proc2/kernel/trace: binary snapshot of the global event ring
// (KtSnapHeader then oldest-first KtRec records). A disabled or never-armed
// ring reads as an empty file, not an error.
class Pr2KtraceVnode : public Vnode {
 public:
  explicit Pr2KtraceVnode(Kernel* k) : kernel_(k) {}

  VType type() const override { return VType::kProc; }
  Result<VAttr> GetAttr() override {
    VAttr a;
    a.type = VType::kProc;
    a.mode = 0444;
    a.size = kernel_->ktrace().Snapshot().size();
    return a;
  }
  Result<void> Open(OpenFile& of, const Creds& /*cr*/, Proc* /*caller*/) override {
    if (of.writable) {
      return Errno::kEACCES;
    }
    return Result<void>::Ok();
  }
  Result<int64_t> Read(OpenFile& /*of*/, uint64_t off, std::span<uint8_t> buf) override {
    return ServeBytes(kernel_->ktrace().Snapshot(), off, buf);
  }

 private:
  Kernel* kernel_;
};

// /proc2/kernel/metrics: the metrics registry rendered as text, one line
// per counter or histogram, with the fault injector's per-site counters
// folded in from their single home.
class Pr2KmetricsVnode : public Vnode {
 public:
  explicit Pr2KmetricsVnode(Kernel* k) : kernel_(k) {}

  VType type() const override { return VType::kProc; }
  Result<VAttr> GetAttr() override {
    VAttr a;
    a.type = VType::kProc;
    a.mode = 0444;
    a.size = Render().size();
    return a;
  }
  Result<void> Open(OpenFile& of, const Creds& /*cr*/, Proc* /*caller*/) override {
    if (of.writable) {
      return Errno::kEACCES;
    }
    return Result<void>::Ok();
  }
  Result<int64_t> Read(OpenFile& /*of*/, uint64_t off, std::span<uint8_t> buf) override {
    std::string text = Render();
    std::vector<uint8_t> bytes(text.begin(), text.end());
    return ServeBytes(bytes, off, buf);
  }

 private:
  std::string Render() const {
    return kernel_->ktrace().MetricsText(kernel_->fault_injector()) +
           kernel_->ExecEngineMetricsText();
  }

  Kernel* kernel_;
};

// /proc2/kernel/psall: the bulk population snapshot as packed PrPsinfo
// records, ascending pid order, zombies included — the read(2) face of
// PIOCPSALL. One open+read covers the whole process table; the per-pid
// alternative costs four name resolutions per process.
class Pr2PsallVnode : public Vnode {
 public:
  explicit Pr2PsallVnode(Kernel* k) : kernel_(k) {}

  VType type() const override { return VType::kProc; }
  Result<VAttr> GetAttr() override {
    VAttr a;
    a.type = VType::kProc;
    a.mode = 0444;
    a.size = kernel_->ProcCount() * sizeof(PrPsinfo);
    return a;
  }
  Result<void> Open(OpenFile& of, const Creds& /*cr*/, Proc* /*caller*/) override {
    if (of.writable) {
      return Errno::kEACCES;
    }
    return Result<void>::Ok();
  }
  Result<int64_t> Read(OpenFile& /*of*/, uint64_t off, std::span<uint8_t> buf) override {
    // Rebuilt per read: each read(2) is a fresh snapshot, like the other
    // kernel-dir files. A reader paging through with a growing offset sees
    // each record torn-free (PrPsinfo is trivially copyable and records are
    // only appended in pid order), though procs that exit mid-pagination
    // may shift later records — same contract as ps(1) over readdir.
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

 private:
  Kernel* kernel_;
};

// /proc2/kernel/cpus: per-CPU scheduler and IPI accounting — run-queue
// depth, quanta, instructions, steals, context switches, shootdowns. The
// observability face of the SMP model (DESIGN.md has the protocol).
class Pr2CpusVnode : public Vnode {
 public:
  explicit Pr2CpusVnode(Kernel* k) : kernel_(k) {}

  VType type() const override { return VType::kProc; }
  Result<VAttr> GetAttr() override {
    VAttr a;
    a.type = VType::kProc;
    a.mode = 0444;
    a.size = kernel_->CpuStatsText().size();
    return a;
  }
  Result<void> Open(OpenFile& of, const Creds& /*cr*/, Proc* /*caller*/) override {
    if (of.writable) {
      return Errno::kEACCES;
    }
    return Result<void>::Ok();
  }
  Result<int64_t> Read(OpenFile& /*of*/, uint64_t off, std::span<uint8_t> buf) override {
    std::string text = kernel_->CpuStatsText();
    std::vector<uint8_t> bytes(text.begin(), text.end());
    return ServeBytes(bytes, off, buf);
  }

 private:
  Kernel* kernel_;
};

// /proc2/kernel/procd: the network daemon's span/occupancy registry,
// rendered in the /proc2/kernel/metrics style. The kernel has no procd
// dependency: a running ProcdServer registers a renderer via
// SetProcdStatsProvider; without one the file reads "procd off".
class Pr2ProcdVnode : public Vnode {
 public:
  explicit Pr2ProcdVnode(Kernel* k) : kernel_(k) {}

  VType type() const override { return VType::kProc; }
  Result<VAttr> GetAttr() override {
    VAttr a;
    a.type = VType::kProc;
    a.mode = 0444;
    a.size = Render().size();
    return a;
  }
  Result<void> Open(OpenFile& of, const Creds& /*cr*/, Proc* /*caller*/) override {
    if (of.writable) {
      return Errno::kEACCES;
    }
    return Result<void>::Ok();
  }
  Result<int64_t> Read(OpenFile& /*of*/, uint64_t off, std::span<uint8_t> buf) override {
    std::string text = Render();
    std::vector<uint8_t> bytes(text.begin(), text.end());
    return ServeBytes(bytes, off, buf);
  }

 private:
  std::string Render() const {
    const auto& provider = kernel_->procd_stats_provider();
    return provider ? provider() : std::string("procd off\n");
  }

  Kernel* kernel_;
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
    if (name == "faults") {
      return VnodePtr(std::make_shared<Pr2FaultsVnode>(kernel_));
    }
    if (name == "trace") {
      return VnodePtr(std::make_shared<Pr2KtraceVnode>(kernel_));
    }
    if (name == "metrics") {
      return VnodePtr(std::make_shared<Pr2KmetricsVnode>(kernel_));
    }
    if (name == "psall") {
      return VnodePtr(std::make_shared<Pr2PsallVnode>(kernel_));
    }
    if (name == "cpus") {
      return VnodePtr(std::make_shared<Pr2CpusVnode>(kernel_));
    }
    if (name == "procd") {
      return VnodePtr(std::make_shared<Pr2ProcdVnode>(kernel_));
    }
    return Errno::kENOENT;
  }
  Result<std::vector<DirEnt>> Readdir() override {
    return std::vector<DirEnt>{{"faults", VType::kProc},
                               {"trace", VType::kProc},
                               {"metrics", VType::kProc},
                               {"psall", VType::kProc},
                               {"cpus", VType::kProc},
                               {"procd", VType::kProc}};
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
  if (name.empty() || name.size() > 10) {
    return Errno::kENOENT;
  }
  Pid pid = 0;
  for (char c : name) {
    if (c < '0' || c > '9') {
      return Errno::kENOENT;
    }
    pid = pid * 10 + (c - '0');
  }
  if (kernel_->FindProc(pid) == nullptr) {
    return Errno::kENOENT;
  }
  return VnodePtr(std::make_shared<Pr2ProcDirVnode>(kernel_, pid));
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
