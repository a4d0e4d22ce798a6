// The hierarchical /proc2: its fixed-name directories (/proc2/<pid>,
// /proc2/<pid>/lwp/<n> and /proc2/kernel, one class served from data), the
// lwp list, and the process-independent files of /proc2/kernel. The counted
// files the directories name, and the root's pid entries, are the /proc
// file table's (flat.cc); control-message semantics live in the shared
// control-plane table (procfs/ctl.h).
#include <algorithm>

#include "svr4proc/procfs/procfs.h"
#include "svr4proc/procfs/procfs2.h"

namespace svr4 {
namespace {

std::vector<uint8_t> TextBytes(const std::string& text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

// A directory whose names are fixed: /proc2/<pid>, /proc2/<pid>/lwp/<n> or
// /proc2/kernel.
struct Pr2Dir {
  uint32_t mode;
  uint32_t nlink;
  // Its process's: stat names the process's owner, and no name resolves
  // once the process is gone.
  bool owned;
  std::vector<PrEntry> entries;  // in Readdir order
};

// A directory of process `pid` (its own, its lwp list, each lwp's) stats
// as the process's real uid and gid, as its files do, and answers ENOENT
// once the process is gone.
Result<VAttr> OwnedDirAttr(Kernel* k, Pid pid, VAttr a) {
  Proc* p = k->FindProc(pid);
  if (p == nullptr) {
    return Errno::kENOENT;
  }
  a.uid = p->creds.ruid;
  a.gid = p->creds.rgid;
  return a;
}

class Pr2DirVnode : public Vnode {
 public:
  Pr2DirVnode(Kernel* k, const Pr2Dir& dir, Pid pid = -1, int lwpid = 0)
      : kernel_(k), dir_(dir), pid_(pid), lwpid_(lwpid) {}

  VType type() const override { return VType::kDir; }
  Result<VAttr> GetAttr() override {
    VAttr a;
    a.type = VType::kDir;
    a.mode = dir_.mode;
    a.nlink = dir_.nlink;
    if (dir_.owned) {
      return OwnedDirAttr(kernel_, pid_, a);
    }
    return a;
  }
  Result<VnodePtr> Lookup(const std::string& name) override {
    if (dir_.owned && kernel_->FindProc(pid_) == nullptr) {
      return Errno::kENOENT;
    }
    for (const PrEntry& e : dir_.entries) {
      if (name == e.ent.name) {
        return e.make(kernel_, pid_, lwpid_);
      }
    }
    return Errno::kENOENT;
  }
  Result<std::vector<DirEnt>> Readdir() override {
    std::vector<DirEnt> out;
    for (const PrEntry& e : dir_.entries) {
      out.push_back(e.ent);
    }
    return out;
  }

 private:
  Kernel* kernel_;
  const Pr2Dir& dir_;
  Pid pid_;
  int lwpid_;
};

// /proc2/<pid>/lwp/<n>: the lwp's counted files.
const Pr2Dir& Pr2LwpDir() {
  static const Pr2Dir dir{0500, 1, true, PrFileEntries(PrScope::kLwp)};
  return dir;
}

class Pr2LwpListVnode : public Vnode {
 public:
  Pr2LwpListVnode(Kernel* k, Pid pid) : kernel_(k), pid_(pid) {}

  VType type() const override { return VType::kDir; }
  Result<VAttr> GetAttr() override {
    VAttr a;
    a.type = VType::kDir;
    a.mode = 0500;
    return OwnedDirAttr(kernel_, pid_, a);
  }
  Result<VnodePtr> Lookup(const std::string& name) override {
    Proc* p = kernel_->FindProc(pid_);
    auto id = ParseProcId(name);
    if (p == nullptr || !id.ok() || p->FindLwp(*id) == nullptr) {
      return Errno::kENOENT;
    }
    return VnodePtr(std::make_shared<Pr2DirVnode>(kernel_, Pr2LwpDir(), pid_, *id));
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

// /proc2/<pid>: the process's counted files, then its lwps. "The thread-ids
// of sibling threads appear as sub-directories within a hierarchy that has
// the process-id at the top."
const Pr2Dir& Pr2PidDir() {
  static const Pr2Dir dir = [] {
    Pr2Dir d{0500, 1, true, PrFileEntries(PrScope::kProc)};
    d.entries.push_back({DirEnt{"lwp", VType::kDir}, [](Kernel* k, Pid pid, int /*lwpid*/) {
                           return VnodePtr(std::make_shared<Pr2LwpListVnode>(k, pid));
                         }});
    return d;
  }();
  return dir;
}

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
    return PrServe(text_.data(), text_.size(), off, buf);
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
    return PrServe(window.data(), window.size(), woff, buf);
  }
};

// /proc2/kernel: kernel-wide (process-independent) introspection files.
const Pr2Dir& Pr2KernelDir() {
  static const Pr2Dir dir = [] {
    Pr2Dir d{0555, 2, false, {}};
    for (const Pr2KernelFile& f : kPr2KernelFiles) {
      d.entries.push_back(
          {DirEnt{f.name, VType::kProc}, [render = f.render](Kernel* k, Pid, int) {
             return render != nullptr ? VnodePtr(std::make_shared<Pr2KernelFileVnode>(k, render))
                                      : VnodePtr(std::make_shared<Pr2PsallVnode>(k));
           }});
    }
    return d;
  }();
  return dir;
}

}  // namespace

Result<void> MountProcFs2(Kernel& k, const std::string& path) {
  PrEntry kernel_dir{DirEnt{"kernel", VType::kDir}, [](Kernel* kp, Pid, int) {
                       return VnodePtr(std::make_shared<Pr2DirVnode>(kp, Pr2KernelDir()));
                     }};
  return k.vfs().Mount(path, std::make_shared<PrRootVnode>(
                                 &k, VType::kDir,
                                 [](Kernel* kp, Pid pid, int /*lwpid*/) {
                                   return VnodePtr(
                                       std::make_shared<Pr2DirVnode>(kp, Pr2PidDir(), pid));
                                 },
                                 std::vector<PrEntry>{kernel_dir}));
}

}  // namespace svr4
