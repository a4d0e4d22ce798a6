// The process file system, flat SVR4 form: /proc/<pid> files accessed with
// open/close/lseek/read/write/ioctl. This is the paper's primary subject.
#ifndef SVR4PROC_PROCFS_PROCFS_H_
#define SVR4PROC_PROCFS_PROCFS_H_

#include <string>

#include "svr4proc/fs/vnode.h"
#include "svr4proc/kernel/kernel.h"
#include "svr4proc/procfs/types.h"

namespace svr4 {

// Directory vnode for /proc: "the name of each entry is a decimal number
// corresponding to the process id" (five digits, per Figure 1).
class ProcDirVnode : public Vnode {
 public:
  explicit ProcDirVnode(Kernel* k) : kernel_(k) {}

  VType type() const override { return VType::kDir; }
  Result<VAttr> GetAttr() override;
  Result<VnodePtr> Lookup(const std::string& name) override;
  Result<std::vector<DirEnt>> Readdir() override;
  Result<size_t> ReaddirChunk(uint64_t* cookie, size_t max,
                              std::vector<DirEnt>* out) override;

 private:
  Kernel* kernel_;
};

// Base of every counted /proc file: the flat process file, the /proc2
// per-process files and the per-lwp files. Their descriptors open, close,
// poll and validate through the kernel's /proc open ledger, so the paper's
// descriptor rules hold for all of them alike. A subclass adds only its own
// rules: the access modes it accepts (Admit), its zombie rule, and the lwp
// lookup.
class PrCountedVnode : public Vnode {
 public:
  VType type() const override { return VType::kProc; }
  // ENOENT once the target is gone; then the file's own rules, the paper's
  // open permission, and Kernel::PrLedgerOpen.
  Result<void> Open(OpenFile& of, const Creds& cr, Proc* caller) final;
  void Close(OpenFile& of) override { kernel_->PrLedgerClose(of, pid_); }
  int Poll(OpenFile& of) override { return kernel_->PrLedgerPoll(of, pid_); }
  int32_t PrCountedTarget() const override { return pid_; }

 protected:
  PrCountedVnode(Kernel* k, Pid pid) : kernel_(k), pid_(pid) {}
  // The file's own open rules: the access modes it accepts and, for an lwp
  // file, that its lwp exists. The default accepts every mode.
  virtual Result<void> Admit(const OpenFile& /*of*/, Proc* /*target*/) {
    return Result<void>::Ok();
  }

  Kernel* kernel_;
  Pid pid_;
};

// One process file. Reads and writes transfer data between the caller and
// the process's address space at the virtual address given by the file
// offset; ioctl performs the PIOC* information and control operations.
class ProcVnode : public PrCountedVnode {
 public:
  ProcVnode(Kernel* k, Pid pid) : PrCountedVnode(k, pid) {}

  Result<VAttr> GetAttr() override;
  Result<int64_t> Read(OpenFile& of, uint64_t off, std::span<uint8_t> buf) override;
  Result<int64_t> Write(OpenFile& of, uint64_t off, std::span<const uint8_t> buf) override;
  Result<int32_t> Ioctl(OpenFile& of, Proc* caller, uint32_t op, void* arg) override;
};

// Parses a /proc or /proc2 name that must be a decimal pid or lwp id:
// digits only, leading zeros allowed, at most INT32_MAX. Names arrive in
// untrusted paths (procd peers send them); anything else is ENOENT.
Result<int32_t> ParseProcId(const std::string& name);

// The /proc and /proc2 directory name of a pid: decimal, zero-padded to at
// least five digits ("00042"), never truncated. ParseProcId reads it back.
std::string PidName(Pid pid);

// Translates a prrun_t into kernel RunArgs. Shared with /proc2's PCRUN.
RunArgs ToRunArgs(const PrRun& r);

// Opens a read-only descriptor in `caller` for the object mapped at vaddr
// (or the executable when use_exe). Implements PIOCOPENM for both fstypes.
Result<int32_t> ProcOpenMappedObject(Kernel& k, Proc* caller, Proc* target, bool use_exe,
                                     uint32_t vaddr);

// Mounts the flat process file system at /proc.
Result<void> MountProcFs(Kernel& k, const std::string& path = "/proc");

}  // namespace svr4

#endif  // SVR4PROC_PROCFS_PROCFS_H_
