// The process file system, flat SVR4 form: /proc/<pid> files accessed with
// open/close/lseek/read/write/ioctl. This is the paper's primary subject.
//
// Both process file systems are served from data. Every counted /proc file
// (the flat /proc/<pid>, the files of /proc2/<pid> and of
// /proc2/<pid>/lwp/<n>) is one row of a table in flat.cc, served by one
// vnode class: the row gives the file's name, its access (which is both its
// mode and its open rule), its scope and where its bytes come from. One
// root class serves /proc and /proc2.
#ifndef SVR4PROC_PROCFS_PROCFS_H_
#define SVR4PROC_PROCFS_PROCFS_H_

#include <functional>
#include <string>
#include <vector>

#include "svr4proc/fs/vnode.h"
#include "svr4proc/kernel/kernel.h"
#include "svr4proc/procfs/types.h"

namespace svr4 {

// Makes the vnode a /proc directory entry names, for process `pid` (and lwp
// `lwpid` under an lwp directory).
using PrMake = std::function<VnodePtr(Kernel* k, Pid pid, int lwpid)>;

// A name in a /proc directory and the vnode it names.
struct PrEntry {
  DirEnt ent;
  PrMake make;
};

// The root of a process file system: its leading entries, then one entry
// per process, in ascending pid order, named by PidName and naming
// make_pid(pid). /proc lists each pid's flat file; /proc2 lists `kernel`,
// then each pid's directory. "The name of each entry is a decimal number
// corresponding to the process id" (five digits, per Figure 1).
class PrRootVnode : public Vnode {
 public:
  PrRootVnode(Kernel* k, VType pid_type, PrMake make_pid, std::vector<PrEntry> lead = {})
      : kernel_(k), pid_type_(pid_type), make_pid_(std::move(make_pid)), lead_(std::move(lead)) {}

  VType type() const override { return VType::kDir; }
  Result<VAttr> GetAttr() override;
  Result<VnodePtr> Lookup(const std::string& name) override;
  Result<std::vector<DirEnt>> Readdir() override;
  Result<size_t> ReaddirChunk(uint64_t* cookie, size_t max,
                              std::vector<DirEnt>* out) override;

 private:
  Kernel* kernel_;
  VType pid_type_;
  PrMake make_pid_;
  std::vector<PrEntry> lead_;
};

// Where a counted /proc file lives.
enum class PrScope : uint8_t {
  kFlat,  // /proc/<pid> itself
  kProc,  // /proc2/<pid>/<name>
  kLwp,   // /proc2/<pid>/lwp/<n>/<name>
};

// The entries of the counted files of a /proc2 directory (kProc or kLwp),
// in Readdir order.
std::vector<PrEntry> PrFileEntries(PrScope scope);

// Serves a read of the `size` bytes at `data`: those that lie at offset
// `off` and after, as many as fit in `buf`; 0 at or past the end.
Result<int64_t> PrServe(const void* data, size_t size, uint64_t off, std::span<uint8_t> buf);

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
