// The Virtual File System interface.
//
// Mirrors the SVR4 VFS architecture the paper describes: a clean separation
// of generic (file system-independent) and specific (file system-dependent)
// code with vnodes as the interface between them. "In general any resource
// can be made to appear within the file system name space if it makes sense
// to view it that way" — /proc is exactly such a resource, implemented as
// one more fstype alongside the in-memory disk file system.
#ifndef SVR4PROC_FS_VNODE_H_
#define SVR4PROC_FS_VNODE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "svr4proc/base/result.h"
#include "svr4proc/fs/cred.h"
#include "svr4proc/vm/vm.h"

namespace svr4 {

struct Proc;  // kernel process; opaque at this layer

enum class VType { kReg, kDir, kChr, kFifo, kProc };

struct VAttr {
  VType type = VType::kReg;
  uint32_t mode = 0644;
  Uid uid = 0;
  Gid gid = 0;
  uint64_t size = 0;
  uint64_t mtime = 0;  // virtual clock ticks
  uint32_t nlink = 1;
};

struct DirEnt {
  std::string name;
  VType type = VType::kReg;
};

// open(2) flags (SVR4 subset).
enum OFlag : int {
  O_RDONLY = 0x0,
  O_WRONLY = 0x1,
  O_RDWR = 0x2,
  O_ACCMODE = 0x3,
  O_CREAT = 0x100,
  O_TRUNC = 0x200,
  O_EXCL = 0x400,
};

// poll(2) event bits.
enum PollBit : int {
  POLLIN = 0x01,
  POLLPRI = 0x02,
  POLLOUT = 0x04,
  POLLERR = 0x08,
  POLLHUP = 0x10,
  POLLNVAL = 0x20,
};

struct PollFd {
  int fd = -1;
  int events = 0;
  int revents = 0;
};

class Vnode;
using VnodePtr = std::shared_ptr<Vnode>;

// One open-file object; shared between descriptors duplicated by dup/fork,
// carrying the shared file offset.
struct OpenFile {
  VnodePtr vp;
  int oflags = 0;
  uint64_t offset = 0;
  bool writable = false;
  // Descriptor reference count (dup/fork share the OpenFile); the vnode's
  // Close hook runs when it reaches zero.
  int refs = 0;
  // /proc descriptor invalidation token: when a controlled process execs a
  // set-id program, outstanding descriptors go invalid (see paper,
  // "Integrity and Security"). 0 means not subject to invalidation.
  uint64_t pr_gen = 0;
  // Birth identity (Proc::ident) of the process this /proc descriptor named
  // at open time. After pid wraparound the same pid can name a different
  // process; a mismatch here means the descriptor's process is simply gone
  // (ENOENT), and its close must not touch the new process's ledger.
  uint64_t pr_ident = 0;
  // The process that opened this /proc descriptor, by pid and birth
  // identity (0 for a kernel-internal open). A ctl write looks it up anew,
  // so an opener that has been reaped, or whose pid was reused, is nobody.
  uint64_t pr_opener_ident = 0;
  int32_t pr_opener = 0;
  // This descriptor holds its target's O_EXCL exclusive-write right.
  bool pr_excl = false;
};
using OpenFilePtr = std::shared_ptr<OpenFile>;

// lseek whence values.
enum Whence : int { SEEK_SET_ = 0, SEEK_CUR_ = 1, SEEK_END_ = 2 };

class Vnode : public std::enable_shared_from_this<Vnode> {
 public:
  virtual ~Vnode() = default;

  virtual VType type() const = 0;
  virtual Result<VAttr> GetAttr() = 0;

  // Called when a descriptor is created; performs fstype-specific permission
  // checks (e.g. /proc's uid/gid and O_EXCL rules). `caller` may be null for
  // kernel-internal opens.
  virtual Result<void> Open(OpenFile& of, const Creds& cr, Proc* caller);
  // Called when the last descriptor to this OpenFile closes.
  virtual void Close(OpenFile& of);

  virtual Result<int64_t> Read(OpenFile& of, uint64_t off, std::span<uint8_t> buf);
  virtual Result<int64_t> Write(OpenFile& of, uint64_t off, std::span<const uint8_t> buf);
  virtual Result<int32_t> Ioctl(OpenFile& of, Proc* caller, uint32_t op, void* arg);
  virtual int Poll(OpenFile& of);

  // Directory operations.
  virtual Result<VnodePtr> Lookup(const std::string& name);
  virtual Result<VnodePtr> Create(const std::string& name, const VAttr& attr);
  virtual Result<VnodePtr> Mkdir(const std::string& name, const VAttr& attr);
  virtual Result<void> Remove(const std::string& name);
  virtual Result<std::vector<DirEnt>> Readdir();
  // Chunked directory enumeration with a resumable cursor, for directories
  // too large to materialize (a /proc root over 10^6 processes). `*cookie`
  // is an opaque continuation: 0 starts the enumeration and each call
  // advances it past the entries appended to `out` (at most `max`). Returns
  // the number appended; 0 means end-of-directory. Entries created or
  // removed between calls may or may not appear, but every entry that
  // exists for the whole enumeration appears exactly once. The default
  // implementation materializes Readdir() and slices; huge directories
  // override it with a true cursor.
  virtual Result<size_t> ReaddirChunk(uint64_t* cookie, size_t max,
                                      std::vector<DirEnt>* out);

  // Memory object for mmap/exec; ENODEV if the file cannot be mapped.
  virtual Result<std::shared_ptr<VmObject>> GetVmObject();

  // Pid whose /proc open ledger (TraceState counters) this vnode's
  // descriptors are counted in; -1 for everything that is not a counted
  // /proc file. Lets the kernel's invariant checker recount descriptor
  // references without knowing the fstypes.
  virtual int32_t PrCountedTarget() const { return -1; }
};

// Maps a regular file's contents as a VM object. Pages are cached in the
// object so all mappings of one file share memory (private mappings then
// copy-on-write on top). Keeps the backing vnode reachable for PIOCOPENM.
class FileVmObject : public VmObject {
 public:
  explicit FileVmObject(VnodePtr file) : file_(std::move(file)) {}

  Result<PagePtr> GetPage(uint64_t page_index) override;
  std::string Name() const override;
  const VnodePtr& vnode() const { return file_; }

 private:
  VnodePtr file_;
  // Two address spaces mapping the same file share this object (the vnode
  // caches it); free-running CPUs can fault its pages concurrently.
  std::mutex mu_;
  std::map<uint64_t, PagePtr> cache_;
};

}  // namespace svr4

#endif  // SVR4PROC_FS_VNODE_H_
