// ProcIo: the transport seam between the controlling-process tools
// (ProcHandle, truss, ps, kstat_tool) and a kernel's /proc namespace.
//
// The paper's claim is that a file-based process interface lets *any*
// holder of a descriptor operate on a process. This interface makes the
// descriptor's transport pluggable: LocalProcIo issues the syscall-shaped
// kernel calls directly, while procd's RemoteProcIo (procd/client.h) ships
// the same operations over a length-prefixed frame protocol to a daemon
// fronting a remote kernel. The tools are written against this interface
// once and run unmodified against either.
#ifndef SVR4PROC_TOOLS_PROCIO_H_
#define SVR4PROC_TOOLS_PROCIO_H_

#include <span>
#include <string>
#include <vector>

#include "svr4proc/kernel/kernel.h"

namespace svr4 {

class ProcIo {
 public:
  virtual ~ProcIo() = default;

  virtual Result<int> Open(const std::string& path, int oflags) = 0;
  virtual Result<void> Close(int fd) = 0;
  virtual Result<int64_t> Read(int fd, void* buf, uint64_t n) = 0;
  virtual Result<int64_t> Write(int fd, const void* buf, uint64_t n) = 0;
  virtual Result<int64_t> Lseek(int fd, int64_t off, int whence) = 0;
  virtual Result<int32_t> Ioctl(int fd, uint32_t op, void* arg) = 0;
  virtual Result<std::vector<DirEnt>> ReadDir(const std::string& path) = 0;
  virtual Result<size_t> ReadDirChunk(const std::string& path, uint64_t* cookie,
                                      size_t max, std::vector<DirEnt>* out) = 0;
  virtual Result<VAttr> Stat(const std::string& path) = 0;
  virtual Result<int> PollFds(std::span<PollFd> fds, int64_t timeout_ticks) = 0;
  // Spawns a simulated process (truss's "start up commands to be traced").
  virtual Result<Pid> Spawn(const std::string& path,
                            const std::vector<std::string>& argv,
                            const Creds& creds) = 0;

  // Escape hatches for tools that genuinely need the kernel object (e.g.
  // truss -c arming the metrics registry). Null on a remote transport;
  // callers must degrade gracefully.
  virtual Kernel* local_kernel() { return nullptr; }
  virtual Proc* local_proc() { return nullptr; }
};

// The in-process transport: forwards to the kernel's syscall surface on
// behalf of one native controller process.
class LocalProcIo : public ProcIo {
 public:
  LocalProcIo(Kernel& k, Proc* controller) : kernel_(&k), controller_(controller) {}

  Result<int> Open(const std::string& path, int oflags) override {
    return kernel_->Open(controller_, path, oflags);
  }
  Result<void> Close(int fd) override { return kernel_->Close(controller_, fd); }
  Result<int64_t> Read(int fd, void* buf, uint64_t n) override {
    return kernel_->Read(controller_, fd, buf, n);
  }
  Result<int64_t> Write(int fd, const void* buf, uint64_t n) override {
    return kernel_->Write(controller_, fd, buf, n);
  }
  Result<int64_t> Lseek(int fd, int64_t off, int whence) override {
    return kernel_->Lseek(controller_, fd, off, whence);
  }
  Result<int32_t> Ioctl(int fd, uint32_t op, void* arg) override {
    return kernel_->Ioctl(controller_, fd, op, arg);
  }
  Result<std::vector<DirEnt>> ReadDir(const std::string& path) override {
    return kernel_->ReadDir(controller_, path);
  }
  Result<size_t> ReadDirChunk(const std::string& path, uint64_t* cookie, size_t max,
                              std::vector<DirEnt>* out) override {
    return kernel_->ReadDirChunk(controller_, path, cookie, max, out);
  }
  Result<VAttr> Stat(const std::string& path) override {
    return kernel_->Stat(controller_, path);
  }
  Result<int> PollFds(std::span<PollFd> fds, int64_t timeout_ticks) override {
    return kernel_->PollFds(controller_, fds, timeout_ticks);
  }
  Result<Pid> Spawn(const std::string& path, const std::vector<std::string>& argv,
                    const Creds& creds) override {
    return kernel_->Spawn(path, argv, creds);
  }

  Kernel* local_kernel() override { return kernel_; }
  Proc* local_proc() override { return controller_; }

 private:
  Kernel* kernel_;
  Proc* controller_;
};

}  // namespace svr4

#endif  // SVR4PROC_TOOLS_PROCIO_H_
