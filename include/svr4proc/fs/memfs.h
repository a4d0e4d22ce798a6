// memfs: the in-memory "disk" file system holding executables, libraries,
// and ordinary files in the simulation. Plays the role of the conventional
// disk fstypes coexisting with /proc under VFS.
#ifndef SVR4PROC_FS_MEMFS_H_
#define SVR4PROC_FS_MEMFS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "svr4proc/fs/vnode.h"

namespace svr4 {

class MemFile : public Vnode {
 public:
  explicit MemFile(VAttr attr) : attr_(attr) { attr_.type = VType::kReg; }

  VType type() const override { return VType::kReg; }
  Result<VAttr> GetAttr() override;
  Result<void> Open(OpenFile& of, const Creds& cr, Proc* caller) override;
  Result<int64_t> Read(OpenFile& of, uint64_t off, std::span<uint8_t> buf) override;
  Result<int64_t> Write(OpenFile& of, uint64_t off, std::span<const uint8_t> buf) override;
  int Poll(OpenFile& of) override;
  Result<std::shared_ptr<VmObject>> GetVmObject() override;

  std::vector<uint8_t>& data() { return data_; }
  const std::vector<uint8_t>& data() const { return data_; }

 private:
  VAttr attr_;
  std::vector<uint8_t> data_;
  // One object per file so concurrent mappings share pages. Weak: the
  // object holds a VnodePtr back to this file, and an owning pointer here
  // would form a reference cycle that leaks the file and its page cache.
  // Mappings keep the object alive; when the last one goes, it is rebuilt
  // on the next exec/mmap of the file.
  std::weak_ptr<FileVmObject> vmobj_;
};

class MemDir : public Vnode {
 public:
  explicit MemDir(VAttr attr) : attr_(attr) { attr_.type = VType::kDir; }

  VType type() const override { return VType::kDir; }
  Result<VAttr> GetAttr() override;
  Result<void> Open(OpenFile& of, const Creds& cr, Proc* caller) override;
  Result<VnodePtr> Lookup(const std::string& name) override;
  Result<VnodePtr> Create(const std::string& name, const VAttr& attr) override;
  Result<VnodePtr> Mkdir(const std::string& name, const VAttr& attr) override;
  Result<void> Remove(const std::string& name) override;
  Result<std::vector<DirEnt>> Readdir() override;

 private:
  VAttr attr_;
  std::map<std::string, VnodePtr> entries_;
};

}  // namespace svr4

#endif  // SVR4PROC_FS_MEMFS_H_
