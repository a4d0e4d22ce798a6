// Character devices: the console (a capture buffer the tests and examples
// read back) and pipes. Blocking behaviour lives in the kernel's syscall
// layer: these vnodes return EAGAIN and the kernel sleeps the caller — the
// classic "while (condition) sleep(...)" structure the paper discusses when
// explaining stops inside interruptible sleeps.
#ifndef SVR4PROC_FS_DEV_H_
#define SVR4PROC_FS_DEV_H_

#include <deque>
#include <memory>
#include <string>

#include "svr4proc/fs/vnode.h"

namespace svr4 {

class ConsoleVnode : public Vnode {
 public:
  VType type() const override { return VType::kChr; }
  Result<VAttr> GetAttr() override;
  Result<int64_t> Read(OpenFile& of, uint64_t off, std::span<uint8_t> buf) override;
  Result<int64_t> Write(OpenFile& of, uint64_t off, std::span<const uint8_t> buf) override;
  int Poll(OpenFile& of) override;

  // Host-side access for tests/examples.
  const std::string& output() const { return output_; }
  void PushInput(std::string_view s) { input_.insert(input_.end(), s.begin(), s.end()); }

 private:
  std::string output_;
  std::deque<char> input_;
};

struct PipeBuf {
  static constexpr size_t kCapacity = 8192;
  std::deque<uint8_t> data;
  int readers = 0;
  int writers = 0;
};

class PipeVnode : public Vnode {
 public:
  PipeVnode(std::shared_ptr<PipeBuf> buf, bool write_end)
      : buf_(std::move(buf)), write_end_(write_end) {}

  VType type() const override { return VType::kFifo; }
  Result<VAttr> GetAttr() override;
  Result<void> Open(OpenFile& of, const Creds& cr, Proc* caller) override;
  void Close(OpenFile& of) override;
  // Empty pipe with live writers / full pipe with live readers: EAGAIN (the
  // kernel turns this into an interruptible sleep).
  Result<int64_t> Read(OpenFile& of, uint64_t off, std::span<uint8_t> buf) override;
  Result<int64_t> Write(OpenFile& of, uint64_t off, std::span<const uint8_t> buf) override;
  int Poll(OpenFile& of) override;

  const std::shared_ptr<PipeBuf>& buf() const { return buf_; }

 private:
  std::shared_ptr<PipeBuf> buf_;
  bool write_end_;
};

}  // namespace svr4

#endif  // SVR4PROC_FS_DEV_H_
