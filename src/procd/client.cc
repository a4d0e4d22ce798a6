// RemoteProcIo: the client half of procd. Each ProcIo operation becomes one
// wire frame; Call() pumps the server until the tagged reply arrives, so a
// blocking remote operation (PIOCWSTOP, poll) drives the simulation exactly
// the way a local blocking call does — just from the other side of a frame
// boundary.
#include "svr4proc/procd/client.h"

#include <cstring>

#include "svr4proc/procfs/ctl.h"

namespace svr4 {

void RemoteProcIo::Hangup() {
  if (conn_ == nullptr || conn_->client_closed()) {
    return;
  }
  conn_->Hangup();
  // One pump lets the server observe the hangup and detach the peer now
  // rather than on the next unrelated pump.
  if (!conn_->server_closed && conn_->server != nullptr) {
    conn_->server->Pump();
  }
}

void RemoteProcIo::DrainPushed() {
  if (conn_ == nullptr) {
    return;
  }
  PdFrame f;
  while (conn_->s2c.NextFrame(&f)) {
    if (static_cast<PdOp>(f.hdr.op) == PdOp::kEvent) {
      PdReader r(f.body);
      Event ev;
      if (r.Get(&ev.fd) && r.Get(&ev.revents)) {
        events_.push_back(ev);
      }
    }
    // Non-event frames with no matching Call are stale replies from a
    // chaos-severed exchange; drop them.
  }
}

Result<PdFrame> RemoteProcIo::Call(PdOp op, std::span<const uint8_t> body) {
  if (conn_ == nullptr || conn_->client_closed() || conn_->server_closed) {
    return Errno::kEIO;
  }
  uint32_t tag = next_tag_++;
  conn_->Send(op, tag, body);
  int stalls = 0;
  for (;;) {
    PdFrame f;
    bool saw = false;
    while (conn_->s2c.NextFrame(&f)) {
      saw = true;
      if (static_cast<PdOp>(f.hdr.op) == PdOp::kEvent) {
        PdReader r(f.body);
        Event ev;
        if (r.Get(&ev.fd) && r.Get(&ev.revents)) {
          events_.push_back(ev);
        }
        continue;
      }
      if (f.hdr.tag != tag) {
        continue;  // stale reply from a severed exchange
      }
      if ((f.hdr.flags & kPdErrFlag) != 0) {
        int32_t e = 0;
        PdReader r(f.body);
        if (!r.Get(&e)) {
          return Errno::kEIO;
        }
        return static_cast<Errno>(e);
      }
      return f;
    }
    if (conn_->server_closed || conn_->server == nullptr) {
      // The peer died server-side (hangup raced, or PEER_DISCONNECT fired)
      // with our call in flight: the transport reports an I/O error and
      // every descriptor this peer held is already closed.
      return Errno::kEIO;
    }
    if (!conn_->server->Pump() && !saw) {
      // A fully idle daemon with our reply still missing means the frame
      // can never complete (defensive; a correct server always replies or
      // detaches).
      if (++stalls > 2) {
        return Errno::kEIO;
      }
    } else {
      stalls = 0;
    }
  }
}

Result<Pid> RemoteProcIo::PeerPid() {
  auto f = Call(PdOp::kHello, {});
  if (!f.ok()) {
    return f.error();
  }
  PdReader r(f->body);
  int32_t pid = 0;
  if (!r.Get(&pid)) {
    return Errno::kEIO;
  }
  return static_cast<Pid>(pid);
}

Result<std::string> RemoteProcIo::ProcdStats() {
  auto f = Call(PdOp::kStats, {});
  if (!f.ok()) {
    return f.error();
  }
  return std::string(f->body.begin(), f->body.end());
}

Result<int> RemoteProcIo::Open(const std::string& path, int oflags) {
  PdWriter w;
  w.Put<int32_t>(oflags);
  w.PutString(path);
  auto f = Call(PdOp::kOpen, w.bytes());
  if (!f.ok()) {
    return f.error();
  }
  PdReader r(f->body);
  int32_t fd = -1;
  if (!r.Get(&fd)) {
    return Errno::kEIO;
  }
  return static_cast<int>(fd);
}

Result<void> RemoteProcIo::Close(int fd) {
  PdWriter w;
  w.Put<int32_t>(fd);
  auto f = Call(PdOp::kClose, w.bytes());
  if (!f.ok()) {
    return f.error();
  }
  return Result<void>::Ok();
}

Result<int64_t> RemoteProcIo::Read(int fd, void* buf, uint64_t n) {
  PdWriter w;
  w.Put<int32_t>(fd);
  w.Put<uint32_t>(static_cast<uint32_t>(n));
  auto f = Call(PdOp::kRead, w.bytes());
  if (!f.ok()) {
    return f.error();
  }
  if (f->body.size() > n) {
    return Errno::kEIO;  // more bytes than were asked for: never past buf
  }
  if (!f->body.empty()) {
    std::memcpy(buf, f->body.data(), f->body.size());
  }
  return static_cast<int64_t>(f->body.size());
}

Result<int64_t> RemoteProcIo::Write(int fd, const void* buf, uint64_t n) {
  PdWriter w;
  w.Put<int32_t>(fd);
  w.PutBytes(buf, n);
  auto f = Call(PdOp::kWrite, w.bytes());
  if (!f.ok()) {
    return f.error();
  }
  PdReader r(f->body);
  int64_t wrote = 0;
  if (!r.Get(&wrote)) {
    return Errno::kEIO;
  }
  return wrote;
}

Result<int64_t> RemoteProcIo::Lseek(int fd, int64_t off, int whence) {
  PdWriter w;
  w.Put<int32_t>(fd);
  w.Put<int64_t>(off);
  w.Put<int32_t>(whence);
  auto f = Call(PdOp::kLseek, w.bytes());
  if (!f.ok()) {
    return f.error();
  }
  PdReader r(f->body);
  int64_t pos = 0;
  if (!r.Get(&pos)) {
    return Errno::kEIO;
  }
  return pos;
}

Result<int32_t> RemoteProcIo::Ioctl(int fd, uint32_t op, void* arg) {
  if (op == PIOCPSALL) {
    // The one operand with internal pointers: its own RPC carries the
    // cursor inputs and the row array explicitly.
    auto* all = static_cast<PrPsAll*>(arg);
    if (all == nullptr) {
      return Errno::kEINVAL;
    }
    PdWriter w;
    w.Put<int32_t>(fd);
    w.Put<int32_t>(all->pr_start_pid);
    w.Put<uint32_t>(all->pr_limit);
    auto f = Call(PdOp::kPsall, w.bytes());
    if (!f.ok()) {
      return f.error();
    }
    PdReader r(f->body);
    uint32_t n = 0;
    if (!r.Get(&all->pr_next_pid) || !r.Get(&n)) {
      return Errno::kEIO;
    }
    // The body must hold the n rows it claims before anything is sized by n.
    const uint8_t* rows = r.Raw(n * sizeof(PrPsinfo));
    if (rows == nullptr) {
      return Errno::kEIO;
    }
    all->pr_procs.resize(n);
    std::memcpy(all->pr_procs.data(), rows, n * sizeof(PrPsinfo));
    return 0;
  }
  // The op's CtlOp row sizes the operand, and the server checks the frame
  // against the same row; an unknown code travels bare, for the kernel's
  // errno.
  const CtlOp* row = FindCtlOpByPioc(op);
  if (row != nullptr && row->flat_size < 0) {
    return Errno::kEINVAL;  // a host-memory operand (PIOCPAGEDATA) has no flat encoding
  }
  CtlFlatBytes s = row != nullptr && arg != nullptr ? CtlFlatOperand(*row) : CtlFlatBytes{};
  PdWriter w;
  w.Put<int32_t>(fd);
  w.Put<uint32_t>(op);
  w.Put<uint32_t>(s.in);
  w.Put<uint32_t>(s.out);
  if (s.in != 0) {
    w.PutBytes(arg, s.in);
  }
  auto f = Call(PdOp::kIoctl, w.bytes());
  if (!f.ok()) {
    return f.error();
  }
  PdReader r(f->body);
  int32_t rv = 0;
  if (!r.Get(&rv)) {
    return Errno::kEIO;
  }
  // A kOutArray reply holds as many elements as the target has.
  size_t n = r.remaining();
  bool array = s.out != 0 && row->arg == CtlArgKind::kOutArray;
  if (n != s.out && !array) {
    return Errno::kEIO;
  }
  if (n != 0) {
    std::memcpy(arg, r.Raw(n), n);
  }
  return rv;
}

Result<std::vector<DirEnt>> RemoteProcIo::ReadDir(const std::string& path) {
  std::vector<DirEnt> out;
  uint64_t cookie = 0;
  for (;;) {
    auto n = ReadDirChunk(path, &cookie, 256, &out);
    if (!n.ok()) {
      return n.error();
    }
    if (*n == 0) {
      return out;
    }
  }
}

Result<size_t> RemoteProcIo::ReadDirChunk(const std::string& path, uint64_t* cookie,
                                          size_t max, std::vector<DirEnt>* out) {
  PdWriter w;
  w.Put<uint64_t>(*cookie);
  w.Put<uint32_t>(static_cast<uint32_t>(max));
  w.PutString(path);
  auto f = Call(PdOp::kReadDirChunk, w.bytes());
  if (!f.ok()) {
    return f.error();
  }
  PdReader r(f->body);
  uint32_t n = 0;
  if (!r.Get(cookie) || !r.Get(&n)) {
    return Errno::kEIO;
  }
  for (uint32_t i = 0; i < n; ++i) {
    uint8_t type = 0;
    DirEnt e;
    if (!r.Get(&type) || !r.GetString(&e.name)) {
      return Errno::kEIO;
    }
    e.type = static_cast<VType>(type);
    out->push_back(std::move(e));
  }
  return static_cast<size_t>(n);
}

Result<VAttr> RemoteProcIo::Stat(const std::string& path) {
  PdWriter w;
  w.PutString(path);
  auto f = Call(PdOp::kStat, w.bytes());
  if (!f.ok()) {
    return f.error();
  }
  PdReader r(f->body);
  uint8_t type = 0;
  uint32_t mode = 0, uid = 0, gid = 0, nlink = 0;
  uint64_t size = 0, mtime = 0;
  if (!r.Get(&type) || !r.Get(&mode) || !r.Get(&uid) || !r.Get(&gid) ||
      !r.Get(&size) || !r.Get(&mtime) || !r.Get(&nlink)) {
    return Errno::kEIO;
  }
  VAttr a;
  a.type = static_cast<VType>(type);
  a.mode = mode;
  a.uid = uid;
  a.gid = gid;
  a.size = size;
  a.mtime = mtime;
  a.nlink = nlink;
  return a;
}

Result<int> RemoteProcIo::PollFds(std::span<PollFd> fds, int64_t timeout_ticks) {
  PdWriter w;
  w.Put<int64_t>(timeout_ticks);
  w.Put<uint32_t>(static_cast<uint32_t>(fds.size()));
  for (const auto& pf : fds) {
    w.Put<int32_t>(pf.fd);
    w.Put<int32_t>(pf.events);
  }
  auto f = Call(PdOp::kPoll, w.bytes());
  if (!f.ok()) {
    return f.error();
  }
  PdReader r(f->body);
  int32_t ready = 0;
  uint32_t n = 0;
  if (!r.Get(&ready) || !r.Get(&n) || n != fds.size()) {
    return Errno::kEIO;
  }
  for (auto& pf : fds) {
    int32_t revents = 0;
    if (!r.Get(&revents)) {
      return Errno::kEIO;
    }
    pf.revents = revents;
  }
  return static_cast<int>(ready);
}

Result<Pid> RemoteProcIo::Spawn(const std::string& path,
                                const std::vector<std::string>& argv,
                                const Creds& creds) {
  PdWriter w;
  w.Put<uint32_t>(creds.ruid);
  w.Put<uint32_t>(creds.rgid);
  w.PutString(path);
  w.Put<uint32_t>(static_cast<uint32_t>(argv.size()));
  for (const auto& a : argv) {
    w.PutString(a);
  }
  auto f = Call(PdOp::kSpawn, w.bytes());
  if (!f.ok()) {
    return f.error();
  }
  PdReader r(f->body);
  int32_t pid = -1;
  if (!r.Get(&pid)) {
    return Errno::kEIO;
  }
  return static_cast<Pid>(pid);
}

Result<void> RemoteProcIo::Subscribe(int fd, int events) {
  PdWriter w;
  w.Put<int32_t>(fd);
  w.Put<int32_t>(events);
  auto f = Call(PdOp::kSubscribe, w.bytes());
  if (!f.ok()) {
    return f.error();
  }
  return Result<void>::Ok();
}

Result<void> RemoteProcIo::Unsubscribe(int fd) {
  PdWriter w;
  w.Put<int32_t>(fd);
  auto f = Call(PdOp::kUnsubscribe, w.bytes());
  if (!f.ok()) {
    return f.error();
  }
  return Result<void>::Ok();
}

bool RemoteProcIo::NextEvent(Event* out) {
  DrainPushed();
  if (events_.empty()) {
    return false;
  }
  *out = events_.front();
  events_.pop_front();
  return true;
}

void RemoteProcIo::Poke() {
  if (conn_ != nullptr && !conn_->server_closed && conn_->server != nullptr) {
    conn_->server->Pump();
  }
  DrainPushed();
}

}  // namespace svr4
