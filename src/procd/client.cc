// RemoteProcIo: the client half of procd. Each ProcIo operation becomes one
// wire frame; Call() pumps the server until the tagged reply arrives, so a
// blocking remote operation (PIOCWSTOP, poll) drives the simulation exactly
// the way a local blocking call does — just from the other side of a frame
// boundary.
#include "svr4proc/procd/client.h"

#include <cstring>

#include "svr4proc/procfs/ctl.h"

namespace svr4 {
namespace {

// A reply's first field as T, or the call's error.
template <typename T, typename Rep>
Result<T> FirstField(const Result<Rep>& rep) {
  if (!rep.ok()) {
    return rep.error();
  }
  return static_cast<T>(std::get<0>(*rep));
}

// The outcome of a call whose reply carries no fields.
template <typename Rep>
Result<void> Outcome(const Result<Rep>& rep) {
  if (!rep.ok()) {
    return rep.error();
  }
  return Result<void>::Ok();
}

}  // namespace

RemoteProcIo::~RemoteProcIo() { Hangup(); }

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

bool RemoteProcIo::TakeEvent(const PdFrame& f) {
  if (static_cast<PdOp>(f.hdr.op) != PdOp::kEvent) {
    return false;
  }
  PdEvent::Out ev;
  if (PdEvent::Get(f.body, &ev)) {
    events_.push_back(Event{std::get<0>(ev), std::get<1>(ev)});
  }
  return true;
}

void RemoteProcIo::DrainPushed() {
  if (conn_ == nullptr) {
    return;
  }
  PdFrame f;
  while (conn_->s2c.NextFrame(&f)) {
    // Non-event frames with no matching Call are stale replies from a
    // chaos-severed exchange; drop them.
    TakeEvent(f);
  }
}

Result<PdFrame> RemoteProcIo::Exchange(PdOp op) {
  if (conn_ == nullptr || conn_->client_closed() || conn_->server_closed) {
    return Errno::kEIO;
  }
  uint32_t tag = next_tag_++;
  conn_->Send(op, tag, request_.bytes());
  int stalls = 0;
  for (;;) {
    PdFrame f;
    bool saw = false;
    while (conn_->s2c.NextFrame(&f)) {
      saw = true;
      if (TakeEvent(f) || f.hdr.tag != tag) {
        continue;  // an event, or a stale reply from a severed exchange
      }
      if ((f.hdr.flags & kPdErrFlag) != 0) {
        // An error reply that names no errno is not one a server sends.
        PdError::Out e;
        if (!PdError::Get(f.body, &e) || std::get<0>(e) == 0) {
          return Errno::kEIO;
        }
        return static_cast<Errno>(std::get<0>(e));
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

template <PdOp Op, typename... A>
Result<PdRep<Op>> RemoteProcIo::Call(const A&... fields) {
  request_.bytes().clear();
  PdMsg<Op>::Req::Put(request_, fields...);
  auto f = Exchange(Op);
  if (!f.ok()) {
    return f.error();
  }
  PdRep<Op> rep;
  if (!PdMsg<Op>::Rep::Get(f->body, &rep)) {
    return Errno::kEIO;
  }
  return rep;
}

Result<Pid> RemoteProcIo::PeerPid() { return FirstField<Pid>(Call<PdOp::kHello>()); }

Result<std::string> RemoteProcIo::ProcdStats() {
  auto rep = Call<PdOp::kStats>();
  if (!rep.ok()) {
    return rep.error();
  }
  std::span<const uint8_t> text = std::get<0>(*rep);
  return std::string(text.begin(), text.end());
}

Result<int> RemoteProcIo::Open(const std::string& path, int oflags) {
  return FirstField<int>(Call<PdOp::kOpen>(oflags, path));
}

Result<void> RemoteProcIo::Close(int fd) { return Outcome(Call<PdOp::kClose>(fd)); }

Result<int64_t> RemoteProcIo::Read(int fd, void* buf, uint64_t n) {
  auto rep = Call<PdOp::kRead>(fd, static_cast<uint32_t>(n));
  if (!rep.ok()) {
    return rep.error();
  }
  std::span<const uint8_t> bytes = std::get<0>(*rep);
  if (bytes.size() > n) {
    return Errno::kEIO;  // more bytes than were asked for: never past buf
  }
  if (!bytes.empty()) {
    std::memcpy(buf, bytes.data(), bytes.size());
  }
  return static_cast<int64_t>(bytes.size());
}

Result<int64_t> RemoteProcIo::Write(int fd, const void* buf, uint64_t n) {
  return FirstField<int64_t>(
      Call<PdOp::kWrite>(fd, std::span<const uint8_t>(static_cast<const uint8_t*>(buf), n)));
}

Result<int64_t> RemoteProcIo::Lseek(int fd, int64_t off, int whence) {
  return FirstField<int64_t>(Call<PdOp::kLseek>(fd, off, whence));
}

Result<int32_t> RemoteProcIo::Ioctl(int fd, uint32_t op, void* arg) {
  if (op == PIOCPSALL) {
    // The one operand with internal pointers: its own RPC carries the
    // cursor inputs and the row array explicitly.
    auto* all = static_cast<PrPsAll*>(arg);
    if (all == nullptr) {
      return Errno::kEINVAL;
    }
    auto rep = Call<PdOp::kPsall>(fd, all->pr_start_pid, all->pr_limit);
    if (!rep.ok()) {
      return rep.error();
    }
    // The rows were checked to fit the body before the count sizes anything.
    const auto& [next_pid, rows] = *rep;
    all->pr_next_pid = next_pid;
    all->pr_procs.resize(rows.size());
    rows.CopyTo(all->pr_procs.data());
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
  auto rep = Call<PdOp::kIoctl>(fd, op, s.in, s.out,
                                std::span<const uint8_t>(static_cast<const uint8_t*>(arg), s.in));
  if (!rep.ok()) {
    return rep.error();
  }
  const auto& [rv, out] = *rep;
  // A kOutArray reply holds as many elements as the target has.
  bool array = s.out != 0 && row->arg == CtlArgKind::kOutArray;
  if (out.size() != s.out && !array) {
    return Errno::kEIO;
  }
  if (!out.empty()) {
    std::memcpy(arg, out.data(), out.size());
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
  auto rep = Call<PdOp::kReadDirChunk>(*cookie, static_cast<uint32_t>(max), path);
  if (!rep.ok()) {
    return rep.error();
  }
  const auto& [next, ents] = *rep;
  *cookie = next;
  ents.ForEach([&](DirEnt e) { out->push_back(std::move(e)); });
  return static_cast<size_t>(ents.size());
}

Result<VAttr> RemoteProcIo::Stat(const std::string& path) {
  return FirstField<VAttr>(Call<PdOp::kStat>(path));
}

Result<int> RemoteProcIo::PollFds(std::span<PollFd> fds, int64_t timeout_ticks) {
  auto rep = Call<PdOp::kPoll>(timeout_ticks, fds);
  if (!rep.ok()) {
    return rep.error();
  }
  const auto& [ready, revents] = *rep;
  if (revents.size() != fds.size()) {
    return Errno::kEIO;
  }
  size_t i = 0;
  revents.ForEach([&](const PollFd& pf) { fds[i++].revents = pf.revents; });
  return static_cast<int>(ready);
}

Result<Pid> RemoteProcIo::Spawn(const std::string& path,
                                const std::vector<std::string>& argv,
                                const Creds& creds) {
  return FirstField<Pid>(Call<PdOp::kSpawn>(creds.ruid, creds.rgid, path, argv));
}

Result<void> RemoteProcIo::Subscribe(int fd, int events) {
  return Outcome(Call<PdOp::kSubscribe>(fd, events));
}

Result<void> RemoteProcIo::Unsubscribe(int fd) { return Outcome(Call<PdOp::kUnsubscribe>(fd)); }

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
