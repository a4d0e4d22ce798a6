// The procd server: per-peer descriptor tables as native controller
// processes, frame dispatch onto the kernel's syscall surface, parked
// blocking operations, subscription event push, and the PEER_DISCONNECT
// chaos site. See procd.h for the protocol and lifetime rules.
#include "svr4proc/procd/procd.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <utility>

#include "svr4proc/kernel/faults.h"
#include "svr4proc/procfs/ctl.h"
#include "svr4proc/procfs/procfs2.h"
#include "svr4proc/procfs/types.h"

namespace svr4 {

namespace {

// Span latency axis: host wall clock, because virtual ticks stand still
// while only native peers act (see EnableSpans in the header).
uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// The server's per-peer state. Lives in peers_ from Connect until the end of
// the round that detaches it.
struct ProcdPeer {
  std::shared_ptr<ProcdConn> conn;
  Proc* proc = nullptr;  // the peer's descriptor table
  size_t slot = 0;       // index in ProcdServer::peers_
  bool dead = false;     // detached; reaped at the end of the round
  bool queued = false;   // on the server's ready list

  // At most one parked blocking operation; while parked, later frames
  // from this peer stay queued in the channel (FIFO order preserved) and
  // the peer sits on the server's parked list.
  enum class Wait : uint8_t { kNone, kStopWait, kPoll };
  Wait wait = Wait::kNone;
  PdOp wait_op = PdOp::kHello;  // stop-wait: kIoctl or kWrite, the op to reply to
  uint32_t wait_tag = 0;
  Pid wait_pid = -1;            // stop-wait: the target process
  uint32_t wait_out_cap = 0;    // flat PIOCWSTOP/PIOCSTOP: PrStatus reply?
  int wait_fd = -1;             // ctl write: the descriptor
  std::vector<uint8_t> wait_cont;  // ctl write: the tail not yet written
  int64_t wait_consumed = 0;       // ctl write: bytes already accepted
  std::vector<PollFd> wait_pfds;   // parked poll set
  uint64_t wait_deadline = 0;      // poll: 0 = no timeout

  struct Sub {
    int32_t events = 0;
    int32_t last = 0;  // revents last pushed
    Pid pid = -1;      // /proc target the index files it under; -1: none
  };
  std::map<int32_t, Sub> subs;  // by fd

  // Per-peer span counters (always on, dequeue-time like the globals).
  uint64_t frames = 0;
  uint64_t ctl_ops = 0;
  uint64_t parks = 0;
  // In-flight span stamps; at most one frame is between dequeue and
  // reply per peer (parked ops carry these across pump rounds).
  uint64_t frame_start_ns = 0;  // dequeue wall clock (spans armed only)
  uint64_t park_start_tick = 0; // first park tick of the current frame
};

void ProcdConn::Send(PdOp op, uint32_t tag, std::span<const uint8_t> body) {
  PdWriteFrame(c2s_, op, 0, tag, body);
  if (peer_ != nullptr) {
    server->Ready(*peer_);
  }
}

void ProcdConn::Hangup() {
  client_closed_ = true;
  if (peer_ != nullptr) {
    server->Ready(*peer_);
  }
}

ProcdServer::ProcdServer(Kernel& k) : kernel_(&k) {
  kernel_->SetProcdStatsProvider([this] { return StatsText(); });
  kernel_->SetProcdPollHook([this](Pid pid) { MarkPid(pid); });
}

ProcdServer::~ProcdServer() {
  kernel_->SetProcdStatsProvider({});
  kernel_->SetProcdPollHook({});
  for (auto& up : peers_) {
    Detach(*up, /*chaos=*/false);
  }
}

std::shared_ptr<ProcdConn> ProcdServer::Connect(const Creds& creds,
                                                const std::string& name) {
  Proc* p = kernel_->CreateNativeProc(creds, name);
  if (p == nullptr) {
    return nullptr;
  }
  p->defers_waits = true;  // a peer's stop-wait must not stall the others
  auto conn = std::make_shared<ProcdConn>();
  conn->id = next_conn_id_++;
  conn->server = this;
  auto peer = std::make_unique<Peer>();
  peer->conn = conn;
  peer->proc = p;
  peer->slot = peers_.size();
  conn->peer_ = peer.get();
  peers_.push_back(std::move(peer));
  return conn;
}

void ProcdServer::Detach(Peer& peer, bool chaos) {
  if (peer.dead) {
    return;
  }
  peer.dead = true;
  if (peer.queued) {
    // Still on ready_, or in this round's batch, which skips dead peers.
    auto it = std::find(ready_.begin(), ready_.end(), &peer);
    if (it != ready_.end()) {
      ready_.erase(it);
    }
    peer.queued = false;
  }
  if (peer.wait != Peer::Wait::kNone) {
    parked_.erase(std::find(parked_.begin(), parked_.end(), &peer));
    peer.wait = Peer::Wait::kNone;
  }
  while (!peer.subs.empty()) {
    Unsubscribe(peer, peer.subs.begin()->first);
  }
  peer.conn->server_closed = true;
  peer.conn->peer_ = nullptr;
  // The one statement that makes "peer death == close of every descriptor
  // the peer held": stale ledgers drain, O_EXCL releases, run-on-last-close
  // fires, all through the ordinary vnode Close hooks.
  kernel_->DestroyNativeProc(peer.proc);
  detached_.push_back(&peer);
  ++stats_.disconnects;
  if (chaos) {
    ++stats_.chaos_disconnects;
  }
  // An in-flight frame dies with the peer: no reply, no span sample.
  peer.frame_start_ns = 0;
  peer.park_start_tick = 0;
}

void ProcdServer::Reap() {
  for (Peer* peer : detached_) {
    size_t slot = peer->slot;
    std::swap(peers_[slot], peers_.back());
    peers_[slot]->slot = slot;
    peers_.pop_back();
  }
  detached_.clear();
}

// --- RPC spans ---------------------------------------------------------------

void ProcdServer::SpanDequeue(Peer& peer, const PdFrame& f) {
  // Dequeue-time counters are unconditional and precede dispatch, so the
  // text a kStats reply carries already counts the kStats frame itself.
  ++stats_.frames_in;
  ++peer.frames;
  OpSpan& s = spans_[OpSlot(f.hdr.op)];
  ++s.count;
  if (spans_on_) {
    s.bytes.Record(f.hdr.body_len);
    peer.frame_start_ns = NowNs();
  }
}

void ProcdServer::SpanPark(Peer& peer, PdOp op) {
  ++spans_[OpSlot(static_cast<int>(op))].parks;
  ++peer.parks;
  if (peer.park_start_tick == 0) {
    // +1 bias so tick 0 still reads as "stamped" (cleared on reply).
    peer.park_start_tick = kernel_->Ticks() + 1;
  }
}

void ProcdServer::SpanReply(Peer& peer, PdOp op) {
  if (spans_on_) {
    OpSpan& s = spans_[OpSlot(static_cast<int>(op))];
    if (peer.frame_start_ns != 0) {
      s.lat_ns.Record(NowNs() - peer.frame_start_ns);
    }
    if (peer.park_start_tick != 0) {
      s.park_ticks.Record(kernel_->Ticks() - (peer.park_start_tick - 1));
    }
  }
  peer.frame_start_ns = 0;
  peer.park_start_tick = 0;
}

std::string ProcdServer::StatsText() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "procd peers=%zu pump_rounds=%llu peer_scans=%llu parked_now=%zu spans=%s\n",
                PeerCount(), static_cast<unsigned long long>(stats_.pump_rounds),
                static_cast<unsigned long long>(stats_.peer_scans), parked_.size(),
                spans_on_ ? "on" : "off");
  out += line;
  std::snprintf(line, sizeof(line),
                "counter procd_frames_in %llu\ncounter procd_ctl_ops %llu\n"
                "counter procd_events_pushed %llu\ncounter procd_disconnects %llu\n"
                "counter procd_chaos_disconnects %llu\n",
                static_cast<unsigned long long>(stats_.frames_in),
                static_cast<unsigned long long>(stats_.ctl_ops),
                static_cast<unsigned long long>(stats_.events_pushed),
                static_cast<unsigned long long>(stats_.disconnects),
                static_cast<unsigned long long>(stats_.chaos_disconnects));
  out += line;
  for (int i = 0; i < kPdOpSlots; ++i) {
    const OpSpan& s = spans_[i];
    if (s.count == 0 && s.parks == 0) {
      continue;
    }
    const char* name = kOps[i].name != nullptr ? kOps[i].name : "unknown";
    std::snprintf(line, sizeof(line), "counter procd_op[%s] count=%llu parks=%llu\n",
                  name, static_cast<unsigned long long>(s.count),
                  static_cast<unsigned long long>(s.parks));
    out += line;
    if (s.lat_ns.count != 0) {
      s.lat_ns.Render(out, "procd_lat_ns[", std::string(name) + "]");
    }
    if (s.bytes.count != 0) {
      s.bytes.Render(out, "procd_bytes[", std::string(name) + "]");
    }
    if (s.park_ticks.count != 0) {
      s.park_ticks.Render(out, "procd_park_ticks[", std::string(name) + "]");
    }
  }
  if (parked_peers_.count != 0) {
    parked_peers_.Render(out, "procd_parked_peers", "");
  }
  for (const auto& up : peers_) {
    if (up->dead) {
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "counter procd_peer[%d] frames=%llu ctl_ops=%llu parks=%llu\n",
                  up->proc->pid, static_cast<unsigned long long>(up->frames),
                  static_cast<unsigned long long>(up->ctl_ops),
                  static_cast<unsigned long long>(up->parks));
    out += line;
  }
  return out;
}

// --- Request ops ---------------------------------------------------------------

template <PdOp Op, typename... A>
void ProcdServer::Reply(Peer& peer, uint32_t tag, const A&... fields) {
  PdMsg<Op>::Rep::Write(peer.conn->s2c, Op, 0, tag, fields...);
  SpanReply(peer, Op);
}

template <PdOp Op, typename T>
void ProcdServer::Reply(Peer& peer, uint32_t tag, const Result<T>& r) {
  if (!r.ok()) {
    ReplyError(peer, Op, tag, r.error());
  } else if constexpr (std::is_void_v<T>) {
    Reply<Op>(peer, tag);
  } else {
    Reply<Op>(peer, tag, *r);
  }
}

void ProcdServer::ReplyError(Peer& peer, PdOp op, uint32_t tag, Errno e) {
  PdError::Write(peer.conn->s2c, op, kPdErrFlag, tag, static_cast<int32_t>(e));
  SpanReply(peer, op);
}

template <PdOp Op>
void ProcdServer::Serve(Peer& peer, uint32_t tag, std::span<const uint8_t> body) {
  PdReq<Op> req;
  if (!PdMsg<Op>::Req::Get(body, &req)) {
    ReplyError(peer, Op, tag, Errno::kEINVAL);
    return;
  }
  Handle<Op>(peer, tag, req);
}

template <>
void ProcdServer::Handle<PdOp::kHello>(Peer& peer, uint32_t tag, const PdReq<PdOp::kHello>&) {
  Reply<PdOp::kHello>(peer, tag, peer.proc->pid);
}

template <>
void ProcdServer::Handle<PdOp::kOpen>(Peer& peer, uint32_t tag, const PdReq<PdOp::kOpen>& req) {
  const auto& [oflags, path] = req;
  Reply<PdOp::kOpen>(peer, tag, kernel_->Open(peer.proc, std::string(path), oflags));
}

template <>
void ProcdServer::Handle<PdOp::kClose>(Peer& peer, uint32_t tag, const PdReq<PdOp::kClose>& req) {
  const auto& [fd] = req;
  Unsubscribe(peer, fd);
  Reply<PdOp::kClose>(peer, tag, kernel_->Close(peer.proc, fd));
}

template <>
void ProcdServer::Handle<PdOp::kRead>(Peer& peer, uint32_t tag, const PdReq<PdOp::kRead>& req) {
  const auto& [fd, n] = req;
  std::vector<uint8_t> buf(n);
  auto got = kernel_->Read(peer.proc, fd, buf.data(), n);
  if (!got.ok()) {
    ReplyError(peer, PdOp::kRead, tag, got.error());
    return;
  }
  Reply<PdOp::kRead>(peer, tag, std::span<const uint8_t>(buf.data(), static_cast<size_t>(*got)));
}

bool ProcdServer::ParkDeferredWait(Peer& peer, PdOp op, uint32_t tag) {
  Pid pid = std::exchange(peer.proc->deferred_wait, -1);
  if (pid < 0) {
    return false;
  }
  peer.wait = Peer::Wait::kStopWait;
  peer.wait_op = op;
  peer.wait_tag = tag;
  peer.wait_pid = pid;
  SpanPark(peer, op);
  return true;
}

void ProcdServer::WriteThrough(Peer& peer, uint32_t tag, int fd,
                               std::span<const uint8_t> bytes, int64_t done) {
  auto wr = kernel_->Write(peer.proc, fd, bytes.data(), bytes.size());
  if (!wr.ok()) {
    ReplyError(peer, PdOp::kWrite, tag, wr.error());
    return;
  }
  done += *wr;
  if (ParkDeferredWait(peer, PdOp::kWrite, tag)) {
    peer.wait_fd = fd;
    peer.wait_cont.assign(bytes.begin() + *wr, bytes.end());
    peer.wait_consumed = done;
    return;
  }
  Reply<PdOp::kWrite>(peer, tag, done);
}

template <>
void ProcdServer::Handle<PdOp::kWrite>(Peer& peer, uint32_t tag, const PdReq<PdOp::kWrite>& req) {
  const auto& [fd, bytes] = req;
  WriteThrough(peer, tag, fd, bytes, 0);
}

template <>
void ProcdServer::Handle<PdOp::kLseek>(Peer& peer, uint32_t tag, const PdReq<PdOp::kLseek>& req) {
  const auto& [fd, off, whence] = req;
  Reply<PdOp::kLseek>(peer, tag, kernel_->Lseek(peer.proc, fd, off, whence));
}

template <>
void ProcdServer::Handle<PdOp::kIoctl>(Peer& peer, uint32_t tag, const PdReq<PdOp::kIoctl>& req) {
  const auto& [fd, op, in_len, out_cap, in] = req;
  // The operand is sized by the op's CtlOp row, never by the frame: sizes
  // the row does not take are refused before anything runs.
  const CtlOp* row = FindCtlOpByPioc(op);
  if (!CtlFlatSizesOk(row, in_len, out_cap) || in.size() < in_len) {
    ReplyError(peer, PdOp::kIoctl, tag, Errno::kEINVAL);
    return;
  }
  ++stats_.ctl_ops;
  ++peer.ctl_ops;
  size_t out_len = out_cap;
  if (out_cap != 0 && row->arg == CtlArgKind::kOutArray) {
    // The element count comes from the live target: a null operand asks
    // for it, and nothing runs between that call and the next.
    auto n = kernel_->Ioctl(peer.proc, fd, op, nullptr);
    if (!n.ok()) {
      ReplyError(peer, PdOp::kIoctl, tag, n.error());
      return;
    }
    out_len = static_cast<size_t>(*n) * out_cap;
  }
  // Every flat operand is a trivially copyable struct, so a sized scratch
  // buffer round-trips it.
  std::vector<uint64_t> scratch((std::max<size_t>(in_len, out_len) + 7) / 8 + 1);
  if (in_len != 0) {
    std::memcpy(scratch.data(), in.data(), in_len);
  }
  void* arg = in_len != 0 || out_cap != 0 ? scratch.data() : nullptr;
  auto rv = kernel_->Ioctl(peer.proc, fd, op, arg);
  if (!rv.ok()) {
    ReplyError(peer, PdOp::kIoctl, tag, rv.error());
    return;
  }
  if (ParkDeferredWait(peer, PdOp::kIoctl, tag)) {
    peer.wait_out_cap = out_cap;  // the PrStatus is taken once the wait is over
    return;
  }
  Reply<PdOp::kIoctl>(peer, tag, *rv,
                      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(scratch.data()),
                                               out_len));
}

template <>
void ProcdServer::Handle<PdOp::kPsall>(Peer& peer, uint32_t tag, const PdReq<PdOp::kPsall>& req) {
  const auto& [fd, start, limit] = req;
  psall_.pr_start_pid = start;
  psall_.pr_limit = limit;
  auto rv = kernel_->Ioctl(peer.proc, fd, PIOCPSALL, &psall_);
  if (!rv.ok()) {
    ReplyError(peer, PdOp::kPsall, tag, rv.error());
    return;
  }
  ++stats_.ctl_ops;
  ++peer.ctl_ops;
  // The rows are gathered into the channel straight from the window.
  Reply<PdOp::kPsall>(peer, tag, psall_.pr_next_pid, psall_.pr_procs);
}

template <>
void ProcdServer::Handle<PdOp::kReadDirChunk>(Peer& peer, uint32_t tag,
                                              const PdReq<PdOp::kReadDirChunk>& req) {
  auto [cookie, max, path] = req;
  std::vector<DirEnt> ents;
  auto n = kernel_->ReadDirChunk(peer.proc, std::string(path), &cookie, max, &ents);
  if (!n.ok()) {
    ReplyError(peer, PdOp::kReadDirChunk, tag, n.error());
    return;
  }
  Reply<PdOp::kReadDirChunk>(peer, tag, cookie, ents);
}

template <>
void ProcdServer::Handle<PdOp::kStat>(Peer& peer, uint32_t tag, const PdReq<PdOp::kStat>& req) {
  Reply<PdOp::kStat>(peer, tag, kernel_->Stat(peer.proc, std::string(std::get<0>(req))));
}

template <>
void ProcdServer::Handle<PdOp::kPoll>(Peer& peer, uint32_t tag, const PdReq<PdOp::kPoll>& req) {
  const auto& [timeout, fds] = req;
  if (fds.size() > kernel_->poll_max_fds()) {
    ReplyError(peer, PdOp::kPoll, tag, Errno::kEINVAL);
    return;
  }
  std::vector<PollFd> pfds;
  pfds.reserve(fds.size());
  fds.ForEach([&](PollFd pf) { pfds.push_back(pf); });
  int ready = kernel_->PollLevels(peer.proc, pfds);
  if (ready > 0 || timeout == 0) {
    Reply<PdOp::kPoll>(peer, tag, ready, pfds);
    return;
  }
  peer.wait = Peer::Wait::kPoll;
  peer.wait_tag = tag;
  peer.wait_pfds = std::move(pfds);
  peer.wait_deadline =
      timeout < 0 ? 0 : kernel_->Ticks() + static_cast<uint64_t>(timeout);
  SpanPark(peer, PdOp::kPoll);
}

template <>
void ProcdServer::Handle<PdOp::kSubscribe>(Peer& peer, uint32_t tag,
                                           const PdReq<PdOp::kSubscribe>& req) {
  const auto& [fd, events] = req;
  auto of = kernel_->FdGet(peer.proc, fd);
  if (!of.ok()) {
    ReplyError(peer, PdOp::kSubscribe, tag, of.error());
    return;
  }
  Subscribe(peer, fd, events, (*of)->vp->PrCountedTarget());
  Reply<PdOp::kSubscribe>(peer, tag);
}

template <>
void ProcdServer::Handle<PdOp::kUnsubscribe>(Peer& peer, uint32_t tag,
                                             const PdReq<PdOp::kUnsubscribe>& req) {
  Unsubscribe(peer, std::get<0>(req));
  Reply<PdOp::kUnsubscribe>(peer, tag);
}

template <>
void ProcdServer::Handle<PdOp::kSpawn>(Peer& peer, uint32_t tag, const PdReq<PdOp::kSpawn>& req) {
  const auto& [ruid, rgid, path, args] = req;
  std::vector<std::string> argv;
  argv.reserve(args.size());
  args.ForEach([&](std::string_view a) { argv.emplace_back(a); });
  // The frame's ids are a request, not a credential: the peer spawns as
  // its own controller process, and only a super-user peer may name others.
  Creds creds = peer.proc->creds;
  if (creds.IsSuper()) {
    creds = Creds{};
    creds.ruid = creds.euid = ruid;
    creds.rgid = creds.egid = rgid;
  } else if (ruid != creds.ruid || rgid != creds.rgid) {
    ReplyError(peer, PdOp::kSpawn, tag, Errno::kEPERM);
    return;
  }
  Reply<PdOp::kSpawn>(peer, tag, kernel_->Spawn(std::string(path), argv, creds));
}

template <>
void ProcdServer::Handle<PdOp::kStats>(Peer& peer, uint32_t tag, const PdReq<PdOp::kStats>&) {
  std::string text = StatsText();
  Reply<PdOp::kStats>(peer, tag,
                      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text.data()),
                                               text.size()));
}

// A row for every code that has a PdMsg.
const std::array<ProcdServer::OpRow, ProcdServer::kPdOpSlots> ProcdServer::kOps =
    []<size_t... Code>(std::index_sequence<Code...>) {
      std::array<OpRow, kPdOpSlots> rows{};
      (
          [&] {
            constexpr PdOp kOp = static_cast<PdOp>(Code);
            if constexpr (PdRequestOp<kOp>) {
              rows[Code] = {PdMsg<kOp>::kName, &ProcdServer::Serve<kOp>};
            }
          }(),
          ...);
      return rows;
    }(std::make_index_sequence<kPdOpSlots>());

// --- Parked waits ------------------------------------------------------------

void ProcdServer::ReplyStopWait(Peer& peer, Errno e) {
  uint32_t tag = peer.wait_tag;
  std::vector<uint8_t> tail = std::move(peer.wait_cont);
  peer.wait_cont.clear();
  peer.wait = Peer::Wait::kNone;
  if (e != Errno::kOk) {
    ReplyError(peer, peer.wait_op, tag, e);
  } else if (!tail.empty()) {
    // A ctl stream parked mid-write: write the tail, which may park again
    // on another blocking message.
    WriteThrough(peer, tag, peer.wait_fd, tail, peer.wait_consumed);
  } else if (peer.wait_op == PdOp::kWrite) {
    Reply<PdOp::kWrite>(peer, tag, peer.wait_consumed);  // the stream ended with the wait
  } else {
    // Flat PIOCSTOP/PIOCWSTOP: optional PrStatus out-parameter.
    PrStatus st{};
    size_t n = 0;
    if (peer.wait_out_cap != 0) {
      st = BuildPrStatus(*kernel_, kernel_->FindProc(peer.wait_pid));
      n = sizeof(st);
    }
    Reply<PdOp::kIoctl>(peer, tag, int32_t{0},
                        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&st), n));
  }
}

bool ProcdServer::TryCompleteWait(Peer& peer, bool idle) {
  switch (peer.wait) {
    case Peer::Wait::kNone:
      return false;
    case Peer::Wait::kStopWait: {
      auto done = kernel_->PrStopWaitCheck(peer.wait_pid, idle);
      if (done.error() == Errno::kEAGAIN) {
        return false;
      }
      ReplyStopWait(peer, done.error());
      return true;
    }
    case Peer::Wait::kPoll: {
      int ready = kernel_->PollLevels(peer.proc, peer.wait_pfds);
      bool timed_out =
          peer.wait_deadline != 0 && kernel_->Ticks() >= peer.wait_deadline;
      if (ready == 0 && !timed_out && !idle) {
        return false;
      }
      peer.wait = Peer::Wait::kNone;
      Reply<PdOp::kPoll>(peer, peer.wait_tag, ready, peer.wait_pfds);
      peer.wait_pfds.clear();
      return true;
    }
  }
  return false;
}

bool ProcdServer::EvalParked(bool idle) {
  bool progress = false;
  size_t keep = 0;
  for (Peer* peer : parked_) {
    ++stats_.peer_scans;
    progress |= TryCompleteWait(*peer, idle);
    if (peer->wait != Peer::Wait::kNone) {
      parked_[keep++] = peer;  // still waiting (or re-parked by a ctl tail)
    } else if (peer->conn->c2s_.HasFrame() || peer->conn->client_closed_) {
      Ready(*peer);  // frames or a hangup queued behind the wait: next round
    }
  }
  parked_.resize(keep);
  return progress;
}

// --- Subscriptions -------------------------------------------------------------

void ProcdServer::Subscribe(Peer& peer, int32_t fd, int32_t events, Pid pid) {
  auto [it, fresh] = peer.subs.try_emplace(fd);
  it->second.events = events;
  it->second.last = 0;
  if (fresh) {
    it->second.pid = pid;
    if (pid >= 0) {
      pid_subs_[pid].subs.push_back({&peer, fd});
    } else {
      every_round_subs_.push_back({&peer, fd});
    }
  }
  // The level is pushed against last = 0 on the next event pass, as for any
  // other change; every-round subscriptions are re-polled there anyway.
  MarkPid(pid);
}

void ProcdServer::Unsubscribe(Peer& peer, int32_t fd) {
  auto it = peer.subs.find(fd);
  if (it == peer.subs.end()) {
    return;
  }
  Pid pid = it->second.pid;
  peer.subs.erase(it);
  auto unlink = [&](std::vector<SubRef>& refs) {
    auto ref = std::find_if(refs.begin(), refs.end(), [&](const SubRef& r) {
      return r.peer == &peer && r.fd == fd;
    });
    *ref = refs.back();
    refs.pop_back();
  };
  if (pid < 0) {
    unlink(every_round_subs_);
    return;
  }
  auto bucket = pid_subs_.find(pid);
  unlink(bucket->second.subs);
  if (bucket->second.subs.empty()) {
    pid_subs_.erase(bucket);  // a stale marked_pids_ entry finds nothing
  }
}

void ProcdServer::MarkPid(Pid pid) {
  auto it = pid_subs_.find(pid);
  if (it != pid_subs_.end() && !it->second.marked) {
    it->second.marked = true;
    marked_pids_.push_back(pid);
  }
}

int ProcdServer::SubLevel(Peer& peer, int32_t fd, int32_t events) const {
  PollFd pf{fd, events, 0};
  kernel_->PollLevels(peer.proc, std::span<PollFd>(&pf, 1));
  return pf.revents;
}

bool ProcdServer::RepollSubscriptions() {
  std::vector<SubRef> repoll = every_round_subs_;
  for (Pid pid : marked_pids_) {
    auto it = pid_subs_.find(pid);
    if (it != pid_subs_.end() && it->second.marked) {
      it->second.marked = false;
      repoll.insert(repoll.end(), it->second.subs.begin(), it->second.subs.end());
    }
  }
  marked_pids_.clear();
  // (connection, fd) order: each peer's events leave in descriptor order.
  std::sort(repoll.begin(), repoll.end(), [](const SubRef& a, const SubRef& b) {
    uint64_t ai = a.peer->conn->id, bi = b.peer->conn->id;
    return ai != bi ? ai < bi : a.fd < b.fd;
  });
  bool pushed = false;
  for (const SubRef& r : repoll) {
    Peer::Sub& sub = r.peer->subs.at(r.fd);
    int revents = SubLevel(*r.peer, r.fd, sub.events);
    if (revents == sub.last) {
      continue;
    }
    sub.last = revents;
    PdEvent::Write(r.peer->conn->s2c, PdOp::kEvent, 0, /*tag=*/0, r.fd, revents);
    ++stats_.events_pushed;
    pushed = true;
  }
  return pushed;
}

size_t ProcdServer::UnmarkedSubscriptionChanges() const {
  size_t missed = 0;
  for (const auto& up : peers_) {
    for (const auto& [fd, sub] : up->subs) {  // empty once detached
      if (sub.pid < 0 || pid_subs_.at(sub.pid).marked) {
        continue;  // re-polled on the next event pass regardless
      }
      if (SubLevel(*up, fd, sub.events) != sub.last) {
        ++missed;
      }
    }
  }
  return missed;
}

// --- The pump ----------------------------------------------------------------

void ProcdServer::Ready(Peer& peer) {
  if (!peer.queued) {
    peer.queued = true;
    ready_.push_back(&peer);
  }
}

bool ProcdServer::ServePeer(Peer& peer) {
  ProcdConn& conn = *peer.conn;
  if (conn.client_closed_ && !conn.c2s_.HasFrame()) {
    Detach(peer, /*chaos=*/false);
    return true;
  }
  bool progress = false;
  PdFrame f;
  while (peer.wait == Peer::Wait::kNone && conn.c2s_.NextFrame(&f)) {
    SpanDequeue(peer, f);
    const OpRow& row = kOps[OpSlot(f.hdr.op)];
    if (row.serve != nullptr) {
      (this->*row.serve)(peer, f.hdr.tag, f.body);
    } else {
      ReplyError(peer, static_cast<PdOp>(f.hdr.op), f.hdr.tag, Errno::kENOSYS);
    }
    progress = true;
    if (peer.wait != Peer::Wait::kNone) {
      parked_.push_back(&peer);
    }
  }
  if (conn.client_closed_ && peer.wait == Peer::Wait::kNone && !conn.c2s_.HasFrame()) {
    Ready(peer);  // hung up behind its frames: detach next round
  }
  return progress;
}

bool ProcdServer::Pump() {
  bool progress = false;
  // Round accounting first (before any dispatch) so a kStats frame served
  // this round already sees the round that served it.
  ++stats_.pump_rounds;
  // The chaos window, once per round: a live peer's transport can die
  // before any frame, between frames, or mid-parked-wait.
  FaultInjector* finj = kernel_->fault_injector();
  if (finj != nullptr && !peers_.empty() && finj->Fire(FaultSite::kPeerDisconnect)) {
    ++stats_.peer_scans;
    Detach(*peers_[finj->Draw(FaultSite::kPeerDisconnect, peers_.size())], /*chaos=*/true);
    progress = true;
  }
  batch_.swap(ready_);
  for (Peer* peer : batch_) {
    ++stats_.peer_scans;
    peer->queued = false;
    if (!peer->dead) {
      progress |= ServePeer(*peer);
    }
  }
  batch_.clear();
  Reap();
  // Parked waits: evaluate without stepping first. A completed ctl
  // continuation may have re-parked or left frames for the next round.
  progress |= EvalParked(/*idle=*/false);
  if (spans_on_) {
    parked_peers_.Record(parked_.size());
  }
  progress |= RepollSubscriptions();
  if (!progress && !parked_.empty()) {
    // Parked waits are the only pending work: advance the simulation. If it
    // is already idle, the waits resolve the way local blocking calls do
    // (EDEADLK for stop-waits, 0-ready for polls).
    if (kernel_->Step()) {
      return true;
    }
    progress |= EvalParked(/*idle=*/true);
  }
  return progress;
}

}  // namespace svr4
