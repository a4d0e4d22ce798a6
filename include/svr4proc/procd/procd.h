// procd: a single-threaded, poll-driven daemon exporting the process file
// system to remote controllers over a length-prefixed frame protocol.
//
// The paper's claim is that /proc makes process control an ordinary
// file-descriptor protocol; procd is that claim stretched over a wire. Each
// connected peer gets its own descriptor table — a native controller
// process inside the served kernel — so every open the peer performs is a
// real /proc open, counted in the real ledgers, subject to the real O_EXCL
// and run-on-last-close rules. Peer lifetime follows gfarm's gfmd model
// (process_attach_peer / process_detach_peer): attach creates the
// controller, detach destroys it, and a detach at *any* point — orderly
// hangup or the PEER_DISCONNECT chaos site firing mid-operation — is
// equivalent to the peer closing every descriptor it held, because teardown
// is Kernel::DestroyNativeProc and that runs every vnode Close hook.
//
// Transport is an in-memory duplex byte channel (deterministic, and cheap
// enough that a bench can hold 10k peers); the frame codec is the part a
// socket transport would reuse unchanged.
//
// Blocking control operations (PIOCSTOP / PIOCWSTOP, and the PCSTOP /
// PCWSTOP messages of a ctl or lwpctl write) never block the daemon. They
// go through Kernel::Ioctl and Kernel::Write like every other operation, so
// the ctl core runs the row's checks, appends the audit record and issues
// the directive exactly as for a local caller; because a peer's controller
// process defers waits (Proc::defers_waits), the core then hands back the
// stop-wait instead of pumping the simulation. The peer parks on it, and
// every Pump() re-evaluates Kernel::PrStopWaitCheck, the rule PrWaitStop
// itself pumps on (target gone: ENOENT; stopped: done; simulation idle:
// EDEADLK). A ctl write returns after its blocking message; the peer parks
// holding the rest of the stream and writes it once the wait is over,
// preserving batched-write semantics.
//
// A kIoctl frame's operand is sized by the op's CtlOp row (procfs/ctl.h),
// not by the frame: in_len and out_cap must be exactly what the row takes,
// or EINVAL is answered before anything runs.
//
// A pump round costs O(peers with work), never O(peers connected): it
// serves the ready list (peers whose client sent a frame or hung up), the
// parked list, and the subscriptions on pids the kernel reported through
// its poll-level hook. Idle peers are never visited, and detached peers
// leave the server at the end of their round.
#ifndef SVR4PROC_PROCD_PROCD_H_
#define SVR4PROC_PROCD_PROCD_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "svr4proc/kernel/kernel.h"
#include "svr4proc/kernel/ktrace.h"
#include "svr4proc/procfs/types.h"

namespace svr4 {

// --- Wire protocol -----------------------------------------------------------

// Request/reply/push operation codes. Every client frame gets exactly one
// reply frame with the same tag; kEvent frames (tag 0) are pushed to
// subscribed peers between replies.
enum class PdOp : uint16_t {
  kHello = 1,       // -> {}                                <- {i32 peer_pid}
  kOpen,            // -> {i32 oflags, path}                <- {i32 fd}
  kClose,           // -> {i32 fd}                          <- {}
  kRead,            // -> {i32 fd, u32 n}                   <- {bytes}
                    // 5 is unassigned; the ops after it keep their codes
  kWrite = 6,       // -> {i32 fd, bytes}                   <- {i64 n}
  kLseek,           // -> {i32 fd, i64 off, i32 whence}     <- {i64 pos}
  kIoctl,           // -> {i32 fd, u32 op, u32 in_len, u32 out_cap, in}
                    //                                      <- {i32 rv, out}
                    //    in_len/out_cap: CtlFlatOperand of the op's row, or
                    //    0/0 for a null operand; a kOutArray row names one
                    //    element and `out` holds as many as the target has
  kPsall,           // -> {i32 fd, i32 start, u32 limit}
                    //                  <- {i32 next_pid, u32 n, PrPsinfo[n]}
  kReadDirChunk,    // -> {u64 cookie, u32 max, path}
                    //        <- {u64 cookie, u32 n, n * {u8 type, u16 len, name}}
  kStat,            // -> {path}                            <- {VAttr fields}
  kPoll,            // -> {i64 timeout, u32 n, n * {i32 fd, i32 events}}
                    //                  <- {i32 ready, u32 n, n * {i32 revents}}
  kSubscribe,       // -> {i32 fd, i32 events}              <- {}
  kUnsubscribe,     // -> {i32 fd}                          <- {}
  kSpawn,           // -> {u32 ruid, u32 rgid, path, u32 argc, argv...}
                    //                                      <- {i32 pid}
  kStats,           // -> {}        <- {bytes: the server's StatsText()}
  kEvent = 100,     // push: {i32 fd, i32 revents} — a subscribed fd's poll
                    //       state changed (level captured at push time)
};

// Lowercase op mnemonic for stats keys ("ioctl", "psall", ...).
const char* PdOpName(PdOp op);

// Frame: 12-byte header + body_len bytes of body.
struct PdFrameHdr {
  uint32_t body_len = 0;
  uint16_t op = 0;
  uint16_t flags = 0;  // kPdErrFlag: body is {i32 errno}
  uint32_t tag = 0;
};
inline constexpr uint16_t kPdErrFlag = 1;

// A received frame. `body` views the channel's buffer, not a copy of it: it
// stays valid until the next NextFrame or Append on the channel it came
// from. A reader that needs bytes past that point copies them (a parked ctl
// stream copies its unwritten tail into the peer's wait state).
struct PdFrame {
  PdFrameHdr hdr;
  std::span<const uint8_t> body;
};

// One direction of a connection: an in-memory byte stream. Frames are read
// in place; the consumed prefix is dropped at the start of the next
// NextFrame or Append, never at the end of the NextFrame that consumed it,
// so the frame just returned stays where its body points. Once warm, the
// buffer's capacity carries every later frame without allocating.
class PdChannel {
 public:
  void Append(const void* p, size_t n) {
    Compact();
    const uint8_t* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  // Points `out` at the next complete frame; false when none is buffered.
  bool NextFrame(PdFrame* out) {
    Compact();
    if (buf_.size() - rd_ < sizeof(PdFrameHdr)) {
      return false;
    }
    PdFrameHdr h;
    std::memcpy(&h, buf_.data() + rd_, sizeof(h));
    if (buf_.size() - rd_ < sizeof(h) + h.body_len) {
      return false;
    }
    out->hdr = h;
    out->body = std::span<const uint8_t>(buf_.data() + rd_ + sizeof(h), h.body_len);
    rd_ += sizeof(h) + h.body_len;
    return true;
  }
  bool HasFrame() const { return buf_.size() - rd_ >= sizeof(PdFrameHdr); }
  bool empty() const { return rd_ == buf_.size(); }

 private:
  void Compact() {
    if (rd_ == buf_.size()) {
      buf_.clear();
      rd_ = 0;
    }
  }
  std::vector<uint8_t> buf_;
  size_t rd_ = 0;
};

// Little-endian-in-host-order body builder/reader (both ends live in one
// process; a socket transport would pin byte order here).
class PdWriter {
 public:
  template <typename T>
  PdWriter& Put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return PutBytes(&v, sizeof(T));
  }
  PdWriter& PutBytes(const void* p, size_t n) {
    if (n != 0) {
      size_t at = bytes_.size();
      bytes_.resize(at + n);
      std::memcpy(bytes_.data() + at, p, n);
    }
    return *this;
  }
  PdWriter& PutString(const std::string& s) {
    Put<uint32_t>(static_cast<uint32_t>(s.size()));
    return PutBytes(s.data(), s.size());
  }
  std::vector<uint8_t>& bytes() { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

// Reads a frame body in place (see PdFrame for how long the bytes live).
class PdReader {
 public:
  explicit PdReader(std::span<const uint8_t> b) : b_(b) {}
  template <typename T>
  bool Get(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (b_.size() - off_ < sizeof(T)) {
      return false;
    }
    std::memcpy(v, b_.data() + off_, sizeof(T));
    off_ += sizeof(T);
    return true;
  }
  bool GetString(std::string* s) {
    uint32_t n = 0;
    if (!Get(&n) || b_.size() - off_ < n) {
      return false;
    }
    s->assign(reinterpret_cast<const char*>(b_.data() + off_), n);
    off_ += n;
    return true;
  }
  const uint8_t* Raw(size_t n) {
    if (b_.size() - off_ < n) {
      return nullptr;
    }
    const uint8_t* p = b_.data() + off_;
    off_ += n;
    return p;
  }
  size_t remaining() const { return b_.size() - off_; }

 private:
  std::span<const uint8_t> b_;
  size_t off_ = 0;
};

// Appends one frame whose body is `body` followed by `tail`, so a reply can
// gather its fixed fields and a payload that lives elsewhere (the psall rows
// in the server's window) into the channel without first joining them.
void PdWriteFrame(PdChannel& ch, PdOp op, uint16_t flags, uint32_t tag,
                  std::span<const uint8_t> body, std::span<const uint8_t> tail = {});
void PdWriteError(PdChannel& ch, PdOp op, uint32_t tag, Errno e);

// --- Connection --------------------------------------------------------------

class ProcdServer;
struct ProcdPeer;  // the server's per-peer state (procd.cc)

// The duplex transport shared by one peer and the server. The client owns
// one reference; the server's peer entry owns the other. The client side
// writes only through Send and Hangup, and each of them also puts the peer
// on the server's ready list: a peer nobody woke is never visited.
class ProcdConn {
 public:
  // Appends one request frame to the client -> server stream.
  void Send(PdOp op, uint32_t tag, std::span<const uint8_t> body);
  // Orderly hangup: the server detaches the peer once its queued frames
  // are served.
  void Hangup();
  bool client_closed() const { return client_closed_; }

  PdChannel s2c;               // server -> client
  bool server_closed = false;  // server detached the peer (hangup or chaos)
  uint64_t id = 0;
  ProcdServer* server = nullptr;

 private:
  friend class ProcdServer;
  PdChannel c2s_;               // client -> server
  bool client_closed_ = false;  // client hung up
  ProcdPeer* peer_ = nullptr;   // the server's entry while attached
};

// --- Server ------------------------------------------------------------------

class ProcdServer {
 public:
  explicit ProcdServer(Kernel& k);
  ~ProcdServer();

  ProcdServer(const ProcdServer&) = delete;
  ProcdServer& operator=(const ProcdServer&) = delete;

  // Attaches a peer: creates its native controller process (its descriptor
  // table) and returns the transport to hand to a RemoteProcIo.
  std::shared_ptr<ProcdConn> Connect(const Creds& creds,
                                     const std::string& name = "procd-peer");

  // One service round: evaluates the PEER_DISCONNECT chaos site once,
  // drains the frames of the peers on the ready list (parking blocking ops
  // instead of pumping inline), re-evaluates the parked waits, re-polls the
  // subscriptions the kernel's hook marked, and — when parked waits are the
  // only pending work — advances the simulation one Step. Returns whether
  // anything progressed; a false return means the daemon is fully idle.
  // Clients' blocking calls drive this in a loop.
  bool Pump();

  size_t PeerCount() const { return peers_.size() - detached_.size(); }
  Kernel& kernel() { return *kernel_; }

  // Re-polls every subscription and counts those whose level differs from
  // the last value pushed although nothing marked them for re-evaluation:
  // events the pump would never send. A correct kernel hook keeps it 0.
  size_t UnmarkedSubscriptionChanges() const;

  struct Stats {
    uint64_t frames_in = 0;          // request frames processed
    uint64_t ctl_ops = 0;            // ioctl and psall frames dispatched
    uint64_t events_pushed = 0;      // kEvent frames sent
    uint64_t disconnects = 0;        // peers detached (all causes)
    uint64_t chaos_disconnects = 0;  // ... of which PEER_DISCONNECT fired
    uint64_t pump_rounds = 0;        // Pump() invocations
    uint64_t peer_scans = 0;         // peer entries visited: ready-batch
                                     // and parked entries, chaos draws
  };
  const Stats& stats() const { return stats_; }

  // RPC span accounting. Frame/op/park counters are always on (and always
  // updated at frame *dequeue*, before dispatch, so a kStats reply counts
  // the request that asked for it and a local /proc2/kernel/procd read
  // right after a remote one renders identical text). The latency, size,
  // and occupancy histograms are recorded only when spans are armed — the
  // latency axis is host wall-clock nanoseconds, because virtual ticks
  // freeze while only native peers act, so ticks would read all-zero for
  // exactly the RPC-bound workloads spans exist to attribute. Recording
  // never touches simulation state, so arming spans cannot perturb a
  // chaos run.
  void EnableSpans(bool on) { spans_on_ = on; }
  bool spans_enabled() const { return spans_on_; }

  // Per-op span stats (count/parks always; hists while armed).
  struct OpSpan {
    uint64_t count = 0;  // frames dequeued for this op
    uint64_t parks = 0;  // ... of which parked before replying
    KtHist lat_ns;       // dequeue -> reply, host nanoseconds
    KtHist bytes;        // request body length
    KtHist park_ticks;   // park -> completion, virtual ticks
  };
  // Op slot space: 1..17 are request ops, slot 0 absorbs unknown codes.
  static constexpr int kPdOpSlots = static_cast<int>(PdOp::kStats) + 1;
  const OpSpan& op_span(PdOp op) const {
    int i = static_cast<int>(op);
    return spans_[i > 0 && i < kPdOpSlots ? i : 0];
  }

  // The whole registry rendered as `key value` metrics text, served by
  // /proc2/kernel/procd (via Kernel::SetProcdStatsProvider) and the kStats
  // RPC. Same line grammar as /proc2/kernel/metrics.
  std::string StatsText() const;

 private:
  friend class ProcdConn;
  using Peer = ProcdPeer;

  void HandleFrame(Peer& peer, const PdFrame& f);
  void HandleOpen(Peer& peer, uint32_t tag, PdReader& r);
  void HandleRead(Peer& peer, uint32_t tag, PdReader& r);
  void HandleWrite(Peer& peer, uint32_t tag, PdReader& r);
  void HandleIoctl(Peer& peer, uint32_t tag, PdReader& r);
  void HandlePsall(Peer& peer, uint32_t tag, PdReader& r);
  void HandlePoll(Peer& peer, uint32_t tag, PdReader& r);
  void HandleSpawn(Peer& peer, uint32_t tag, PdReader& r);

  // Writes through the kernel and replies with the bytes accepted. A ctl
  // stream returns after a blocking message whose stop-wait the ctl core
  // deferred to the peer: the peer parks on it holding the unwritten tail.
  // `done` counts bytes accepted by earlier writes of the same frame.
  void WriteThrough(Peer& peer, uint32_t tag, int fd, std::span<const uint8_t> bytes,
                    int64_t done);
  // Parks the peer on the stop-wait the ctl core left in its controller
  // process, if any. Returns whether it parked (no reply yet).
  bool ParkDeferredWait(Peer& peer, PdOp op, uint32_t tag);

  // The ready list: a peer is queued at most once, by its client's Send or
  // Hangup, or by the server when work is left behind a wait or a hangup.
  void Ready(Peer& peer);
  // Serves one ready peer: its hangup, or its queued frames up to a park.
  bool ServePeer(Peer& peer);

  // Parked-wait machinery. EvalParked visits only the parked list.
  bool EvalParked(bool idle);
  bool TryCompleteWait(Peer& peer, bool idle);
  void ReplyStopWait(Peer& peer, Errno e);

  // Subscriptions. Those on /proc descriptors are indexed by target pid and
  // re-polled when the kernel's hook names the pid (MarkPid); those on any
  // other descriptor are re-polled every round.
  void Subscribe(Peer& peer, int32_t fd, int32_t events, Pid pid);
  void Unsubscribe(Peer& peer, int32_t fd);
  void MarkPid(Pid pid);
  int SubLevel(Peer& peer, int32_t fd, int32_t events) const;
  bool RepollSubscriptions();

  // Unlinks the peer from every list and index and closes its descriptor
  // table; the round that detached it erases it (Reap).
  void Detach(Peer& peer, bool chaos);
  void Reap();

  // Span bookkeeping around one frame's dispatch: SpanDequeue at frame
  // dequeue (counters always; stamps when armed), SpanPark when the op
  // parks, SpanReply when the reply frame for the current frame has been
  // written (immediate or parked-completion path).
  void SpanDequeue(Peer& peer, const PdFrame& f);
  void SpanPark(Peer& peer, PdOp op);
  void SpanReply(Peer& peer, PdOp op);

  struct SubRef {
    Peer* peer;
    int32_t fd;
  };
  struct PidSubs {
    std::vector<SubRef> subs;
    bool marked = false;  // the kernel named the pid since the last event pass
  };

  Kernel* kernel_;
  std::vector<std::unique_ptr<Peer>> peers_;  // attached peers, slot-indexed
  std::vector<Peer*> detached_;  // detached this round, not yet reaped
  std::vector<Peer*> ready_;     // peers to serve next round
  std::vector<Peer*> batch_;     // this round's ready list
  std::vector<Peer*> parked_;    // peers with a parked wait, in park order
  std::unordered_map<Pid, PidSubs> pid_subs_;  // /proc subscriptions by target
  std::vector<Pid> marked_pids_;  // pids marked since the last event pass
  std::vector<SubRef> every_round_subs_;  // subscriptions on other descriptors
  uint64_t next_conn_id_ = 1;
  Stats stats_;
  // The one psall window, shared by every peer and call: PIOCPSALL refills
  // it in place and HandlePsall gathers its rows straight into the peer's
  // channel, so once it has grown to the largest window asked for (at most
  // the population) a snapshot allocates nothing on the server.
  PrPsAll psall_;

  bool spans_on_ = false;
  std::array<OpSpan, kPdOpSlots> spans_{};
  KtHist parked_peers_;  // parked-wait occupancy, sampled once per round
};

}  // namespace svr4

#endif  // SVR4PROC_PROCD_PROCD_H_
