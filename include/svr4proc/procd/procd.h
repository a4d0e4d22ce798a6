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

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "svr4proc/kernel/kernel.h"
#include "svr4proc/kernel/ktrace.h"
#include "svr4proc/procfs/types.h"

namespace svr4 {

// --- Wire protocol -----------------------------------------------------------

// Operation codes. Every request frame gets exactly one reply frame with the
// same tag; kEvent frames (tag 0) are pushed to subscribed peers between
// replies. Each request op's body layouts are its PdMsg below.
enum class PdOp : uint16_t {
  kHello = 1, kOpen, kClose, kRead,
  kWrite = 6,  // 5 is unassigned; the ops after it keep their codes
  kLseek, kIoctl, kPsall, kReadDirChunk, kStat, kPoll, kSubscribe, kUnsubscribe, kSpawn, kStats,
  kEvent = 100,
};

// Frame: 12-byte header + body_len bytes of body.
struct PdFrameHdr {
  uint32_t body_len = 0;
  uint16_t op = 0;
  uint16_t flags = 0;  // kPdErrFlag: the body is PdError
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

// A body being built. The client encodes each request into one, reused
// across calls; a hand-built frame (a test's forged request) writes its
// fields one by one.
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
  void Append(const void* p, size_t n) { PutBytes(p, n); }
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
  // The next n bytes, or nullptr when fewer are left.
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

// --- Field types ---------------------------------------------------------------
//
// A body is a list of fields in wire order. PdField<F> says how field type F
// travels: what a value is (In) and what it decodes to (Out, a view into the
// body where it can be), the fewest bytes it takes (kMin), its Size, how it
// is Put onto a sink (a PdChannel or a PdWriter) and how it is read back
// (Get). Both ends live in one process, so numbers travel in host byte
// order; a socket transport would pin the order here.

// A trivially copyable type travels as its bytes: the scalars, and PrPsinfo.
template <typename T>
concept PdPacked = std::is_trivially_copyable_v<T> && !std::is_empty_v<T>;

struct PdStr {};   // u32 length + bytes
struct PdRest {};  // every byte left in the body; the last field only
template <typename T, T Max>
struct PdMax {};   // a T no larger than Max (a larger one does not decode)
template <typename E, uint32_t Max = UINT32_MAX>
struct PdSeq {};   // u32 count (at most Max) + count elements E
// A struct S as the members listed, in order, each travelling as field F.
template <auto Member, typename F>
struct PdAs {};
template <typename S, typename... Members>
struct PdRecord {};

template <typename F>
struct PdField;

template <PdPacked T>
struct PdField<T> {
  using In = T;
  using Out = T;
  static constexpr size_t kMin = sizeof(T);
  static size_t Size(const T&) { return sizeof(T); }
  static void Put(auto& s, const T& v) { s.Append(&v, sizeof(T)); }
  static bool Get(PdReader& r, T* v) { return r.Get(v); }
};

template <>
struct PdField<PdStr> {
  using In = std::string_view;
  using Out = std::string_view;
  static constexpr size_t kMin = sizeof(uint32_t);
  static size_t Size(std::string_view v) { return sizeof(uint32_t) + v.size(); }
  static void Put(auto& s, std::string_view v) {
    const uint32_t n = static_cast<uint32_t>(v.size());
    s.Append(&n, sizeof(n));
    s.Append(v.data(), v.size());
  }
  static bool Get(PdReader& r, std::string_view* v) {
    uint32_t n = 0;
    const uint8_t* p = r.Get(&n) ? r.Raw(n) : nullptr;
    *v = p != nullptr ? std::string_view(reinterpret_cast<const char*>(p), n) : *v;
    return p != nullptr;
  }
};

template <typename T, T Max>
struct PdField<PdMax<T, Max>> : PdField<T> {
  static bool Get(PdReader& r, T* v) { return r.Get(v) && *v <= Max; }
};

template <>
struct PdField<PdRest> {
  using In = std::span<const uint8_t>;
  using Out = std::span<const uint8_t>;
  static constexpr size_t kMin = 0;
  static size_t Size(std::span<const uint8_t> v) { return v.size(); }
  static void Put(auto& s, std::span<const uint8_t> v) { s.Append(v.data(), v.size()); }
  static bool Get(PdReader& r, std::span<const uint8_t>* v) {
    const size_t n = r.remaining();
    *v = std::span<const uint8_t>(r.Raw(n), n);
    return true;
  }
};

template <typename S, auto... Member, typename... F>
struct PdField<PdRecord<S, PdAs<Member, F>...>> {
  using In = S;
  using Out = S;
  static constexpr size_t kMin = (size_t{0} + ... + PdField<F>::kMin);
  static size_t Size(const S& s) {
    return (size_t{0} + ... + PdField<F>::Size(static_cast<typename PdField<F>::In>(s.*Member)));
  }
  static void Put(auto& out, const S& s) {
    (PdField<F>::Put(out, static_cast<typename PdField<F>::In>(s.*Member)), ...);
  }
  static bool Get(PdReader& r, S* s) {
    *s = S{};
    return ([&] {
      typename PdField<F>::Out v{};
      if (!PdField<F>::Get(r, &v)) {
        return false;
      }
      s->*Member = static_cast<std::remove_cvref_t<decltype(s->*Member)>>(v);
      return true;
    }() && ...);
  }
};

// A decoded PdSeq: its count, checked against the body it came from, and
// its elements' bytes, each element already checked to decode.
template <typename E>
class PdSeqView {
 public:
  PdSeqView() = default;
  PdSeqView(uint32_t n, std::span<const uint8_t> bytes) : n_(n), bytes_(bytes) {}
  uint32_t size() const { return n_; }
  void ForEach(auto&& fn) const {
    PdReader r(bytes_);
    for (uint32_t i = 0; i < n_; ++i) {
      typename PdField<E>::Out e{};
      PdField<E>::Get(r, &e);
      fn(std::move(e));
    }
  }
  // Packed elements copy out as one block.
  void CopyTo(E* out) const
    requires PdPacked<E>
  {
    if (n_ != 0) {
      std::memcpy(out, bytes_.data(), bytes_.size());
    }
  }

 private:
  uint32_t n_ = 0;
  std::span<const uint8_t> bytes_;
};

template <typename E, uint32_t Max>
struct PdField<PdSeq<E, Max>> {
  static_assert(PdField<E>::kMin > 0, "a count must bound the bytes it names");
  using Out = PdSeqView<E>;
  static constexpr size_t kMin = sizeof(uint32_t);
  static size_t Size(const auto& elems) {
    size_t n = sizeof(uint32_t);
    for (const auto& e : elems) {
      n += PdField<E>::Size(e);
    }
    return n;
  }
  static void Put(auto& s, const auto& elems) {
    const uint32_t n = static_cast<uint32_t>(std::size(elems));
    s.Append(&n, sizeof(n));
    if constexpr (PdPacked<E>) {
      s.Append(std::data(elems), n * sizeof(E));  // gathered from where they live
    } else {
      for (const auto& e : elems) {
        PdField<E>::Put(s, e);
      }
    }
  }
  // The count is checked against the bytes the body holds before anything
  // is sized by it, and every element must decode.
  static bool Get(PdReader& r, PdSeqView<E>* v) {
    uint32_t n = 0;
    if (!r.Get(&n) || n > Max || n > r.remaining() / PdField<E>::kMin) {
      return false;
    }
    const size_t before = r.remaining();
    const uint8_t* start = r.Raw(0);
    for (uint32_t i = 0; i < n; ++i) {
      typename PdField<E>::Out e{};
      if (!PdField<E>::Get(r, &e)) {
        return false;
      }
    }
    *v = PdSeqView<E>(n, std::span<const uint8_t>(start, before - r.remaining()));
    return true;
  }
};

// A body layout: its fields in wire order. Size, Put and Get take or fill
// one value per field, and Write appends a whole frame. Get is false when
// the body is too short for a field; bytes after the last field are not
// read.
template <typename... F>
struct PdFields {
  using Out = std::tuple<typename PdField<F>::Out...>;
  static size_t Size(const auto&... v) { return (size_t{0} + ... + PdField<F>::Size(v)); }
  static void Put(auto& s, const auto&... v) { (PdField<F>::Put(s, v), ...); }
  static bool Get(std::span<const uint8_t> body, Out* out) {
    PdReader r(body);
    return std::apply([&](auto&... o) { return (PdField<F>::Get(r, &o) && ...); }, *out);
  }
  static void Write(PdChannel& ch, PdOp op, uint16_t flags, uint32_t tag, const auto&... v) {
    const PdFrameHdr h{static_cast<uint32_t>(Size(v...)), static_cast<uint16_t>(op), flags, tag};
    ch.Append(&h, sizeof(h));
    Put(ch, v...);
  }
};

// --- The ops -------------------------------------------------------------------

using PdPollReq = PdRecord<PollFd, PdAs<&PollFd::fd, int32_t>, PdAs<&PollFd::events, int32_t>>;
using PdRevents = PdRecord<PollFd, PdAs<&PollFd::revents, int32_t>>;
using PdDirEnt = PdRecord<DirEnt, PdAs<&DirEnt::type, uint8_t>, PdAs<&DirEnt::name, PdStr>>;
using PdVAttr =
    PdRecord<VAttr, PdAs<&VAttr::type, uint8_t>, PdAs<&VAttr::mode, uint32_t>,
             PdAs<&VAttr::uid, uint32_t>, PdAs<&VAttr::gid, uint32_t>,
             PdAs<&VAttr::size, uint64_t>, PdAs<&VAttr::mtime, uint64_t>,
             PdAs<&VAttr::nlink, uint32_t>>;

template <size_t N>
struct PdName {
  constexpr PdName(const char (&s)[N]) { std::copy_n(s, N, str); }  // NOLINT
  char str[N];
};
template <PdName Name, typename Request, typename Reply>
struct PdLayout {
  static constexpr const char* kName = Name.str;  // the op's stats key
  using Req = Request;
  using Rep = Reply;
};

// Each request op, written down once: its stats name, its request fields
// and its reply fields, in wire order. RemoteProcIo encodes requests and
// decodes replies through these, and ProcdServer the reverse; nothing else
// reads or writes a body. Field names are comments; the types are the
// format.
template <PdOp Op>
struct PdMsg;
template <>
struct PdMsg<PdOp::kHello> : PdLayout<"hello", PdFields<>, PdFields<int32_t /*peer pid*/>> {};
template <>
struct PdMsg<PdOp::kOpen>
    : PdLayout<"open", PdFields<int32_t /*oflags*/, PdStr /*path*/>, PdFields<int32_t /*fd*/>> {};
template <>
struct PdMsg<PdOp::kClose> : PdLayout<"close", PdFields<int32_t /*fd*/>, PdFields<>> {};
template <>
struct PdMsg<PdOp::kRead>
    : PdLayout<"read", PdFields<int32_t /*fd*/, PdMax<uint32_t, (1u << 26)> /*n*/>,
               PdFields<PdRest /*bytes*/>> {};
template <>
struct PdMsg<PdOp::kWrite>
    : PdLayout<"write", PdFields<int32_t /*fd*/, PdRest /*bytes*/>, PdFields<int64_t /*n*/>> {};
template <>
struct PdMsg<PdOp::kLseek>
    : PdLayout<"lseek", PdFields<int32_t /*fd*/, int64_t /*off*/, int32_t /*whence*/>,
               PdFields<int64_t /*pos*/>> {};
// in_len and out_cap are CtlFlatOperand of the op's row, or 0/0 for a null
// operand; `in` carries at least in_len bytes. A kOutArray row names one
// element, and `out` holds as many as the target has.
template <>
struct PdMsg<PdOp::kIoctl>
    : PdLayout<"ioctl",
               PdFields<int32_t /*fd*/, uint32_t /*op*/, uint32_t /*in_len*/,
                        uint32_t /*out_cap*/, PdRest /*in*/>,
               PdFields<int32_t /*rv*/, PdRest /*out*/>> {};
template <>
struct PdMsg<PdOp::kPsall>
    : PdLayout<"psall",
               PdFields<int32_t /*fd*/, int32_t /*start pid*/,
                        PdMax<uint32_t, (1u << 20)> /*limit*/>,
               PdFields<int32_t /*next pid*/, PdSeq<PrPsinfo>>> {};
template <>
struct PdMsg<PdOp::kReadDirChunk>
    : PdLayout<"readdir",
               PdFields<uint64_t /*cookie*/, PdMax<uint32_t, (1u << 20)> /*max*/, PdStr /*path*/>,
               PdFields<uint64_t /*cookie*/, PdSeq<PdDirEnt>>> {};
template <>
struct PdMsg<PdOp::kStat> : PdLayout<"stat", PdFields<PdStr /*path*/>, PdFields<PdVAttr>> {};
template <>
struct PdMsg<PdOp::kPoll>
    : PdLayout<"poll", PdFields<int64_t /*timeout*/, PdSeq<PdPollReq>>,
               PdFields<int32_t /*ready*/, PdSeq<PdRevents>>> {};
template <>
struct PdMsg<PdOp::kSubscribe>
    : PdLayout<"subscribe", PdFields<int32_t /*fd*/, int32_t /*events*/>, PdFields<>> {};
template <>
struct PdMsg<PdOp::kUnsubscribe>
    : PdLayout<"unsubscribe", PdFields<int32_t /*fd*/>, PdFields<>> {};
// The ids ask for credentials; the server decides which the child gets.
template <>
struct PdMsg<PdOp::kSpawn>
    : PdLayout<"spawn",
               PdFields<uint32_t /*ruid*/, uint32_t /*rgid*/, PdStr /*path*/,
                        PdSeq<PdStr, 64> /*argv*/>,
               PdFields<int32_t /*pid*/>> {};
template <>
struct PdMsg<PdOp::kStats>
    : PdLayout<"stats", PdFields<>, PdFields<PdRest /*the server's StatsText()*/>> {};

// A code with a PdMsg is a request op.
template <PdOp Op>
concept PdRequestOp = requires { PdMsg<Op>::kName; };
template <PdOp Op>
using PdReq = typename PdMsg<Op>::Req::Out;
template <PdOp Op>
using PdRep = typename PdMsg<Op>::Rep::Out;

// The body of a kEvent push: a subscribed descriptor's poll level changed
// (captured at push time).
using PdEvent = PdFields<int32_t /*fd*/, int32_t /*revents*/>;
// The body of any reply with kPdErrFlag set.
using PdError = PdFields<int32_t /*errno*/>;

// Appends one frame whose body is `body`, written by hand (a forged frame in
// a test, or ProcdConn::Send).
inline void PdWriteFrame(PdChannel& ch, PdOp op, uint16_t flags, uint32_t tag,
                         std::span<const uint8_t> body) {
  PdFields<PdRest>::Write(ch, op, flags, tag, body);
}

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
  // Op slot space: 1..16 are request ops, slot 0 absorbs unknown codes.
  static constexpr int kPdOpSlots = static_cast<int>(PdOp::kStats) + 1;
  const OpSpan& op_span(PdOp op) const { return spans_[OpSlot(static_cast<int>(op))]; }

  // The whole registry rendered as `key value` metrics text, served by
  // /proc2/kernel/procd (via Kernel::SetProcdStatsProvider) and the kStats
  // RPC. Same line grammar as /proc2/kernel/metrics.
  std::string StatsText() const;

 private:
  friend class ProcdConn;
  using Peer = ProcdPeer;

  static constexpr int OpSlot(int op) { return op > 0 && op < kPdOpSlots ? op : 0; }

  // The request ops, indexed by code. A row's member decodes the body
  // through PdMsg<op> (EINVAL when it does not decode) and hands the
  // request to Handle<op>; a code without a row answers ENOSYS.
  struct OpRow {
    const char* name = nullptr;  // "unknown" in the stats
    void (ProcdServer::*serve)(Peer&, uint32_t tag, std::span<const uint8_t> body) = nullptr;
  };
  static const std::array<OpRow, kPdOpSlots> kOps;
  template <PdOp Op>
  void Serve(Peer& peer, uint32_t tag, std::span<const uint8_t> body);
  template <PdOp Op>
  void Handle(Peer& peer, uint32_t tag, const PdReq<Op>& req);  // one per op (procd.cc)

  // The one reply writer: every reply frame, the errno frame or the op's
  // reply fields, is written here, and writing it closes the frame's span.
  template <PdOp Op, typename... A>
  void Reply(Peer& peer, uint32_t tag, const A&... fields);
  template <PdOp Op, typename T>
  void Reply(Peer& peer, uint32_t tag, const Result<T>& r);
  void ReplyError(Peer& peer, PdOp op, uint32_t tag, Errno e);

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
