// procd behavioral tests: RPC round-trips, spawn credentials, subscription
// events, remote tools producing byte-identical output to their local
// counterparts, kIoctl frames sized only by the CtlOp table, blocking
// operations behaving remotely exactly as locally, peer death at every
// blocking point behaving exactly like a local close of every descriptor the
// peer held, the seeded PEER_DISCONNECT chaos sweep, pump cost beside idle
// peers and across connect/hangup churn, the windowed PIOCPSALL cursor
// under pid churn, a two-window snapshot byte-identical to the local one,
// a psall reply that claims rows it does not carry, and the lifetime of a
// frame body that views its channel's buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "svr4proc/kernel/faults.h"
#include "svr4proc/procd/client.h"
#include "svr4proc/procd/procd.h"
#include "svr4proc/procfs/ctl.h"
#include "svr4proc/procfs/procfs2.h"
#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/ps.h"
#include "svr4proc/tools/sim.h"
#include "svr4proc/tools/truss.h"

namespace svr4 {
namespace {

constexpr char kSpin[] = "spin: jmp spin\n";

constexpr char kCounter[] = R"(
loop: ldi r4, var
      ldw r5, [r4]
      addi r5, 1
      stw r5, [r4]
      jmp loop
      .data
var:  .word 0
)";

// A short, branch-free burst of syscalls ending in exit — a deterministic
// truss subject.
constexpr char kSysBurst[] = R"(
      ldi r0, SYS_getpid
      sys
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, msg
      ldi r3, 6
      sys
      ldi r0, SYS_open
      ldi r1, nopath
      ldi r2, O_RDONLY
      ldi r3, 0
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
      .data
msg:  .asciz "hello\n"
nopath: .asciz "/no/such"
)";

std::string FlatPath(Pid pid) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/proc/%05d", pid);
  return buf;
}

void ExpectInvariantsClean(Kernel& k, uint64_t seed) {
  auto violations = k.CheckInvariants();
  for (const auto& v : violations) {
    ADD_FAILURE() << "seed " << seed << ": invariant violated: " << v;
  }
}

// ---------------------------------------------------------------------------
// RPC round-trips.
// ---------------------------------------------------------------------------

TEST(ProcdRpc, HelloReportsPeerControllerPid) {
  Sim sim;
  ProcdServer srv(sim.kernel());
  RemoteProcIo rio(srv.Connect(Creds::Root()));
  auto pid = rio.PeerPid();
  ASSERT_TRUE(pid.ok());
  Proc* p = sim.kernel().FindProc(*pid);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->native) << "a peer's descriptor table is a native proc";
  EXPECT_EQ(srv.PeerCount(), 1u);
}

TEST(ProcdRpc, OpenIoctlCloseMatchesLocal) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  auto pid = sim.Start("/bin/prog");
  ASSERT_TRUE(pid.ok());
  ProcdServer srv(sim.kernel());
  RemoteProcIo rio(srv.Connect(Creds::Root()));

  auto fd = rio.Open(FlatPath(*pid), O_RDONLY);
  ASSERT_TRUE(fd.ok());
  PrPsinfo remote_ps;
  ASSERT_TRUE(rio.Ioctl(*fd, PIOCPSINFO, &remote_ps).ok());

  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), *pid, O_RDONLY);
  ASSERT_TRUE(h.ok());
  auto local_ps = h->Psinfo();
  ASSERT_TRUE(local_ps.ok());
  EXPECT_EQ(std::memcmp(&remote_ps, &*local_ps, sizeof(PrPsinfo)), 0)
      << "the wire round-trip must not perturb a single byte";
  EXPECT_TRUE(rio.Close(*fd).ok());
}

TEST(ProcdRpc, RemoteHandleStopAndRun) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  auto pid = sim.Start("/bin/prog");
  ASSERT_TRUE(pid.ok());
  ProcdServer srv(sim.kernel());
  RemoteProcIo rio(srv.Connect(Creds::Root()));

  auto h = ProcHandle::Grab(rio, *pid);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->Stop().ok()) << "remote PIOCSTOP parks, completes on stop";
  Proc* p = sim.kernel().FindProc(*pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->MainLwp()->state, LwpState::kStopped);
  auto st = h->Status();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->pr_why, PR_REQUESTED);
  ASSERT_TRUE(h->Run().ok());
  EXPECT_EQ(p->MainLwp()->state, LwpState::kRunning);
}

// PIOCSFAULT then PIOCGFAULT through a local handle and a remote one: each
// reads back the traced-fault set either of them wrote.
TEST(ProcdRpc, FaultTraceSetRoundTripsLocalAndRemote) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  auto pid = sim.Start("/bin/prog");
  ASSERT_TRUE(pid.ok());
  ProcdServer srv(sim.kernel());
  RemoteProcIo rio(srv.Connect(Creds::Root()));
  auto local = ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);
  auto remote = ProcHandle::Grab(rio, *pid);
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE(remote.ok());

  const FltSet set_locally{FLTBPT, FLTWATCH};
  ASSERT_TRUE(local->SetFltTrace(set_locally).ok());
  for (ProcHandle* h : {&*local, &*remote}) {
    auto got = h->GetFltTrace();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, set_locally);
  }
  const FltSet set_remotely{FLTTRACE, FLTIZDIV};
  ASSERT_TRUE(remote->SetFltTrace(set_remotely).ok());
  for (ProcHandle* h : {&*local, &*remote}) {
    auto got = h->GetFltTrace();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, set_remotely);
  }
}

TEST(ProcdRpc, CtlStreamParksMidBatchAndRunsTail) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  auto pid = sim.Start("/bin/prog");
  ASSERT_TRUE(pid.ok());
  ProcdServer srv(sim.kernel());
  RemoteProcIo rio(srv.Connect(Creds::Root()));

  char path[32];
  std::snprintf(path, sizeof(path), "/proc2/%d/ctl", *pid);
  auto fd = rio.Open(path, O_WRONLY);
  ASSERT_TRUE(fd.ok());

  // One batched write: PCSTOP (blocking — the server must park, not pump
  // inline) followed by PCSTRACE. The tail must run after the stop lands.
  std::vector<uint8_t> stream;
  auto put32 = [&](int32_t v) {
    const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
    stream.insert(stream.end(), p, p + 4);
  };
  put32(PCSTOP);
  put32(PCSTRACE);
  SigSet sigs;
  sigs.Add(SIGUSR1);
  const uint8_t* sp = reinterpret_cast<const uint8_t*>(&sigs);
  stream.insert(stream.end(), sp, sp + sizeof(SigSet));

  auto wrote = rio.Write(*fd, stream.data(), stream.size());
  ASSERT_TRUE(wrote.ok());
  EXPECT_EQ(*wrote, static_cast<int64_t>(stream.size()))
      << "the reply reports the whole batched stream consumed";

  Proc* p = sim.kernel().FindProc(*pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->MainLwp()->state, LwpState::kStopped);
  EXPECT_TRUE(p->trace.sigtrace.Has(SIGUSR1))
      << "the post-park continuation executed the stream tail";
}

TEST(ProcdSpawn, PeerSpawnsOnlyUnderItsOwnIds) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kSpin).ok());
  ProcdServer srv(sim.kernel());
  RemoteProcIo user(srv.Connect(Creds::User(100, 10)));
  size_t procs = sim.kernel().ProcCount();
  auto as_root = user.Spawn("/bin/prog", {"prog"}, Creds::Root());
  ASSERT_FALSE(as_root.ok()) << "a uid-100 peer spawned a root process";
  EXPECT_EQ(as_root.error(), Errno::kEPERM);
  EXPECT_EQ(sim.kernel().ProcCount(), procs) << "a refused spawn creates nothing";

  auto own = user.Spawn("/bin/prog", {"prog"}, Creds::User(100, 10));
  ASSERT_TRUE(own.ok());
  Proc* p = sim.kernel().FindProc(*own);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->creds.ruid, 100u);
  EXPECT_EQ(p->creds.euid, 100u);
  EXPECT_EQ(p->creds.rgid, 10u);
  EXPECT_EQ(p->creds.egid, 10u);

  // A super-user peer still names the ids it spawns under.
  RemoteProcIo root(srv.Connect(Creds::Root()));
  auto for_user = root.Spawn("/bin/prog", {"prog"}, Creds::User(200, 20));
  ASSERT_TRUE(for_user.ok());
  p = sim.kernel().FindProc(*for_user);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->creds.euid, 200u);
  EXPECT_EQ(p->creds.egid, 20u);
}

TEST(ProcdRpc, WstopOnNativeTargetIdlesToDeadlock) {
  Sim sim;
  Proc* tgt = sim.kernel().CreateNativeProc(Creds::Root(), "inert");
  ASSERT_NE(tgt, nullptr);
  ProcdServer srv(sim.kernel());
  RemoteProcIo rio(srv.Connect(Creds::Root()));
  auto h = ProcHandle::Grab(rio, tgt->pid);
  ASSERT_TRUE(h.ok());
  auto ws = h->WaitStop();
  ASSERT_FALSE(ws.ok());
  EXPECT_EQ(ws.error(), Errno::kEDEADLK)
      << "an idle simulation resolves a parked wait like local PIOCWSTOP";
}

// ---------------------------------------------------------------------------
// The trust boundary: a kIoctl frame's operand is sized by the op's CtlOp
// row, and a frame whose in_len/out_cap the row does not take is refused
// before any handler runs.
// ---------------------------------------------------------------------------

struct RawReply {
  bool error = false;
  Errno e = Errno::kOk;
};

// Sends one hand-built kIoctl frame carrying `in` and pumps until its reply.
RawReply RawIoctl(ProcdServer& srv, ProcdConn& conn, int fd, uint32_t op, uint32_t in_len,
                  uint32_t out_cap, const std::vector<uint8_t>& in = {}) {
  static uint32_t tag = 5000;
  PdWriter w;
  w.Put<int32_t>(fd);
  w.Put<uint32_t>(op);
  w.Put<uint32_t>(in_len);
  w.Put<uint32_t>(out_cap);
  w.PutBytes(in.data(), in.size());
  conn.Send(PdOp::kIoctl, ++tag, w.bytes());
  PdFrame f;
  for (int i = 0; i < 100 && !conn.s2c.NextFrame(&f); ++i) {
    srv.Pump();
  }
  RawReply out;
  EXPECT_EQ(f.hdr.tag, tag) << "no reply to the raw frame";
  out.error = (f.hdr.flags & kPdErrFlag) != 0;
  if (out.error && f.body.size() == 4) {
    int32_t e = 0;
    std::memcpy(&e, f.body.data(), 4);
    out.e = static_cast<Errno>(e);
  }
  return out;
}

// A stopped target, a remote peer holding a writable /proc descriptor on
// it, and a local handle for reading its audit ring.
class TrustRig {
 public:
  TrustRig() {
    EXPECT_TRUE(sim_.InstallProgram("/bin/prog", kCounter).ok());
    auto pid = sim_.Start("/bin/prog");
    EXPECT_TRUE(pid.ok());
    pid_ = *pid;
    auto h = ProcHandle::Grab(sim_.kernel(), sim_.controller(), pid_);
    EXPECT_TRUE(h.ok());
    local_ = std::make_unique<ProcHandle>(std::move(*h));
    EXPECT_TRUE(local_->Stop().ok());
    srv_ = std::make_unique<ProcdServer>(sim_.kernel());
    conn_ = srv_->Connect(Creds::Root());
    rio_ = std::make_unique<RemoteProcIo>(conn_);
    auto fd = rio_->Open(FlatPath(pid_), O_RDWR);
    EXPECT_TRUE(fd.ok());
    fd_ = fd.ok() ? *fd : -1;
  }

  RawReply Send(uint32_t op, uint32_t in_len, uint32_t out_cap,
                const std::vector<uint8_t>& in = {}) {
    return RawIoctl(*srv_, *conn_, fd_, op, in_len, out_cap, in);
  }
  uint64_t AuditTotal() {
    auto a = local_->Audit();
    EXPECT_TRUE(a.ok());
    return a.ok() ? a->pr_total : 0;
  }

  Sim& sim() { return sim_; }
  Pid pid() const { return pid_; }
  ProcHandle& local() { return *local_; }
  RemoteProcIo& rio() { return *rio_; }
  int fd() const { return fd_; }

 private:
  Sim sim_;
  Pid pid_ = -1;
  std::unique_ptr<ProcHandle> local_;
  std::unique_ptr<ProcdServer> srv_;
  std::shared_ptr<ProcdConn> conn_;
  std::unique_ptr<RemoteProcIo> rio_;
  int fd_ = -1;
};

TEST(ProcdTrust, StatusIntoEightBytesIsRefused) {
  TrustRig rig;
  RawReply r = rig.Send(PIOCSTATUS, 0, 8);
  EXPECT_TRUE(r.error);
  EXPECT_EQ(r.e, Errno::kEINVAL) << "a 240-byte PrStatus must not be written into 8";
}

TEST(ProcdTrust, StatusIntoNoBufferIsRefused) {
  TrustRig rig;
  RawReply r = rig.Send(PIOCSTATUS, 0, 0);
  EXPECT_TRUE(r.error);
  EXPECT_EQ(r.e, Errno::kEINVAL) << "PIOCSTATUS has no null operand";
}

TEST(ProcdTrust, ShortTraceSetIsRefused) {
  TrustRig rig;
  uint64_t before = rig.AuditTotal();
  RawReply r = rig.Send(PIOCSTRACE, 4, 0, {1, 2, 3, 4});
  EXPECT_TRUE(r.error);
  EXPECT_EQ(r.e, Errno::kEINVAL) << "a SigSet must not be read from 4 bytes";
  EXPECT_EQ(rig.AuditTotal(), before) << "the handler must not run";
}

// Every flat row, every in_len/out_cap in {0, size-1, size+1} the row does
// not take: EINVAL, and no handler runs (the audit ring stands still and
// the stopped target stays stopped).
TEST(ProcdTrust, MissizedFramesRunNoHandler) {
  TrustRig rig;
  int frames = 0;
  for (const CtlOp& row : CtlOpTable()) {
    if (row.pioc == 0) {
      continue;
    }
    CtlFlatBytes want = CtlFlatOperand(row);
    auto takes = [&](uint32_t in, uint32_t out) {
      return row.flat_size >= 0 && ((in == want.in && out == want.out) ||
                                    (row.flat_optional && in == 0 && out == 0));
    };
    std::vector<std::pair<uint32_t, uint32_t>> sizes;
    for (uint32_t in : {0u, want.in - 1, want.in + 1}) {
      sizes.emplace_back(in, want.out);
    }
    for (uint32_t out : {0u, want.out - 1, want.out + 1}) {
      sizes.emplace_back(want.in, out);
    }
    for (auto [in, out] : sizes) {
      if (takes(in, out)) {
        continue;
      }
      // The frame carries every byte it claims (up to a sane bound), so
      // only the size check can refuse it.
      std::vector<uint8_t> bytes(std::min<uint32_t>(in, 1u << 16), 0);
      uint64_t before = rig.AuditTotal();
      RawReply r = rig.Send(row.pioc, in, out, bytes);
      EXPECT_TRUE(r.error) << row.name << " in=" << in << " out=" << out;
      EXPECT_EQ(r.e, Errno::kEINVAL) << row.name << " in=" << in << " out=" << out;
      EXPECT_EQ(rig.AuditTotal(), before) << row.name << " ran its handler";
      ++frames;
    }
  }
  EXPECT_GT(frames, 100);
  Proc* p = rig.sim().kernel().FindProc(rig.pid());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->MainLwp()->state, LwpState::kStopped);
}

// Frames sized by the row answer every flat query byte-identically to the
// same ioctl issued locally (nothing runs the kernel in between).
TEST(ProcdTrust, SizedQueriesMatchLocalBytes) {
  TrustRig rig;
  auto maps = rig.local().GetMap();
  ASSERT_TRUE(maps.ok() && !maps->empty());
  ASSERT_TRUE(rig.local().SetWatch(PrWatch{(*maps)[0].pr_vaddr, 4, WA_WRITE}).ok());
  int queries = 0;
  for (const CtlOp& row : CtlOpTable()) {
    bool array = row.arg == CtlArgKind::kOutArray;
    if (row.pioc == 0 || row.flat_size < 0 || (row.arg != CtlArgKind::kOut && !array)) {
      continue;
    }
    size_t bytes = static_cast<size_t>(row.flat_size);
    if (array) {
      auto n = rig.local().io().Ioctl(rig.local().fd(), row.pioc, nullptr);
      ASSERT_TRUE(n.ok()) << row.name;
      ASSERT_GT(*n, 0) << row.name << ": an empty array proves nothing";
      bytes *= static_cast<size_t>(*n);
    }
    std::vector<uint8_t> local(bytes, 0), remote(bytes, 0);
    auto lr = rig.local().io().Ioctl(rig.local().fd(), row.pioc, local.data());
    auto rr = rig.rio().Ioctl(rig.fd(), row.pioc, remote.data());
    ASSERT_EQ(lr.ok(), rr.ok()) << row.name;
    if (lr.ok()) {
      EXPECT_EQ(*lr, *rr) << row.name;
    } else {
      EXPECT_EQ(lr.error(), rr.error()) << row.name;
    }
    EXPECT_EQ(local, remote) << row.name << " differs over the wire";
    ++queries;
  }
  EXPECT_GT(queries, 20);
}

// A peer's path names a pid or an lwp id too large to exist, including one
// that 32-bit arithmetic would wrap onto the live target: nothing resolves.
TEST(ProcdTrust, OutOfRangeNamesAreEnoent) {
  TrustRig rig;
  std::string wrapped = std::to_string((uint64_t{1} << 32) + static_cast<uint64_t>(rig.pid()));
  std::string dir = "/proc2/" + std::to_string(rig.pid());
  for (const std::string& path :
       {std::string("/proc/9999999999"), "/proc/" + wrapped, std::string("/proc2/9999999999"),
        "/proc2/" + wrapped, dir + "/lwp/99999999999", dir + "/lwp/4294967297/lwpstatus"}) {
    auto a = rig.rio().Stat(path);
    ASSERT_FALSE(a.ok()) << path << " resolved";
    EXPECT_EQ(a.error(), Errno::kENOENT) << path;
    auto fd = rig.rio().Open(path, O_RDONLY);
    ASSERT_FALSE(fd.ok()) << path << " opened";
    EXPECT_EQ(fd.error(), Errno::kENOENT) << path;
  }
  EXPECT_TRUE(rig.rio().Stat(dir + "/lwp/00001/lwpstatus").ok());
}

// Op code 5 is unassigned: a frame carrying it gets ENOSYS like any unknown
// op, even with a {fd, off, n} read body on a readable /proc descriptor, and
// the codes around it keep their wire values.
TEST(ProcdTrust, RetiredOpFiveIsEnosys) {
  static_assert(static_cast<int>(PdOp::kRead) == 4 && static_cast<int>(PdOp::kWrite) == 6);
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  auto pid = sim.Start("/bin/prog");
  ASSERT_TRUE(pid.ok());
  ProcdServer srv(sim.kernel());
  auto conn = srv.Connect(Creds::Root());
  RemoteProcIo rio(conn);
  auto fd = rio.Open(FlatPath(*pid), O_RDONLY);
  ASSERT_TRUE(fd.ok());
  PdWriter w;
  w.Put<int32_t>(*fd);
  w.Put<uint64_t>(0x80000000u);
  w.Put<uint32_t>(16);
  conn->Send(static_cast<PdOp>(5), 4242, w.bytes());
  PdFrame f;
  for (int i = 0; i < 100 && !conn->s2c.NextFrame(&f); ++i) {
    srv.Pump();
  }
  ASSERT_EQ(f.hdr.tag, 4242u) << "no reply to the op-5 frame";
  EXPECT_EQ(f.hdr.op, 5);
  ASSERT_TRUE(f.hdr.flags & kPdErrFlag);
  ASSERT_EQ(f.body.size(), 4u);
  int32_t e = 0;
  std::memcpy(&e, f.body.data(), 4);
  EXPECT_EQ(static_cast<Errno>(e), Errno::kENOSYS);
}

// ---------------------------------------------------------------------------
// One poll level rule (Kernel::PollLevels) behind every poller: the same
// descriptor set, polled with timeout 0 through Kernel::PollFds, a
// simulated process's poll(2) and RemoteProcIo::PollFds, reports the same
// revents and the same count on all three.
// ---------------------------------------------------------------------------

TEST(PollRule, SameLevelsOnEveryPath) {
  Sim sim;
  Kernel& k = sim.kernel();
  ASSERT_TRUE(sim.InstallProgram("/bin/spin", kSpin).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/suid", kSpin, 04755, 0, 0).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/exit", "ldi r0, SYS_exit\nldi r1, 0\nsys\n").ok());
  // Waits for its first data word to turn nonzero, then execs set-uid.
  auto setid_img = sim.InstallProgram("/bin/setid", R"(
wait: ldi r4, go
      ldw r5, [r4]
      cmpi r5, 0
      jz wait
      ldi r0, SYS_exec
      ldi r1, path
      ldi r2, 0
      sys
spin: jmp spin
      .data
go:   .word 0
path: .asciz "/bin/suid"
)");
  ASSERT_TRUE(setid_img.ok());
  auto stopped_pri = sim.Start("/bin/spin");
  auto stopped_in = sim.Start("/bin/spin");
  auto zombie = k.Spawn("/bin/exit", {"exit"}, Creds::Root(), sim.controller());
  auto setid = sim.Start("/bin/setid", {}, Creds::User(100, 10));
  ASSERT_TRUE(stopped_pri.ok() && stopped_in.ok() && zombie.ok() && setid.ok());

  // {target, events} per entry; target -1 stands for kBadFd, a descriptor
  // number no poller holds.
  constexpr int kBadFd = 63;
  const std::vector<std::pair<Pid, int>> set = {
      {-1, POLLPRI},
      {*stopped_pri, POLLPRI},
      {*stopped_in, POLLIN},
      {*zombie, POLLPRI},
      {*setid, POLLPRI},
  };
  const std::vector<int> want = {POLLNVAL, POLLPRI, 0, POLLHUP, POLLNVAL};

  // The simulated poller opens the targets, marks r10 = 2, waits for its
  // first data word, polls the set with timeout 0 and marks r10 = 1.
  std::string src;
  std::string data = "      .data\ngo:   .word 0\ncnt:  .word -1\npfd:";
  for (size_t i = 0; i < set.size(); ++i) {
    auto [pid, events] = set[i];
    data += (i == 0 ? " .word " : ", ") + std::to_string(pid < 0 ? kBadFd : 0) + ", " +
            std::to_string(events) + ", -1";
    if (pid >= 0) {
      src += "      ldi r0, SYS_open\n      ldi r1, path" + std::to_string(i) +
             "\n      ldi r2, O_RDONLY\n      ldi r3, 0\n      sys\n      ldi r4, pfd\n"
             "      stw r0, [r4+" + std::to_string(12 * i) + "]\n";
    }
  }
  data += "\n";
  for (size_t i = 0; i < set.size(); ++i) {
    if (set[i].first >= 0) {
      data += "path" + std::to_string(i) + ": .asciz \"" + FlatPath(set[i].first) + "\"\n";
    }
  }
  src += R"(      ldi r10, 2
wait: ldi r4, go
      ldw r5, [r4]
      cmpi r5, 0
      jz wait
      ldi r0, SYS_poll
      ldi r1, pfd
      ldi r2, )" + std::to_string(set.size()) + R"(
      ldi r3, 0
      sys
      ldi r4, cnt
      stw r0, [r4]
      ldi r10, 1
done: jmp done
)" + data;
  auto poller_img = sim.InstallProgram("/bin/poller", src);
  ASSERT_TRUE(poller_img.ok());
  auto poller = sim.Start("/bin/poller");
  ASSERT_TRUE(poller.ok());

  auto pri = ProcHandle::Grab(k, sim.controller(), *stopped_pri);
  auto in = ProcHandle::Grab(k, sim.controller(), *stopped_in);
  ASSERT_TRUE(pri.ok() && in.ok());
  ASSERT_TRUE(pri->Stop().ok());
  ASSERT_TRUE(in->Stop().ok());
  ASSERT_TRUE(k.RunUntil([&] {
    return k.FindProc(*zombie)->state == Proc::State::kZombie &&
           k.FindProc(*poller)->MainLwp()->regs.r[10] == 2;
  }));

  // The other two pollers open the same targets.
  Proc* native = sim.NewController(Creds::Root(), "native");
  ProcdServer srv(k);
  RemoteProcIo rio(srv.Connect(Creds::Root()));
  std::vector<PollFd> local(set.size()), remote(set.size());
  for (size_t i = 0; i < set.size(); ++i) {
    local[i] = PollFd{kBadFd, set[i].second, -1};
    remote[i] = local[i];
    if (set[i].first >= 0) {
      auto lf = k.Open(native, FlatPath(set[i].first), O_RDONLY);
      auto rf = rio.Open(FlatPath(set[i].first), O_RDONLY);
      ASSERT_TRUE(lf.ok() && rf.ok());
      local[i].fd = *lf;
      remote[i].fd = *rf;
    }
  }

  // Now the set-id exec: every descriptor on that target goes stale.
  auto go = ProcHandle::Grab(k, sim.controller(), *setid);
  ASSERT_TRUE(go.ok());
  const uint32_t one = 1;
  ASSERT_TRUE(go->WriteMem(setid_img->data_vaddr, &one, 4).ok());
  ASSERT_TRUE(k.RunUntil([&] { return k.FindProc(*setid)->trace.gen == 2; }));

  auto nl = k.PollFds(native, local, 0);
  auto nr = rio.PollFds(remote, 0);
  ASSERT_TRUE(nl.ok() && nr.ok());

  auto ph = ProcHandle::Grab(k, sim.controller(), *poller);
  ASSERT_TRUE(ph.ok());
  ASSERT_TRUE(ph->WriteMem(poller_img->data_vaddr, &one, 4).ok());
  ASSERT_TRUE(k.RunUntil([&] { return k.FindProc(*poller)->MainLwp()->regs.r[10] == 1; }));
  int32_t ns = 0;
  std::vector<PollFd> simulated(set.size());
  ASSERT_TRUE(ph->ReadMem(poller_img->data_vaddr + 4, &ns, 4).ok());
  ASSERT_TRUE(ph->ReadMem(poller_img->data_vaddr + 8, simulated.data(),
                          simulated.size() * sizeof(PollFd))
                  .ok());

  EXPECT_EQ(*nl, 4);
  EXPECT_EQ(*nr, *nl);
  EXPECT_EQ(ns, *nl);
  for (size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(local[i].revents, want[i]) << "entry " << i;
    EXPECT_EQ(remote[i].revents, local[i].revents) << "entry " << i;
    EXPECT_EQ(simulated[i].revents, local[i].revents) << "entry " << i;
  }
}

// ---------------------------------------------------------------------------
// Blocking operations: the ctl core runs the checks, the audit record and
// the directive for a remote peer exactly as for a local controller, and
// only the wait parks. Every op, on every kind of target, must leave the
// same errno, reply bytes and audit ring remotely as locally.
// ---------------------------------------------------------------------------

// Counts, then stops itself with SIGSTOP: a PCWSTOP on it has a stop to
// wait for.
constexpr char kSelfStop[] = R"(
      ldi r5, 0
loop: addi r5, 1
      cmpi r5, 2000
      jlt loop
      ldi r0, SYS_getpid
      sys
      mov r1, r0
      ldi r0, SYS_kill
      ldi r2, SIGSTOP
      sys
spin: jmp spin
)";

constexpr char kExiter[] = R"(
      ldi r0, SYS_exit
      ldi r1, 3
      sys
)";

constexpr char kPause[] = R"(
      ldi r0, SYS_pause
      sys
      jmp 0
)";

constexpr char kSetIdExec[] = R"(
      ldi r5, 0
loop: addi r5, 1
      cmpi r5, 500
      jlt loop
      ldi r0, SYS_exec
      ldi r1, path
      ldi r2, 0
      sys
      ldi r0, SYS_exit
      ldi r1, 1
      sys
      .data
path: .asciz "/bin/suid"
)";

enum class BlockOp {
  kPiocStop,          // PIOCSTOP, no status pointer
  kPiocStopStatus,    // PIOCSTOP into a PrStatus
  kPiocWstop,         // PIOCWSTOP, no status pointer
  kPiocWstopStatus,   // PIOCWSTOP into a PrStatus
  kCtlStop,           // ctl write: PCSTOP then PCRUN (a tail that needs the stop)
  kCtlWstop,          // ctl write: PCWSTOP
  kLwpCtlStop,        // lwpctl write: PCSTOP
  kPiocStopOnCtlFd,   // PIOCSTOP on a /proc2 ctl descriptor: no ioctls there
};

enum class Target {
  kLive,         // running, and stops (on request or by itself)
  kReadOnly,     // the descriptor lacks the write right
  kZombie,       // exited, not yet waited for
  kSetIdExec,    // the descriptor was invalidated by a set-id exec
  kReusedPid,    // the pid now names a different process
  kIdleKernel,   // nothing can run: a wait that finds no stop is EDEADLK
};

struct BlockCase {
  BlockOp op;
  Target target;
};

void PrintTo(const BlockCase& c, std::ostream* os) {
  static const char* kOps[] = {"PIOCSTOP",  "PIOCSTOP+status", "PIOCWSTOP",
                               "PIOCWSTOP+status", "ctl PCSTOP+PCRUN", "ctl PCWSTOP",
                               "lwpctl PCSTOP", "PIOCSTOP on ctl fd"};
  static const char* kTargets[] = {"live", "read-only fd", "zombie",
                                   "set-id exec", "reused pid", "idle kernel"};
  *os << kOps[static_cast<int>(c.op)] << " / " << kTargets[static_cast<int>(c.target)];
}

struct BlockOutcome {
  Errno e = Errno::kOk;       // the open's or the operation's errno
  int64_t rv = 0;             // ioctl return value or bytes written
  std::vector<uint8_t> out;   // the PrStatus, when one was asked for
  PrCtlAudit audit{};         // the target pid's audit ring afterwards
  uint64_t parks = 0;         // remote only: frames that parked
};

bool IsIoctl(BlockOp op) {
  return op == BlockOp::kPiocStop || op == BlockOp::kPiocStopStatus ||
         op == BlockOp::kPiocWstop || op == BlockOp::kPiocWstopStatus ||
         op == BlockOp::kPiocStopOnCtlFd;
}

// One simulation: the target set up for the case, then the operation issued
// by a controller at the same pid on either side — a native stand-in
// locally, the peer's controller process remotely.
BlockOutcome RunBlockCase(const BlockCase& c, bool remote) {
  BlockOutcome res;
  Sim sim;
  Kernel& k = sim.kernel();
  EXPECT_TRUE(sim.InstallProgram("/bin/selfstop", kSelfStop).ok());
  EXPECT_TRUE(sim.InstallProgram("/bin/exiter", kExiter).ok());
  EXPECT_TRUE(sim.InstallProgram("/bin/pause", kPause).ok());
  EXPECT_TRUE(sim.InstallProgram("/bin/setid", kSetIdExec).ok());
  EXPECT_TRUE(sim.InstallProgram("/bin/suid", kSpin, 04755, 0, 0).ok());
  EXPECT_TRUE(sim.InstallProgram("/bin/spin", kSpin).ok());
  if (c.target == Target::kReusedPid) {
    k.SetMaxPid(32);
  }
  const char* prog = "/bin/selfstop";
  Creds creds = Creds::Root();
  switch (c.target) {
    case Target::kZombie: prog = "/bin/exiter"; break;
    case Target::kSetIdExec: prog = "/bin/setid"; creds = Creds::User(100, 10); break;
    case Target::kReusedPid: prog = "/bin/spin"; break;
    case Target::kIdleKernel: prog = "/bin/pause"; break;
    default: break;
  }
  // The controller is the parent, so a zombie waits to be waited for.
  auto spawned = k.Spawn(prog, {prog}, creds, sim.controller());
  EXPECT_TRUE(spawned.ok());
  Pid pid = *spawned;

  std::unique_ptr<ProcdServer> srv;
  std::unique_ptr<ProcIo> io;
  if (remote) {
    srv = std::make_unique<ProcdServer>(k);
    io = std::make_unique<RemoteProcIo>(srv->Connect(Creds::Root()));
  } else {
    io = std::make_unique<LocalProcIo>(k, sim.NewController(Creds::Root(), "peer-standin"));
  }

  char path[64];
  if (IsIoctl(c.op) && c.op != BlockOp::kPiocStopOnCtlFd) {
    std::snprintf(path, sizeof(path), "/proc/%05d", pid);
  } else if (c.op == BlockOp::kLwpCtlStop) {
    std::snprintf(path, sizeof(path), "/proc2/%d/lwp/1/lwpctl", pid);
  } else {
    std::snprintf(path, sizeof(path), "/proc2/%d/ctl", pid);
  }
  bool rw = IsIoctl(c.op) && c.op != BlockOp::kPiocStopOnCtlFd;
  int oflags = c.target == Target::kReadOnly ? O_RDONLY : rw ? O_RDWR : O_WRONLY;
  auto fd = io->Open(path, oflags);

  switch (c.target) {
    case Target::kZombie:
      EXPECT_TRUE(k.RunUntil([&] { return k.FindProc(pid)->state == Proc::State::kZombie; }));
      break;
    case Target::kSetIdExec:
      EXPECT_TRUE(k.RunUntil([&] { return k.FindProc(pid)->setid; }));
      break;
    case Target::kReusedPid: {
      EXPECT_TRUE(k.Kill(sim.controller(), pid, SIGKILL).ok());
      EXPECT_TRUE(k.Wait(sim.controller(), pid).ok());
      for (int i = 0; i < 64 && k.FindProc(pid) == nullptr; ++i) {
        k.CreateNativeProc(Creds::Root(), "newcomer");
      }
      EXPECT_NE(k.FindProc(pid), nullptr) << "the pid was never reused";
      break;
    }
    case Target::kIdleKernel:
      for (int i = 0; i < 1000 && k.Step(); ++i) {
      }
      EXPECT_FALSE(k.Step()) << "the kernel must be idle";
      break;
    default:
      break;
  }

  auto parks = [&] {
    return srv == nullptr ? 0
                          : srv->op_span(PdOp::kIoctl).parks + srv->op_span(PdOp::kWrite).parks;
  };
  uint64_t parks_before = parks();
  if (!fd.ok()) {
    res.e = fd.error();
  } else if (IsIoctl(c.op)) {
    bool status = c.op == BlockOp::kPiocStopStatus || c.op == BlockOp::kPiocWstopStatus;
    uint32_t code = c.op == BlockOp::kPiocWstop || c.op == BlockOp::kPiocWstopStatus
                        ? PIOCWSTOP
                        : PIOCSTOP;
    PrStatus st;
    std::memset(static_cast<void*>(&st), 0, sizeof(st));
    auto r = io->Ioctl(*fd, code, status ? &st : nullptr);
    if (r.ok()) {
      res.rv = *r;
      if (status) {
        const uint8_t* b = reinterpret_cast<const uint8_t*>(&st);
        res.out.assign(b, b + sizeof(st));
      }
    } else {
      res.e = r.error();
    }
  } else {
    std::vector<uint8_t> msg;
    auto put = [&](const void* p, size_t n) {
      const uint8_t* b = static_cast<const uint8_t*>(p);
      msg.insert(msg.end(), b, b + n);
    };
    int32_t code = c.op == BlockOp::kCtlWstop ? PCWSTOP : PCSTOP;
    put(&code, 4);
    if (c.op == BlockOp::kCtlStop) {
      // PCRUN fails with EBUSY unless the wait before it saw the stop.
      int32_t run[3] = {PCRUN, 0, 0};
      put(run, sizeof(run));
    }
    auto r = io->Write(*fd, msg.data(), msg.size());
    if (r.ok()) {
      res.rv = *r;
    } else {
      res.e = r.error();
    }
  }
  res.parks = parks() - parks_before;
  auto h = ProcHandle::Grab(k, sim.controller(), pid, O_RDONLY);
  if (h.ok()) {
    auto a = h->Audit();
    if (a.ok()) {
      res.audit = *a;
    }
  }
  return res;
}

class ProcdBlocking : public ::testing::TestWithParam<BlockCase> {};

TEST_P(ProcdBlocking, RemoteMatchesLocal) {
  const BlockCase& c = GetParam();
  BlockOutcome local = RunBlockCase(c, /*remote=*/false);
  BlockOutcome remote = RunBlockCase(c, /*remote=*/true);
  EXPECT_EQ(ErrnoName(remote.e), ErrnoName(local.e));
  EXPECT_EQ(remote.rv, local.rv);
  EXPECT_EQ(remote.out, local.out) << "the PrStatus reply differs";
  EXPECT_EQ(remote.audit.pr_total, local.audit.pr_total);
  EXPECT_EQ(std::memcmp(&remote.audit, &local.audit, sizeof(PrCtlAudit)), 0)
      << "audit diverged:\n"
      << FormatCtlAudit(local.audit) << "--- remote ---\n" << FormatCtlAudit(remote.audit);
  // Only an operation that passed its checks has a wait to park; it parks
  // even when the wait is over at once, and never pumps inside the daemon.
  bool waits = (c.target == Target::kLive || c.target == Target::kIdleKernel) &&
               c.op != BlockOp::kPiocStopOnCtlFd;
  EXPECT_EQ(remote.parks, waits ? 1u : 0u);
}

std::vector<BlockCase> AllBlockCases() {
  std::vector<BlockCase> cases;
  for (int op = 0; op <= static_cast<int>(BlockOp::kPiocStopOnCtlFd); ++op) {
    for (int t = 0; t <= static_cast<int>(Target::kIdleKernel); ++t) {
      cases.push_back({static_cast<BlockOp>(op), static_cast<Target>(t)});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Ops, ProcdBlocking, ::testing::ValuesIn(AllBlockCases()));

// ---------------------------------------------------------------------------
// Subscription events: what a subscribed peer is pushed, and when.
// ---------------------------------------------------------------------------

using EventList = std::vector<std::pair<int32_t, int32_t>>;  // {fd, revents}

// Pumps the server once and returns every event pushed to the peer since
// the last drain, in arrival order.
EventList DrainEvents(RemoteProcIo& rio) {
  rio.Poke();
  EventList out;
  RemoteProcIo::Event ev;
  while (rio.NextEvent(&ev)) {
    out.emplace_back(ev.fd, ev.revents);
  }
  return out;
}

// Subscribes POLLPRI on the target through both interfaces: its flat /proc
// file and its /proc2 status file.
void SubscribeBothViews(RemoteProcIo& rio, Pid pid, int* flat, int* status) {
  char path[32];
  std::snprintf(path, sizeof(path), "/proc2/%d/status", pid);
  auto f = rio.Open(FlatPath(pid), O_RDONLY);
  auto s = rio.Open(path, O_RDONLY);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(s.ok());
  ASSERT_LT(*f, *s) << "events arrive in descriptor order";
  ASSERT_TRUE(rio.Subscribe(*f, POLLPRI).ok());
  ASSERT_TRUE(rio.Subscribe(*s, POLLPRI).ok());
  *flat = *f;
  *status = *s;
}

TEST(ProcdEvents, StopRaisesPriAndRunDropsIt) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  auto pid = sim.Start("/bin/prog");
  ASSERT_TRUE(pid.ok());
  ProcdServer srv(sim.kernel());
  RemoteProcIo rio(srv.Connect(Creds::Root()));
  int flat = -1, status = -1;
  ASSERT_NO_FATAL_FAILURE(SubscribeBothViews(rio, *pid, &flat, &status));
  EXPECT_EQ(DrainEvents(rio), EventList{}) << "a running target's level is 0";

  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->Stop().ok());
  EXPECT_EQ(DrainEvents(rio), (EventList{{flat, POLLPRI}, {status, POLLPRI}}));
  EXPECT_EQ(DrainEvents(rio), EventList{}) << "one event per level change";
  ASSERT_TRUE(h->Run().ok());
  EXPECT_EQ(DrainEvents(rio), (EventList{{flat, 0}, {status, 0}}));
}

TEST(ProcdEvents, UnsubscribeStopsPushes) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  auto pid = sim.Start("/bin/prog");
  ASSERT_TRUE(pid.ok());
  ProcdServer srv(sim.kernel());
  RemoteProcIo rio(srv.Connect(Creds::Root()));
  int flat = -1, status = -1;
  ASSERT_NO_FATAL_FAILURE(SubscribeBothViews(rio, *pid, &flat, &status));
  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);
  ASSERT_TRUE(h.ok());

  ASSERT_TRUE(rio.Unsubscribe(flat).ok());
  ASSERT_TRUE(h->Stop().ok());
  EXPECT_EQ(DrainEvents(rio), (EventList{{status, POLLPRI}}))
      << "only the descriptor still subscribed is pushed";
  ASSERT_TRUE(rio.Unsubscribe(status).ok());
  ASSERT_TRUE(h->Run().ok());
  ASSERT_TRUE(h->Stop().ok());
  EXPECT_EQ(DrainEvents(rio), EventList{}) << "no subscription left, no push";

  // A descriptor with no subscription, or none at all, still gets a reply.
  EXPECT_TRUE(rio.Unsubscribe(status).ok());
  EXPECT_TRUE(rio.Unsubscribe(9999).ok());
}

TEST(ProcdEvents, ExitRaisesHupAndReapRaisesNval) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  // A child of the controller, so its zombie stays until the controller
  // waits for it.
  auto pid = sim.kernel().Spawn("/bin/prog", {"prog"}, Creds::Root(), sim.controller());
  ASSERT_TRUE(pid.ok());
  ProcdServer srv(sim.kernel());
  RemoteProcIo rio(srv.Connect(Creds::Root()));
  int flat = -1, status = -1;
  ASSERT_NO_FATAL_FAILURE(SubscribeBothViews(rio, *pid, &flat, &status));

  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->Kill(SIGKILL).ok());
  sim.kernel().RunUntil([&]() {
    Proc* p = sim.kernel().FindProc(*pid);
    return p == nullptr || p->state == Proc::State::kZombie;
  });
  ASSERT_NE(sim.kernel().FindProc(*pid), nullptr) << "the zombie awaits its parent";
  EXPECT_EQ(DrainEvents(rio), (EventList{{flat, POLLHUP}, {status, POLLHUP}}));

  ASSERT_TRUE(sim.kernel().Wait(sim.controller(), *pid).ok());
  ASSERT_EQ(sim.kernel().FindProc(*pid), nullptr);
  EXPECT_EQ(DrainEvents(rio), (EventList{{flat, POLLNVAL}, {status, POLLNVAL}}));
}

TEST(ProcdEvents, SetIdExecRaisesNval) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/suid", kSpin, 04755, 0, 0).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", R"(
      ldi r0, SYS_exec
      ldi r1, path
      ldi r2, 0
      sys
      ldi r0, SYS_exit
      ldi r1, 1
      sys
      .data
path: .asciz "/bin/suid"
  )").ok());
  auto pid = sim.Start("/bin/prog", {}, Creds::User(100, 10));
  ASSERT_TRUE(pid.ok());
  ProcdServer srv(sim.kernel());
  RemoteProcIo rio(srv.Connect(Creds::Root()));
  int flat = -1, status = -1;
  ASSERT_NO_FATAL_FAILURE(SubscribeBothViews(rio, *pid, &flat, &status));
  char path[48];
  std::snprintf(path, sizeof(path), "/proc2/%d/lwp/1/lwpstatus", *pid);
  auto lwp = rio.Open(path, O_RDONLY);
  ASSERT_TRUE(lwp.ok());
  ASSERT_TRUE(rio.Subscribe(*lwp, POLLPRI).ok());
  EXPECT_EQ(DrainEvents(rio), EventList{});

  sim.kernel().RunUntil([&]() {
    Proc* p = sim.kernel().FindProc(*pid);
    return p == nullptr || p->setid;
  });
  ASSERT_NE(sim.kernel().FindProc(*pid), nullptr);
  EXPECT_EQ(DrainEvents(rio),
            (EventList{{flat, POLLNVAL}, {status, POLLNVAL}, {*lwp, POLLNVAL}}))
      << "the set-id exec invalidated every descriptor, lwp files too";
}

TEST(ProcdEvents, ConsoleSubscriptionFollowsInputAndRead) {
  Sim sim;
  ProcdServer srv(sim.kernel());
  RemoteProcIo rio(srv.Connect(Creds::Root()));
  auto peer_pid = rio.PeerPid();
  ASSERT_TRUE(peer_pid.ok());
  Proc* peer = sim.kernel().FindProc(*peer_pid);
  ASSERT_NE(peer, nullptr);
  // The console has no path; install it in the peer's descriptor table the
  // way Spawn gives a program its standard descriptors.
  auto of = std::make_shared<OpenFile>();
  of->vp = sim.kernel().console().shared_from_this();
  of->oflags = O_RDWR;
  of->writable = true;
  auto fd = sim.kernel().FdAlloc(peer, of);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(rio.Subscribe(*fd, POLLIN).ok());
  EXPECT_EQ(DrainEvents(rio), EventList{}) << "no input queued yet";

  sim.kernel().console().PushInput("x");
  EXPECT_EQ(DrainEvents(rio), (EventList{{*fd, POLLIN}}));
  char c = 0;
  auto n = rio.Read(*fd, &c, 1);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1);
  EXPECT_EQ(c, 'x');
  EXPECT_EQ(DrainEvents(rio), (EventList{{*fd, 0}})) << "the read drained the input";
}

// ---------------------------------------------------------------------------
// Byte-identical remote tools.
// ---------------------------------------------------------------------------

TEST(ProcdByteIdentical, TrussRemoteVsLocal) {
  // Two identical simulations. Sim A mirrors sim B's procd peer with an
  // extra native controller so both kernels assign the target the same pid.
  Sim a;
  Sim b;
  ASSERT_TRUE(a.InstallProgram("/bin/prog", kSysBurst).ok());
  ASSERT_TRUE(b.InstallProgram("/bin/prog", kSysBurst).ok());
  ASSERT_NE(a.NewController(Creds::Root(), "peer-standin"), nullptr);
  ProcdServer srv(b.kernel());
  RemoteProcIo rio(srv.Connect(Creds::Root()));

  Truss local(a.kernel(), a.controller());
  ASSERT_TRUE(local.TraceCommand("/bin/prog", {"prog"}).ok());
  Truss remote(rio);
  ASSERT_TRUE(remote.TraceCommand("/bin/prog", {"prog"}).ok());

  EXPECT_FALSE(local.report().empty());
  EXPECT_EQ(local.report(), remote.report())
      << "remote truss must reproduce the local report byte for byte";
}

TEST(ProcdByteIdentical, PsRemoteVsLocal) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/spin", kSpin).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sim.Start("/bin/prog").ok());
  }
  ASSERT_TRUE(sim.Start("/bin/spin", {}, Creds::User(100, 10)).ok());
  for (int i = 0; i < 50; ++i) {
    sim.kernel().Step();
  }
  ProcdServer srv(sim.kernel());
  RemoteProcIo rio(srv.Connect(Creds::Root()));

  // Same kernel, so the peer's own controller row appears in both listings
  // identically; nothing in the remote path may shift a byte.
  auto local_fmt = PsFormat(sim.kernel(), sim.controller(), PsOptions{.full = true});
  ASSERT_TRUE(local_fmt.ok());
  auto remote_fmt = PsFormat(rio, PsOptions{.full = true});
  ASSERT_TRUE(remote_fmt.ok());
  EXPECT_EQ(*local_fmt, *remote_fmt);

  auto local_ls = LsProc(sim.kernel(), sim.controller());
  auto remote_ls = LsProc(rio);
  ASSERT_TRUE(local_ls.ok());
  ASSERT_TRUE(remote_ls.ok());
  EXPECT_EQ(*local_ls, *remote_ls);

  auto local_all = PsSnapshotAll(sim.kernel(), sim.controller());
  ASSERT_TRUE(local_all.ok());
  auto remote_all = PsSnapshotAll(rio, 1);
  ASSERT_TRUE(remote_all.ok());
  ASSERT_EQ(local_all->size(), remote_all->size());
  for (size_t i = 0; i < local_all->size(); ++i) {
    EXPECT_EQ(std::memcmp(&(*local_all)[i], &(*remote_all)[i], sizeof(PrPsinfo)), 0)
        << "PIOCPSALL row " << i << " differs over the wire";
  }
}

// ---------------------------------------------------------------------------
// Peer death at every blocking point == local close of every descriptor.
// ---------------------------------------------------------------------------

TEST(ProcdPeerDeath, MidWstopWaitReleasesLedger) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  auto pid = sim.Start("/bin/prog");
  ASSERT_TRUE(pid.ok());
  ProcdServer srv(sim.kernel());
  auto conn = srv.Connect(Creds::Root());
  RemoteProcIo rio(conn);
  auto h = ProcHandle::Grab(rio, *pid);
  ASSERT_TRUE(h.ok());
  Proc* p = sim.kernel().FindProc(*pid);
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->trace.writable_opens, 1);

  // Park a PIOCWSTOP by hand (calling through the client would block the
  // test): the target never stops, so the wait stays parked across pumps.
  PdWriter w;
  w.Put<int32_t>(h->fd());
  w.Put<uint32_t>(PIOCWSTOP);
  w.Put<uint32_t>(0);
  w.Put<uint32_t>(0);
  conn->Send(PdOp::kIoctl, /*tag=*/777, w.bytes());
  for (int i = 0; i < 5; ++i) {
    srv.Pump();
  }
  PdFrame f;
  EXPECT_FALSE(conn->s2c.NextFrame(&f)) << "the wait must be parked, not answered";

  // The peer dies mid-wait. Every effect of a local close must follow.
  conn->Hangup();
  srv.Pump();
  EXPECT_TRUE(conn->server_closed);
  EXPECT_EQ(srv.PeerCount(), 0u);
  EXPECT_EQ(p->trace.writable_opens, 0) << "peer death drains the ledger";
  EXPECT_EQ(p->trace.total_opens, 0);
  EXPECT_NE(p->MainLwp()->state, LwpState::kStopped);
  srv.Pump();  // a dead peer must be inert on later pumps
  ExpectInvariantsClean(sim.kernel(), 0);
}

TEST(ProcdPeerDeath, MidPollSubscriptionReleasesDescriptors) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kSpin).ok());
  auto pid = sim.Start("/bin/prog");
  ASSERT_TRUE(pid.ok());
  ProcdServer srv(sim.kernel());
  auto conn = srv.Connect(Creds::Root());
  RemoteProcIo rio(conn);
  auto fd = rio.Open(FlatPath(*pid), O_RDONLY);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(rio.Subscribe(*fd, POLLPRI).ok());

  // Park an infinite poll for a condition that never arrives.
  PdWriter w;
  w.Put<int64_t>(-1);
  w.Put<uint32_t>(1);
  w.Put<int32_t>(*fd);
  w.Put<int32_t>(POLLPRI);
  conn->Send(PdOp::kPoll, /*tag=*/778, w.bytes());
  for (int i = 0; i < 5; ++i) {
    srv.Pump();
  }
  PdFrame f;
  EXPECT_FALSE(conn->s2c.NextFrame(&f)) << "the poll must be parked";

  Proc* p = sim.kernel().FindProc(*pid);
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->trace.total_opens, 1);
  conn->Hangup();
  srv.Pump();
  EXPECT_EQ(p->trace.total_opens, 0)
      << "the subscribed descriptor closes with its peer";
  srv.Pump();
  ExpectInvariantsClean(sim.kernel(), 0);
}

TEST(ProcdPeerDeath, HoldingExclusiveOpenReleasesIt) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  auto pid = sim.Start("/bin/prog");
  ASSERT_TRUE(pid.ok());
  ProcdServer srv(sim.kernel());
  auto conn = srv.Connect(Creds::Root());
  {
    RemoteProcIo rio(conn);
    auto h = ProcHandle::Grab(rio, *pid, O_RDWR | O_EXCL);
    ASSERT_TRUE(h.ok());
    Proc* p = sim.kernel().FindProc(*pid);
    ASSERT_NE(p, nullptr);
    ASSERT_TRUE(p->trace.excl);

    // Another controller is locked out while the peer lives.
    auto blocked = ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);
    ASSERT_FALSE(blocked.ok());
    EXPECT_EQ(blocked.error(), Errno::kEBUSY);

    conn->Hangup();  // the transport dies, handle still "open"
    srv.Pump();
  }
  Proc* p = sim.kernel().FindProc(*pid);
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(p->trace.excl) << "O_EXCL dies with the peer, as with a close";
  auto excl = ProcHandle::Grab(sim.kernel(), sim.controller(), *pid, O_RDWR | O_EXCL);
  EXPECT_TRUE(excl.ok()) << "the exclusive right is reclaimable";
  ExpectInvariantsClean(sim.kernel(), 0);
}

TEST(ProcdPeerDeath, SoleRunOnLastCloseDescriptorFiresIt) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  auto pid = sim.Start("/bin/prog");
  ASSERT_TRUE(pid.ok());
  ProcdServer srv(sim.kernel());
  auto conn = srv.Connect(Creds::Root());
  RemoteProcIo rio(conn);
  auto h = ProcHandle::Grab(rio, *pid);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->Stop().ok());
  SigSet sigs;
  sigs.Add(SIGUSR1);
  ASSERT_TRUE(h->SetSigTrace(sigs).ok());
  ASSERT_TRUE(h->SetRunOnLastClose(true).ok());

  Proc* p = sim.kernel().FindProc(*pid);
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->MainLwp()->state, LwpState::kStopped);

  // The transport dies without a single Close frame. The kernel must see
  // exactly what ProcClose.RunOnLastCloseClearsTracingAndResumes sees.
  conn->Hangup();
  srv.Pump();
  EXPECT_EQ(p->MainLwp()->state, LwpState::kRunning)
      << "run-on-last-close fires on peer death";
  EXPECT_TRUE(p->trace.sigtrace.Empty()) << "all tracing flags cleared";
  EXPECT_FALSE(p->trace.run_on_last_close);
  ExpectInvariantsClean(sim.kernel(), 0);
}

// ---------------------------------------------------------------------------
// The seeded PEER_DISCONNECT chaos sweep.
// ---------------------------------------------------------------------------

// PEER_DISCONNECT is evaluated once per pump round and severs one live peer
// drawn from the site's own stream; over these 100 seeds it fires 242 times
// at the default topology (it fired 270 times when every peer drew once per
// round).
TEST(ProcdChaosSweep, PeerDisconnectKeepsInvariantsAcrossSeeds) {
  uint64_t chaos_hits = 0;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    Sim sim;
    ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
    ASSERT_TRUE(sim.InstallProgram("/bin/spin", kSpin).ok());
    auto pid1 = sim.Start("/bin/prog");
    auto pid2 = sim.Start("/bin/spin");
    ASSERT_TRUE(pid1.ok());
    ASSERT_TRUE(pid2.ok());

    FaultPlan plan;
    plan.Arm(FaultSite::kPeerDisconnect,
             FaultRule{seed, /*num=*/1, /*den=*/8, /*max_hits=*/4});
    sim.kernel().SetFaultPlan(plan);
    sim.kernel().SetChaosScheduler(seed);

    ProcdServer srv(sim.kernel());
    std::vector<std::unique_ptr<RemoteProcIo>> peers;
    for (int i = 0; i < 3; ++i) {
      peers.push_back(std::make_unique<RemoteProcIo>(srv.Connect(Creds::Root())));
    }
    // Every subscription level that moved must have been marked for the
    // next event pass, after every step of the storm.
    auto check = [&](const char* step) {
      EXPECT_EQ(srv.UnmarkedSubscriptionChanges(), 0u)
          << "seed " << seed << ": a level moved unmarked after " << step;
    };
    // Every operation may die with kEIO when the chaos site severs the
    // peer mid-exchange; the kernel must stay consistent regardless.
    for (size_t i = 0; i < peers.size(); ++i) {
      RemoteProcIo& rio = *peers[i];
      Pid target = (i + seed) % 2 == 0 ? *pid1 : *pid2;
      int oflags = (i + seed) % 3 == 0 ? (O_RDWR | O_EXCL) : O_RDWR;
      auto h = ProcHandle::Grab(rio, target, oflags);
      check("grab");
      if (!h.ok()) {
        continue;
      }
      (void)h->Psinfo();
      check("psinfo");
      (void)h->SetRunOnLastClose(true);
      check("set run-on-last-close");
      (void)h->Stop();
      check("stop");
      if ((i + seed) % 2 == 0) {
        (void)h->Run();
        check("run");
      }
      auto fd = rio.Open(FlatPath(target), O_RDONLY);
      check("open");
      if (fd.ok()) {
        (void)rio.Subscribe(*fd, POLLPRI | POLLHUP);
        check("subscribe");
        PollFd pf{*fd, POLLPRI, 0};
        std::span<PollFd> span1(&pf, 1);
        (void)rio.PollFds(span1, 0);
        check("poll");
      }
      rio.Poke();
      check("poke");
    }
    // Drain: drop every surviving peer, then pump to full idle.
    for (auto& rio : peers) {
      rio->Hangup();
      check("hangup");
    }
    for (int i = 0; i < 10'000 && srv.Pump(); ++i) {
      check("drain pump");
    }
    EXPECT_EQ(srv.PeerCount(), 0u) << "seed " << seed;
    chaos_hits += srv.stats().chaos_disconnects;
    ExpectInvariantsClean(sim.kernel(), seed);
  }
  EXPECT_GT(chaos_hits, 0u)
      << "a 1/8 rate over 100 seeds must sever at least one peer";
}

// ---------------------------------------------------------------------------
// Pump cost follows the peers with work, not the peers ever connected.
// ---------------------------------------------------------------------------

// Peer entries the pump visits over `calls` remote PIOCSTATUS calls.
uint64_t ScansForStatusCalls(ProcdServer& srv, ProcHandle& h, int calls) {
  uint64_t before = srv.stats().peer_scans;
  for (int i = 0; i < calls; ++i) {
    EXPECT_TRUE(h.Status().ok());
  }
  return srv.stats().peer_scans - before;
}

// An idle peer holding one open /proc descriptor on the target, optionally
// subscribed to its poll level.
std::unique_ptr<RemoteProcIo> IdlePeer(ProcdServer& srv, Pid target, bool subscribe) {
  auto rio = std::make_unique<RemoteProcIo>(srv.Connect(Creds::Root(), "idle-peer"));
  auto fd = rio->Open(FlatPath(target), O_RDONLY);
  EXPECT_TRUE(fd.ok());
  if (fd.ok() && subscribe) {
    EXPECT_TRUE(rio->Subscribe(*fd, POLLPRI).ok());
  }
  return rio;
}

uint64_t StatusScansBesideIdlePeers(int idle) {
  Sim sim;
  Proc* target = sim.kernel().CreateNativeProc(Creds::Root(), "target");
  ProcdServer srv(sim.kernel());
  std::vector<std::unique_ptr<RemoteProcIo>> peers;
  for (int i = 0; i < idle; ++i) {
    peers.push_back(IdlePeer(srv, target->pid, /*subscribe=*/i % 2 == 0));
  }
  RemoteProcIo active(srv.Connect(Creds::Root()));
  auto h = ProcHandle::Grab(active, target->pid, O_RDONLY);
  EXPECT_TRUE(h.ok());
  uint64_t scans = h.ok() ? ScansForStatusCalls(srv, *h, 100) : 0;
  EXPECT_EQ(srv.UnmarkedSubscriptionChanges(), 0u);
  return scans;
}

TEST(ProcdChurn, StatusScansDoNotGrowWithIdlePeers) {
  uint64_t few = StatusScansBesideIdlePeers(10);
  uint64_t many = StatusScansBesideIdlePeers(1000);
  EXPECT_GT(few, 0u);
  EXPECT_EQ(few, many) << "idle peers, subscribed or not, cost a round nothing";
}

TEST(ProcdChurn, ConnectHangupCyclesLeaveNoResidue) {
  Sim sim;
  Proc* target = sim.kernel().CreateNativeProc(Creds::Root(), "target");
  ProcdServer srv(sim.kernel());
  RemoteProcIo active(srv.Connect(Creds::Root()));
  auto h = ProcHandle::Grab(active, target->pid, O_RDONLY);
  ASSERT_TRUE(h.ok());
  uint64_t scans_before = ScansForStatusCalls(srv, *h, 100);
  size_t peers_before = srv.PeerCount();

  for (int i = 0; i < 3000; ++i) {
    // Connects, opens, maybe subscribes, and hangs up as it goes out of scope.
    IdlePeer(srv, target->pid, /*subscribe=*/i % 2 == 0);
    ASSERT_EQ(srv.UnmarkedSubscriptionChanges(), 0u) << "cycle " << i;
  }
  EXPECT_EQ(srv.PeerCount(), peers_before) << "every hung-up peer is gone";
  EXPECT_EQ(ScansForStatusCalls(srv, *h, 100), scans_before)
      << "dead peers must not cost later rounds anything";
  EXPECT_EQ(srv.UnmarkedSubscriptionChanges(), 0u);
}

// ---------------------------------------------------------------------------
// Windowed PIOCPSALL under churn (the pr_next_pid cursor).
// ---------------------------------------------------------------------------

TEST(ProcdPsall, WindowedCursorUnderChurnAndPidWrapNeverSkipsOrDuplicates) {
  Sim sim;
  sim.kernel().SetMaxPid(64);
  std::vector<Pid> stable;
  std::vector<Proc*> victims;
  for (int i = 0; i < 12; ++i) {
    Proc* p = sim.kernel().CreateNativeProc(Creds::Root(), "keep");
    ASSERT_NE(p, nullptr);
    stable.push_back(p->pid);
  }
  for (int i = 0; i < 12; ++i) {
    Proc* p = sim.kernel().CreateNativeProc(Creds::Root(), "churn");
    ASSERT_NE(p, nullptr);
    victims.push_back(p);
  }

  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), 1, O_RDONLY);
  ASSERT_TRUE(h.ok());

  // Page with a tiny window; between pages, kill victims and create
  // replacements so the pid counter wraps and pids get reused mid-scan.
  std::vector<Pid> seen;
  PrPsAll all;
  all.pr_start_pid = 0;
  all.pr_limit = 4;
  int pages = 0;
  size_t next_victim = 0;
  for (; pages < 64; ++pages) {
    ASSERT_TRUE(h->io().Ioctl(h->fd(), PIOCPSALL, &all).ok());
    for (const auto& ps : all.pr_procs) {
      seen.push_back(ps.pr_pid);
    }
    if (all.pr_next_pid < 0) {
      break;
    }
    // Churn: two exits, two births, one Step to reap the zombies.
    for (int k = 0; k < 2 && next_victim < victims.size(); ++k) {
      sim.kernel().DestroyNativeProc(victims[next_victim++]);
    }
    sim.kernel().Step();
    (void)sim.kernel().CreateNativeProc(Creds::Root(), "newcomer");
    (void)sim.kernel().CreateNativeProc(Creds::Root(), "newcomer");
    all.pr_start_pid = all.pr_next_pid;
  }
  ASSERT_LT(pages, 64) << "the cursor must terminate";

  std::set<Pid> unique(seen.begin(), seen.end());
  EXPECT_EQ(unique.size(), seen.size())
      << "no pid may be returned twice in one windowed scan";
  for (Pid pid : stable) {
    EXPECT_EQ(std::count(seen.begin(), seen.end(), pid), 1)
        << "pid " << pid << " alive across the whole scan must appear once";
  }
  ExpectInvariantsClean(sim.kernel(), 0);
}

TEST(ProcdPsall, TwoWindowSnapshotIsByteIdenticalToLocal) {
  // More rows than one 1024-row window, so the remote PsinfoAll appends a
  // second kPsall reply: native processes, exec'd ones (non-zero
  // pr_size/pr_rssize) in both windows, and a zombie.
  Sim sim;
  Kernel& k = sim.kernel();
  ASSERT_TRUE(sim.InstallProgram("/bin/spin", kSpin).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/burst", kSysBurst).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sim.Start("/bin/spin").ok());
  }
  for (int i = 0; i < 1'100; ++i) {
    ASSERT_NE(k.CreateNativeProc(Creds::Root(), "worker"), nullptr);
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sim.Start("/bin/spin").ok());
  }
  auto z = k.Spawn("/bin/burst", {"burst"}, Creds::Root(), sim.controller());
  ASSERT_TRUE(z.ok());
  ASSERT_TRUE(k.RunToExit(*z).ok());
  ProcdServer srv(k);
  RemoteProcIo rio(srv.Connect(Creds::Root()));

  auto local = PsSnapshotAll(k, sim.controller());
  ASSERT_TRUE(local.ok());
  auto remote = PsSnapshotAll(rio, 1);
  ASSERT_TRUE(remote.ok());
  ASSERT_GT(local->size(), 1024u) << "the snapshot must span two windows";
  ASSERT_EQ(local->size(), remote->size());
  EXPECT_EQ(std::memcmp(local->data(), remote->data(), local->size() * sizeof(PrPsinfo)), 0)
      << "the two-window snapshot differs over the wire";
  size_t with_pages = 0;
  for (const PrPsinfo& row : *local) {
    with_pages += row.pr_size > 0 && row.pr_rssize > 0 ? 1 : 0;
  }
  EXPECT_EQ(with_pages, 20u);
  auto zrow = std::find_if(local->begin(), local->end(),
                           [&](const PrPsinfo& row) { return row.pr_pid == *z; });
  ASSERT_NE(zrow, local->end());
  EXPECT_EQ(zrow->pr_state, 'Z');
  EXPECT_GE(zrow - local->begin(), 1024) << "the zombie is in the second window";
}

TEST(ProcdPsall, ReplyClaimingRowsItDoesNotCarryIsEio) {
  // A kPsall reply is sized by the rows its body holds, never by the count
  // it claims: 2^32-1 claimed rows with none attached is an I/O error, and
  // nothing is allocated for them. The reply is queued before the call, for
  // tag 1, the tag of a fresh RemoteProcIo's first request.
  Sim sim;
  ProcdServer srv(sim.kernel());
  auto conn = srv.Connect(Creds::Root());
  RemoteProcIo rio(conn);
  PdWriter w;
  w.Put<int32_t>(-1);           // pr_next_pid
  w.Put<uint32_t>(0xFFFFFFFFu);  // rows claimed
  PdWriteFrame(conn->s2c, PdOp::kPsall, 0, /*tag=*/1, w.bytes());
  PrPsAll all;
  auto rv = rio.Ioctl(0, PIOCPSALL, &all);
  ASSERT_FALSE(rv.ok());
  EXPECT_EQ(rv.error(), Errno::kEIO);
  EXPECT_TRUE(all.pr_procs.empty());
  EXPECT_EQ(all.pr_procs.capacity(), 0u);
}

// ---------------------------------------------------------------------------
// Frames are views: a frame's body points into its channel's buffer until
// the next NextFrame or Append on that channel. What a reader keeps past
// that point it must copy; what it decodes before that point it must not
// read past.
// ---------------------------------------------------------------------------

TEST(ProcdFrameViews, RepliesAfterATwoWindowSnapshotEqualLocalBytes) {
  // The client's channel has just carried two ~164 KiB psall replies. Each
  // smaller reply after them must carry exactly its own bytes, never a tail
  // of the larger frame that sat in the same buffer.
  Sim sim;
  Kernel& k = sim.kernel();
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  auto pid = sim.Start("/bin/prog");
  ASSERT_TRUE(pid.ok());
  for (int i = 0; i < 1'100; ++i) {
    ASSERT_NE(k.CreateNativeProc(Creds::Root(), "worker"), nullptr);
  }
  auto local = ProcHandle::Grab(k, sim.controller(), *pid);
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE(local->Stop().ok()) << "a stopped target reads the same twice";
  ProcdServer srv(k);
  RemoteProcIo rio(srv.Connect(Creds::Root()));
  auto remote = ProcHandle::Grab(rio, *pid);
  ASSERT_TRUE(remote.ok());
  auto two_windows = [&] {
    auto snap = PsSnapshotAll(rio, 1);
    ASSERT_TRUE(snap.ok());
    ASSERT_GT(snap->size(), 1024u);
  };

  // A read into a buffer larger than the file: the same count and bytes,
  // and nothing written past them.
  char path[32];
  std::snprintf(path, sizeof(path), "/proc2/%d/status", *pid);
  auto rfd = rio.Open(path, O_RDONLY);
  auto lfd = k.Open(sim.controller(), path, O_RDONLY);
  ASSERT_TRUE(rfd.ok() && lfd.ok());
  std::vector<uint8_t> rbuf(4096, 0xA5), lbuf(4096, 0xA5);
  ASSERT_NO_FATAL_FAILURE(two_windows());
  auto rn = rio.Read(*rfd, rbuf.data(), rbuf.size());
  auto ln = k.Read(sim.controller(), *lfd, lbuf.data(), lbuf.size());
  ASSERT_TRUE(rn.ok() && ln.ok());
  EXPECT_EQ(*rn, *ln);
  EXPECT_GT(*ln, 0);
  EXPECT_LT(*ln, 4096);
  EXPECT_EQ(rbuf, lbuf) << "the read differs from the local one, or ran past its count";

  ASSERT_NO_FATAL_FAILURE(two_windows());
  auto rst = remote->Status();
  auto lst = local->Status();
  ASSERT_TRUE(rst.ok() && lst.ok());
  EXPECT_EQ(std::memcmp(&*rst, &*lst, sizeof(PrStatus)), 0);

  ASSERT_NO_FATAL_FAILURE(two_windows());
  PrStatus st;
  auto rerr = rio.Ioctl(9999, PIOCSTATUS, &st);
  LocalProcIo lio(k, sim.controller());
  auto lerr = lio.Ioctl(9999, PIOCSTATUS, &st);
  ASSERT_FALSE(rerr.ok());
  ASSERT_FALSE(lerr.ok());
  EXPECT_EQ(ErrnoName(rerr.error()), ErrnoName(lerr.error()));
  ASSERT_TRUE(local->Run().ok());
}

TEST(ProcdFrameViews, EventBetweenARequestAndItsReplyIsQueued) {
  // A poll parks on a target that never stops while a subscribed one
  // stops itself on a traced SIGSTOP: the event is pushed after the poll
  // request and before its reply. Call queues it and still decodes the
  // reply behind it.
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/selfstop", kSelfStop).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  auto stopper = sim.Start("/bin/selfstop");
  auto runner = sim.Start("/bin/prog");
  ASSERT_TRUE(stopper.ok() && runner.ok());
  ProcdServer srv(sim.kernel());
  auto conn = srv.Connect(Creds::Root());
  RemoteProcIo rio(conn);
  auto traced = ProcHandle::Grab(rio, *stopper);
  ASSERT_TRUE(traced.ok());
  SigSet stop;
  stop.Add(SIGSTOP);
  ASSERT_TRUE(traced->SetSigTrace(stop).ok());
  int sub = traced->fd();
  auto polled = rio.Open(FlatPath(*runner), O_RDONLY);
  ASSERT_TRUE(polled.ok());
  ASSERT_TRUE(rio.Subscribe(sub, POLLPRI).ok());
  EXPECT_EQ(DrainEvents(rio), EventList{}) << "a running target's level is 0";

  PollFd pf{};
  pf.fd = *polled;
  pf.events = POLLPRI;
  auto ready = rio.PollFds(std::span<PollFd>(&pf, 1), /*timeout_ticks=*/100'000);
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(*ready, 0) << "the polled target never stops: the poll times out";
  EXPECT_EQ(pf.revents, 0);
  EXPECT_TRUE(conn->s2c.empty()) << "Call returns at its reply: nothing may follow it";
  Proc* p = sim.kernel().FindProc(*stopper);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->MainLwp()->state, LwpState::kStopped);
  RemoteProcIo::Event ev;
  ASSERT_TRUE(rio.NextEvent(&ev)) << "the event pushed before the reply was dropped";
  EXPECT_EQ(ev.fd, sub);
  EXPECT_EQ(ev.revents, POLLPRI);

  // The connection still decodes replies after the queued event.
  auto st = ProcHandle::Grab(rio, *stopper, O_RDONLY);
  ASSERT_TRUE(st.ok());
  auto status = st->Status();
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status->pr_flags & PR_STOPPED, 0u);
}

struct CtlStreamOutcome {
  int64_t rv = -1;          // bytes the write reports consumed
  PrCtlAudit audit{};       // the target's audit ring afterwards
  SigSet sigtrace;          // the target's traced signals afterwards
  std::vector<uint32_t> reply_tags;  // remote: reply order after the park
};

// A blocking PCSTOP, then a PCSTRACE whose set the tail carries.
std::vector<uint8_t> StopThenTraceStream() {
  std::vector<uint8_t> stream;
  // resize + memcpy, as PdWriter appends: GCC 12 at -O3 reports a false
  // -Wstringop-overflow on a vector::insert of these small spans.
  auto put = [&](const void* p, size_t n) {
    size_t at = stream.size();
    stream.resize(at + n);
    std::memcpy(stream.data() + at, p, n);
  };
  int32_t stop = PCSTOP, trace = PCSTRACE;
  SigSet sigs;
  for (int sig : {SIGUSR1, SIGUSR2, SIGTERM, SIGALRM}) {
    sigs.Add(sig);
  }
  put(&stop, 4);
  put(&trace, 4);
  put(&sigs, sizeof(sigs));
  return stream;
}

// Writes the stream to a running target's ctl file. Locally the write
// blocks; remotely the peer parks holding the tail, and the client sends
// two more frames while it is parked. Those frames reuse the request
// channel's buffer where the parked write's bytes were.
CtlStreamOutcome RunParkedCtlStream(bool remote) {
  CtlStreamOutcome out;
  Sim sim;
  Kernel& k = sim.kernel();
  EXPECT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  auto pid = sim.Start("/bin/prog");
  EXPECT_TRUE(pid.ok());
  char path[32];
  std::snprintf(path, sizeof(path), "/proc2/%d/ctl", *pid);
  std::vector<uint8_t> stream = StopThenTraceStream();
  if (!remote) {
    LocalProcIo io(k, sim.NewController(Creds::Root(), "peer-standin"));
    auto fd = io.Open(path, O_WRONLY);
    EXPECT_TRUE(fd.ok());
    auto wrote = io.Write(*fd, stream.data(), stream.size());
    EXPECT_TRUE(wrote.ok());
    out.rv = wrote.ok() ? *wrote : -1;
  } else {
    ProcdServer srv(k);
    auto conn = srv.Connect(Creds::Root());
    RemoteProcIo rio(conn);
    auto fd = rio.Open(path, O_WRONLY);
    EXPECT_TRUE(fd.ok());
    PdWriter w;
    w.Put<int32_t>(*fd);
    w.PutBytes(stream.data(), stream.size());
    conn->Send(PdOp::kWrite, /*tag=*/9001, w.bytes());
    srv.Pump();
    PdFrame f;
    EXPECT_FALSE(conn->s2c.NextFrame(&f)) << "the write must park on its PCSTOP";
    EXPECT_EQ(srv.op_span(PdOp::kWrite).parks, 1u);
    PdWriter stat;
    stat.PutString(std::string(2 * stream.size(), 'z'));
    conn->Send(PdOp::kStat, /*tag=*/9002, stat.bytes());
    conn->Send(PdOp::kHello, /*tag=*/9003, {});
    for (int i = 0; i < 10'000 && out.reply_tags.size() < 3; ++i) {
      srv.Pump();
      while (conn->s2c.NextFrame(&f)) {
        out.reply_tags.push_back(f.hdr.tag);
        if (f.hdr.tag == 9001 && (f.hdr.flags & kPdErrFlag) == 0) {
          PdReader r(f.body);
          EXPECT_TRUE(r.Get(&out.rv));
        }
      }
    }
  }
  Proc* p = k.FindProc(*pid);
  EXPECT_NE(p, nullptr);
  if (p != nullptr) {
    EXPECT_EQ(p->MainLwp()->state, LwpState::kStopped);
    out.sigtrace = p->trace.sigtrace;
  }
  auto h = ProcHandle::Grab(k, sim.controller(), *pid, O_RDONLY);
  EXPECT_TRUE(h.ok());
  if (h.ok()) {
    auto a = h->Audit();
    EXPECT_TRUE(a.ok());
    if (a.ok()) {
      out.audit = *a;
    }
  }
  return out;
}

TEST(ProcdFrameViews, ParkedCtlTailSurvivesFramesSentWhileParked) {
  CtlStreamOutcome local = RunParkedCtlStream(/*remote=*/false);
  CtlStreamOutcome remote = RunParkedCtlStream(/*remote=*/true);
  EXPECT_EQ(remote.reply_tags, (std::vector<uint32_t>{9001, 9002, 9003}))
      << "frames sent behind a parked write are answered after it, in order";
  EXPECT_EQ(local.rv, static_cast<int64_t>(StopThenTraceStream().size()));
  EXPECT_EQ(remote.rv, local.rv);
  EXPECT_EQ(std::memcmp(&remote.sigtrace, &local.sigtrace, sizeof(SigSet)), 0)
      << "the tail written after the park is not the tail that was sent";
  EXPECT_EQ(std::memcmp(&remote.audit, &local.audit, sizeof(PrCtlAudit)), 0)
      << "audit diverged:\n"
      << FormatCtlAudit(local.audit) << "--- remote ---\n" << FormatCtlAudit(remote.audit);
}

TEST(ProcdFrameViews, ReadReplyLongerThanAskedIsEio) {
  // The reply body is copied into the caller's buffer only if it fits the
  // count asked for. The reply is queued before the call, for tag 1, the
  // tag of a fresh RemoteProcIo's first request.
  Sim sim;
  ProcdServer srv(sim.kernel());
  auto conn = srv.Connect(Creds::Root());
  RemoteProcIo rio(conn);
  std::vector<uint8_t> body(16, 0xEE);
  PdWriteFrame(conn->s2c, PdOp::kRead, 0, /*tag=*/1, body);
  std::vector<uint8_t> buf(16, 0x5A);
  auto n = rio.Read(0, buf.data(), 4);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.error(), Errno::kEIO);
  EXPECT_EQ(buf, std::vector<uint8_t>(16, 0x5A)) << "the reply was written past the count";
}

}  // namespace
}  // namespace svr4
