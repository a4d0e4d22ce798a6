// Tests for the unified control-plane core (procfs/ctl.h): table
// completeness against the PIOC*/PC* code inventories, differential
// equivalence of the two /proc front-ends, and the control audit ring.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "svr4proc/procfs/ctl.h"
#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/sim.h"
#include "svr4proc/tools/truss.h"

namespace svr4 {
namespace {

constexpr char kCounter[] = R"(
loop: ldi r4, var
      ldw r5, [r4]
      addi r5, 1
      stw r5, [r4]
      jmp loop
      .data
var:  .word 0
)";

constexpr char kExiter[] = R"(
      ldi r0, SYS_exit
      ldi r1, 3
      sys
)";

Pid StartProgram(Sim& sim, const std::string& src, const std::string& path = "/bin/prog") {
  auto img = sim.InstallProgram(path, src);
  EXPECT_TRUE(img.ok());
  auto pid = sim.Start(path);
  EXPECT_TRUE(pid.ok());
  return pid.ok() ? *pid : -1;
}

// --- Table completeness ------------------------------------------------------

// Mirror inventories of every code the headers define. A new code must be
// added here AND to the table; the test cross-checks the two.
constexpr uint32_t kAllPioc[] = {
    PIOCSTATUS, PIOCSTOP,   PIOCWSTOP,  PIOCRUN,    PIOCGTRACE,   PIOCSTRACE,
    PIOCSSIG,   PIOCKILL,   PIOCUNKILL, PIOCGHOLD,  PIOCSHOLD,    PIOCMAXSIG,
    PIOCACTION, PIOCGFAULT, PIOCSFAULT, PIOCCFAULT, PIOCGENTRY,   PIOCSENTRY,
    PIOCGEXIT,  PIOCSEXIT,  PIOCSFORK,  PIOCRFORK,  PIOCSRLC,     PIOCRRLC,
    PIOCGREG,   PIOCSREG,   PIOCGFPREG, PIOCSFPREG, PIOCNMAP,     PIOCMAP,
    PIOCOPENM,  PIOCCRED,   PIOCGROUPS, PIOCPSINFO, PIOCNICE,     PIOCGETPR,
    PIOCGETU,   PIOCUSAGE,  PIOCNWATCH, PIOCGWATCH, PIOCSWATCH,   PIOCPAGEDATA,
    PIOCLWPIDS, PIOCVMSTATS, PIOCAUDIT,  PIOCKSTAT,  PIOCPSALL,    PIOCPROF,
};

constexpr int32_t kAllPc[] = {
    PCNULL,   PCSTOP,   PCDSTOP,  PCWSTOP, PCRUN,    PCSTRACE, PCSFAULT,
    PCSENTRY, PCSEXIT,  PCSHOLD,  PCKILL,  PCUNKILL, PCSSIG,   PCCSIG,
    PCCFAULT, PCSREG,   PCSFPREG, PCNICE,  PCSET,    PCUNSET,  PCWATCH,
};

TEST(CtlTable, EveryPiocCodeAppearsExactlyOnce) {
  std::map<uint32_t, int> seen;
  for (const CtlOp& op : CtlOpTable()) {
    if (op.pioc != 0) {
      ++seen[op.pioc];
    }
  }
  for (uint32_t code : kAllPioc) {
    EXPECT_EQ(seen[code], 1) << "PIOC code " << (code & 0xFF);
  }
  EXPECT_EQ(seen.size(), std::size(kAllPioc)) << "table has PIOC codes the inventory lacks";
}

TEST(CtlTable, EveryPcCodeAppearsExactlyOnce) {
  std::map<int32_t, int> seen;
  for (const CtlOp& op : CtlOpTable()) {
    if (op.pc >= 0) {
      ++seen[op.pc];
    }
  }
  for (int32_t code : kAllPc) {
    EXPECT_EQ(seen[code], 1) << "PC code " << code;
  }
  EXPECT_EQ(seen.size(), std::size(kAllPc)) << "table has PC codes the inventory lacks";
}

// PrCtlOperandSize is now derived from the table; pin the wire protocol so a
// table edit cannot silently change message framing.
TEST(CtlTable, OperandSizesMatchWireProtocol) {
  EXPECT_EQ(PrCtlOperandSize(PCNULL), 0);
  EXPECT_EQ(PrCtlOperandSize(PCSTOP), 0);
  EXPECT_EQ(PrCtlOperandSize(PCDSTOP), 0);
  EXPECT_EQ(PrCtlOperandSize(PCWSTOP), 0);
  EXPECT_EQ(PrCtlOperandSize(PCCSIG), 0);
  EXPECT_EQ(PrCtlOperandSize(PCCFAULT), 0);
  EXPECT_EQ(PrCtlOperandSize(PCRUN), 8);
  EXPECT_EQ(PrCtlOperandSize(PCKILL), 4);
  EXPECT_EQ(PrCtlOperandSize(PCUNKILL), 4);
  EXPECT_EQ(PrCtlOperandSize(PCNICE), 4);
  EXPECT_EQ(PrCtlOperandSize(PCSET), 4);
  EXPECT_EQ(PrCtlOperandSize(PCUNSET), 4);
  EXPECT_EQ(PrCtlOperandSize(PCSTRACE), static_cast<int>(sizeof(SigSet)));
  EXPECT_EQ(PrCtlOperandSize(PCSHOLD), static_cast<int>(sizeof(SigSet)));
  EXPECT_EQ(PrCtlOperandSize(PCSFAULT), static_cast<int>(sizeof(FltSet)));
  EXPECT_EQ(PrCtlOperandSize(PCSENTRY), static_cast<int>(sizeof(SysSet)));
  EXPECT_EQ(PrCtlOperandSize(PCSEXIT), static_cast<int>(sizeof(SysSet)));
  EXPECT_EQ(PrCtlOperandSize(PCSSIG), static_cast<int>(sizeof(SigInfo)));
  EXPECT_EQ(PrCtlOperandSize(PCSREG), static_cast<int>(sizeof(Regs)));
  EXPECT_EQ(PrCtlOperandSize(PCSFPREG), static_cast<int>(sizeof(FpRegs)));
  EXPECT_EQ(PrCtlOperandSize(PCWATCH), static_cast<int>(sizeof(PrWatch)));
  EXPECT_EQ(PrCtlOperandSize(9999), -1);
  EXPECT_EQ(PrCtlOperandSize(-5), -1);
}

TEST(CtlTable, RowsAreInternallyConsistent) {
  for (const CtlOp& op : CtlOpTable()) {
    if (op.pc >= 0) {
      // Operations with a ctl encoding carry a valid wire size.
      EXPECT_GE(op.operand_size, 0) << op.name;
      EXPECT_EQ(op.alias_pc, -1) << op.name << ": dual rows cannot be aliases";
    } else {
      EXPECT_NE(op.pioc, 0u) << op.name << ": row with neither encoding";
    }
    if (op.alias_pc >= 0) {
      // Alias rows delegate; the alias target must exist and take a flag word.
      EXPECT_EQ(op.handler, nullptr) << op.name;
      const CtlOp* target = FindCtlOpByPc(op.alias_pc);
      ASSERT_NE(target, nullptr) << op.name;
      EXPECT_EQ(target->arg, CtlArgKind::kFlags) << op.name;
    } else {
      EXPECT_NE(op.handler, nullptr) << op.name;
    }
    if (op.read_only) {
      // Query rows are never audited and never block.
      EXPECT_FALSE(op.blocking) << op.name;
    }
    // Lookups round-trip.
    if (op.pioc != 0) {
      EXPECT_EQ(FindCtlOpByPioc(op.pioc), &op) << op.name;
    }
    if (op.pc >= 0) {
      EXPECT_EQ(FindCtlOpByPc(op.pc), &op) << op.name;
    }
  }
}

// The flat operand sizes live in the rows; pin the shape of the ones with
// optional, count-sized, or in-direction operands.
TEST(CtlTable, FlatOperandsFollowTheArgKind) {
  auto bytes = [](uint32_t pioc) { return CtlFlatOperand(*FindCtlOpByPioc(pioc)); };
  EXPECT_EQ(bytes(PIOCSTATUS).out, sizeof(PrStatus));
  EXPECT_EQ(bytes(PIOCSTATUS).in, 0u);
  EXPECT_EQ(bytes(PIOCSTOP).out, sizeof(PrStatus)) << "status_out rows return a PrStatus";
  EXPECT_EQ(bytes(PIOCSTRACE).in, sizeof(SigSet));
  EXPECT_EQ(bytes(PIOCRUN).in, sizeof(PrRun)) << "the flat PrRun, not the 8-byte message";
  EXPECT_EQ(bytes(PIOCOPENM).in, 4u) << "PIOCOPENM reads a u32 vaddr";
  EXPECT_EQ(bytes(PIOCOPENM).out, 0u);
  EXPECT_EQ(bytes(PIOCMAP).out, sizeof(PrMapEntry)) << "count-sized: one element";
  EXPECT_EQ(bytes(PIOCCFAULT).in + bytes(PIOCCFAULT).out, 0u);
  EXPECT_FALSE(CtlFlatSizesOk(FindCtlOpByPioc(PIOCPSALL), 0, 0)) << "host-memory operand";
  EXPECT_TRUE(CtlFlatSizesOk(FindCtlOpByPioc(PIOCWSTOP), 0, 0)) << "null status pointer";
  EXPECT_FALSE(CtlFlatSizesOk(FindCtlOpByPioc(PIOCSTATUS), 0, 0));
  EXPECT_TRUE(CtlFlatSizesOk(nullptr, 0, 0)) << "unknown codes travel bare";
  for (const CtlOp& op : CtlOpTable()) {
    if (op.pioc == 0) {
      EXPECT_LT(op.flat_size, 0) << op.name << ": no flat encoding, no flat size";
    }
    if (op.arg == CtlArgKind::kOut || op.arg == CtlArgKind::kOutArray ||
        op.arg == CtlArgKind::kVaddr) {
      EXPECT_LT(op.pc, 0) << op.name << ": flat-only operand kinds";
    }
  }
}

// Every fixed-size flat query, run into a buffer of exactly its row's size
// followed by canary bytes, leaves the canary untouched: the row states what
// the handler writes, which is what lets procd size remote operands by it.
TEST(CtlTable, FlatQueriesWriteNoMoreThanTheirRowSize) {
  Sim sim;
  Pid pid = StartProgram(sim, kCounter);
  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), pid);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->Stop().ok());
  constexpr size_t kCanary = 64;
  constexpr uint8_t kFill = 0xA5;
  int checked = 0;
  for (const CtlOp& op : CtlOpTable()) {
    if (op.pioc == 0 || op.arg != CtlArgKind::kOut || op.flat_size < 0) {
      continue;
    }
    size_t size = static_cast<size_t>(op.flat_size);
    std::vector<uint8_t> buf(size + kCanary, kFill);
    auto r = sim.kernel().Ioctl(sim.controller(), h->fd(), op.pioc, buf.data());
    EXPECT_TRUE(r.ok()) << op.name;
    size_t clobbered = 0;
    for (size_t i = size; i < buf.size(); ++i) {
      clobbered += buf[i] != kFill;
    }
    EXPECT_EQ(clobbered, 0u) << op.name << " wrote past its " << size << "-byte row size";
    ++checked;
  }
  EXPECT_GT(checked, 20);
}

// --- Differential harness ----------------------------------------------------

// One deterministic simulation per front-end; the same control script is
// driven through PIOC* ioctls in one and ctl messages in the other. The
// PrStatus snapshots and audit rings must match byte for byte (deterministic
// virtual time makes ticks comparable).
class Differential {
 public:
  Differential() {
    pid_flat_ = StartProgram(flat_, kCounter);
    pid_hier_ = StartProgram(hier_, kCounter);
    EXPECT_EQ(pid_flat_, pid_hier_);
    auto h = ProcHandle::Grab(flat_.kernel(), flat_.controller(), pid_flat_);
    EXPECT_TRUE(h.ok());
    handle_ = std::make_unique<ProcHandle>(std::move(*h));
    char path[64];
    std::snprintf(path, sizeof(path), "/proc2/%05d/ctl", pid_hier_);
    auto fd = hier_.kernel().Open(hier_.controller(), path, O_WRONLY);
    EXPECT_TRUE(fd.ok());
    ctl_fd_ = fd.ok() ? *fd : -1;
  }

  ProcHandle& flat() { return *handle_; }

  Result<int64_t> Ctl(const void* bytes, size_t n) {
    return hier_.kernel().Write(hier_.controller(), ctl_fd_, bytes, n);
  }
  template <typename T>
  Result<int64_t> Ctl1(int32_t code, const T& operand) {
    std::vector<uint8_t> buf(4 + sizeof(T));
    std::memcpy(buf.data(), &code, 4);
    std::memcpy(buf.data() + 4, &operand, sizeof(T));
    return Ctl(buf.data(), buf.size());
  }
  Result<int64_t> Ctl0(int32_t code) { return Ctl(&code, 4); }
  Result<int64_t> CtlRun(uint32_t flags, uint32_t vaddr = 0) {
    uint8_t buf[12];
    int32_t code = PCRUN;
    std::memcpy(buf, &code, 4);
    std::memcpy(buf + 4, &flags, 4);
    std::memcpy(buf + 8, &vaddr, 4);
    return Ctl(buf, sizeof(buf));
  }

  // Both processes' state, serialized for comparison.
  PrStatus FlatStatus() {
    auto st = flat().Status();
    EXPECT_TRUE(st.ok());
    return st.ok() ? *st : PrStatus{};
  }
  PrStatus HierStatus() {
    char path[64];
    std::snprintf(path, sizeof(path), "/proc2/%05d/status", pid_hier_);
    auto fd = hier_.kernel().Open(hier_.controller(), path, O_RDONLY);
    EXPECT_TRUE(fd.ok());
    PrStatus st;
    auto n = hier_.kernel().Read(hier_.controller(), *fd, &st, sizeof(st));
    EXPECT_TRUE(n.ok());
    EXPECT_EQ(*n, static_cast<int64_t>(sizeof(st)));
    (void)hier_.kernel().Close(hier_.controller(), *fd);
    return st;
  }
  PrCtlAudit FlatAudit() {
    auto a = flat().Audit();
    EXPECT_TRUE(a.ok());
    return a.ok() ? *a : PrCtlAudit{};
  }
  PrCtlAudit HierAudit() {
    char path[64];
    std::snprintf(path, sizeof(path), "/proc2/%05d/ctlaudit", pid_hier_);
    auto fd = hier_.kernel().Open(hier_.controller(), path, O_RDONLY);
    EXPECT_TRUE(fd.ok());
    PrCtlAudit a;
    auto n = hier_.kernel().Read(hier_.controller(), *fd, &a, sizeof(a));
    EXPECT_TRUE(n.ok());
    (void)hier_.kernel().Close(hier_.controller(), *fd);
    return a;
  }

  void ExpectIdentical() {
    PrStatus fs = FlatStatus();
    PrStatus hs = HierStatus();
    EXPECT_EQ(std::memcmp(&fs, &hs, sizeof(PrStatus)), 0) << "PrStatus diverged";
    PrCtlAudit fa = FlatAudit();
    PrCtlAudit ha = HierAudit();
    EXPECT_EQ(fa.pr_total, ha.pr_total);
    EXPECT_EQ(std::memcmp(&fa, &ha, sizeof(PrCtlAudit)), 0) << "audit diverged:\n"
        << FormatCtlAudit(fa) << "--- vs ---\n" << FormatCtlAudit(ha);
  }

 private:
  Sim flat_;
  Sim hier_;
  Pid pid_flat_ = -1;
  Pid pid_hier_ = -1;
  std::unique_ptr<ProcHandle> handle_;
  int ctl_fd_ = -1;
};

TEST(CtlDifferential, StopRunScriptMatches) {
  Differential d;
  // stop; run; stop again — the canonical debugger heartbeat.
  EXPECT_TRUE(d.flat().Stop().ok());
  EXPECT_TRUE(d.Ctl0(PCSTOP).ok());
  d.ExpectIdentical();

  EXPECT_TRUE(d.flat().Run().ok());
  EXPECT_TRUE(d.CtlRun(0).ok());

  EXPECT_TRUE(d.flat().Stop().ok());
  EXPECT_TRUE(d.Ctl0(PCSTOP).ok());
  d.ExpectIdentical();
}

TEST(CtlDifferential, TraceHoldKillScriptMatches) {
  Differential d;
  EXPECT_TRUE(d.flat().Stop().ok());
  EXPECT_TRUE(d.Ctl0(PCSTOP).ok());

  SigSet trace;
  trace.Add(SIGINT);
  trace.Add(SIGUSR1);
  EXPECT_TRUE(d.flat().SetSigTrace(trace).ok());
  EXPECT_TRUE(d.Ctl1(PCSTRACE, trace).ok());

  SigSet hold;
  hold.Add(SIGHUP);
  hold.Add(SIGKILL);  // must be stripped identically by both paths
  EXPECT_TRUE(d.flat().SetHold(hold).ok());
  EXPECT_TRUE(d.Ctl1(PCSHOLD, hold).ok());

  EXPECT_TRUE(d.flat().Kill(SIGUSR1).ok());
  int32_t sig = SIGUSR1;
  EXPECT_TRUE(d.Ctl1(PCKILL, sig).ok());

  d.ExpectIdentical();
}

TEST(CtlDifferential, ModeAliasesAuditAsCanonicalOps) {
  Differential d;
  EXPECT_TRUE(d.flat().Stop().ok());
  EXPECT_TRUE(d.Ctl0(PCSTOP).ok());

  // PIOCSRLC/PIOCSFORK are pure aliases of PCSET; both paths must record
  // the same canonical name in the audit ring.
  EXPECT_TRUE(d.flat().SetRunOnLastClose(true).ok());
  EXPECT_TRUE(d.flat().SetInheritOnFork(true).ok());
  uint32_t rlc = PR_RLC, fork = PR_FORK;
  EXPECT_TRUE(d.Ctl1(PCSET, rlc).ok());
  EXPECT_TRUE(d.Ctl1(PCSET, fork).ok());
  d.ExpectIdentical();

  PrCtlAudit a = d.FlatAudit();
  ASSERT_GE(a.pr_n, 2u);
  EXPECT_STREQ(a.pr_rec[a.pr_n - 1].pr_op, "PCSET");
  EXPECT_STREQ(a.pr_rec[a.pr_n - 2].pr_op, "PCSET");
}

TEST(CtlDifferential, PrivilegedNiceMatches) {
  Differential d;
  EXPECT_TRUE(d.flat().Stop().ok());
  EXPECT_TRUE(d.Ctl0(PCSTOP).ok());

  // A super-user controller may raise priority; both paths apply the same
  // predicate and clamp, and both rings record the PCNICE.
  int32_t delta = -4;
  EXPECT_TRUE(d.flat().Nice(-4).ok());
  EXPECT_TRUE(d.Ctl1(PCNICE, delta).ok());
  d.ExpectIdentical();
}

// --- Reconciled semantics ----------------------------------------------------

TEST(CtlReconciled, PcrunRejectsSetFlagsItCannotCarry) {
  Sim sim;
  Pid pid = StartProgram(sim, kCounter);
  char path[64];
  std::snprintf(path, sizeof(path), "/proc2/%05d/ctl", pid);
  auto fd = sim.kernel().Open(sim.controller(), path, O_WRONLY);
  ASSERT_TRUE(fd.ok());

  int32_t stop = PCSTOP;
  ASSERT_TRUE(sim.kernel().Write(sim.controller(), *fd, &stop, 4).ok());

  // The 8-byte PCRUN message has no room for the sets PRSTRACE/PRSHOLD/
  // PRSFAULT promise; honoring them would install empty sets. The unified
  // core rejects the combination instead of silently masking it.
  uint8_t buf[12];
  int32_t code = PCRUN;
  uint32_t flags = PRSTRACE;
  uint32_t vaddr = 0;
  std::memcpy(buf, &code, 4);
  std::memcpy(buf + 4, &flags, 4);
  std::memcpy(buf + 8, &vaddr, 4);
  auto r = sim.kernel().Write(sim.controller(), *fd, buf, sizeof(buf));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEINVAL);

  // The flat encoding carries the sets in prrun_t, so there PRSTRACE works.
  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), pid);
  ASSERT_TRUE(h.ok());
  PrRun run;
  run.pr_flags = PRSTRACE;
  run.pr_trace.Add(SIGINT);
  EXPECT_TRUE(h->Run(run).ok());
  auto got = h->GetSigTrace();
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->Has(SIGINT));
}

TEST(CtlReconciled, NicePrivilegeIsUniform) {
  // An unprivileged caller may cede priority but not raise it — now
  // enforced by one predicate on the table row, through either front-end.
  Sim sim;
  Pid pid = StartProgram(sim, kCounter);
  Proc* target = sim.kernel().FindProc(pid);
  ASSERT_NE(target, nullptr);
  Creds user;
  user.ruid = user.euid = user.suid = target->creds.ruid = 100;
  user.rgid = user.egid = user.sgid = target->creds.rgid = 100;
  Proc* joe = sim.NewController(user, "joe");

  auto h = ProcHandle::Grab(sim.kernel(), joe, pid);
  ASSERT_TRUE(h.ok());
  auto up = h->Nice(3);
  EXPECT_TRUE(up.ok());
  auto down = h->Nice(-3);
  ASSERT_FALSE(down.ok());
  EXPECT_EQ(down.error(), Errno::kEPERM);

  char path[64];
  std::snprintf(path, sizeof(path), "/proc2/%05d/ctl", pid);
  auto fd = sim.kernel().Open(joe, path, O_WRONLY);
  ASSERT_TRUE(fd.ok());
  uint8_t buf[8];
  int32_t code = PCNICE;
  int32_t delta = -3;
  std::memcpy(buf, &code, 4);
  std::memcpy(buf + 4, &delta, 4);
  auto r = sim.kernel().Write(joe, *fd, buf, sizeof(buf));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEPERM);
  EXPECT_EQ(target->nice, 23);  // only the +3 took effect
}

TEST(CtlReconciled, UnknownIoctlErrnoOrderPreserved) {
  Sim sim;
  Pid pid = StartProgram(sim, kCounter);

  // Read-only descriptor: unknown control codes fail EBADF before EINVAL.
  auto ro = ProcHandle::Grab(sim.kernel(), sim.controller(), pid, O_RDONLY);
  ASSERT_TRUE(ro.ok());
  auto r1 = sim.kernel().Ioctl(sim.controller(), ro->fd(), 0x9999, nullptr);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.error(), Errno::kEBADF);

  // Writable descriptor: EINVAL.
  auto rw = ProcHandle::Grab(sim.kernel(), sim.controller(), pid);
  ASSERT_TRUE(rw.ok());
  auto r2 = sim.kernel().Ioctl(sim.controller(), rw->fd(), 0x9999, nullptr);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error(), Errno::kEINVAL);
}

// --- Audit ring --------------------------------------------------------------

TEST(CtlAudit, RecordsControlOpsNotQueries) {
  Sim sim;
  Pid pid = StartProgram(sim, kCounter);
  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), pid);
  ASSERT_TRUE(h.ok());

  ASSERT_TRUE(h->Stop().ok());
  (void)h->Status();   // queries must not pollute the ring
  (void)h->Psinfo();
  (void)h->Audit();
  ASSERT_TRUE(h->Kill(SIGUSR1).ok());

  auto a = h->Audit();
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->pr_total, 2u);
  ASSERT_EQ(a->pr_n, 2u);
  EXPECT_STREQ(a->pr_rec[0].pr_op, "PCSTOP");
  EXPECT_STREQ(a->pr_rec[1].pr_op, "PCKILL");
  EXPECT_EQ(a->pr_rec[0].pr_caller, sim.controller()->pid);
  EXPECT_EQ(a->pr_rec[0].pr_lwpid, 0);
  EXPECT_EQ(a->pr_rec[0].pr_errno, 0);
  EXPECT_GE(a->pr_rec[1].pr_tick, a->pr_rec[0].pr_tick);
}

TEST(CtlAudit, RingWrapsAndKeepsNewest) {
  Sim sim;
  Pid pid = StartProgram(sim, kCounter);
  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), pid);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->Stop().ok());

  SigSet s;
  s.Add(SIGINT);
  const int kOps = kCtlAuditCap + 10;
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(h->SetSigTrace(s).ok());
  }
  auto a = h->Audit();
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->pr_total, static_cast<uint64_t>(kOps) + 1);  // + the PCSTOP
  EXPECT_EQ(a->pr_n, static_cast<uint32_t>(kCtlAuditCap));
  // The PCSTOP and the first 10 PCSTRACEs were overwritten; all retained
  // records are PCSTRACE, oldest first.
  for (uint32_t i = 0; i < a->pr_n; ++i) {
    EXPECT_STREQ(a->pr_rec[i].pr_op, "PCSTRACE");
  }
  // Ticks never decrease across the retained window.
  for (uint32_t i = 1; i < a->pr_n; ++i) {
    EXPECT_GE(a->pr_rec[i].pr_tick, a->pr_rec[i - 1].pr_tick);
  }
}

TEST(CtlAudit, FailedOpsAreRecordedWithErrno) {
  Sim sim;
  Pid pid = StartProgram(sim, kCounter);
  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), pid);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->Stop().ok());

  auto bad = h->Kill(0);  // invalid signal
  ASSERT_FALSE(bad.ok());

  auto a = h->Audit();
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->pr_n, 2u);
  EXPECT_STREQ(a->pr_rec[1].pr_op, "PCKILL");
  EXPECT_EQ(a->pr_rec[1].pr_errno, static_cast<int32_t>(bad.error()));
}

TEST(CtlAudit, SurvivesZombieAndIsReadableBothWays) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kExiter).ok());
  // Child of the (native) controller: stays a zombie until waited for.
  auto spid = sim.kernel().Spawn("/bin/prog", {"prog"}, Creds::Root(), sim.controller());
  ASSERT_TRUE(spid.ok());
  Pid pid = *spid;
  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), pid);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->Stop().ok());
  ASSERT_TRUE(h->SetRunOnLastClose(true).ok());
  ASSERT_TRUE(h->Run().ok());
  ASSERT_TRUE(sim.kernel().RunToExit(pid).ok());
  Proc* p = sim.kernel().FindProc(pid);
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->state, Proc::State::kZombie);

  // PIOCAUDIT still answers on the zombie (like PIOCPSINFO)...
  auto a = h->Audit();
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->pr_total, 3u);  // PCSTOP, PCSET, PCRUN

  // ...and the ctlaudit file serves identical bytes.
  char path[64];
  std::snprintf(path, sizeof(path), "/proc2/%05d/ctlaudit", pid);
  auto fd = sim.kernel().Open(sim.controller(), path, O_RDONLY);
  ASSERT_TRUE(fd.ok());
  PrCtlAudit file;
  auto n = sim.kernel().Read(sim.controller(), *fd, &file, sizeof(file));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, static_cast<int64_t>(sizeof(file)));
  EXPECT_EQ(std::memcmp(&*a, &file, sizeof(PrCtlAudit)), 0);
}

TEST(CtlAudit, TrussDecodesTheRing) {
  Sim sim;
  Pid pid = StartProgram(sim, kCounter);
  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), pid);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->Stop().ok());
  ASSERT_TRUE(h->Kill(SIGUSR1).ok());

  auto a = h->Audit();
  ASSERT_TRUE(a.ok());
  std::string report = FormatCtlAudit(*a);
  EXPECT_NE(report.find("PCSTOP"), std::string::npos);
  EXPECT_NE(report.find("PCKILL"), std::string::npos);
  EXPECT_NE(report.find("2 total"), std::string::npos);
}

TEST(CtlAudit, LwpScopedOpsRecordTheLwp) {
  Sim sim;
  Pid pid = StartProgram(sim, kCounter);
  Proc* p = sim.kernel().FindProc(pid);
  ASSERT_NE(p, nullptr);
  int lwpid = p->MainLwp()->lwpid;

  char path[64];
  std::snprintf(path, sizeof(path), "/proc2/%05d/lwp/%d/lwpctl", pid, lwpid);
  auto fd = sim.kernel().Open(sim.controller(), path, O_WRONLY);
  ASSERT_TRUE(fd.ok());
  int32_t stop = PCSTOP;
  ASSERT_TRUE(sim.kernel().Write(sim.controller(), *fd, &stop, 4).ok());

  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), pid, O_RDONLY);
  ASSERT_TRUE(h.ok());
  auto a = h->Audit();
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->pr_n, 1u);
  EXPECT_STREQ(a->pr_rec[0].pr_op, "PCSTOP");
  EXPECT_EQ(a->pr_rec[0].pr_lwpid, lwpid);
}

}  // namespace
}  // namespace svr4
